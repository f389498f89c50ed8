"""The public API and the benchmark's tracing targets stay resolvable."""

import ast
import importlib
import importlib.util
from pathlib import Path

import flatfold
import flatfold.patternio  # noqa: F401 - the package does not import it

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name: str):
    """Load one of the benchmark's modules from its file, unchanged."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve():
    for name in flatfold.__all__:
        assert hasattr(flatfold, name), name


def test_readme_library_block_gives_the_values_its_comments_state():
    # the README's Python example runs as written, and each bare expression
    # in it equals what its comment says: "# 6", or "# 82 == ..." as a
    # chained comparison
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library at a glance", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    ns: dict = {}
    checked = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            expr = ast.get_source_segment(block, node.value)
            assert eval(f"({expr}) == {comment}", ns), (expr, comment)
            checked.append(comment)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
    assert checked == ["6", "6", "82 == count_locally_valid(cp)", "True"]


def test_perfbench_span_targets_exist():
    # perfbench wraps these module attributes by name; a rename or removal
    # in flatfold would silently drop its span
    spans = _perfbench_module("spans")
    assert spans.TARGETS
    for module, attr, *_ in spans.TARGETS:
        mod = importlib.import_module(f"flatfold.{module}")
        assert hasattr(mod, attr), f"flatfold.{module}.{attr}"


def test_every_perfbench_span_records_a_call():
    # a span wraps a module attribute; a library call that bypasses that
    # attribute (a private alias, or a function inlined away) leaves the
    # span's metrics at 0 in every run, so one op of each kind must reach
    # every target through the name perfbench wraps
    spans, workloads = _perfbench_module("spans"), _perfbench_module("workloads")
    jobs = [workloads._job("count", "crane"),
            workloads._job("ingest", "miura", 3, 3),
            workloads._job("verify", "joined-twists", count=1),
            workloads._job("crane-lift", "crane")]
    workloads.add_texts(jobs)
    tracer = spans.Tracer(flatfold)
    for job in jobs:
        with tracer.op():
            out = workloads.run_op(job, flatfold)
        tracer.fold(job["label"], 1.0)
        assert workloads.check(job, out, workloads.reference(job)) is None, job["label"]
    for module, attr, name, _ in spans.TARGETS:
        assert tracer.calls[name] >= 1, f"{name} (flatfold.{module}.{attr}) recorded no call"
