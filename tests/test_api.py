"""The public API and the benchmark's tracing targets stay resolvable."""

import importlib
import importlib.util
from pathlib import Path

import flatfold


def test_public_names_resolve():
    for name in flatfold.__all__:
        assert hasattr(flatfold, name), name


def test_perfbench_span_targets_exist():
    # perfbench wraps these module attributes by name; a rename or removal
    # in flatfold would silently drop its span
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, *_ in spans.TARGETS:
        mod = importlib.import_module(f"flatfold.{module}")
        assert hasattr(mod, attr), f"flatfold.{module}.{attr}"
