"""Write, or check, the BENCH_<name>.json trajectory files at the repo root.

    python3 bench/trajectory.py NAME     # measures and writes BENCH_NAME.json
    python3 bench/trajectory.py --check  # checks every BENCH_*.json

A file records the commit the checkout is at, the files under src/,
perfbench/ and bench/ that differ from it, the Python version, and the host
speed (perfbench/hostspeed.sample) before and after the measurements. It
holds:

* "runs": the last JSON line of ``perfbench/run.py --seed 1 --seconds 20
  --trace T`` for each workload of BENCHMARK.json and T in {0, 1};
* "counters": best-of-3 ``count_colorings`` and ``count_locally_valid``
  (crease limit raised) times with each plan's ``search.frontier_width``,
  on the crane, joined twists 3, Miura 10x10 and snake 10x10;
* "verify": best-of-5 ``verify_bijection`` times on the crane, joined
  twists 2 and 3, and Miura 4x4.

Counter and verify times are measured, not adjusted for the host speed, so
compare them with the host-speed samples of the same file. ``--check``
exits 1 unless each file parses and each workload's trace-0 run is correct,
has no failed op, and reports every end-to-end metric of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostspeed  # noqa: E402
from flatfold import count_colorings, count_locally_valid, tile, verify_bijection  # noqa: E402
from flatfold import coloring, oracle  # noqa: E402
from flatfold.generators import crane, miura, snake, triangle_twist  # noqa: E402
from flatfold.search import frontier_width  # noqa: E402

RUN_SECONDS = 20

COUNTED = {
    "crane": crane,
    "joined twists 3": lambda: triangle_twist(3),
    "Miura 10x10": lambda: miura(10, 10),
    "snake 10x10": lambda: snake(10, 10),
}
VERIFIED = {
    "crane": crane,
    "joined twists 2": lambda: triangle_twist(2),
    "joined twists 3": lambda: triangle_twist(3),
    "Miura 4x4": lambda: miura(4, 4),
}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _best_ms(repeats: int, f, *args):
    """(the least time of ``repeats`` calls in ms, the last call's result)"""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = f(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3, result


def _runs(spec: dict) -> dict:
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
                capture_output=True, text=True, check=True).stdout
            runs.setdefault(workload, {})[f"trace{trace}"] = json.loads(out.splitlines()[-1])
    return runs


def _counters() -> list[dict]:
    rows = []
    for name, make in COUNTED.items():
        cp = make()
        g = tile(cp)
        colorings_ms, colorings = _best_ms(3, count_colorings, g)
        mv_ms, assignments = _best_ms(3, count_locally_valid, cp, len(cp.creases))
        rows.append({
            "pattern": name, "saw_vertices": len(g.vertices), "saw_edges": len(g.edges),
            "count": colorings, "counts_agree": colorings == assignments,
            "count_colorings_ms": colorings_ms,
            "coloring_width": frontier_width(coloring._plan(g, coloring._min_frontier_order(g))),
            "count_locally_valid_ms": mv_ms,
            "oracle_width": frontier_width(oracle._plan(cp, False)[1]),
        })
    return rows


def _verifies() -> list[dict]:
    rows = []
    for name, make in VERIFIED.items():
        cp = make()
        g = tile(cp)
        ms, report = _best_ms(5, verify_bijection, cp, g)
        rows.append({"pattern": name, "verify_ms": ms, "ok": report.ok})
    return rows


def measure(spec: dict) -> dict:
    changed = _git("status", "--porcelain", "--", "src", "perfbench", "bench")
    before = hostspeed.sample()
    data = {"commit": _git("rev-parse", "HEAD"), "changed": changed.splitlines(),
            "python": platform.python_version(), "runs": _runs(spec),
            "counters": _counters(), "verify": _verifies()}
    data["hostspeed_s"] = {"before": before, "after": hostspeed.sample()}
    return data


def problems(path: Path, spec: dict) -> list[str]:
    """What keeps the file at ``path`` from being a usable trajectory point."""
    found = []
    try:
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        for workload in (w["name"] for w in spec["workloads"]):
            run = runs[workload]["trace0"]
            if run["correct"] is not True or run["failed"] != 0:
                found.append(f"{path.name}: {workload} correct {run['correct']}, "
                             f"failed {run['failed']}")
            missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in run["metrics"]]
            if missing:
                found.append(f"{path.name}: {workload} lacks {', '.join(missing)}")
    except (OSError, ValueError, LookupError, TypeError) as exc:
        found.append(f"{path.name}: unreadable or incomplete ({exc!r})")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("name", nargs="?", help="write BENCH_<name>.json")
    group.add_argument("--check", action="store_true", help="check every BENCH_*.json")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.check:
        paths = sorted(ROOT.glob("BENCH_*.json"))
        found = [p for path in paths for p in problems(path, spec)]
        if not paths:
            found = ["no BENCH_*.json at the repo root"]
        print("\n".join(found) or f"ok: {', '.join(p.name for p in paths)}")
        return 1 if found else 0
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(measure(spec), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
