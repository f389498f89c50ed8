"""flatfold benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {count,ingest,verify} --seed N \
        --seconds S --trace {0,1}

Generates the workload's seeded pattern texts, measures set-up in several
fresh processes, then runs the deck in a fresh worker process and checks
every op's output. Prints the drawn jobs and every metric with its unit,
and as the last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
reports the per-layer metrics of spans around flatfold's public functions,
with the tracing overhead. "correct" is false when any op returned an
output that differs from the reference; an op that raised counts only as
failed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Fresh processes that only set up (import plus warm-up op); with the
# worker's own set-up, setup_s is the median of SETUP_PROBES + 1.
SETUP_PROBES = 6
# A run must end within 180 s of its start.
DEADLINE_S = 170.0


def _worker(request: dict, deadline: float) -> tuple[float, dict]:
    """Start a fresh worker; returns (its set-up seconds, its result)."""
    payload = json.dumps(request)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(payload, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["ready"] - spawned, result


def _rank(ops: list, q: float):
    """Nearest-rank percentile of op latency; failed ops sort beyond
    every successful op. Returns (seconds, op was failed)."""
    order = sorted(ops, key=lambda o: (o[1] != "ok", o[0]))
    op = order[max(math.ceil(q * len(order)) - 1, 0)]
    return op[0], op[1] != "ok"


def _ops_per_s(ops: list, column: int = 0) -> float:
    """Correct ops per second of op time (adjusted, or measured with column 3)."""
    return sum(o[1] == "ok" for o in ops) / sum(o[column] for o in ops)


def _end_to_end(ops: list, setups: list, rss_kb: int) -> tuple[dict, list]:
    n = len(ops)
    good = sum(o[1] == "ok" for o in ops)
    # the tail is the highest percentile that leaves at least ten ops beyond it
    tail_q = (n - 10) / n if n > 10 else 1.0
    values, notes = {}, {
        "ops_per_s": f"{good} correct of {n} ops; measured {_ops_per_s(ops, 3):.4f} 1/s",
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
    }
    for name, q in (("op_p50_ms", 0.5), ("op_tail_ms", tail_q)):
        seconds, on_failed = _rank(ops, q)
        values[name] = seconds * 1e3
        notes[name] = f"p{100 * q:.1f} of {n} ops" + (" (a failed op)" if on_failed else "")
    metrics = {
        "ops_per_s": {"value": _ops_per_s(ops), "unit": "1/s"},
        "op_p50_ms": {"value": values["op_p50_ms"], "unit": "ms"},
        "op_tail_ms": {"value": values["op_tail_ms"], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }
    lines = [f"{k:<16} {v['value']:>12.4f} {v['unit']:<5} {notes.get(k, '')}"
             for k, v in metrics.items()]
    lines.append(f"{'failed_frac':<16} {(n - good) / n:>12.4f} {'':<5} "
                 f"{n - good} of {n} ops failed")
    return metrics, lines


def _overhead(ops: list) -> dict:
    rate = {traced: _ops_per_s([o for o in ops if o[2] == traced])
            for traced in (False, True)}
    return {
        "trace.untraced_ops_per_s": {"value": rate[False], "unit": "1/s"},
        "trace.traced_ops_per_s": {"value": rate[True], "unit": "1/s"},
        "trace.overhead_pct": {"value": 100 * (rate[False] / rate[True] - 1), "unit": "%"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "flatfold" / "__init__.py").is_file():
        print(f"flatfold sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rng = random.Random(f"{args.workload}:{args.seed}")
    deck = workloads.draw_deck(args.workload, rng)
    workloads.add_texts(deck)
    for job in deck:
        job["ref"] = workloads.reference(job)
    warmup = workloads.smallest(deck)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"why: {workloads.WHY[args.workload]}")
    decks = workloads.deck_repeats(args.workload, args.seconds)
    print(f"deck of {len(deck)} jobs, run {decks} times: "
          + "; ".join(j["label"] for j in deck))
    print(f"warm-up: {warmup['label']}")

    def set_up(request):
        before = hostspeed.sample()
        setup, res = _worker(request, deadline)
        setups.append(setup * hostspeed.factor(before, res["ready_speed"]))
        return res

    # half the set-up probes before the worker and half after it, so that
    # the median does not rest on one stretch of host load
    setups: list[float] = []
    probes = 0 if args.trace else SETUP_PROBES
    probe = {"warmup": warmup, "setup_only": True}
    for _ in range(probes // 2):
        set_up(probe)
    res = set_up({"warmup": warmup, "setup_only": False, "deck": deck,
                  "decks": decks, "trace": bool(args.trace)})
    for _ in range(probes - probes // 2):
        set_up(probe)

    ops = res["ops"]
    failed = sum(o[1] != "ok" for o in ops)
    correct = not any(o[1] == "wrong" for o in ops)
    for detail in res["details"]:
        print(f"failed op: {detail}")
    if args.trace:
        metrics = {**res["layers"], **_overhead(ops)}
        for label, spans in sorted(res["by_label"].items()):
            n = spans.pop("ops")
            top = sorted(spans.items(), key=lambda kv: -kv[1])[:4]
            print(f"per op  {label:<28} " + "  ".join(
                f"{name} {1e3 * s / n:.1f} ms" for name, s in top))
        for k, v in metrics.items():
            print(f"{k:<34} {v['value']:>14.4f} {v['unit']}")
    else:
        metrics, lines = _end_to_end(ops, setups, res["rss_kb"])
        print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
