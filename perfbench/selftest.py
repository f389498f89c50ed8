"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Runs a tiny deck through a real worker with one corrupted reference and
checks that exactly that op is counted as failed and marks the run
incorrect; checks that tracing restores every wrapped function; and checks
that the metrics the benchmark prints are the ones BENCHMARK.json names,
with the same units. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import random
import sys
import time

import run
import spans
import workloads


def _fail(msg: str) -> int:
    print(f"self-test FAILED: {msg}")
    return 1


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    deck = [workloads._job("verify", "miura", 3, 3),
            workloads._job("verify", "joined-twists", count=1)]
    workloads.add_texts(deck)
    for job in deck:
        job["ref"] = workloads.reference(job)
    deck[0]["ref"] = {**deck[0]["ref"], "count_mv": 83}   # truth is 82
    _, res = run._worker({"warmup": deck[1], "setup_only": False, "deck": deck,
                          "decks": 1, "trace": True}, time.monotonic() + 60)
    statuses = [o[1] for o in res["ops"]]
    if statuses != ["wrong", "wrong", "ok", "ok"]:
        return _fail(f"corrupted reference gave op statuses {statuses}")

    import flatfold
    import flatfold.patternio  # noqa: F401
    before = {(m, a): getattr(getattr(flatfold, m), a) for m, a, _, _ in spans.TARGETS}
    tracer = spans.Tracer(flatfold)
    with tracer.op():
        workloads.run_op(deck[1], flatfold)
    tracer.fold(deck[1]["label"], 1.0)
    after = {(m, a): getattr(getattr(flatfold, m), a) for m, a, _, _ in spans.TARGETS}
    if before != after:
        return _fail("tracing left wrapped functions in place")

    with open(run.HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ops = [[0.1 * (1 + random.random()), "ok", False, 0.1] for _ in range(12)]
    e2e, _ = run._end_to_end(ops, [1.0], 1024)
    layers = {**tracer.metrics(), **run._overhead(ops + [[0.2, "ok", True, 0.2]])}
    for key, printed in (("end_to_end", e2e), ("per_layer", layers)):
        named = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in printed.items()}
        if named != got:
            return _fail(f"{key} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(named.items()) ^ set(got.items()))}")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.WHY):
        return _fail("workloads differ from BENCHMARK.json")
    print("self-test ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
