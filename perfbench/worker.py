"""One fresh benchmark process: import flatfold from the checkout, run one
untimed warm-up op, then run the deck the requested number of times in a
closed loop (one client, one op at a time). Each op's time is also given
adjusted for the host's speed, sampled while the op runs.

Reads its request as JSON on stdin and writes one JSON result line on
stdout. Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

import hostspeed
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_flatfold():
    sys.path.insert(0, str(SRC))
    import flatfold
    import flatfold.patternio  # noqa: F401 - the package does not import it
    if not Path(flatfold.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"flatfold imported from {flatfold.__file__}, not {SRC}")
    return flatfold


def _timed(job, ff, meter, tracer=None):
    """Run one op; returns (measured seconds, adjusted seconds, status,
    detail) with status one of "ok", "error" (the op raised) or "wrong"
    (the output is not the reference)."""
    gc.collect()    # start every op from a heap without the last op's garbage
    meter.start()
    try:
        if tracer is None:
            out = workloads.run_op(job, ff)
        else:
            with tracer.op():
                out = workloads.run_op(job, ff)
    except Exception as exc:  # noqa: BLE001 - a failing op is recorded, not fatal
        return (*meter.stop(), "error", f"{job['label']}: {type(exc).__name__}: {exc}")
    measured, adjusted = meter.stop()
    wrong = workloads.check(job, out, job["ref"])
    return measured, adjusted, ("wrong" if wrong else "ok"), wrong


def main() -> None:
    req = json.load(sys.stdin)
    ff = _import_flatfold()
    meter = hostspeed.Meter()
    *_, status, detail = _timed(req["warmup"], ff, meter)
    if status != "ok":
        raise SystemExit(f"warm-up op failed: {detail}")
    ready = time.monotonic()
    result = {"ready": ready, "ready_speed": hostspeed.sample()}
    if not req["setup_only"]:
        tracer = None
        if req["trace"]:
            import spans
            tracer = spans.Tracer(ff)
        ops = []        # [adjusted seconds, status, traced, measured seconds]
        details = []
        for _ in range(req["decks"]):
            for i, job in enumerate(req["deck"]):
                # a traced run pairs every op with an untraced one, in
                # alternating order, to measure the tracing overhead
                modes = [None] if tracer is None else \
                    ([None, tracer] if i % 2 == 0 else [tracer, None])
                for t in modes:
                    measured, adjusted, status, detail = _timed(job, ff, meter, t)
                    if t is not None:
                        t.fold(job["label"], adjusted / measured)
                    ops.append([adjusted, status, t is not None, measured])
                    if detail and len(details) < 20:
                        details.append(detail)
        result.update(ops=ops, details=details,
                      rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["by_label"] = tracer.by_label
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
