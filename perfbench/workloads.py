"""Workloads of the flatfold benchmark: seeded job decks, the timed op of
each job kind, and the check of every op's output against reference counts.

A deck is the fixed multiset of jobs one workload runs; the seed only draws
the modified-Miura masks and the order, so every seed does the same amount
of work and runs can be compared across seeds.
"""

from __future__ import annotations

import json
import random

# Locally-valid MV counts of the Miura family at m x n; any modified-Miura
# mask and the snake at the same size give the same count.
MIURA_COUNTS = {(3, 3): 82, (3, 4): 374, (4, 3): 374, (4, 4): 2604,
                (4, 5): 18150, (5, 4): 18150, (5, 5): 193662}
TWIST_COUNTS = {1: 26, 2: 170, 3: 1112}
CRANE_COUNT = 93312
MIURA_FAMILIES = ("miura", "modified-miura", "snake")
# Witnesses a crane-lift op sends through mv_to_coloring and back.
CRANE_LIFT_CAP = 20
# Host-speed adjusted seconds one deck takes at the parent commit. A run
# repeats its deck a fixed number of times, the number that fills the
# requested seconds at the parent commit, so that every commit does the
# same ops and percentiles compare like with like.
DECK_SECONDS = {"count": 9.2, "ingest": 7.5, "verify": 3.3}

WHY = {
    "count": "coloring and oracle counters do about 90% of each op; answers "
             "run from 18,150 to 193,662, so counting cost per answer shows",
    "ingest": "pattern build and tiling at 50-180 creases, nothing counted; "
              "a build or tiling change shows, a counting change must not",
    "verify": "enumeration, storage and MV/coloring translation instead of "
              "counting; crane-lift ops keep the known round-trip defect visible",
}


class LiftFailed(Exception):
    """A crane-lift op could not lift every witness to a coloring."""


def _job(kind, family, m=1, n=1, mask=(), count=1):
    if family in MIURA_FAMILIES:
        label = f"{family} {m}x{n}"
        if family == "modified-miura":
            label += " mask=" + "".join("1" if b else "0" for b in mask)
    elif family == "joined-twists":
        label = f"twists {count}"
    else:
        label = family
    if kind == "crane-lift":
        label = "crane-lift"
    return {"kind": kind, "label": label, "family": family, "m": m, "n": n,
            "mask": list(mask), "count": count}


def _miura_jobs(kind, sizes, rng, families=MIURA_FAMILIES):
    jobs = []
    for m, n in sizes:
        for fam in families:
            mask = [rng.random() < 0.5 for _ in range(n - 1)] \
                if fam == "modified-miura" else []
            jobs.append(_job(kind, fam, m, n, mask))
    return jobs


def draw_deck(workload: str, rng: random.Random) -> list[dict]:
    """The jobs of one deck, in seeded order, without pattern texts."""
    if workload == "count":
        # The oracle takes 7-9 s on a Miura or modified-Miura 5x5 (with the
        # mask), more than the rest of the deck together, so the 5x5 is the
        # snake (3.4 s) and masks are drawn at 4x5 and 5x4, three per size.
        jobs = [_job("count", "crane")]
        jobs += _miura_jobs("count", [(5, 5)], rng, ("snake",))
        jobs += _miura_jobs("count", [(4, 5), (5, 4)], rng,
                            ("miura",) + ("modified-miura",) * 3 + ("snake",))
    elif workload == "ingest":
        # A mask barely changes build time, and a third 10x10 op would keep
        # the deck from repeating three times in a run.
        jobs = _miura_jobs("ingest", [(6, 6), (8, 8)], rng)
        jobs += _miura_jobs("ingest", [(10, 10)], rng, ("miura", "snake"))
    elif workload == "verify":
        jobs = _miura_jobs("verify", [(3, 3), (3, 4), (4, 3), (4, 4)], rng)
        jobs += [_job("verify", "joined-twists", count=k) for k in (1, 2, 3)]
        jobs.append(_job("crane-lift", "crane"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def deck_repeats(workload: str, seconds: float) -> int:
    return max(1, round(seconds / DECK_SECONDS[workload]))


def add_texts(jobs: list[dict]) -> None:
    """Generate each job's pattern JSON text (this imports flatfold)."""
    from flatfold import patternio
    from flatfold.generators import PatternSpec
    for job in jobs:
        spec = PatternSpec(job["family"], job["m"], job["n"],
                           tuple(job["mask"]), job["count"])
        job["text"] = patternio.emit(spec.build())


def smallest(jobs: list[dict]) -> dict:
    """The job whose pattern has the fewest creases, for the warm-up op."""
    return min(jobs, key=lambda j: (len(json.loads(j["text"])["creases"]),
                                    j["label"]))


def reference(job: dict) -> dict:
    """Expected outputs of a job's op."""
    fam, m, n = job["family"], job["m"], job["n"]
    if job["kind"] == "ingest":
        return {"saw_vertices": m * n, "saw_edges": 2 * m * n - m - n}
    if job["kind"] == "crane-lift":
        return {"witnesses": CRANE_LIFT_CAP, "mismatches": 0}
    if fam == "crane":
        c = CRANE_COUNT
    elif fam == "joined-twists":
        c = TWIST_COUNTS[job["count"]]
    else:
        c = MIURA_COUNTS[(m, n)]
    if job["kind"] == "count":
        return {"colorings": c, "assignments": c}
    return {"count_mv": c, "count_colorings": c, "ok": True}


def run_op(job: dict, ff) -> dict:
    """One timed op. ``ff`` is the imported ``flatfold`` package; functions
    are looked up on their modules at call time so the tracer can wrap them.
    Raises when the op fails outright."""
    cp, _, _ = ff.patternio.load_text(job["text"])
    g = ff.tiling.tile(cp)
    kind = job["kind"]
    if kind == "count":
        return {"colorings": ff.coloring.count_colorings(g),
                "assignments": ff.oracle.count_locally_valid(cp)}
    if kind == "ingest":
        return {"text": ff.patternio.emit(cp, saw=g),
                "saw_vertices": len(g.vertices), "saw_edges": len(g.edges)}
    if kind == "verify":
        r = ff.coloring.verify_bijection(cp, g)
        return {"count_mv": r.count_mv, "count_colorings": r.count_colorings,
                "ok": r.ok}
    rep = ff.oracle.enumerate_locally_valid(cp, cap=CRANE_LIFT_CAP)
    errors: dict[str, int] = {}
    mismatches = 0
    for mv in rep.witnesses:
        try:
            s = ff.coloring.mv_to_coloring(g, mv)
        except ff.errors.FlatfoldError as exc:
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            continue
        mismatches += ff.coloring.coloring_to_mv(g, s) != mv
    if errors:
        raise LiftFailed(f"mv_to_coloring raised {errors} on "
                         f"{len(rep.witnesses)} witnesses")
    return {"witnesses": len(rep.witnesses), "mismatches": mismatches}


def check(job: dict, out: dict, ref: dict) -> str | None:
    """None when the op's output matches the reference, else what differs."""
    got = {k: out[k] for k in ref}
    if job["kind"] == "ingest":
        doc = json.loads(out["text"])
        got["saw_vertices_emitted"] = len(doc["saw"]["vertices"])
        got["saw_edges_emitted"] = len(doc["saw"]["edges"])
        ref = {**ref, "saw_vertices_emitted": ref["saw_vertices"],
               "saw_edges_emitted": ref["saw_edges"]}
    if got != ref:
        return f"{job['label']}: got {got}, expected {ref}"
    return None
