"""Command-line surface.

Subcommands: generate, check, count-mv, build-saw, count-colorings,
verify, render. All counts can be printed as JSON via --json. Exit codes:
0 success, 1 validation failure or a file that cannot be opened, 2 usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import generators
from .coloring import count_colorings, verify_bijection
from .errors import BadMaskLength, FlatfoldError
from .oracle import count_locally_valid
from .patternio import emit, load
from .svg import render_svg
from .tiling import tile


def _open(path: str, *args, **kwargs):
    """``open``, whose OSError (a missing file, a directory) becomes the
    FlatfoldError that ``main`` prints as one error line."""
    try:
        return open(path, *args, **kwargs)
    except OSError as exc:
        raise FlatfoldError(f"{path}: {exc.strerror or exc}") from exc


def _read_pattern(path: str):
    if path == "-":
        return load(sys.stdin.buffer)
    with _open(path, "rb") as fh:
        return load(fh)


def _write(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with _open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_count(args, name: str, value: int):
    if args.json:
        print(json.dumps({name: value}))
    else:
        print(value)


def _generate(args) -> int:
    fam, params = args.family, args.params
    family = generators.FAMILIES[fam]
    hi = len(family.params)
    lo = hi - (family.default_count is not None)
    if not lo <= len(params) <= hi:
        want = f"{lo}" if lo == hi else f"{lo} to {hi}"
        args.usage_error(f"{fam} takes {want} integer parameters, got {len(params)}")
    fields = dict(zip(family.params, params))
    if family.default_count is not None:
        fields.setdefault("count", family.default_count)
    if "n" in fields:
        mask = args.mask or "0" * max(fields["n"] - 1, 0)
        if set(mask) - {"0", "1"}:
            args.usage_error(f"--mask must be a string of 0s and 1s, got {mask!r}")
        fields["mask"] = tuple(x == "1" for x in mask)
    spec = generators.PatternSpec(fam, **fields)
    try:
        cp = spec.build()
    except (ValueError, BadMaskLength) as exc:  # the generators' own parameter checks
        args.usage_error(f"{fam}: {exc}")
    _write(emit(cp), args.output)
    return 0


def _check(args) -> int:
    from .cp import cone_at
    from .single_vertex import kawasaki_check, niceness

    cp, mv, _ = _read_pattern(args.file)
    rows = []
    ok = True
    for v in cp.interior_vertex_ids():
        cone = cone_at(cp, v)
        kaw = kawasaki_check(cone)
        ok = ok and kaw
        rows.append({
            "vertex": v,
            "degree": cone.degree,
            "kawasaki": kaw,
            "niceness": niceness(cone) if kaw else None,
        })
    if args.json:
        print(json.dumps({"valid": ok, "vertices": rows}))
    else:
        for r in rows:
            print(f"{r['vertex']}: degree {r['degree']} kawasaki "
                  f"{'ok' if r['kawasaki'] else 'FAIL'} niceness {r['niceness']}")
        print("pattern valid" if ok else "pattern INVALID")
    return 0 if ok else 1


def _count_mv(args) -> int:
    cp, _, _ = _read_pattern(args.file)
    n = count_locally_valid(cp, limit=args.limit)
    _emit_count(args, "count_mv", n)
    return 0


def _build_saw(args) -> int:
    cp, mv, _ = _read_pattern(args.file)
    _write(emit(cp, mv, tile(cp)), args.output)
    return 0


def _count_colorings(args) -> int:
    cp, _, saw = _read_pattern(args.file)
    if saw is None:
        saw = tile(cp)
    _emit_count(args, "count_colorings", count_colorings(saw))
    return 0


def _verify(args) -> int:
    cp, _, saw = _read_pattern(args.file)
    if saw is None:
        saw = tile(cp)
    report = verify_bijection(cp, saw)
    payload = dataclasses.asdict(report)
    counterexample = payload.pop("first_counterexample")
    payload["ok"] = report.ok
    if not report.ok:
        # (reason, detail): the detail is a coloring, an assignment or an
        # error message, all of which json.dumps writes as they are
        payload["first_counterexample"] = counterexample
    if args.json:
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {json.dumps(v) if k == 'first_counterexample' else v}")
    return 0 if report.ok else 1


def _render(args) -> int:
    cp, mv, saw = _read_pattern(args.file)
    _write(render_svg(cp, mv=mv, saw=saw), args.output)
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flatfold",
                                 description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a generated pattern as JSON")
    g.add_argument("family", choices=list(generators.FAMILIES))
    g.add_argument("params", nargs="*", type=int)
    g.add_argument("--mask", help="reflection mask of 0/1 for modified-miura")
    g.add_argument("-o", "--output", default="-")
    g.set_defaults(func=_generate, usage_error=g.error)

    c = sub.add_parser("check", help="Kawasaki/validation report")
    c.add_argument("file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_check)

    cm = sub.add_parser("count-mv", help="locally-valid MV count from crease values")
    cm.add_argument("file")
    cm.add_argument("--limit", type=int, default=None,
                    help="override the crease cap (default 40)")
    cm.add_argument("--json", action="store_true")
    cm.set_defaults(func=_count_mv)

    bs = sub.add_parser("build-saw", help="tile a SAW graph and embed it in the file")
    bs.add_argument("file")
    bs.add_argument("-o", "--output", default="-")
    bs.set_defaults(func=_build_saw)

    cc = sub.add_parser("count-colorings", help="pre-colored proper 3-colorings of the SAW graph")
    cc.add_argument("file")
    cc.add_argument("--json", action="store_true")
    cc.set_defaults(func=_count_colorings)

    v = sub.add_parser("verify", help="cross-check SAW colorings against the oracle")
    v.add_argument("file")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_verify)

    r = sub.add_parser("render", help="render the pattern (and overlays) as SVG")
    r.add_argument("file")
    r.add_argument("-o", "--output", default="-")
    r.set_defaults(func=_render)

    for p in (g, bs, r):
        p.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except FlatfoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
