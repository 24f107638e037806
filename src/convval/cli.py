"""Command-line frontend.

Subcommands: eval, conjugate, infconv, valuation, growth, laws, fixtures.
Documents are JSON (schema "convval/1"), plot data is CSV.  Exit status is 0
iff every requested check passed; document/usage errors and outputs that
cannot be written exit with status 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from . import __version__
from .conjugacy import conjugate, inf_convolution
from .documents import (DocumentError, dump, format_float, format_rational,
                        function_to_doc, load_function, load_growth, parse_rational)
from .errors import ConvvalError
from .growth import peval, psi_from_zeta
from .laws import SUITES, generate_pair_with_convex_min
from .valuation import combined_valuation, level_volume_profile


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, float):
        return format_float(x)
    return str(x)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _report(command: str, digest: str, results: dict, laws: list, seed, t0) -> dict:
    return {
        "command": command,
        "version": __version__,
        "inputs_digest": digest,
        "seed": seed,
        "results": results,
        "law_reports": [
            {"law": r.law, "inputs": r.inputs, "passed": r.passed,
             "left": _fmt(r.left) if r.left is not None else None,
             "right": _fmt(r.right) if r.right is not None else None,
             "tolerance": _fmt(r.tolerance)}
            for r in laws
        ],
        "elapsed_seconds": round(time.monotonic() - t0, 3),
    }


class OutputError(Exception):
    """An output path could not be written."""


@contextmanager
def _writing(path):
    """Turn an OSError while writing ``path`` into an :class:`OutputError`."""
    try:
        yield
    except OSError as exc:
        where = "standard output" if path is None else path
        raise OutputError(f"cannot write {where}: {exc.strerror or exc}") from exc


def _dump(doc: dict, path: str | None):
    with _writing(path):
        dump(doc, path)


def _rational_arg(s: str) -> Fraction:
    try:
        return parse_rational(s)
    except DocumentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(s: str) -> int:
    try:
        k = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {k}")
    return k


def cmd_eval(args) -> int:
    u = load_function(args.file)
    point = [parse_rational(x, "point") for x in args.point.split(",")]
    val = u.eval(point)
    print("inf" if val == math.inf else format_rational(val))
    return 0


def cmd_conjugate(args) -> int:
    u = load_function(args.file)
    _dump(function_to_doc(conjugate(u), provenance=f"conjugate of {args.file}"), args.out)
    return 0


def cmd_infconv(args) -> int:
    u, v = load_function(args.file), load_function(args.file2)
    _dump(function_to_doc(inf_convolution(u, v),
                          provenance=f"infconv of {args.file}, {args.file2}"), args.out)
    return 0


def cmd_valuation(args) -> int:
    t0 = time.monotonic()
    u = load_function(args.file)
    zeta0 = load_growth(args.zeta0)
    zetan = load_growth(args.zetan)
    value = combined_valuation(zeta0, zetan, u)
    prof = level_volume_profile(u)
    results = {
        "combined_valuation": _fmt(value),
        "min_value": format_rational(u.min_value()[0]),
        "atom": format_rational(prof.atom),
    }
    if args.profile_csv:
        with _writing(args.profile_csv), open(args.profile_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "V"])
            pts = list(prof.breakpoints)
            for i in range(len(prof.breakpoints) - 1):
                a, b = prof.breakpoints[i], prof.breakpoints[i + 1]
                pts += [a + (b - a) * Fraction(j, 4) for j in (1, 2, 3)]
            pts += [prof.breakpoints[-1] + j for j in (1, 2, 3)]
            for t in sorted(set(pts)):
                w.writerow([_fmt(t), _fmt(prof.value(t))])
    report = _report("valuation", _digest([args.file, args.zeta0, args.zetan]),
                     results, [], None, t0)
    _dump(report, args.out)
    return 0


def cmd_growth(args) -> int:
    zeta = load_growth(args.zetafile)
    n = args.n
    psi = psi_from_zeta(zeta, n)
    tmin, tmax = args.tmin, args.tmax
    grid = sorted({tmin + (tmax - tmin) * Fraction(j, args.steps) for j in range(args.steps + 1)}
                  | {b for b in zeta.breakpoints if tmin <= b <= tmax})
    sign = Fraction((-1) ** n, math.factorial(n))
    rows = []
    numeric = not hasattr(psi, "region_at")
    if not numeric:
        dn = psi.derivative_pieces(n)
    for t in grid:
        zt = zeta.eval(t)
        if numeric:
            pt, dt = psi.eval(t), ""
        else:
            pt = peval(psi.region_at(t)[1], t)
            dt = sign * peval(dn.region_at(t)[1], t)
        rows.append([_fmt(t), _fmt(zt), _fmt(pt), _fmt(dt)])
    header = ["t", "zeta", "psi_n", "signed_nth_derivative"]
    if args.out is None:
        csv.writer(sys.stdout).writerows([header] + rows)
        return 0
    with _writing(args.out), open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    return 0


def cmd_laws(args) -> int:
    t0 = time.monotonic()
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return 2
    suite, cap = SUITES[args.suite]
    count, note = args.count, ""
    if cap is not None and count > cap:
        count, note = cap, f" (ran {cap} of the {args.count} requested)"
    reports = suite(args.seed, count, args.n)
    passed = sum(1 for r in reports if r.passed)
    results = {"suite": args.suite, "checks": len(reports), "passed": passed}
    report = _report(f"laws {args.suite}", "-", results, reports, args.seed, t0)
    _dump(report, args.out)
    print(f"{args.suite}: {passed}/{len(reports)} checks passed{note}", file=sys.stderr)
    return 0 if passed == len(reports) else 1


def cmd_fixtures(args) -> int:
    import os
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    written = []
    for i in range(args.count):
        pair = generate_pair_with_convex_min(args.seed + i, args.n)
        for tag, u in (("u", pair.u), ("v", pair.v)):
            path = os.path.join(args.out, f"pair{args.seed + i}_{tag}.json")
            _dump(function_to_doc(u, provenance=f"{pair.provenance} seed={pair.seed}"), path)
            written.append(path)
    print("\n".join(written))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="convval",
                                 description="exact valuations of piecewise-affine convex functions")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a function document at a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma-separated rationals")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("conjugate", help="Legendre-Fenchel conjugate of a document")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_conjugate)

    p = sub.add_parser("infconv", help="infimal convolution of two documents")
    p.add_argument("file")
    p.add_argument("file2")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_infconv)

    p = sub.add_parser("valuation", help="combined valuation of a function document")
    p.add_argument("file")
    p.add_argument("zeta0")
    p.add_argument("zetan")
    p.add_argument("--out", default=None)
    p.add_argument("--profile-csv", default=None)
    p.set_defaults(fn=cmd_valuation)

    p = sub.add_parser("growth", help="CSV of zeta, psi_n and the derivative relation")
    p.add_argument("zetafile")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--tmin", type=_rational_arg, default="0")
    p.add_argument("--tmax", type=_rational_arg, default="2")
    p.add_argument("--steps", type=_positive_int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("laws", help="run a law suite")
    p.add_argument("suite", help="one of: " + ", ".join(SUITES))
    p.add_argument("--seed", type=int, default=0, help="first seed (staircase ignores it)")
    p.add_argument("--count", type=_positive_int, default=10)
    p.add_argument("--n", type=_positive_int, default=2, help="dimension (staircase ignores it)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("fixtures", help="generate certified fixture documents")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=5)
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fixtures)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except DocumentError as exc:
        print(f"document error: {exc}", file=sys.stderr)
        return 2
    except (ConvvalError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
