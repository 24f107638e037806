"""The reference routes the tests compare the library with, and the inputs
that more than one test file draws.

Every fast route in ``convval`` is tested, by an exact ``==``, against the
reference routes kept here as ``oracle_*`` functions (or helpers of one).
Per quantity there are at most two: one independent reference, a
``Fraction``, sympy or brute-force route that shares no code with the route
it checks, and the route that the latest change on that quantity replaced.
The next change on the quantity copies its own parent route in and retires
the one it displaces, unless that one is the independent reference; a test
whose reference retires moves to a kept one on the same inputs.  Where a
test compares an order (``_dd_step``, ``vrep_to_hrep``, ``nearest_point``,
the fields of an affine image's integer cone), the reference must give that
order, and where only an older route does, that route stays.  Routes that
share a name but not a method carry the method in the name
(``oracle_build_pruned_by_*``).
``tests/test_oracles.py`` keeps every ``oracle_*`` defined here, and only
here, once, and every definition here reachable from a test file.
"""

import functools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations
from math import gcd, inf
from operator import mul
from unittest import mock

from hypothesis import strategies as st

import convval
from convval import conjugacy, functions, linalg, polyhedra
from convval.conjugacy import ConeBound, _rational_sqrt_lower, conjugate
from convval.errors import (BudgetExceeded, CertificateFailed, ConvvalError, DimensionMismatch,
                            EmptyDomain, EmptyPolyhedron, NotCoercive, NotConvexMin,
                            UnboundedPolyhedron)
from convval.functions import cone_function, from_epigraph, indicator_function, make
from convval.growth import (GrowthFunction, make_growth, padd, pantider, peval, pmul, pscale,
                            ptrim, tail_integral)
from convval.laws import _random_coercive_base, generate_pair_with_convex_min, random_body
from convval.linalg import dot, invert, rank, scale_to_int, solve, vec_add, vec_scale, vec_sub
from convval.polyhedra import HRep, Polyhedron, VRep, _fracvec, cut_by, intersect
from convval.valuation import LevelVolumeProfile, level_volume_profile, min_valuation

# ---------------------------------------------------------------------------
# Shared inputs and helpers
# ---------------------------------------------------------------------------


def rationals(ints, fracs, den):
    """Integers in [-ints, ints] and fractions in [-fracs, fracs] with
    denominators up to ``den``."""
    return st.one_of(st.integers(-ints, ints),
                     st.fractions(min_value=-fracs, max_value=fracs, max_denominator=den))


coords = rationals(3, 2, 3)

SLOPES_12 = [(4, 1), (4, -1), (-4, 1), (-4, -1), (1, 4), (1, -4), (-1, 4), (-1, -4),
             (3, 3), (3, -3), (-3, 3), (-3, -3)]


def pint(c, a, b):
    """Integral_a^b of the polynomial c in Fractions."""
    q = pantider(c)
    return peval(q, b) - peval(q, a)


def box01():
    """1 on [0, 1]."""
    return make_growth([0, 1], [[1]], require_nonnegative=True)


def hull_point(data, pts):
    """A point of the hull of ``pts``, by weights 0-3 drawn from ``data``."""
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(pts), max_size=len(pts))
                        .filter(any))
    return tuple(sum(w * p[i] for w, p in zip(weights, pts)) / sum(weights)
                 for i in range(len(pts[0])))


def python_stdout(code, *flags):
    """The output of a fresh ``python *flags -c code`` that imports this
    checkout's ``convval``; a nonzero exit fails the test."""
    src = os.path.dirname(os.path.dirname(convval.__file__))
    out = subprocess.run([sys.executable, *flags, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


# Source of an expression, for code run by ``python_stdout``, that names the
# modules the process has run.  ``import convval`` puts its library modules
# in sys.modules unrun, as instances of a ModuleType subclass until their
# first attribute access, so being in sys.modules does not mean a module ran.
RUN_MODULES = ("sorted(m for m, mod in __import__('sys').modules.items()"
               " if type(mod) is __import__('types').ModuleType)")


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, everything observable about it when it is a
    function, or the error it raises (with the witness of ``NotConvexMin``)."""
    try:
        out = fn(*args, **kwargs)
    except NotConvexMin as exc:
        return ("NotConvexMin", exc.witness)
    except (ConvvalError, ValueError) as exc:
        return (type(exc).__name__,)
    if isinstance(out, functions.PWAConvex):
        return (out.pieces, out.domain, out.coercive, out.epigraph.hrep, out.epigraph.vrep)
    return out


@st.composite
def functions_in(draw, n):
    """``(pieces, domain, coercive)`` in R^n.  The pieces come with
    duplicates, with pieces active at one point only (the 0 of
    max(x_1, -x_1, 0)) and, when flat, with no dependence on the last
    coordinate, which gives the epigraph a line.  The domain is R^n, a box,
    a box cut to x_1 = c, a single point or empty."""
    flat = draw(st.booleans())
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.lists(coords, min_size=n, max_size=n))
        if flat:
            a[-1] = 0
        pieces.append((tuple(a), draw(coords)))
    e = tuple(int(i == 0) for i in range(n))
    if draw(st.booleans()):
        pieces += [(e, 0), (tuple(-x for x in e), 0), ((0,) * n, 0)]
    if draw(st.booleans()):
        pieces += pieces[:2]
    kind = draw(st.sampled_from(["all", "box", "flat", "point", "empty"]))
    axes = [(tuple(s * int(i == j) for i in range(n)), s) for j in range(n) for s in (1, -1)]
    rows = [(a, draw(st.integers(0, 2))) for a, _ in axes] if kind != "all" else []
    c = draw(coords)
    if kind == "flat":
        rows += [(e, c), (tuple(-x for x in e), -c)]
    if kind == "point":  # every coordinate pinned
        rows = [(a, s * c) for a, s in axes]
    if kind == "empty":
        rows += [(e, -1), (tuple(-x for x in e), -1)]
    return pieces, HRep.make(n, rows), not flat and draw(st.booleans())


@lru_cache(maxsize=None)
def function_cases(n):
    """Pair functions and their conjugates (not coercive, with domain rows
    and unbounded cells), the max of +-x_i and 0 (its 0 piece has a point
    cell), a max of pieces on a cut domain and two box indicators."""
    fns = []
    for seed in range(3):
        pair = generate_pair_with_convex_min(seed, n)
        fns += [pair.u, pair.v, conjugate(pair.u), conjugate(pair.v)]
    slopes = [tuple(s * int(i == j) for i in range(n)) for j in range(n) for s in (1, -1)]
    fns.append(make([(a, 0) for a in slopes] + [((0,) * n, 0)], n=n))
    cut = HRep.make(n, [((1,) * n, F(3, 2)), ((-1,) + (0,) * (n - 1), 1)])
    fns.append(make([(a, F(j, 3)) for j, a in enumerate(slopes)], cut, coercive=False))
    fns.append(indicator_function(Polyhedron.box([(F(-1, 3), 2)] * n), F(-2, 7)))
    fns.append(indicator_function(Polyhedron.box([(-1, F(1, 2))] * n), F(1, 3)))
    return tuple(fns)


@lru_cache(maxsize=None)
def conjugacy_corpus():
    """The (u, v, x) of the benchmark's 12 ``conjugacy_n2`` corpus inputs
    (``perfbench/workloads.py``), drawn the same way: piece lists with one
    slope per sign orthant at n = 2, then 0-2 free pieces, for u and then
    for v, and then the Moreau point x."""

    def pieces(rng):
        def rat(lo, hi, den):
            return F(rng.randint(lo, hi), rng.randint(1, den))

        extra = rng.randint(0, 2)
        out = [(tuple(rat(1, 4, 2) * (1 if mask >> k & 1 else -1) for k in range(2)),
                rat(-3, 3, 3)) for mask in range(4)]
        return out + [(tuple(rat(-4, 4, 2) for _ in range(2)), rat(-3, 3, 3))
                      for _ in range(extra)]

    corpus = []
    for k in range(12):
        rng = random.Random(f"conjugacy_n2-corpus-{k}")
        pu, pv = pieces(rng), pieces(rng)
        corpus.append((pu, pv, tuple(F(rng.randint(-6, 6), 2) for _ in range(2))))
    return tuple(corpus)


@st.composite
def epigraph_candidates(draw, n):
    """Polyhedra in R^(n+1) for ``from_epigraph``: epigraphs of pieces on a
    box, with a line (no piece depends on x_1), empty, hulls of points with
    the upward ray, and rows whose t-coefficients have any sign (not an
    epigraph, unbounded below or empty), in a drawn row order."""
    kind = draw(st.sampled_from(["pieces", "lines", "empty", "hull", "rows"]))
    small = st.integers(-3, 3)
    if kind == "hull":
        pts = draw(st.lists(st.lists(small, min_size=n + 1, max_size=n + 1),
                            min_size=1, max_size=5))
        rays = [(0,) * n + (1,)] + draw(st.lists(
            st.lists(st.integers(-1, 1), min_size=n + 1, max_size=n + 1), max_size=2))
        return Polyhedron.from_generators(n + 1, pts, rays)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.lists(small, min_size=n, max_size=n))
        if kind == "lines":
            a[0] = 0
        tc = draw(st.sampled_from([-1, 0, 1])) if kind == "rows" else -1
        rows.append((tuple(a) + (tc,), draw(small)))
    if kind in ("pieces", "empty") and draw(st.booleans()):
        rows += [(tuple(s * int(i == j) for i in range(n)) + (0,), draw(st.integers(0, 2)))
                 for j in range(n) for s in (1, -1)]
    if kind == "empty":
        rows += [((1,) + (0,) * n, -1), ((-1,) + (0,) * n, -1)]
    return Polyhedron(HRep.make(n + 1, draw(st.permutations(rows))))


@lru_cache(maxsize=None)
def profiled_functions():
    """Pair functions at n = 1-3, a cone function, |x| and a constant on a
    box (one level)."""
    fns = []
    for n, seeds in ((1, range(2)), (2, range(2)), (3, range(2))):
        for seed in seeds:
            pair = generate_pair_with_convex_min(seed, n)
            fns += [pair.u, pair.v, *pair.lattice()]
    fns += [cone_function(random_body(0, 2)), make([((1,), 0), ((-1,), 0)]),
            make([((0, 0), 2)], Polyhedron.box([(0, 1), (0, 1)]))]
    return tuple(fns)


def profiles():
    """The profiles of ``profiled_functions``."""
    return tuple(level_volume_profile(u) for u in profiled_functions())


def capped_epigraph(u):
    """epi u cut at one above its highest vertex, by ``cut_by``."""
    top = max(v[-1] for v in u.epigraph.vrep.vertices) + 1
    up = (F(0),) * u.n + (F(1),)
    return next(cut_by(u.epigraph, [[(up, top)]]))[0]


@st.composite
def weights(draw):
    """Piecewise quadratic weights with breakpoints on both sides of 0: with
    no tail, with a tail from the last breakpoint or one joining the last
    piece at value 0, and pieceless steps with or without a tail.  The left
    constant may jump at the first breakpoint."""
    kind = draw(st.sampled_from(["polynomial", "tailed", "joined", "step", "tailed step"]))
    bps = sorted(set(draw(st.lists(st.fractions(-3, 6, max_denominator=4),
                                   min_size=1, max_size=5))))
    small = st.fractions(-3, 3, max_denominator=3)
    lam = draw(st.fractions(F(1, 2), 3, max_denominator=4))
    tail = (lam, draw(st.lists(small, min_size=1, max_size=3))) if "tailed" in kind else None
    left = draw(small)
    if "step" in kind:
        return make_growth(bps[:1], [], left_constant=left, tail=tail)
    pieces, value = [], draw(st.one_of(st.just(left), small))
    for a, b in zip(bps, bps[1:]):
        s, r = draw(small), draw(small)  # value + s (t - a) + r (t - a)^2
        pieces.append([value - s * a + r * a * a, s - 2 * r * a, r])
        value += s * (b - a) + r * (b - a) ** 2
    if kind == "joined" and pieces:
        for piece in pieces:  # the last piece ends at 0, and so starts the tail
            piece[0] -= value
        k = draw(small)
        tail = (lam, [-k * bps[-1], k])
    return make_growth(bps, pieces, left_constant=left, tail=tail)


# ---------------------------------------------------------------------------
# Linear algebra: Fraction elimination
# ---------------------------------------------------------------------------


def oracle_scale_to_int(vec):
    fracs = [F(x) for x in vec]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def oracle_rref(rows):
    mat = [list(map(F, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def oracle_rank(rows):
    return len(oracle_rref(rows)[0])


def oracle_null_space(rows, ncols):
    red, pivots = oracle_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def oracle_solve(a_rows, b):
    n = len(a_rows[0]) if a_rows else 0
    aug = [list(map(F, row)) + [F(bv)] for row, bv in zip(a_rows, b, strict=True)]
    red, pivots = oracle_rref(aug)
    if n in pivots or len(pivots) < n:
        return None
    x = [F(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = red[i][n]
    return tuple(x)


def oracle_invert(mat):
    n = len(mat)
    aug = [list(map(F, row)) + [F(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = oracle_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [tuple(red[i][n:]) for i in range(n)]


def oracle_determinant(mat):
    m = [list(map(F, r)) for r in mat]
    n = len(m)
    det = F(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


# ---------------------------------------------------------------------------
# Double description: Fraction routes and recomputed incidence masks
# ---------------------------------------------------------------------------


def oracle_pointed_cone_rays(rows, d):
    if d == 0:
        return []
    base_idx, base_rows = [], []
    for i, r in enumerate(rows):
        if oracle_rank(base_rows + [r]) > len(base_rows):
            base_rows.append(r)
            base_idx.append(i)
            if len(base_rows) == d:
                break
    if len(base_rows) < d:
        raise ValueError("cone rows are rank deficient")
    binv = oracle_invert(base_rows)
    rays = [oracle_scale_to_int(tuple(-binv[j][i] for j in range(d))) for i in range(d)]
    processed = list(base_idx)
    pset = set(processed)
    raylist = [(r, frozenset(i for i in processed if dot(rows[i], r) == 0)) for r in rays]
    for idx in (i for i in range(len(rows)) if i not in pset):
        c = rows[idx]
        vals = [dot(c, r) for r, _ in raylist]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        processed.append(idx)
        if not pos:
            raylist = [((r, a | {idx}) if vals[i] == 0 else (r, a))
                       for i, (r, a) in enumerate(raylist)]
            continue
        new_rays = []
        for ip in pos:
            rp, ap = raylist[ip]
            for ineg in neg:
                rn, an = raylist[ineg]
                common = ap & an
                if len(common) < d - 2:
                    continue
                if any(k != ip and k != ineg and common <= ak
                       for k, (_, ak) in enumerate(raylist)):
                    continue
                combo = tuple(vals[ip] * x - vals[ineg] * y for x, y in zip(rn, rp))
                new_rays.append(oracle_scale_to_int(combo))
        kept = {}
        for i in neg + zero:
            r, a = raylist[i]
            kept[r] = a | {idx} if vals[i] == 0 else a
        for nr in new_rays:
            if nr not in kept:
                kept[nr] = frozenset(i for i in processed if dot(rows[i], nr) == 0)
        raylist = list(kept.items())
    return [r for r, _ in raylist]


def oracle_cone_generators(rows, dim):
    int_rows = [oracle_scale_to_int(r) for r in rows]
    int_rows = [r for r in int_rows if any(x != 0 for x in r)]
    lines = [_fracvec(oracle_scale_to_int(l)) for l in oracle_null_space(int_rows, dim)]
    if not int_rows:
        return [], lines
    if not lines:
        return [_fracvec(r) for r in oracle_pointed_cone_rays(int_rows, dim)], []
    w_basis = oracle_rref(int_rows)[0]
    r = len(w_basis)
    proj = [tuple(dot(row, w) for w in w_basis) for row in int_rows]
    z_rays = oracle_pointed_cone_rays([oracle_scale_to_int(p) for p in proj], r)
    rays = []
    for z in z_rays:
        y = tuple(sum(F(z[j]) * w_basis[j][i] for j in range(r)) for i in range(dim))
        rays.append(_fracvec(oracle_scale_to_int(y)))
    return rays, lines


def oracle_dehomogenize(rays, lines, d):
    vertices, rec_rays = [], []
    for r in rays:
        if r[d] > 0:
            vertices.append(tuple(x / r[d] for x in r[:d]))
        else:
            rec_rays.append(r[:d])
    if not vertices:
        return VRep.empty(d)
    return VRep(d, tuple(vertices), tuple(rec_rays), tuple(l[:d] for l in lines))


def oracle_hrep_to_vrep(h):
    d = h.d
    rows = [tuple(a) + (-b,) for a, b in h.halfspaces]
    rows.append(tuple(F(0) for _ in range(d)) + (F(-1),))
    rays, lines = oracle_cone_generators(rows, d + 1)
    assert all(l[d] == 0 for l in lines)
    return oracle_dehomogenize(rays, lines, d)


def oracle_vrep_to_hrep(v):
    d = v.d
    if v.is_empty:
        return HRep.infeasible(d)
    gens = [tuple(p) + (F(1),) for p in v.vertices]
    gens += [tuple(r) + (F(0),) for r in v.rays]
    for l in v.lines:
        gens.append(tuple(l) + (F(0),))
        gens.append(tuple(-x for x in l) + (F(0),))
    prays, plines = oracle_cone_generators(gens, d + 1)
    halfspaces = []
    eq_normals = [w[:d] for w in plines if any(x != 0 for x in w[:d])]
    hull_dirs = oracle_null_space(eq_normals, d) if eq_normals else None
    for w in prays:
        a, c = w[:d], w[d]
        if all(x == 0 for x in a):
            continue
        if hull_dirs is not None and all(dot(a, u) == 0 for u in hull_dirs):
            continue
        halfspaces.append((a, -c))
    for w in plines:
        a, c = w[:d], w[d]
        if any(x != 0 for x in a):
            halfspaces.append((a, -c))
            halfspaces.append((tuple(-x for x in a), c))
    return HRep(d, tuple(halfspaces))


def oracle_incidence(rows, mask, ray):
    return sum(1 << i for i, row in enumerate(rows)
               if mask >> i & 1 and sum(map(mul, row, ray)) == 0)


def oracle_dd_step(rows, idx, raylist, processed, d):
    """``_dd_step`` with the new rays' masks recomputed by dot products."""
    bit = 1 << idx
    c = rows[idx]
    vals = [sum(map(mul, c, r)) for r, _ in raylist]
    pos = [i for i, v in enumerate(vals) if v > 0]
    if not pos:
        return [((r, a | bit) if v == 0 else (r, a)) for (r, a), v in zip(raylist, vals)]
    neg = [i for i, v in enumerate(vals) if v < 0]
    zero = [i for i, v in enumerate(vals) if v == 0]
    new_rays = []
    for ip in pos:
        rp, ap = raylist[ip]
        for ineg in neg:
            rn, an = raylist[ineg]
            common = ap & an
            if common.bit_count() < d - 2:
                continue
            if any(k != ip and k != ineg and common & ak == common
                   for k, (_, ak) in enumerate(raylist)):
                continue
            combo = tuple(vals[ip] * x - vals[ineg] * y for x, y in zip(rn, rp))
            new_rays.append(scale_to_int(combo))
    kept = {}
    for i in neg + zero:
        r, a = raylist[i]
        kept[r] = a | bit if vals[i] == 0 else a
    for nr in new_rays:
        if nr not in kept:
            kept[nr] = oracle_incidence(rows, processed | bit, nr)
    return list(kept.items())


def integer_rows_and_generators(h, v):
    """The homogenized integer rows of ``h``, the homogenizing row last, and
    the integer vertex and ray generators of ``v``, each scaled on its own."""
    rows = [scale_to_int(tuple(a) + (-b,)) for a, b in h.halfspaces] + [(0,) * h.d + (-1,)]
    gens = [scale_to_int(tuple(x) + (1,)) for x in v.vertices]
    return rows, gens + [scale_to_int(tuple(r) + (0,)) for r in v.rays]


def oracle_cut_by(p, row_sets):
    """The pointed route with an eager Fraction V-rep per restriction."""
    d = p.d
    rows, gens = integer_rows_and_generators(p.hrep, p.vrep)
    processed = (1 << len(rows)) - 1
    start = [(g, oracle_incidence(rows, processed, g)) for g in gens]
    for extra in row_sets:
        extra = tuple((_fracvec(a), F(b)) for a, b in extra)
        cut_rows = rows + [scale_to_int(a + (-b,)) for a, b in extra]
        raylist, mask = start, processed
        for idx in range(len(rows), len(cut_rows)):
            raylist = oracle_dd_step(cut_rows, idx, raylist, mask, d + 1)
            mask |= 1 << idx
        q = oracle_dehomogenize([_fracvec(r) for r, _ in raylist], (), d)
        common = mask
        if not q.is_empty:
            for _, a in raylist:
                common &= a
        yield q, tuple(bool(common >> idx & 1) for idx in range(len(rows), len(cut_rows)))


def is_implicit(p, a, b):
    """True iff the row <a, x> <= b holds with equality on all of p."""
    v = p.vrep
    return (all(dot(a, q) == b for q in v.vertices)
            and all(dot(a, r) == 0 for r in v.rays)
            and all(dot(a, l) == 0 for l in v.lines))


def oracle_relative_interior_contains(p, x):
    """Strict on every row of the canonical H-rep that is not implicit."""
    if p.is_empty:
        raise EmptyPolyhedron("relative interior of the empty set")
    x = _fracvec(x)
    if len(x) != p.d:
        raise DimensionMismatch("point dimension mismatch")
    for a, b in p.canonical_hrep.halfspaces:
        val = dot(a, x)
        if is_implicit(p, a, b):
            if val != b:
                return False
        elif val >= b:
            return False
    return True


def oracle_contains(p, q):
    if q.vrep.is_empty:
        return True
    if p.vrep.is_empty:
        return False
    ov = q.vrep
    for a, b in p.hrep.halfspaces:
        if any(dot(a, x) > b for x in ov.vertices):
            return False
        if any(dot(a, r) > 0 for r in ov.rays):
            return False
        if any(dot(a, l) != 0 for l in ov.lines):
            return False
    return True


def oracle_dim(p):
    v = p.vrep
    if v.is_empty:
        return -1
    vecs = [vec_sub(x, v.vertices[0]) for x in v.vertices[1:]]
    vecs += list(v.rays) + list(v.lines)
    return rank(vecs) if vecs else 0


def oracle_is_bounded(p):
    """``Polyhedron.is_bounded`` read off the Fraction V-rep."""
    v = p.vrep
    return not v.rays and not v.lines


def oracle_translate(p, v):
    v = _fracvec(v)
    vr = p.vrep
    if vr.is_empty:
        return HRep.infeasible(p.d), VRep.empty(p.d)
    return (HRep(p.d, tuple((a, b + dot(a, v)) for a, b in p.hrep.halfspaces)),
            VRep(p.d, tuple(vec_add(x, v) for x in vr.vertices), vr.rays, vr.lines))


def oracle_apply_linear(p, m):
    mat = [_fracvec(row) for row in m]
    minv = invert(mat)
    vr = p.vrep
    if vr.is_empty:
        return HRep.infeasible(p.d), VRep.empty(p.d)

    def img(x):
        return tuple(dot(row, x) for row in mat)

    return (HRep(p.d, tuple((tuple(sum(a[i] * minv[i][j] for i in range(p.d))
                                   for j in range(p.d)), b)
                            for a, b in p.hrep.halfspaces)),
            VRep(p.d, tuple(img(x) for x in vr.vertices),
                 tuple(_fracvec(scale_to_int(img(r))) for r in vr.rays),
                 tuple(_fracvec(scale_to_int(img(l))) for l in vr.lines)))


def oracle_scale(p, t):
    vr = p.vrep
    if vr.is_empty:
        return HRep.infeasible(p.d), VRep.empty(p.d)
    return (HRep(p.d, tuple((a, t * b) for a, b in p.hrep.halfspaces)),
            VRep(p.d, tuple(vec_scale(t, x) for x in vr.vertices), vr.rays, vr.lines))


def oracle_image(h, v):
    """The image as it was built from both representations: the V-rep given,
    and the masks recomputed by dot products on the rows of ``h``."""
    rows, gens = integer_rows_and_generators(h, v)
    every = (1 << len(rows)) - 1
    cone = polyhedra._Cone(rows, gens, [oracle_incidence(rows, every, g) for g in gens],
                           [scale_to_int(tuple(l) + (0,)) for l in v.lines], len(v.vertices))
    image = Polyhedron._carrying(h, cone)
    image._vrep = v
    return image


def oracle_restrictions(image, extras):
    """``cut_by`` of such an image: the eager pointed route from its given
    V-rep, or else a fresh double description with ``is_implicit`` flags."""
    if image.vrep.is_empty or image.vrep.lines:
        for extra in extras:
            extra = tuple((_fracvec(a), F(b)) for a, b in extra)
            q = Polyhedron(HRep(image.d, image.hrep.halfspaces + extra))
            yield q.vrep, tuple(is_implicit(q, a, b) for a, b in extra)
    else:
        yield from oracle_cut_by(image, extras)


def oracle_affine_image_by_fractions(p, point, normal, v, halfspaces):
    """The affine image as it was: ``point`` maps x to m x and ``normal``
    maps a to a m^-1, on ``Fraction`` vectors, and each mapped generator and
    row is scaled back to integers."""
    d = p.d
    if p.is_empty:
        return Polyhedron.empty(d)
    cone = p._integer()

    def gen(g):
        return scale_to_int(vec_add(point(g[:d]), vec_scale(g[d], v)) + (g[d],))

    def row(r):
        a = normal(r[:d])
        return scale_to_int(a + (r[d] - dot(a, v),))

    image = polyhedra._Cone([row(r) for r in cone.rows], [gen(g) for g in cone.gens],
                            cone.masks, [gen(l) for l in cone.lines], cone.nverts)
    return Polyhedron._carrying(HRep(d, tuple(halfspaces)), image)


def images_by_fractions(p, v, m, t):
    """``translate``, ``apply_linear`` and ``scale`` as they were, through
    ``oracle_affine_image_by_fractions``."""
    d = p.d
    v, t = _fracvec(v), F(t)
    mat = [_fracvec(row) for row in m]
    minv = invert(mat)

    def normal(a):
        return tuple(dot(a, col) for col in zip(*minv))

    zero = (F(0),) * d
    return [oracle_affine_image_by_fractions(p, lambda x: x, lambda a: a, v,
                                             ((a, b + dot(a, v)) for a, b in p.hrep.halfspaces)),
            oracle_affine_image_by_fractions(p, lambda x: tuple(dot(row, x) for row in mat),
                                             normal, zero,
                                             ((normal(a), b) for a, b in p.hrep.halfspaces)),
            oracle_affine_image_by_fractions(p, lambda x: vec_scale(t, x),
                                             lambda a: vec_scale(1 / t, a), zero,
                                             ((a, t * b) for a, b in p.hrep.halfspaces))]


def scale_values_by_fractions(u, k):
    """``scale_values`` as it was, through ``oracle_affine_image_by_fractions``."""
    k = F(k)
    n = u.n
    pieces = tuple((vec_scale(k, a), k * b) for a, b in u.pieces)
    if u.epigraph._integer().lines:
        return functions._build(n, pieces, u.domain, u.coercive)
    epi = oracle_affine_image_by_fractions(u.epigraph, lambda x: x[:n] + (k * x[n],),
                                           lambda a: a[:n] + (a[n] / k,), (F(0),) * (n + 1),
                                           functions._epigraph_rows(pieces, u.domain))
    return functions.PWAConvex(n, pieces, u.domain, epi, u.coercive)


# ---------------------------------------------------------------------------
# Triangulation and volume
# ---------------------------------------------------------------------------


def oracle_angular_order(points, plane_basis):
    u1, u2 = plane_basis
    n = len(points)
    cen = tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))
    coords = []
    for p in points:
        rel = vec_sub(p, cen)
        coords.append((dot(rel, u1), dot(rel, u2), p))

    def half(c):
        x, y, _ = c
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(c1, c2):
        h1, h2 = half(c1), half(c2)
        if h1 != h2:
            return -1 if h1 < h2 else 1
        cr = c1[0] * c2[1] - c1[1] * c2[0]
        return 0 if cr == 0 else (-1 if cr > 0 else 1)

    return [c[2] for c in sorted(coords, key=functools.cmp_to_key(cmp))]


def oracle_polygon_fan(points):
    p0 = points[0]
    basis_rows = oracle_rref([vec_sub(p, p0) for p in points[1:]])[0]
    assert len(basis_rows) == 2
    ordered = oracle_angular_order(points, (basis_rows[0], basis_rows[1]))
    return [(ordered[0], ordered[i], ordered[i + 1]) for i in range(1, len(ordered) - 1)]


def oracle_face_simplices_over_halfspaces(points, fdim, halfspaces):
    """The facets of a face of Fraction points: the tight sets of the
    halfspaces, each kept if its affine rank is fdim - 1."""
    if fdim == 0:
        return [points[:1]]
    if fdim == 1:
        assert len(points) == 2
        return [points]
    if fdim == 2:
        return [tuple(t) for t in oracle_polygon_fan(points)]
    v0 = points[0]
    seen = set()
    simplices = []
    for a, b in halfspaces:
        tight = tuple(v for v in points if dot(a, v) == b)
        if not tight or v0 in tight:
            continue
        key = frozenset(tight)
        if key in seen:
            continue
        seen.add(key)
        if oracle_rank([vec_sub(p, tight[0]) for p in tight[1:]]) != fdim - 1:
            continue
        for s in oracle_face_simplices_over_halfspaces(tight, fdim - 1, halfspaces):
            simplices.append((v0,) + s)
    return simplices


def oracle_triangulate(p):
    verts = p.vrep.vertices
    if len(verts) == p.d + 1:
        return [verts]
    return oracle_face_simplices_over_halfspaces(verts, p.d, p.hrep.halfspaces)


def oracle_volume(p):
    if p.is_empty:
        return F(0)
    d = p.d
    if p.dim < d:
        return F(0)
    if d == 1:
        xs = [v[0] for v in p.vrep.vertices]
        return max(xs) - min(xs)
    total = F(0)
    for simplex in oracle_triangulate(p):
        total += abs(oracle_determinant([vec_sub(q, simplex[0]) for q in simplex[1:]]))
    return total / math.factorial(d)


# The triangulation before exterior products: one ``echelon`` per polygon
# for its plane and one ``_lattice_det`` per polygon visit.

def oracle_lattice_det(pts, simplex):
    """|det| of the edges from the first point of an integer simplex, each
    edge divided by its gcd before ``echelon`` and the gcds multiplied back."""
    base = pts[simplex[0]]
    rows, factor = [], 1
    for i in simplex[1:]:
        edge = [x - y for x, y in zip(pts[i], base)]
        g = gcd(*edge) or 1
        rows.append([x // g for x in edge])
        factor *= g
    _, pivots, det = linalg.echelon(rows)
    return abs(det) * factor if len(pivots) == len(rows) else 0


def oracle_polygon_fan_by_echelon(points):
    """The fan of a planar polygon, its plane spanned by the ``echelon`` rows
    of the differences times the sign of its pivot."""
    p0 = points[0]
    red, pivots, det = linalg.echelon([vec_sub(p, p0) for p in points[1:]])
    if len(pivots) != 2:
        raise CertificateFailed(f"polygon face spans {len(pivots)} dimensions, not 2")
    s = 1 if det > 0 else -1
    u1, u2 = ([s * x for x in row] for row in red)
    n = len(points)
    total = [sum(c) for c in zip(*points)]
    coords = []
    for p in points:
        rel = [n * x - t for x, t in zip(p, total)]
        coords.append((sum(map(mul, rel, u1)), sum(map(mul, rel, u2))))
    order = polyhedra._angular_order(coords)
    ox, oy = coords[order[0]]
    fan = []
    for i, j in zip(order[1:], order[2:]):
        (ix, iy), (jx, jy) = coords[i], coords[j]
        fan.append(((order[0], i, j), abs((ix - ox) * (jy - oy) - (iy - oy) * (jx - ox))))
    return fan


def oracle_face_simplices_by_lattice_det(face, fdim, tight_masks, pts, fans, chain=()):
    """The pulling recursion with one ``oracle_lattice_det`` per polygon
    visit, scaled by the fan's |cross| to its other simplices."""
    if fdim == 2:
        fan = fans.get(face)
        if fan is None:
            idx = [i for i in range(len(pts)) if face >> i & 1]
            fan = fans[face] = [(tuple(idx[k] for k in t), cross)
                                for t, cross in oracle_polygon_fan_by_echelon(
                                    [pts[i] for i in idx])]
        det0, cross0 = oracle_lattice_det(pts, chain + fan[0][0]), fan[0][1]
        out = []
        for triangle, cross in fan:
            det, rest = divmod(det0 * cross, cross0)
            if rest:
                raise CertificateFailed(f"fan determinant {det0} * {cross} / {cross0} is inexact")
            out.append((chain + triangle, det))
        return out
    if fdim < 2:
        raise CertificateFailed(f"{fdim}-dimensional face has {face.bit_count()} vertices, "
                                f"not {fdim + 1}")
    candidates = [t for t in dict.fromkeys(face & m for m in tight_masks) if t and t != face]
    maximal = []
    for t in sorted(candidates, key=int.bit_count, reverse=True):
        if all(t & f != t for f in maximal):
            maximal.append(t)
    facets = set(maximal)
    v0 = face & -face
    chain += (v0.bit_length() - 1,)
    return [s for t in candidates if t in facets and not t & v0
            for s in oracle_face_simplices_by_lattice_det(t, fdim - 1, tight_masks, pts, fans,
                                                          chain)]


def oracle_integer_simplices_by_lattice_det(p):
    """``(pts, scale, simplices)`` by the elimination route."""
    d = p.d
    cone = p._integer()
    gens, masks = cone.gens[:cone.nverts], cone.masks[:cone.nverts]
    scale = math.lcm(*(g[d] for g in gens))
    pts = [tuple(x * (scale // g[d]) for x in g[:d]) for g in gens]
    if len(pts) == d + 1:
        simplex = tuple(range(d + 1))
        return pts, scale, [(simplex, oracle_lattice_det(pts, simplex))]
    tight_masks = [sum(1 << j for j, m in enumerate(masks) if m >> i & 1)
                   for i in range(len(cone.rows))]
    return pts, scale, oracle_face_simplices_by_lattice_det((1 << len(pts)) - 1, d, tight_masks,
                                                            pts, {})


def oracle_volume_by_lattice_det(p):
    """``volume`` on the elimination route's simplices."""
    if p.is_empty or not p.is_full_dimensional:
        return F(0)
    _, scale, simplices = oracle_integer_simplices_by_lattice_det(p)
    return F(sum(det for _, det in simplices), scale ** p.d * math.factorial(p.d))


# ---------------------------------------------------------------------------
# Level-volume profile
# ---------------------------------------------------------------------------


def oracle_local_series(z, mult):
    order = mult[z]
    series = [F(1)] + [F(0)] * (order - 1)
    for w, mu in mult.items():
        if w == z:
            continue
        r = 1 / (z - w)  # (x - w)^-mu = r^mu (1 + r (x - z))^-mu
        factor = [r ** mu * math.comb(mu + l - 1, l) * (-r) ** l for l in range(order)]
        series = [sum(series[i] * factor[l - i] for i in range(l + 1)) for l in range(order)]
    return series


def oracle_taylor_weights(z, mult):
    """``valuation._taylor_weights`` with the convolution at every height,
    simple ones included."""
    order = mult[z]
    deltas = [(z - w, mu) for w, mu in mult.items() if w != z]
    p = math.prod(dw for dw, _ in deltas)
    q = math.prod(dw ** mu for dw, mu in deltas)
    series = [1] + [0] * (order - 1)
    for dw, mu in deltas:
        c = -(p // dw)
        factor = [math.comb(mu + l - 1, l) * c ** l for l in range(order)]
        series = [sum(series[i] * factor[l - i] for i in range(l + 1)) for l in range(order)]
    return series, q, p


def _power_basis_profile(u, levels, atom, shifted):
    """The profile from the (t - z)^j coefficients of W per level, shifted to
    powers of t and checked, in Fractions, for V(s_0) = atom and continuity."""
    n, d = u.n, u.n + 1
    polys = []
    acc = ()
    for z, c in zip(levels, shifted):
        acc = padd(acc, tuple(sum(j * c[j] * math.comb(j - 1, i) * (-z) ** (j - 1 - i)
                                  for j in range(i + 1, d + 1)) for i in range(d)))
        polys.append(acc)
    left = atom
    for i, p in enumerate(polys):
        right = peval(p, levels[i])
        if right != left:
            raise CertificateFailed(
                f"volume profile discontinuous at level {levels[i]}: {left} -> {right}")
        if i + 1 < len(levels):
            left = peval(p, levels[i + 1])
    return LevelVolumeProfile(n, levels[0], atom, tuple(levels), tuple(polys[:-1]), polys[-1])


def oracle_profile(u):
    """The profile by the Fraction route: the epigraph capped by a fresh
    ``intersect`` and triangulated by ``oracle_triangulate``, one Fraction
    determinant and one Fraction expansion per simplex; reads no cache and
    writes none."""
    n = u.n
    d = n + 1
    levels = sorted({v[n] for v in u.epigraph.vrep.vertices})
    atom = oracle_volume(u.sublevel(levels[0]))
    top = levels[-1] + 1
    up = tuple(F(0) for _ in range(n)) + (F(1),)
    capped = intersect(u.epigraph, HRep(d, ((up, top),)))
    shifted = {z: [F(0)] * (d + 1) for z in levels}
    if capped.dim == capped.d:  # by rank, not by the masks
        sign = F((-1) ** d, math.factorial(d))
        for simplex in oracle_triangulate(capped):
            base = simplex[0]
            weight = sign * abs(oracle_determinant([vec_sub(q, base) for q in simplex[1:]]))
            mult = Counter(q[n] for q in simplex)
            for z, mu in mult.items():
                if z == top:
                    continue
                series = oracle_local_series(z, mult)
                for m in range(mu):
                    shifted[z][d - m] += weight * series[mu - 1 - m] * math.comb(d, m) * (-1) ** m
    return _power_basis_profile(u, levels, atom, [shifted[z] for z in levels])


def oracle_profile_by_sublevel_dd(u):
    """``level_volume_profile`` with its atom from a fresh double description
    of the sublevel set at t_min, on the elimination route's simplices."""
    n = u.n
    d = n + 1
    levels = sorted({v[n] for v in u.epigraph.vrep.vertices})
    t_min = levels[0]
    atom = oracle_volume_by_lattice_det(u.sublevel(t_min))

    top = levels[-1] + 1
    scale_h = math.lcm(*(z.denominator for z in levels))
    hlevels = [z.numerator * (scale_h // z.denominator) for z in levels]
    up = tuple(F(0) for _ in range(n)) + (F(1),)
    capped, _ = next(cut_by(u.epigraph, [[(up, top)]]))
    shifted = {z: [0] * (d + 1) for z in hlevels}
    den = dict.fromkeys(hlevels, 1)
    scale, total = 1, 0  # with no simplex every sum stays 0
    if capped.is_full_dimensional:
        pts, scale, simplices = oracle_integer_simplices_by_lattice_det(capped)
        heights = [pt[n] * scale_h // scale for pt in pts]
        weights = Counter()
        for simplex, det in simplices:
            weights[tuple(sorted(heights[i] for i in simplex))] += det
        total = sum(weights.values())  # W(top) = total / (d! L^d)
        del pts, simplices, heights  # free the triangulation before the sums grow
        cap = hlevels[-1] + scale_h
        for key, weight in weights.items():
            mult = Counter(key)
            for z, mu in mult.items():
                if z == cap:
                    continue
                series, q, p = oracle_taylor_weights(z, mult)
                div = q * p ** (mu - 1)
                old = den[z]
                new = den[z] = math.lcm(old, div)
                if new != old:
                    shifted[z] = [c * (new // old) for c in shifted[z]]
                w = weight * (new // div)
                for m in range(mu):  # f^(m)(z) / m! = C(d, m) (-1)^m (t - z)^(d - m)
                    l = mu - 1 - m
                    shifted[z][d - m] += ((-1) ** m * math.comb(d, m) * w * series[l]
                                          * scale_h ** (d + 1 - mu + l) * p ** m)
    for z in hlevels:  # the lcms leave large common factors in each level's sums
        g = math.gcd(den[z], *shifted[z])
        den[z] //= g
        shifted[z] = [c // g for c in shifted[z]]
    lcm_den = math.lcm(*den.values())
    common = lcm_den * math.factorial(d) * scale ** d * scale_h ** (d - 1)
    hpow = [scale_h ** k for k in range(d)]
    accs = []  # V = W' on [s_i, s_{i+1}], and on [s_p, inf) last
    acc = [0] * d
    for hz in hlevels:
        c, w = shifted[hz], (-1) ** d * (lcm_den // den[hz])
        zpow = [(-hz) ** k for k in range(d)]
        acc = [acc[i] + w * sum(j * c[j] * math.comb(j - 1, i) * zpow[j - 1 - i]
                                * hpow[d - j + i] for j in range(i + 1, d + 1))
               for i in range(d)]
        accs.append(acc)

    def at(acc, hz):
        return sum(c * hz ** i * hpow[d - 1 - i] for i, c in enumerate(acc))

    base = common * hpow[d - 1]
    lefts = [(atom.numerator * base, atom.denominator)]  # V(s_i-) = left / (base q)
    lefts += [(at(acc, hz), 1) for acc, hz in zip(accs, hlevels[1:])]
    for z, hz, acc, (left, q) in zip(levels, hlevels, accs, lefts):
        right = at(acc, hz)
        if right * q != left:
            raise CertificateFailed(f"volume profile discontinuous at level {z}: "
                                    f"{F(left, base * q)} -> {F(right, base)}")
    ends = hlevels + [hlevels[-1] + scale_h]
    integral = sum(c * (math.factorial(d) // (k + 1)) * (hb ** (k + 1) - ha ** (k + 1))
                   * hpow[d - 1 - k]
                   for acc, ha, hb in zip(accs, ends, ends[1:]) for k, c in enumerate(acc))
    if integral * scale ** d != total * scale_h ** d * common:
        raise CertificateFailed(
            f"volume profile integrates to "
            f"{F(integral, math.factorial(d) * scale_h ** d * common)} up to level "
            f"{top}, not to the capped epigraph's volume "
            f"{F(total, math.factorial(d) * scale ** d)}")
    polys = [ptrim(F(c, common) for c in acc) for acc in accs]
    return LevelVolumeProfile(n, t_min, atom, tuple(levels), tuple(polys[:-1]), polys[-1])


# ---------------------------------------------------------------------------
# Construction, lattice operations and the conjugacy layer
# ---------------------------------------------------------------------------


def plain_checked(n, pieces, domain, epi, coercive):
    """The function of ``pieces`` with the given epigraph, after the builder's
    checks: the builder that kept every piece it was given."""
    if epi.is_empty:
        raise EmptyDomain("empty domain: the function is improper")
    if coercive and not functions._check_coercive(epi, n):
        raise NotCoercive("some sublevel set is unbounded")
    return functions.PWAConvex(n, pieces, domain, epi, coercive)


def oracle_active_cells(n, pieces, domain):
    pieces = list(dict.fromkeys(pieces))
    if len(pieces) == 1:
        return ((pieces[0], Polyhedron(hrep=domain)),)
    cells = []
    for i, (ai, bi) in enumerate(pieces):
        rows = domain.halfspaces + tuple((vec_sub(aj, ai), bi - bj)
                                         for j, (aj, bj) in enumerate(pieces) if j != i)
        cell = Polyhedron(hrep=HRep(n, rows))
        if not cell.is_empty:
            cells.append(((ai, bi), cell))
    return tuple(cells)


def oracle_build_pruned_by_cells(n, pieces, domain, coercive):
    """Pruning by one cell polyhedron, and one double description, per piece."""
    pieces = [(_fracvec(a), F(b)) for a, b in pieces]
    kept = tuple(p for p, _ in oracle_active_cells(n, pieces, domain))
    return plain_checked(n, kept, domain, functions._epigraph_of(n, kept, domain), coercive)


def oracle_build_pruned_by_dots(n, pieces, domain, coercive):
    """Pruning by Fraction dots of each piece against each epigraph vertex."""
    pieces = tuple(dict.fromkeys((_fracvec(a), F(b)) for a, b in pieces))
    epi = functions._epigraph_of(n, pieces, domain)
    verts = epi.vrep.vertices
    active = tuple((a, b) for a, b in pieces
                   if any(dot(a, v[:n]) + b == v[n] for v in verts))
    if 0 < len(active) < len(pieces):
        pieces, epi = active, functions._epigraph_of(n, active, domain)
    return plain_checked(n, pieces, domain, epi, coercive)


@contextmanager
def building_by(route):
    """``functions`` and ``conjugacy`` build every function by ``route``."""
    with mock.patch.object(functions, "_build", route), \
            mock.patch.object(conjugacy, "_build", route):
        yield


def hull_of(u, v):
    """conv(epi u U epi v) from the Fraction V-reps of both epigraphs."""
    gu, gv = u.epigraph.vrep, v.epigraph.vrep
    return Polyhedron.from_generators(u.n + 1, gu.vertices + gv.vertices,
                                      gu.rays + gv.rays, gu.lines + gv.lines)


def oracle_sup(u, v):
    """``sup`` as it was: a double description of the common domain for its
    emptiness, then ``make`` of both functions' pieces."""
    if u.n != v.n:
        raise DimensionMismatch("dimension mismatch in sup")
    dom = HRep(u.n, u.domain.halfspaces + v.domain.halfspaces)
    if Polyhedron(hrep=dom).is_empty:
        raise EmptyDomain("sup has empty domain; the maximum is improper")
    return make(u.pieces + v.pieces, dom, n=u.n, coercive=u.coercive or v.coercive)


def oracle_pair_by_sup(seed, n):
    """(u, v) of ``generate_pair_with_convex_min`` as they were built: l and
    2w - l as functions of their own, each joined with w by ``oracle_sup``."""
    rng = random.Random(f"pair-{seed}-{n}")
    w = _random_coercive_base(rng, n)
    g = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    c = F(rng.randint(-4, 4), rng.randint(1, 3))
    ell = make([(g, c)], n=n, coercive=False)
    reflected = make([(tuple(2 * a - gg for a, gg in zip(slope, g)), 2 * b - c)
                      for slope, b in w.pieces], n=n, coercive=False)
    return oracle_sup(w, ell), oracle_sup(w, reflected)


class PairAsBuilt:
    """``FixturePair`` as it was: the generator set its wedge and vee."""
    provenance = "sup-reflection"

    def __init__(self, u, v, seed, wedge, vee):
        self.u, self.v, self.seed, self.wedge, self.vee = u, v, seed, wedge, vee

    def lattice(self):
        return self.wedge, self.vee


def oracle_generate_pair(seed, n):
    """``generate_pair_with_convex_min`` as it was: the wedge is the
    ``inf_if_convex`` result, built by comparing its epigraph with w's, and
    the vee an eager ``sup``."""
    if not 1 <= n <= 4:
        raise DimensionMismatch("pair generator supports n in 1..4")
    rng = random.Random(f"pair-{seed}-{n}")
    w = _random_coercive_base(rng, n)
    g = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    c = F(rng.randint(-4, 4), rng.randint(1, 3))
    u = make(w.pieces + ((g, c),), n=n)
    v = make(w.pieces + tuple((tuple(2 * a - gg for a, gg in zip(slope, g)), 2 * b - c)
                              for slope, b in w.pieces), n=n)
    wedge = functions.inf_if_convex(u, v)
    if not (wedge.n == w.n and wedge.epigraph == w.epigraph):
        raise CertificateFailed(f"pair seed={seed} n={n}: u wedge v differs from the base w")
    return PairAsBuilt(u, v, seed, wedge, functions.sup(u, v))


def oracle_inf_if_convex(u, v):
    """One fresh double description per facet pair of the hull."""
    n = u.n
    hull = hull_of(u, v)
    eu, ev = u.epigraph, v.epigraph
    for g, cg in eu.canonical_hrep.halfspaces:
        for h, ch in ev.canonical_hrep.halfspaces:
            rows = list(hull.hrep.halfspaces)
            rows.append((tuple(-x for x in g), -cg))
            rows.append((tuple(-x for x in h), -ch))
            q = Polyhedron(hrep=HRep(n + 1, tuple(rows)))
            if q.is_empty:
                continue
            if not is_implicit(q, g, cg) and not is_implicit(q, h, ch):
                raise NotConvexMin(q.relint_point()[:n])
    return from_epigraph(hull, coercive=u.coercive and v.coercive)


def oracle_from_epigraph(epi, *, coercive=True):
    """``from_epigraph`` as it was: the checks on the canonical H-rep, and
    the build right away."""
    n = epi.d - 1
    if epi.is_empty:
        raise EmptyDomain("empty epigraph")
    pieces = []
    dom_rows = []
    for w, c in epi.canonical_hrep.halfspaces:
        a, tc = w[:n], w[n]
        if tc < 0:
            pieces.append((tuple(x / -tc for x in a), c / tc))
        elif tc == 0:
            dom_rows.append((a, c))
        else:
            raise ValueError("polyhedron is not an epigraph (violates recession (0,1))")
    if not pieces:
        raise UnboundedPolyhedron(
            "polyhedron is unbounded below; not the epigraph of a proper function")
    return functions._build(n, pieces, HRep(n, tuple(dom_rows)), coercive)


def oracle_cone_function(k, t=0):
    """``cone_function`` as it was: built afresh on every call, from the
    Fraction vertices of the body."""
    origin = tuple(F(0) for _ in range(k.d))
    epi = Polyhedron.from_generators(k.d + 1, [origin + (F(0),)],
                                     rays=[tuple(v) + (F(1),) for v in k.vrep.vertices])
    u = from_epigraph(epi, coercive=True)
    return u.translate_graph(t) if F(t) != 0 else u


def oracle_satisfies(h, x):
    x = tuple(F(c) for c in x)
    return all(dot(a, x) <= b for a, b in h.halfspaces)


def oracle_eval(u, x):
    x = tuple(F(c) for c in x)
    if not oracle_satisfies(u.domain, x):
        return inf
    return max(dot(a, x) + b for a, b in u.pieces)


def oracle_holds_for(bound, u):
    n = u.n
    g = u.epigraph.vrep
    if g.lines:
        return False
    for v in g.vertices:
        xv, tv = v[:n], v[n]
        gap = tv - bound.b
        if gap <= 0 or gap * gap <= bound.a * bound.a * dot(xv, xv):
            return False
    for r in g.rays:
        rx, s = r[:n], r[n]
        if s <= 0 or s * s <= bound.a * bound.a * dot(rx, rx):
            return False
    return True


def oracle_cone_bound_by_conjugate(u):
    """The slope from the facets of the conjugate's epigraph."""
    if not u.coercive:
        raise NotCoercive("cone_bound requires a coercive function")
    n = u.n
    star = conjugate(u)
    rows = star.epigraph.canonical_hrep.halfspaces
    radius_sq = None
    for w, c in rows:
        if w[n] != 0:
            continue
        cc = dot(w[:n], w[:n])
        if cc == 0:
            continue
        cand = c * c / (4 * cc)
        if radius_sq is None or cand < radius_sq:
            radius_sq = cand
    a = F(1) if radius_sq is None else _rational_sqrt_lower(radius_sq)
    if a <= 0:
        raise NotCoercive("failed to certify a positive cone slope")
    verts = u.epigraph.vrep.vertices
    m = max(2 * a * sum(abs(f) for f in v[:n]) - v[n] for v in verts)
    bound = ConeBound(a, -m - 1)
    if not bound.holds_for(u):
        raise CertificateFailed(f"cone bound {bound} fails its exact re-check")
    return bound


# ---------------------------------------------------------------------------
# Projections: every subset of every cell
# ---------------------------------------------------------------------------


def oracle_moreau(u, t, x):
    """The least value over every independent subset of every cell's rows."""
    t, x, n = F(t), tuple(F(c) for c in x), u.n
    best = None
    for (ai, bi), cell in u.cells:
        crows = cell.canonical_hrep.halfspaces
        y0 = vec_sub(x, tuple(t * a for a in ai))
        for k in range(0, min(n, len(crows)) + 1):
            for subset in combinations(range(len(crows)), k):
                gs = [crows[s][0] for s in subset]
                cs = [crows[s][1] for s in subset]
                if k and rank(gs) < k:
                    continue
                if k:
                    gram = [[t * dot(g1, g2) for g2 in gs] for g1 in gs]
                    rhs = [dot(g, y0) - c for g, c in zip(gs, cs)]
                    lam = solve(gram, rhs)
                    if lam is None or any(l < 0 for l in lam):
                        continue
                    y = tuple(y0[j] - t * sum(lam[m] * gs[m][j] for m in range(k))
                              for j in range(n))
                else:
                    y = y0
                if not all(dot(g, y) <= c for g, c in crows):
                    continue
                diff = vec_sub(x, y)
                val = dot(ai, y) + bi + dot(diff, diff) / (2 * t)
                if best is None or val < best:
                    best = val
    return best


def oracle_dist2(x, poly):
    """The least squared distance over every face projection in the body."""
    if poly.contains(x):
        return F(0)
    rows = poly.canonical_hrep.halfspaces
    best = None
    for k in range(1, min(poly.d, len(rows)) + 1):
        for subset in combinations(rows, k):
            normals = [a for a, _ in subset]
            if rank(normals) < k:
                continue
            gram = [[dot(a, b) for b, _ in subset] for a in normals]
            lam = solve(gram, [dot(a, x) - b for a, b in subset])
            if lam is None:
                continue
            proj = x
            for coeff, a in zip(lam, normals):
                proj = vec_sub(proj, vec_scale(coeff, a))
            if poly.contains(proj):
                dist2 = dot(vec_sub(proj, x), vec_sub(proj, x))
                if best is None or dist2 < best:
                    best = dist2
    return best


def oracle_nearest_point(p, x, budget=10 ** 6):
    """``nearest_point`` on Fraction rows, a ``rank`` and a ``solve`` per subset."""
    if p.is_empty:
        raise EmptyPolyhedron("nearest point in the empty set")
    x = tuple(F(c) for c in x)
    rows = p.canonical_hrep.halfspaces
    used = 0
    for k in range(min(p.d, len(rows)) + 1):
        for subset in combinations(rows, k):
            used += 1
            if used > budget:
                raise BudgetExceeded(f"nearest_point exceeded the {budget}-subset budget")
            normals = [a for a, _ in subset]
            y = x
            if k:
                if rank(normals) < k:
                    continue
                lam = solve([[dot(a, b) for b in normals] for a in normals],
                            [dot(a, x) - c for a, c in subset])
                if lam is None or any(l < 0 for l in lam):
                    continue
                for coeff, a in zip(lam, normals):
                    y = vec_sub(y, vec_scale(coeff, a))
            if all(dot(a, y) <= c for a, c in rows):
                return y
    raise AssertionError("no face projection of the point lies in the polyhedron")


def oracle_hausdorff_distance(k, l):
    """The largest squared distance from a ``Fraction`` vertex of one body
    to its nearest point in the other, in ``Fraction``s."""
    if k.d != l.d:
        raise DimensionMismatch("ambient dimensions differ")
    if k.is_empty or l.is_empty:
        return 0.0 if k.is_empty and l.is_empty else inf
    if not (k.is_bounded and l.is_bounded):
        raise UnboundedPolyhedron("Hausdorff distance needs bounded bodies")
    worst2 = F(0)
    for a, b in ((k, l), (l, k)):
        for v in a.vrep.vertices:
            gap = vec_sub(oracle_nearest_point(b, v), v)
            worst2 = max(worst2, dot(gap, gap))
    return math.sqrt(worst2)


# ---------------------------------------------------------------------------
# Growth functions: the per-site integrals that one weighted integral replaced
# ---------------------------------------------------------------------------


def _kernel_partial(p, d, n):
    """Poly in t: Integral_t^d (r - t)^(n-1) p(r) dr, expanding (r - t)^(n-1)
    binomially."""
    out = ()
    for a in range(n):
        coef = F(math.comb(n - 1, a) * (-1) ** (n - 1 - a))
        q = pantider(pmul((F(0),) * a + (F(1),), p))
        inner = padd((peval(q, d),), pscale(-1, q))  # Q(d) - Q(t)
        mono = (F(0),) * (n - 1 - a) + (coef,)
        out = padd(out, pmul(mono, inner))
    return out


def oracle_moment(zeta, k):
    """``moment`` walking zeta's regions itself."""
    tk = (F(0),) * k + (F(1),)
    total = F(0)
    b = zeta.breakpoints
    if b[0] > 0 and zeta.left:
        total += pint(pmul(tk, zeta.left), 0, b[0])
    for i, p in enumerate(zeta.pieces):
        lo, hi = max(b[i], F(0)), b[i + 1]
        if hi > 0 and p:
            total += pint(pmul(tk, p), max(lo, F(0)), hi)
    if zeta.tail is None:
        return total
    lam, coeffs = zeta.tail
    return float(total) + tail_integral(lam, pmul(tk, coeffs), max(b[-1], F(0)))


def oracle_psi_from_the_right(zeta, n):
    """``psi_from_zeta`` as it was on polynomial-compact zeta: the kernel's
    differences give the fixed-limit integrals of the pieces to the right of
    t, summed once from the right."""
    b = zeta.breakpoints
    acc = ()
    pieces = []
    for j in reversed(range(len(zeta.pieces))):
        p = zeta.pieces[j]
        acc = padd(acc, _kernel_partial(p, b[j + 1], n))
        pieces.append(pscale(n, acc))
        acc = padd(acc, pscale(-1, _kernel_partial(p, b[j], n)))
    left = pscale(n, padd(_kernel_partial(zeta.left, b[0], n), acc))
    return GrowthFunction(b, tuple(reversed(pieces)), left, None, False)


def oracle_numeric_psi_by_fractions(zeta, n, t):
    """``NumericPsi.eval`` as it was: the integrand evaluates zeta at each
    float node as ``float(zeta.eval(r))``, through ``Fraction`` arithmetic,
    and subtracts the float t."""
    import mpmath
    t = float(t)
    cuts = [t] + [float(b) for b in zeta.breakpoints if float(b) > t]
    f = lambda r: (r - t) ** (n - 1) * float(zeta.eval(float(r)))
    return float(n * mpmath.quad(f, cuts + [mpmath.inf]))


def oracle_tail_integral_by_factorials(lam, coeffs, a):
    """``tail_integral_exact`` as it was: R = sum_m c_m sum_i m!/i! a^i /
    lam^(m-i+1), skipping zero coefficients."""
    lam, a = F(lam), F(a)
    total = F(0)
    for m, c in enumerate(coeffs):
        if c == 0:
            continue
        term = sum(F(math.factorial(m), math.factorial(i)) * a ** i / lam ** (m - i + 1)
                   for i in range(m + 1))
        total += c * term
    return total


def oracle_integral_against_by_region(zeta, breaks, polys, start):
    """``integral_against`` on a sorted set of cuts, with one ``region_at``
    per interval midpoint."""
    cuts = sorted({c for c in breaks + zeta.breakpoints if c > start})
    cuts = [start] + cuts
    num, den = 0, 1
    fl = 0.0
    has_float = False
    i = 0
    for a, b in zip(cuts, cuts[1:]):
        while i + 1 < len(breaks) and breaks[i + 1] < b:
            i += 1
        fp = polys[i]
        kind, payload = zeta.region_at((a + b) / 2)
        if kind in ("left", "piece") and payload and fp:
            q = math.lcm(*(c.denominator for c in (*payload, *fp)))
            zs, fs = ([c.numerator * (q // c.denominator) for c in p] for p in (payload, fp))
            prod = [0] * (len(zs) + len(fs) - 1)
            for j, zc in enumerate(zs):
                for k, fc in enumerate(fs):
                    prod[j + k] += zc * fc
            m = len(prod)
            lm = math.lcm(*range(1, m + 1))
            an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
            x, y, e = bn * ad, an * bd, ad * bd
            part = sum(lm // k * c * e ** (m - k) * (x ** k - y ** k)
                       for k, c in enumerate(prod, 1))
            pden = q * q * lm * e ** m
            new = math.lcm(den, pden)
            num, den = num * (new // den) + part * (new // pden), new
        elif kind == "tail" and fp:
            lam, coeffs = payload
            fl += (tail_integral(lam, pmul(coeffs, fp), a)
                   - tail_integral(lam, pmul(coeffs, fp), b))
            has_float = True
    fp = polys[-1]
    if zeta.tail is not None and fp:
        lam, coeffs = zeta.tail
        fl += tail_integral(lam, pmul(coeffs, fp), cuts[-1])
        has_float = True
    exact = F(num, den)
    return float(exact) + fl if has_float else exact


def oracle_integral_valuation(zeta, u):
    """The valuation adding exact and float parts by its own branches."""
    prof = level_volume_profile(u)
    atom_term = zeta.eval(prof.t_min) * prof.atom
    rest = oracle_integral_against_by_region(zeta, prof.breakpoints, prof._derivatives,
                                             prof.t_min)
    if isinstance(atom_term, F) and isinstance(rest, F):
        return atom_term + rest
    return float(atom_term) + float(rest)


def oracle_combined_valuation(zeta0, zetan, u):
    a = min_valuation(zeta0, u)
    b = oracle_integral_valuation(zetan, u)
    if isinstance(a, F) and isinstance(b, F):
        return a + b
    return float(a) + float(b)


def oracle_nonneg_on(sympy, c, a, b) -> bool:
    """``poly_nonneg_on`` by sympy's real roots of p' (the route Sturm
    sequences replaced)."""
    c = ptrim(c)
    if not c:
        return True
    t = sympy.Symbol("t")
    p = sympy.Poly(sum(sympy.Rational(x) * t ** i for i, x in enumerate(c)), t)
    lo = sympy.Rational(a)
    hi = sympy.oo if b is None else sympy.Rational(b)
    candidates = [lo] if b is None else [lo, hi]
    for r in sympy.Poly(p.diff(t), t).real_roots():
        if lo <= r and (b is None or r <= hi):
            candidates.append(r)
    if b is None:
        if len(c) == 1:
            return c[0] >= 0
        if c[-1] < 0:
            return False
    return all(p.eval(r) >= 0 for r in candidates)
