"""Fixture generators, executable checks for the valuation identities, and
the law suites (``SUITES``) that ``convval laws`` and the acceptance tests run.

Everything here is deterministic per seed; exact rational comparisons are
used wherever both sides are rational (tolerance 0), with floats appearing
only in Hausdorff-distance convergence surrogates.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CertificateFailed, DimensionMismatch
from .functions import (PWAConvex, cone_function, inf_if_convex, make,
                        pwa_equal, scale_values, sup, transform)
from .conjugacy import biconjugate_check, cone_bound, inf_convolution
from .growth import (GrowthFunction, check_derivative_relation,
                     check_psi_vanishes, make_growth, peval, psi_from_zeta)
from .linalg import vec_scale
from .polyhedra import HRep, Polyhedron, hausdorff_distance, random_unimodular
from .reports import SUITE_NAMES, LawReport
from .valuation import combined_valuation


@dataclass(frozen=True)
class FixturePair:
    """A certified pair (u, v): ``wedge`` is the base w that u wedge v was
    certified equal to; ``vee`` is u vee v, built on first read and kept."""
    u: PWAConvex
    v: PWAConvex
    seed: int
    wedge: PWAConvex
    provenance = "sup-reflection"

    @cached_property
    def vee(self) -> PWAConvex:
        return sup(self.u, self.v)

    def lattice(self) -> tuple[PWAConvex, PWAConvex]:
        """(u wedge v, u vee v)."""
        return self.wedge, self.vee


def default_zetas() -> list[tuple[GrowthFunction, GrowthFunction]]:
    """The three (zeta_0, zeta_n) weight pairs of the law suites and acceptance tests."""
    return [
        (make_growth([0, 2], [[2, -1]]), make_growth([0, 1], [[1, -1]])),
        (make_growth([-1, 1], [[1, 0, -1]]), make_growth([0, 3], [[3, -1]])),
        (make_growth([0, 1], [[0, 1]]), make_growth([0, 2], [[2, 0, 0, -1]])),
    ]


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def _compare(left, right):
    if isinstance(left, Fraction) and isinstance(right, Fraction):
        return left == right, 0
    return abs(float(left) - float(right)) <= 1e-9, 1e-9


def check_valuation_identity(zfn: Callable[[PWAConvex], object],
                             pair: FixturePair) -> LawReport:
    """Z(u v-join) + Z(u wedge v) = Z(u) + Z(v) on a certified pair."""
    wedge, vee = pair.lattice()
    left = zfn(wedge) + zfn(vee)
    right = zfn(pair.u) + zfn(pair.v)
    ok, tol = _compare(left, right)
    return LawReport("valuation_identity", f"{pair.provenance} seed={pair.seed}",
                     ok, left, right, tol)


def check_min_lattice(pair: FixturePair) -> LawReport:
    """min over the lattice: min(u wedge v) = min of minima and
    min(u vee v) = max of minima."""
    mu = pair.u.min_value()[0]
    mv = pair.v.min_value()[0]
    wedge, vee = pair.lattice()
    ok = (wedge.min_value()[0] == min(mu, mv)
          and vee.min_value()[0] == max(mu, mv))
    return LawReport("min_lattice", f"{pair.provenance} seed={pair.seed}", ok,
                     (wedge.min_value()[0], vee.min_value()[0]),
                     (min(mu, mv), max(mu, mv)))


def check_invariance(zfn: Callable[[PWAConvex], object], u: PWAConvex,
                     trials: int, seed: int, translations: int = 1) -> LawReport:
    """Zfn(u after unimodular map + translation) = Zfn(u), exactly, per trial."""
    base = zfn(u)
    rng = random.Random(f"invariance-{seed}")
    n = u.n
    tol = 0
    for trial in range(trials):
        phi = random_unimodular(rng.randrange(2 ** 30), n, 6)
        for _ in range(translations):
            tau = tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 5))
                        for _ in range(n))
            moved = zfn(transform(u, phi, tau))
            ok, tol = _compare(base, moved)
            if not ok:
                return LawReport("invariance", f"seed={seed}", False, base, moved, tol,
                                 witness=(phi, tau))
    return LawReport("invariance", f"seed={seed} trials={trials}", True, base, base, tol)


# ---------------------------------------------------------------------------
# Pair generation
# ---------------------------------------------------------------------------

def _random_coercive_base(rng: random.Random, n: int) -> PWAConvex:
    """Coercive max-of-affine with pieces covering every sign orthant."""
    pieces = []
    for mask in range(2 ** n):
        slope = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 2))
                      * (1 if mask >> i & 1 else -1) for i in range(n))
        pieces.append((slope, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
    return make(pieces, n=n)


def generate_pair_with_convex_min(seed: int, n: int) -> FixturePair:
    """Certified pair built from a base w and an affine cut:
    u = w sup l, v = w sup (2w - l), so u wedge v = w exactly.

    u and v are built from their pieces on R^n: w's pieces, then l = (g, c),
    or the pieces (2a - g, 2b - c) of 2w - l, one per piece (a, b) of w.
    The certificate is ``inf_if_convex(u, v)`` (NotConvexMin if not convex)
    equal to w, so the pair's ``wedge`` is w itself.
    """
    if not 1 <= n <= 4:
        raise DimensionMismatch("pair generator supports n in 1..4")
    rng = random.Random(f"pair-{seed}-{n}")
    w = _random_coercive_base(rng, n)
    g = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    u = make(w.pieces + ((g, c),), n=n)
    v = make(w.pieces + tuple((tuple(2 * a - gg for a, gg in zip(slope, g)), 2 * b - c)
                              for slope, b in w.pieces), n=n)
    if not pwa_equal(inf_if_convex(u, v), w):
        raise CertificateFailed(f"pair seed={seed} n={n}: u wedge v differs from the base w")
    return FixturePair(u, v, seed, wedge=w)


def random_body(seed: int, n: int, extra_points: int = 3) -> Polyhedron:
    """Random bounded polytope with the origin in its interior."""
    rng = random.Random(f"body-{seed}-{n}")
    pts = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(rng.randint(1, 3))
        pts.append(tuple(e))
        e2 = list(e)
        e2[i] = -Fraction(rng.randint(1, 3))
        pts.append(tuple(e2))
    for _ in range(extra_points):
        pts.append(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                         for _ in range(n)))
    return Polyhedron.from_generators(n, pts)


# ---------------------------------------------------------------------------
# Paper fixtures
# ---------------------------------------------------------------------------

def truncation_fixture(n: int, s):
    """The truncation family: (u_s, l_P, l_{P,s}, l_{Q,s}).

    P = conv{0, (e1+e2)/2, e2, ..., en} and Q = conv{0, e2, ..., en} (so Q has
    zero n-volume).  u_s is l_P restricted to the slab x1 <= s/2 (epigraph
    cut), and l_{P,s}, l_{Q,s} are the cone functions translated by
    s(e1+e2)/2 and lifted by s.  Exact identities:
    u_s wedge l_{P,s} = l_P and u_s vee l_{P,s} = l_{Q,s}.
    """
    if n < 2:
        raise DimensionMismatch("truncation fixture needs n >= 2")
    s = Fraction(s)
    if s <= 0:
        raise ValueError("truncation fixture needs s > 0")
    zero = tuple(Fraction(0) for _ in range(n))

    def e(i):
        v = [Fraction(0)] * n
        v[i] = Fraction(1)
        return tuple(v)

    half = tuple((x + y) / 2 for x, y in zip(e(0), e(1)))
    p = Polyhedron.from_generators(n, [zero, half] + [e(i) for i in range(1, n)])
    q = Polyhedron.from_generators(n, [zero] + [e(i) for i in range(1, n)])
    lp = cone_function(p)
    lq = cone_function(q)
    slab = make([(zero, 0)], HRep(n, ((e(0), s / 2),)), n=n, coercive=False)
    u_s = sup(lp, slab)
    tau = vec_scale(s, half)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    lps = transform(lp, identity, tau, shift=s)
    lqs = transform(lq, identity, tau, shift=s)
    return u_s, lp, lps, lqs


def staircase_fixture(k: int, h: Sequence, i: int) -> PWAConvex:
    """The staircase function u_i^h(x) = sum_{j > i} h_j x_j on
    {0 <= x_j <= 1 for j <= i,  x_j >= 0 for j > i} in R^k.

    u_0^h is the cone function of conv{0, e_j / h_j}; u_k^h is the indicator
    of the unit cube.
    """
    h = tuple(Fraction(x) for x in h)
    if len(h) != k or any(x <= 0 for x in h):
        raise ValueError("need k positive rationals h")
    if not 0 <= i <= k:
        raise ValueError("invalid staircase index i")
    slope = tuple(Fraction(0) if j < i else h[j] for j in range(k))
    rows = []
    for j in range(k):
        e = [Fraction(0)] * k
        e[j] = Fraction(-1)
        rows.append((tuple(e), Fraction(0)))       # x_j >= 0
        if j < i:
            e2 = [Fraction(0)] * k
            e2[j] = Fraction(1)
            rows.append((tuple(e2), Fraction(1)))  # x_j <= 1
    return make([(slope, Fraction(0))], HRep(k, tuple(rows)), n=k)


def staircase_limit_check(zeta, k: int, t, h_values: Sequence) -> LawReport:
    """k-th forward difference quotients of psi_k converge to zeta(t).

    q(h) = ((-1)^k / k!) * Delta_h^k psi(t) / h^k  ->  zeta(t) with O(h) error;
    reports the empirical convergence order (log-log regression) and checks
    the exact symbolic limit ((-1)^k/k!) psi^{(k)}(t) = zeta(t) with zero
    tolerance.
    """
    if not h_values:
        raise ValueError("need at least one step h")
    t = Fraction(t)
    psi = psi_from_zeta(zeta, k)

    sign = Fraction((-1) ** k, math.factorial(k))
    quotients = []
    errors = []
    target = zeta.eval(t)
    for h in h_values:
        h = Fraction(h)
        delta = sum((-1) ** (k - j) * math.comb(k, j) * psi.eval(t + j * h)
                    for j in range(k + 1))
        q = sign * delta / h ** k
        quotients.append(q)
        errors.append(abs(q - target))
    exact_limit = sign * psi.derivative_pieces(k).eval(t)
    order = None
    nonzero = [(float(h), float(e)) for h, e in zip(map(Fraction, h_values), errors) if e != 0]
    if len(nonzero) >= 2:
        order = statistics.linear_regression([math.log(h) for h, _ in nonzero],
                                             [math.log(e) for _, e in nonzero]).slope
    final_error = float(errors[-1])
    ok = exact_limit == target and final_error <= 1e-2 and (order is None or order >= 0.9)
    return LawReport("staircase_limit", f"k={k} t={t}", ok,
                     exact_limit, target,
                     details={"quotients": quotients, "errors": errors,
                              "order": order, "final_error": final_error})


# ---------------------------------------------------------------------------
# Smoothing and convergence
# ---------------------------------------------------------------------------

def smoothing_sequence(u: PWAConvex, k_steep: Polyhedron, k: int) -> PWAConvex:
    """u_k = u inf-convolved with the steepened cone function k * l_K.

    K must contain the origin in its interior so the cone function is finite
    everywhere; then u_k <= u and u_k -> u as k grows.
    """
    if k < 1:
        raise ValueError("steepness index k must be >= 1")
    return inf_convolution(u, scale_values(cone_function(k_steep), k))


_LEVEL_TOLERANCE = 1e-6  # the last distance at each level must be below it


def check_level_convergence(sequence: Sequence[PWAConvex], u: PWAConvex,
                            levels: Sequence) -> LawReport:
    """Per-level Hausdorff distances nonincreasing and finally below
    ``_LEVEL_TOLERANCE``.

    ``hausdorff_distance`` keeps the paper's empty-set convention: 0 where
    both sublevel sets are empty, inf (a failure of that element) where
    exactly one is.
    """
    per_level = {}
    ok = True
    witness = None
    for t in levels:
        su = u.sublevel(t)
        dists = [hausdorff_distance(su, uk.sublevel(t)) for uk in sequence]
        per_level[Fraction(t)] = dists
        monotone = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        if not (monotone and dists[-1] < _LEVEL_TOLERANCE):
            ok = False
            witness = (Fraction(t), dists)
    return LawReport("level_convergence", f"levels={list(levels)}", ok,
                     witness=witness, tolerance=_LEVEL_TOLERANCE,
                     details={"distances": per_level})


# ---------------------------------------------------------------------------
# Law suites, shared by ``convval laws`` and the acceptance tests
# ---------------------------------------------------------------------------

def random_weights(key: str, count: int) -> list[GrowthFunction]:
    """``count`` weights from ``random.Random(key)``: quadratic on [b0, b1], affine on [b1, b2]."""
    rng = random.Random(key)
    weights = []
    for _ in range(count):
        b = sorted(rng.sample(range(-4, 9), 3))
        p1 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        slope = Fraction(rng.randint(-4, 4), 2)
        weights.append(make_growth(b, [p1, [peval(p1, b[1]) - slope * b[1], slope]]))
    return weights


def smoothing_inputs(u: PWAConvex) -> tuple[list[PWAConvex], list[Fraction]]:
    """u smoothed by k l_B, B = [-1, 1]^n, k = 4^0 .. 4^5; the levels min u + 1, + 2."""
    ball = Polyhedron.box([(-1, 1)] * u.n)
    tmin = u.min_value()[0]
    return ([smoothing_sequence(u, ball, 2 ** j) for j in range(0, 11, 2)],
            [tmin + j for j in (1, 2)])


def staircase_reports(zetas: Sequence[GrowthFunction], h_values: Sequence) -> list[LawReport]:
    """:func:`staircase_limit_check` for k in {1, 2}, each weight and t in {1/4, 1/2}."""
    return [staircase_limit_check(z, k, t, h_values)
            for k in (1, 2) for z in zetas for t in (Fraction(1, 4), Fraction(1, 2))]


def valuation_suite(seed: int, count: int, n: int) -> list[LawReport]:
    """Per pair: the valuation identity for each default weight pair, then min_lattice."""
    reports = []
    zetas = default_zetas()
    for i in range(count):
        pair = generate_pair_with_convex_min(seed + i, n)
        reports += [check_valuation_identity(lambda u: combined_valuation(z0, zn, u), pair)
                    for z0, zn in zetas]
        reports.append(check_min_lattice(pair))
    return reports


def invariance_suite(seed: int, count: int, n: int) -> list[LawReport]:
    """Invariance of the first default weight pair on each pair's u."""
    z0, zn = default_zetas()[0]
    zfn = lambda u: combined_valuation(z0, zn, u)
    return [check_invariance(zfn, generate_pair_with_convex_min(seed + i, n).u,
                             trials=3, seed=seed + i, translations=2)
            for i in range(count)]


def growth_suite(seed: int, count: int, n: int) -> list[LawReport]:
    """The derivative relation and the vanishing of psi_n on random weights."""
    return [check(zeta, n) for zeta in random_weights(f"growth-suite-{seed}", count)
            for check in (check_derivative_relation, check_psi_vanishes)]


def convergence_suite(seed: int, count: int, n: int) -> list[LawReport]:
    """Level-set convergence of each pair's u along :func:`smoothing_inputs`."""
    reports = []
    for i in range(count):
        u = generate_pair_with_convex_min(seed + i, n).u
        seq, levels = smoothing_inputs(u)
        reports.append(check_level_convergence(seq, u, levels))
    return reports


def staircase_suite(seed: int, count: int, n: int) -> list[LawReport]:
    """Staircase limits of the first ``count`` default zeta_n at h = 2^-1 .. 2^-8.

    The staircase fixtures are fixed (k in {1, 2}), so ``seed`` and ``n`` are
    ignored: every seed and n give the same reports.
    """
    zetas = [z for _, z in default_zetas()][:count]
    return staircase_reports(zetas, [Fraction(1, 2 ** j) for j in range(1, 9)])


def conjugacy_suite(seed: int, count: int, n: int) -> list[LawReport]:
    """Biconjugation of each pair's u and v; u's certified cone bound (in details)."""
    reports = []
    for i in range(count):
        pair = generate_pair_with_convex_min(seed + i, n)
        reports += [LawReport("biconjugation", f"seed={seed + i}", biconjugate_check(u))
                    for u in (pair.u, pair.v)]
        bound = cone_bound(pair.u)
        reports.append(LawReport("cone_bound_certificate", f"seed={seed + i}",
                                 bound.holds_for(pair.u), details={"bound": bound}))
    return reports


# Suite name -> (fn(seed, count, n) -> reports, the most pairs or weights it
# runs): ``<name>_suite`` for each of SUITE_NAMES, in its order.
_CAPS = {"convergence": 5, "staircase": 3}  # staircase: one per default_zetas() pair
SUITES: dict[str, tuple[Callable[[int, int, int], list[LawReport]], int | None]] = {
    name: (globals()[f"{name}_suite"], _CAPS.get(name)) for name in SUITE_NAMES}
