"""Integer profile sums and integer simplex volumes against the Fraction
route they replaced.

The oracles below are the ``level_volume_profile`` and ``volume`` that
``valuation`` and ``polyhedra`` used before: the epigraph capped by a fresh
``intersect``, one ``Fraction`` determinant per simplex and one
``Fraction`` divided-difference expansion (``oracle_local_series``) per
simplex.  Every comparison is an exact ``==`` on ``LevelVolumeProfile`` or
on the volume.  The count guards make a determinant, a fresh double
description for the cap or a per-simplex expansion fail a test, not only
a benchmark run.
"""

import math
from collections import Counter
from fractions import Fraction as F
from itertools import product
from unittest import mock

from hypothesis import given, settings, strategies as st

from convval import linalg, polyhedra, valuation
from convval.errors import CertificateFailed
from convval.functions import cone_function, indicator_function, make
from convval.growth import padd, peval
from convval.laws import generate_pair_with_convex_min, random_body
from convval.linalg import determinant, vec_sub
from convval.polyhedra import HRep, Polyhedron, intersect, triangulate, volume
from convval.valuation import LevelVolumeProfile, level_volume_profile
from counting import counted

# ---------------------------------------------------------------------------
# Oracles: the Fraction route
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
    for simplex in triangulate(p):
        total += abs(determinant([vec_sub(q, simplex[0]) for q in simplex[1:]]))
    return total / math.factorial(d)


def oracle_profile(u):
    """The profile by the Fraction route; reads no cache and writes none."""
    n = u.n
    d = n + 1
    levels = sorted({v[n] for v in u.epigraph.vrep.vertices})
    t_min = levels[0]
    atom = oracle_volume(u.sublevel(t_min))
    top = levels[-1] + 1
    up = tuple(F(0) for _ in range(n)) + (F(1),)
    capped = intersect(u.epigraph, HRep(d, ((up, top),)))
    shifted = {z: [F(0)] * (d + 1) for z in levels}
    if capped.is_full_dimensional:
        sign = F((-1) ** d, math.factorial(d))
        for simplex in triangulate(capped):
            base = simplex[0]
            weight = sign * abs(determinant([vec_sub(q, base) for q in simplex[1:]]))
            mult = Counter(q[n] for q in simplex)
            for z, mu in mult.items():
                if z == top:
                    continue
                series = oracle_local_series(z, mult)
                for m in range(mu):
                    shifted[z][d - m] += weight * series[mu - 1 - m] * math.comb(d, m) * (-1) ** m
    polys = []
    acc = ()
    for z in levels:
        c = shifted[z]
        acc = padd(acc, tuple(sum(j * c[j] * math.comb(j - 1, i) * (-z) ** (j - 1 - i)
                                  for j in range(i + 1, d + 1)) for i in range(d)))
        polys.append(acc)
    left = atom
    for i, p in enumerate(polys):
        if peval(p, levels[i]) != left:
            raise CertificateFailed(f"volume profile discontinuous at level {levels[i]}")
        if i + 1 < len(levels):
            left = peval(p, levels[i + 1])
    return LevelVolumeProfile(n, t_min, atom, tuple(levels), tuple(polys[:-1]), polys[-1])


def same_profile(u):
    got = level_volume_profile(u)
    assert got == oracle_profile(u)
    return got


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

rationals = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-3, max_value=3, max_denominator=7))
weights = st.fractions(min_value=F(1, 5), max_value=4, max_denominator=5)


@st.composite
def l1_norms(draw, n):
    """A weighted l1 norm, moved by a rational translation and shift."""
    w = [draw(weights) for _ in range(n)]
    tau = [draw(rationals) for _ in range(n)]
    c = draw(rationals)
    return make([(tuple(s * wi for s, wi in zip(signs, w)),
                  c - sum(s * wi * ti for s, wi, ti in zip(signs, w, tau)))
                 for signs in product((1, -1), repeat=n)], n=n)


@st.composite
def box_indicators(draw, n):
    bounds = []
    for _ in range(n):
        lo = draw(rationals)
        bounds.append((lo, lo + draw(st.fractions(min_value=0, max_value=3,
                                                  max_denominator=4))))
    return indicator_function(Polyhedron.box(bounds), draw(rationals))


@st.composite
def cone_functions(draw, n):
    body = random_body(draw(st.integers(0, 10 ** 6)), n, draw(st.integers(0, 3)))
    return cone_function(body, draw(rationals))


@st.composite
def pair_functions(draw, n):
    pair = generate_pair_with_convex_min(draw(st.integers(0, 10 ** 6)), n)
    wedge, vee = pair.lattice()
    return [pair.u, pair.v, wedge, vee]


def mixed_denominator_points(d):
    """Rational points, each with its own large denominator, so that the
    scale of the integer points is their lcm and every edge shares a factor."""
    dens = st.sampled_from([1, 2, 3, 7, 97, 1009, 65537, 999983, 2 ** 31 - 1])

    @st.composite
    def point(draw):
        q = draw(dens)
        return tuple(F(draw(st.integers(-4 * q, 4 * q)), q) for _ in range(d))
    return st.lists(point(), min_size=d + 1, max_size=d + 4)


# ---------------------------------------------------------------------------
# Profiles and volumes against the oracles
# ---------------------------------------------------------------------------


class TestProfileAgainstFractionRoute:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3).flatmap(pair_functions))
    def test_lattice_pairs(self, functions):
        for u in functions:
            same_profile(u)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.one_of(
        l1_norms(n), box_indicators(n), cone_functions(n))))
    def test_norms_boxes_and_cones(self, u):
        same_profile(u)

    def test_n4_pair(self):
        pair = generate_pair_with_convex_min(0, 4)
        wedge, vee = pair.lattice()
        for u in (pair.u, pair.v, wedge, vee):
            same_profile(u)

    def test_segment_indicator_has_zero_profile(self):
        segment = Polyhedron.from_generators(2, [(0, 0), (F(3, 2), F(1, 3))])
        prof = same_profile(indicator_function(segment, 2))
        assert prof.atom == 0 and prof.final_poly == ()


class TestVolumeAgainstFractionRoute:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(mixed_denominator_points))
    def test_mixed_large_denominators(self, pts):
        p = Polyhedron.from_generators(len(pts[0]), pts)
        assert volume(p) == oracle_volume(p)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 10 ** 6))
    def test_random_bodies(self, n, seed):
        p = random_body(seed, n)
        assert volume(p) == oracle_volume(p)

    def test_lattice_det_multiplies_the_gcds_back(self):
        pts = [(0, 0, 0), (6, 0, 0), (0, 10, 0), (0, 0, 15)]
        assert polyhedra._lattice_det(pts, (0, 1, 2, 3)) == 900
        assert polyhedra._lattice_det(pts + [(3, 5, 0)], (0, 1, 2, 4)) == 0
        assert polyhedra._lattice_det(pts, (0, 1, 2, 0)) == 0


# ---------------------------------------------------------------------------
# Count guards
# ---------------------------------------------------------------------------


def fresh_functions():
    """Functions with their epigraph's V-rep computed and no profile yet."""
    pair = generate_pair_with_convex_min(0, 3)
    wedge, vee = pair.lattice()
    fns = [pair.u, pair.v, wedge, vee, cone_function(random_body(0, 3)),
           make([(s, 0) for s in product((1, -1), repeat=3)]),
           indicator_function(Polyhedron.box([(0, 1), (0, 2), (0, 3)]), 1)]
    for u in fns:
        u.epigraph.vrep
    return fns


class TestProfileCounts:
    def test_no_determinant(self):
        for u in fresh_functions():
            with counted(linalg, "determinant") as calls:
                level_volume_profile(u)
            assert calls == []

    def test_cap_costs_no_double_description(self):
        for u in fresh_functions():
            with counted(polyhedra, "hrep_to_vrep") as calls:
                level_volume_profile(u)
            assert len(calls) <= 1  # the atom's sublevel set only

    def test_one_expansion_per_height_tuple_and_level(self):
        simplex_counts = []
        for u in fresh_functions():
            seen = []
            real = valuation._integer_simplices

            def spy(p):
                seen.append(real(p))
                return seen[-1]

            with mock.patch.object(valuation, "_integer_simplices", spy), \
                    counted(valuation, "_taylor_weights") as calls:
                level_volume_profile(u)
            assert len(seen) == 1
            pts, _, simplices = seen[0]
            heights = [pt[-1] for pt in pts]
            cap = max(heights)
            tuples = {tuple(sorted(heights[i] for i in s)) for s in simplices}
            assert len(calls) == sum(len({h for h in t if h != cap}) for t in tuples)
            simplex_counts.append((len(calls), sum(len({heights[i] for i in s} - {cap})
                                                   for s in simplices)))
        # the guard is sharp: a per-simplex expansion would be counted higher
        assert any(by_tuple < by_simplex for by_tuple, by_simplex in simplex_counts)
