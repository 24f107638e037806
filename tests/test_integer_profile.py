"""Integer profile sums and integer simplex volumes against the Fraction
routes they replaced.

The oracles below are the ``level_volume_profile`` and ``volume`` that
``valuation`` and ``polyhedra`` used before: the epigraph capped by a fresh
``intersect``, one ``Fraction`` determinant per simplex and one
``Fraction`` divided-difference expansion (``oracle_local_series``) per
simplex; the integer weights summed as one ``Fraction`` per term, with the
power basis and the certificate in ``Fraction`` arithmetic
(``oracle_fraction_sums``); and the triangulation that found the facets of
a face by an ``echelon`` rank test per candidate (``oracle_face_simplices``).
Every comparison is an exact ``==`` on ``LevelVolumeProfile``, on the
volume or on the simplex list, in order.  The count guards make a
determinant, a fresh double description for the cap or the atom, a
per-simplex expansion or a per-simplex lattice determinant fail a test, not
only a benchmark run.
"""

import math
from collections import Counter
from fractions import Fraction as F
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from convval import linalg, polyhedra, valuation
from convval.errors import CertificateFailed
from convval.functions import cone_function, indicator_function, make
from convval.growth import padd, peval
from convval.laws import generate_pair_with_convex_min, random_body
from convval.linalg import determinant, echelon, vec_sub
from convval.polyhedra import HRep, Polyhedron, cut_by, intersect, triangulate, volume
from convval.valuation import LevelVolumeProfile, _taylor_weights, level_volume_profile
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


def oracle_fraction_sums(u):
    """The profile with the integer weights summed as one Fraction per term,
    the power basis and the certificate in Fractions, and the atom from a
    fresh sublevel set; reads no cache and writes none."""
    n = u.n
    d = n + 1
    levels = sorted({v[n] for v in u.epigraph.vrep.vertices})
    t_min = levels[0]
    atom = volume(u.sublevel(t_min))
    top = levels[-1] + 1
    scale_h = math.lcm(*(z.denominator for z in levels))
    hlevels = [z.numerator * (scale_h // z.denominator) for z in levels]
    up = tuple(F(0) for _ in range(n)) + (F(1),)
    capped, _ = next(cut_by(u.epigraph, [[(up, top)]]))
    shifted = {z: [F(0)] * (d + 1) for z in hlevels}
    if capped.is_full_dimensional:
        pts, scale, simplices = polyhedra._integer_simplices(capped)
        heights = [pt[n] * scale_h // scale for pt in pts]
        weights = Counter()
        for simplex, det in simplices:
            weights[tuple(sorted(heights[i] for i in simplex))] += det
        cap = hlevels[-1] + scale_h
        for key, weight in weights.items():
            mult = Counter(key)
            for z, mu in mult.items():
                if z == cap:
                    continue
                series, q, p = _taylor_weights(z, mult)
                for m in range(mu):
                    l = mu - 1 - m
                    shifted[z][d - m] += F(
                        (-1) ** m * math.comb(d, m) * weight * series[l]
                        * scale_h ** (d + 1 - mu + l), q * p ** l)
        sign = F((-1) ** d, math.factorial(d) * scale ** d)
        shifted = {z: [sign * c for c in cs] for z, cs in shifted.items()}
    polys = []
    acc = ()
    for z, hz in zip(levels, hlevels):
        c = shifted[hz]
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
    return LevelVolumeProfile(n, t_min, atom, tuple(levels), tuple(polys[:-1]), polys[-1])


def oracle_face_simplices(face, fdim, tight_masks, pts):
    """The facets of a face by one ``echelon`` rank test per candidate."""
    idx = [i for i in range(len(pts)) if face >> i & 1]
    if fdim == 2:
        return [tuple(idx[k] for k in t)
                for t, _ in polyhedra._polygon_fan([pts[i] for i in idx])]
    v0 = face & -face
    seen = set()
    simplices = []
    for mask in tight_masks:
        tight = face & mask
        if not tight or tight & v0 or tight in seen:
            continue
        seen.add(tight)
        sub = [p for i, p in enumerate(pts) if tight >> i & 1]
        if len(echelon([vec_sub(p, sub[0]) for p in sub[1:]])[1]) != fdim - 1:
            continue
        for s in oracle_face_simplices(tight, fdim - 1, tight_masks, pts):
            simplices.append((idx[0],) + s)
    return simplices


def oracle_simplices(p):
    """The simplex list of ``p`` by the rank-test route, from the same points
    and tight masks as ``_integer_simplices``."""
    d = p.d
    cone = p._integer()
    gens, masks = cone.gens[:cone.nverts], cone.masks[:cone.nverts]
    if len(gens) == d + 1:
        return [tuple(range(d + 1))]
    scale = math.lcm(*(g[d] for g in gens))
    pts = [tuple(x * (scale // g[d]) for x in g[:d]) for g in gens]
    tight_masks = [sum(1 << j for j, m in enumerate(masks) if m >> i & 1)
                   for i in range(len(cone.rows))]
    return oracle_face_simplices((1 << len(pts)) - 1, d, tight_masks, pts)


def capped_epigraph(u):
    top = max(v[-1] for v in u.epigraph.vrep.vertices) + 1
    up = (F(0),) * u.n + (F(1),)
    return next(cut_by(u.epigraph, [[(up, top)]]))[0]


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


@st.composite
def mixed_denominator_norms(draw, n):
    """One piece per sign orthant, each with its own large denominators, so
    that the levels have large, mixed denominators."""
    dens = st.sampled_from([1, 7, 97, 1009, 65537, 999983, 2 ** 31 - 1])
    pieces = []
    for signs in product((1, -1), repeat=n):
        q, e = draw(dens), draw(dens)
        pieces.append((tuple(s * F(draw(st.integers(q, 4 * q)), q) for s in signs),
                       F(draw(st.integers(-3 * e, 3 * e)), e)))
    return make(pieces, n=n)


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


def same_as_fraction_sums(u):
    got, want = level_volume_profile(u), oracle_fraction_sums(u)
    assert got == want and repr(got) == repr(want)  # repr: the same types too


def l1_on_square():
    """|x|_1 on [-1, 1]^2: two of its height tuples have three heights at
    level 1, whose jump terms cancel in V."""
    return make([(s, 0) for s in product((1, -1), repeat=2)], Polyhedron.box([(-1, 1)] * 2))


class TestProfileAgainstFractionSums:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 4).flatmap(pair_functions))
    def test_lattice_pairs(self, functions):
        for u in functions:
            same_as_fraction_sums(u)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.one_of(
        l1_norms(n), box_indicators(n), cone_functions(n), mixed_denominator_norms(n))))
    def test_norms_boxes_cones_and_mixed_denominators(self, u):
        same_as_fraction_sums(u)

    def test_segment_indicator_and_flat_levels(self):
        segment = Polyhedron.from_generators(2, [(0, 0), (F(3, 2), F(1, 3))])
        for u in (indicator_function(segment, 2), l1_on_square()):
            same_as_fraction_sums(u)

    @pytest.mark.parametrize("u, level", [
        (indicator_function(Polyhedron.box([(0, 1), (F(-1, 3), 2)]), F(-2, 7)), F(-2, 7)),
        (l1_on_square(), 1)])
    def test_a_perturbed_jump_term_fails_the_certificate(self, u, level):
        """Double the (t - z)^1 term of W, V's jump at z, of the first
        expansion at a height of multiplicity n + 1: V(s_0) = atom fails for
        the flat minimum of the box, continuity at level 1 for the square."""
        real = valuation._taylor_weights
        perturbed = []

        def broken(z, mult):
            series, q, p = real(z, mult)
            if mult[z] == u.n + 1 and not perturbed:
                perturbed.append(z)
                series = [2 * series[0]] + series[1:]
            return series, q, p

        with mock.patch.object(valuation, "_taylor_weights", broken), \
                pytest.raises(CertificateFailed, match=f"discontinuous at level {level}:"):
            valuation._profile(u)
        assert len(perturbed) == 1


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
# Triangulation against the rank-test route
# ---------------------------------------------------------------------------


@st.composite
def generated_polytopes(draw):
    d = draw(st.integers(2, 5))
    pts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                        min_size=d + 1, max_size=d + 5))
    return Polyhedron.from_generators(d, pts)


@st.composite
def capped_epigraphs(draw):
    n = draw(st.integers(1, 4))
    u = draw(st.one_of(l1_norms(n), box_indicators(n), cone_functions(n)))
    return capped_epigraph(u)


polytopes = st.one_of(generated_polytopes(), capped_epigraphs()).filter(
    lambda p: p.is_full_dimensional)


class TestTriangulationAgainstRankRoute:
    @settings(max_examples=80, deadline=None)
    @given(polytopes)
    def test_same_simplices(self, p):
        assert [s for s, _ in polyhedra._integer_simplices(p)[2]] == oracle_simplices(p)

    def test_same_simplices_of_pair_epigraphs(self):
        for n, seed in ((2, 0), (3, 1), (4, 0)):
            pair = generate_pair_with_convex_min(seed, n)
            for u in (pair.u, pair.v, *pair.lattice()):
                p = capped_epigraph(u)
                assert [s for s, _ in polyhedra._integer_simplices(p)[2]] == oracle_simplices(p)

    @settings(max_examples=80, deadline=None)
    @given(polytopes)
    def test_dets_are_lattice_dets(self, p):
        pts, _, simplices = polyhedra._integer_simplices(p)
        assert all(det == polyhedra._lattice_det(pts, s) > 0 for s, det in simplices)


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
            tuples = {tuple(sorted(heights[i] for i in s)) for s, _ in simplices}
            assert len(calls) == sum(len({h for h in t if h != cap}) for t in tuples)
            simplex_counts.append((len(calls), sum(len({heights[i] for i in s} - {cap})
                                                   for s, _ in simplices)))
        # the guard is sharp: a per-simplex expansion would be counted higher
        assert any(by_tuple < by_simplex for by_tuple, by_simplex in simplex_counts)

    def test_one_lattice_det_per_polygon_fan(self):
        counts = []
        for u in fresh_functions():
            capped = capped_epigraph(u)
            capped.vrep
            with counted(polyhedra, "_lattice_det") as dets, \
                    counted(polyhedra, "_polygon_fan") as fans:
                simplices = polyhedra._integer_simplices(capped)[2]
            assert len(dets) == len(fans)
            counts.append((len(fans), len(simplices)))
        # the guard is sharp: a determinant per simplex would be counted higher
        assert any(by_fan < by_simplex for by_fan, by_simplex in counts)
