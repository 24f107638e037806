"""Integer profile sums and integer simplex volumes against one independent
``Fraction`` route each and the route the latest change replaced.

The oracles (``oracles.py``) are the ``level_volume_profile`` and
``volume`` of the ``Fraction`` route (``oracle_profile``, ``oracle_volume``),
which triangulate by ``oracle_triangulate`` and share no code with the
integer expansion, the profile whose atom ran a double description of the
sublevel set (``oracle_profile_by_sublevel_dd``), the triangulation that
found the facets of a face by a rank test (``oracle_triangulate``), and the
one that took an elimination per polygon plane and per polygon visit
(``oracle_integer_simplices_by_lattice_det``).  Every comparison is an
exact ``==``, in order; ``_taylor_weights`` is checked against the Fraction
series (``oracle_local_series``) and the convolution at every height
(``oracle_taylor_weights``), and the exterior-product determinant against
the ``Fraction`` one.  The count guards make a determinant, a fresh double
description for the cap or the atom, a per-simplex expansion, a
determinant per simplex, a polygon fan rebuilt on each visit or an
elimination in the triangulation fail a test, not only a benchmark run.
"""

from fractions import Fraction as F
from itertools import product
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from convval import linalg, polyhedra, valuation
from convval.errors import CertificateFailed
from convval.functions import cone_function, indicator_function, make
from convval.laws import generate_pair_with_convex_min, random_body
from convval.polyhedra import Polyhedron, triangulate, volume
from convval.growth import peval
from convval.valuation import level_volume_profile
from counting import counted
from oracles import (capped_epigraph, oracle_determinant, oracle_integer_simplices_by_lattice_det,
                     oracle_lattice_det, oracle_local_series, oracle_profile,
                     oracle_profile_by_sublevel_dd, oracle_taylor_weights, oracle_triangulate,
                     oracle_volume, profiled_functions, rationals)


def same_profile(u, route=level_volume_profile, oracle=oracle_profile):
    got, want = route(u), oracle(u)
    assert got == want and repr(got) == repr(want)  # repr: the same types too
    return got


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

coords = rationals(4, 3, 7)
weights = st.fractions(min_value=F(1, 5), max_value=4, max_denominator=5)


@st.composite
def l1_norms(draw, n):
    """A weighted l1 norm, moved by a rational translation and shift."""
    w = [draw(weights) for _ in range(n)]
    tau = [draw(coords) for _ in range(n)]
    c = draw(coords)
    return make([(tuple(s * wi for s, wi in zip(signs, w)),
                  c - sum(s * wi * ti for s, wi, ti in zip(signs, w, tau)))
                 for signs in product((1, -1), repeat=n)], n=n)


@st.composite
def box_indicators(draw, n):
    bounds = []
    for _ in range(n):
        lo = draw(coords)
        bounds.append((lo, lo + draw(st.fractions(min_value=0, max_value=3,
                                                  max_denominator=4))))
    return indicator_function(Polyhedron.box(bounds), draw(coords))


@st.composite
def cone_functions(draw, n):
    body = random_body(draw(st.integers(0, 10 ** 6)), n, draw(st.integers(0, 3)))
    return cone_function(body, draw(coords))


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


def norms_boxes_cones_and_mixed_denominators(n):
    return st.one_of(l1_norms(n), box_indicators(n), cone_functions(n), mixed_denominator_norms(n))


def mixed_denominator_points(d):
    """Rational points, each with its own large denominator, so that the
    scale of the integer points is their lcm and every edge shares a factor."""
    dens = st.sampled_from([1, 2, 3, 7, 97, 1009, 65537, 999983, 2 ** 31 - 1])

    @st.composite
    def point(draw):
        q = draw(dens)
        return tuple(F(draw(st.integers(-4 * q, 4 * q)), q) for _ in range(d))
    return st.lists(point(), min_size=d + 1, max_size=d + 4)


def l1_on_square():
    """|x|_1 on [-1, 1]^2: two of its height tuples have three heights at
    level 1, whose jump terms cancel in V."""
    return make([(s, 0) for s in product((1, -1), repeat=2)], Polyhedron.box([(-1, 1)] * 2))


# ---------------------------------------------------------------------------
# Profiles and volumes against the oracles
# ---------------------------------------------------------------------------


class TestProfileAgainstFractionRoute:
    """``level_volume_profile`` against the independent ``Fraction`` route
    (``oracle_profile``) at n = 1-3 and on one n = 4 pair."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3).flatmap(pair_functions))
    def test_lattice_pairs(self, functions):
        for u in functions:
            same_profile(u)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(norms_boxes_cones_and_mixed_denominators))
    def test_norms_boxes_and_cones(self, u):
        """Mixed-denominator norms too, whose levels have large, mixed
        denominators."""
        same_profile(u)

    def test_n4_pair(self):
        pair = generate_pair_with_convex_min(0, 4)
        wedge, vee = pair.lattice()
        for u in (pair.u, pair.v, wedge, vee):
            same_profile(u)

    def test_zero_slope_at_the_minimum(self):
        """The sublevel set at t_min has the row 0.x <= 0, tight everywhere:
        it must not make [-1, 1] lower-dimensional."""
        u = make([((1,), -1), ((0,), 0), ((-1,), -1)], n=1)
        assert same_profile(u).atom == 2

    def test_segment_indicator_has_zero_profile(self):
        segment = Polyhedron.from_generators(2, [(0, 0), (F(3, 2), F(1, 3))])
        prof = same_profile(indicator_function(segment, 2))
        assert prof.atom == 0 and prof.final_poly == ()

    def test_flat_levels(self):
        same_profile(l1_on_square())


class TestProfileAgainstSublevelRoute:
    """``_profile`` against its parent route (``oracle_profile_by_sublevel_dd``),
    whose atom ran a double description of the sublevel set at t_min and
    whose simplices came from eliminations: ``==``, with the same ``repr``,
    at n = 1-4."""

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 4).flatmap(pair_functions))
    def test_lattice_pairs(self, functions):
        for u in functions:
            same_profile(u, valuation._profile, oracle_profile_by_sublevel_dd)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.one_of(
        l1_norms(n), box_indicators(n), cone_functions(n))))
    def test_norms_boxes_and_cones(self, u):
        same_profile(u, valuation._profile, oracle_profile_by_sublevel_dd)


def full_dimensional_argmins():
    """Functions whose argmin is full-dimensional, with their atoms: a
    zero-slope piece at the minimum at n = 1 and n = 2, and a box indicator."""
    return [(make([((1,), -1), ((0,), 0), ((-1,), -1)], n=1), 2),
            (make([((1, 0), -1), ((0, 0), 0), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -2)],
                  n=2), 6),
            (indicator_function(Polyhedron.box([(0, 1), (F(-1, 3), 2), (0, F(1, 2))]),
                                F(-2, 7)), F(7, 6))]


class TestAtomFromTheLowestFace:
    """The atom's set is the epigraph's lowest face, read off its double
    description (``valuation._argmin_set``): it is the sublevel set at t_min,
    its masks are the incidences of its generators with its rows, and its
    volume is that of a fresh double description."""

    def test_full_dimensional_argmins(self):
        for u, atom in full_dimensional_argmins():
            u.epigraph.vrep
            with counted(polyhedra, "hrep_to_vrep") as calls:
                prof = level_volume_profile(u)
            assert calls == []
            assert prof.atom == atom == volume(u.sublevel(prof.t_min))
            assert prof == oracle_profile_by_sublevel_dd(u)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.one_of(
        norms_boxes_cones_and_mixed_denominators(n),
        pair_functions(n).map(lambda fns: fns[2]))))
    def test_same_set_as_the_sublevel_set(self, u):
        t_min = u.min_value()[0]
        face, sub = valuation._argmin_set(u, t_min), u.sublevel(t_min)
        cone = face._integer()
        assert cone.masks == [sum(1 << i for i, row in enumerate(cone.rows)
                                  if sum(map(mul, row, g)) == 0) for g in cone.gens]
        assert face == sub and set(face.vrep.vertices) == set(sub.vrep.vertices)
        assert face.is_full_dimensional == sub.is_full_dimensional
        assert volume(face) == volume(sub) == oracle_volume(sub)


class TestPolyAt:
    def test_below_the_minimum(self):
        prof = level_volume_profile(generate_pair_with_convex_min(0, 2).u)
        t = prof.t_min - 1
        assert prof.poly_at(t) == ()
        assert peval(prof.poly_at(t), t) == prof.value(t) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_poly_at_is_the_sublevel_volume(self, data):
        """Below, at and between the breakpoints and past the last one, the
        polynomial at t takes the value of a fresh sublevel volume at t."""
        u = data.draw(st.sampled_from(profiled_functions()))
        prof = level_volume_profile(u)
        ends = (prof.t_min - 2, *prof.breakpoints, prof.breakpoints[-1] + 2)
        i = data.draw(st.integers(0, len(ends) - 2))
        frac = data.draw(st.fractions(0, 1, max_denominator=7))
        t = ends[i] + frac * (ends[i + 1] - ends[i])
        assert peval(prof.poly_at(t), t) == prof.value(t) == volume(u.sublevel(t))


@st.composite
def height_multiplicities(draw):
    """Distinct integer heights with multiplicities summing to d + 1, and one
    of them as z: mult[z] runs from 1 to d + 1."""
    d = draw(st.integers(1, 5))
    order = draw(st.integers(1, d + 1))
    others, rest = [], d + 1 - order
    while rest:
        others.append(draw(st.integers(1, rest)))
        rest -= others[-1]
    heights = draw(st.lists(st.integers(-50, 50), min_size=len(others) + 1,
                            max_size=len(others) + 1, unique=True))
    return heights[0], dict(zip(heights, [order] + others))


class TestTaylorWeights:
    @settings(max_examples=200, deadline=None)
    @given(height_multiplicities())
    def test_against_the_local_series(self, case):
        z, mult = case
        a, q, p = valuation._taylor_weights(z, mult)
        want = oracle_local_series(F(z), {F(w): mu for w, mu in mult.items()})
        assert [F(c, q * p ** l) for l, c in enumerate(a)] == want
        assert (a, q, p) == oracle_taylor_weights(z, mult)

    @pytest.mark.parametrize("u, level", [
        (indicator_function(Polyhedron.box([(0, 1), (F(-1, 3), 2)]), F(-2, 7)), F(-2, 7)),
        (l1_on_square(), 1)], ids=["box", "l1"])
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

    def test_a_perturbed_higher_term_fails_the_integral(self):
        """Doubling the highest (t - z)^d term of the first expansion keeps V
        continuous, so only int V = W(top) catches it."""
        u = generate_pair_with_convex_min(0, 2).u
        real = valuation._taylor_weights
        perturbed = []

        def broken(z, mult):
            series, q, p = real(z, mult)
            if not perturbed:
                perturbed.append(z)
                series = series[:-1] + [2 * series[-1]]
            return series, q, p

        with mock.patch.object(valuation, "_taylor_weights", broken), \
                pytest.raises(CertificateFailed, match="integrates to"):
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



@st.composite
def integer_matrices(draw):
    """Square integer matrices of size 1-6; about half are made singular by
    a zero row, a repeated row or a row that combines two others."""
    d = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    kind = draw(st.sampled_from(["any", "zero", "repeat", "combination"]))
    i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
    if kind == "zero":
        rows[i] = [0] * d
    elif kind == "repeat" and i != j:
        rows[i] = list(rows[j])
    elif kind == "combination" and len({i, j, k}) == 3:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


def edge_det(pts, simplex):
    base = pts[simplex[0]]
    return abs(polyhedra._exterior_det([[x - y for x, y in zip(pts[i], base)]
                                        for i in simplex[1:]]))


class TestExteriorDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_against_the_fraction_determinant(self, rows):
        assert polyhedra._exterior_det(rows) == oracle_determinant(rows)

    def test_exterior_det_of_edges(self):
        """The cases of the elimination route, which divided each edge by its
        gcd: a box corner, a flat simplex and a repeated point."""
        pts = [(0, 0, 0), (6, 0, 0), (0, 10, 0), (0, 0, 15)]
        assert edge_det(pts, (0, 1, 2, 3)) == 900
        assert edge_det(pts + [(3, 5, 0)], (0, 1, 2, 4)) == 0
        assert edge_det(pts, (0, 1, 2, 0)) == 0


# ---------------------------------------------------------------------------
# Triangulation against the rank-test route
# ---------------------------------------------------------------------------


@st.composite
def generated_polytopes(draw):
    d = draw(st.integers(2, 6))
    pts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                        min_size=d + 1, max_size=d + (5 if d < 6 else 2)))
    return Polyhedron.from_generators(d, pts)


@st.composite
def capped_epigraphs(draw):
    n = draw(st.integers(1, 4))
    u = draw(st.one_of(l1_norms(n), box_indicators(n), cone_functions(n)))
    return capped_epigraph(u)


polytopes = st.one_of(generated_polytopes(), capped_epigraphs()).filter(
    lambda p: p.is_full_dimensional)


class TestTriangulationAgainstRankRoute:
    """The simplices, in order, against the ``Fraction`` route that finds
    each face's facets by a rank test (``oracle_triangulate``), and
    ``(pts, scale, simplices)``, determinants included, against the one that
    took an elimination per polygon plane and per polygon visit
    (``oracle_integer_simplices_by_lattice_det``).  The n = 4 pair
    epigraphs, of 542 and 954 simplices, are left to the second."""

    @settings(max_examples=80, deadline=None)
    @given(polytopes)
    def test_same_simplices(self, p):
        assert triangulate(p) == oracle_triangulate(p)
        assert polyhedra._integer_simplices(p) == oracle_integer_simplices_by_lattice_det(p)

    def test_same_simplices_of_pair_epigraphs(self):
        for n, seed in ((1, 0), (2, 0), (3, 1), (4, 0), (4, 1)):
            pair = generate_pair_with_convex_min(seed, n)
            for u in (pair.u, pair.v, *pair.lattice()):
                p = capped_epigraph(u)
                if n < 4:
                    assert triangulate(p) == oracle_triangulate(p)
                assert polyhedra._integer_simplices(p) == oracle_integer_simplices_by_lattice_det(p)

    @settings(max_examples=80, deadline=None)
    @given(polytopes)
    def test_dets_are_lattice_dets(self, p):
        pts, _, simplices = polyhedra._integer_simplices(p)
        assert all(det == oracle_lattice_det(pts, s) > 0 for s, det in simplices)


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
            assert calls == []  # the atom is read off the epigraph's lowest face

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

    def test_one_fan_per_polygon_one_det_per_visit(self):
        """A polygon that several faces cone over is visited once per chain:
        each visit takes one ``_pairing``, but its fan is built once."""
        counts = []
        for u in fresh_functions() + [generate_pair_with_convex_min(0, 4).u]:
            capped = capped_epigraph(u)
            capped.vrep
            with counted(polyhedra, "_pairing") as dets, \
                    counted(polyhedra, "_polygon_fan") as fans, \
                    counted(polyhedra, "_face_simplices") as faces:
                simplices = polyhedra._integer_simplices(capped)[2]
            visits = [face for face, fdim, *_ in faces if fdim == 2]
            assert len(fans) == len(set(visits))
            assert len(dets) == len(visits)
            counts.append((len(fans), len(dets), len(simplices)))
        # the guard is sharp: a fan per visit, or a determinant per simplex,
        # would be counted higher
        pairs = counts[:4] + counts[-1:]  # the n = 3 and n = 4 pair epigraphs
        assert any(by_fan < by_visit for by_fan, by_visit, _ in pairs)
        assert any(by_visit < by_simplex for _, by_visit, by_simplex in counts)

    def test_no_elimination_in_the_triangulation(self):
        """Plane bases, visit determinants and lone simplices all come from
        exterior products: ``echelon`` does not run."""
        bodies = [capped_epigraph(u) for u in fresh_functions()]
        bodies += [random_body(seed, n) for n, seed in ((2, 0), (3, 1), (4, 2))]
        bodies.append(Polyhedron.from_generators(3, [(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 3)]))
        for p in bodies:
            p.vrep
            with counted(linalg, "echelon") as calls:
                simplices = polyhedra._integer_simplices(p)[2]
            assert simplices and calls == []
