"""The conjugacy layer's integer routes against ``Fraction`` routes:
``PWAConvex.eval``, ``HRep.satisfies``, ``ConeBound.holds_for``,
``cone_bound`` and ``moreau_eval``.

The oracles (``oracles.py``) took ``Fraction`` dot products over the domain
rows, the pieces and the V-rep of the epigraph, read the cone bound's slope
off the facets of the conjugate's epigraph where ``cone_bound`` reads the
epigraph's rays, and take the Moreau envelope as the least value over every
subset of every cell's rows.  Every comparison is an exact ``==``.  The
count guard makes a cone bound that builds a ``Fraction`` V-rep fail a test.
"""

from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import inf, isqrt

from hypothesis import given, settings, strategies as st

from convval import conjugacy, polyhedra
from convval.conjugacy import ConeBound, cone_bound, conjugate, moreau_eval
from convval.functions import cone_function, indicator_function, make, scale_values
from convval.laws import generate_pair_with_convex_min, random_body, smoothing_sequence
from convval.linalg import dot
from convval.polyhedra import HRep, Polyhedron
from counting import counted
from oracles import (conjugacy_corpus, function_cases, hull_point, oracle_cone_bound_by_conjugate,
                     oracle_eval, oracle_holds_for, oracle_moreau, oracle_satisfies, outcome,
                     rationals)

coords = rationals(4, 4, 6)
PRIME = 10 ** 9 + 7


def points_near(u, data):
    """Points inside the domain, on its boundary and outside it, and points
    with large denominators."""
    n = u.n
    verts = list(u.domain_polyhedron().vrep.vertices)
    epi = [v[:n] for v in u.epigraph.vrep.vertices]  # where pieces tie
    where = data.draw(st.sampled_from(["inside", "vertex", "row", "beyond", "fine", "any"]))
    rows = u.domain.halfspaces
    if where == "inside":
        return hull_point(data, verts + epi)
    if where == "vertex":
        return data.draw(st.sampled_from(verts + epi))
    if where in ("row", "beyond") and rows:
        # Move a point along the normal of a row onto its hyperplane, or just
        # past it by the smallest margin drawn.
        a, b = data.draw(st.sampled_from(rows))
        v = data.draw(st.sampled_from(verts))
        s = (b - dot(a, v)) / dot(a, a)
        if where == "beyond":
            s += F(1, data.draw(st.sampled_from([1, 10 ** 6, PRIME * 10 ** 12])))
        return tuple(c + s * ac for c, ac in zip(v, a))
    x = tuple(F(c) for c in data.draw(st.lists(coords, min_size=n, max_size=n)))
    if where == "fine":
        x = tuple(c + F(data.draw(st.integers(-10 ** 6, 10 ** 6)), PRIME) for c in x)
    return x


class TestEval:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_eval_and_satisfies_match_the_fraction_routes(self, data):
        n = data.draw(st.integers(1, 3))
        u = data.draw(st.sampled_from(function_cases(n)))
        x = points_near(u, data)
        got = u.eval(x)
        assert got == oracle_eval(u, x)
        assert type(got) is (float if got == inf else F)
        assert u.domain.satisfies(x) == oracle_satisfies(u.domain, x)
        assert u.domain_polyhedron().contains(x) == oracle_satisfies(u.domain, x)

    def test_every_case_has_points_outside(self):
        # The "beyond" points really leave the domain of every case with rows.
        for n in (1, 2, 3):
            for u in function_cases(n):
                for a, b in u.domain.halfspaces:
                    v = u.domain_polyhedron().vrep.vertices[0]
                    s = (b - dot(a, v)) / dot(a, a) + F(1, PRIME * 10 ** 12)
                    x = tuple(c + s * ac for c, ac in zip(v, a))
                    assert u.eval(x) == inf == oracle_eval(u, x)

    def test_integer_and_mixed_inputs(self):
        u = make([((1, F(1, 2)), F(-1, 3)), ((-2, 1), 0), ((0, -1), 1)], n=2)
        for x in [(0, 0), (3, -2), (F(1, 2), 1), (0.5, -0.25), ("1/3", "-2/5")]:
            assert u.eval(x) == oracle_eval(u, x)


# ---------------------------------------------------------------------------
# Cone bounds
# ---------------------------------------------------------------------------


def norm_bracket(v):
    """(lo, hi) with lo <= |v| < hi and hi - lo tiny; lo == |v| when the
    norm is rational with a small enough denominator."""
    sq = F(dot(v, v))
    den = sq.denominator * 10 ** 30
    root = isqrt(sq.numerator * sq.denominator * 10 ** 60)
    return F(root, den), F(root + 1, den)


def tight_bounds(u, a):
    """Bounds with slope ``a`` that fail and pass at a vertex by the least
    margin: b_fail puts a|x_v| <= t_v - b at one vertex (equality when |x_v|
    is rational), b_pass keeps t_v - b > a|x_v| at every vertex."""
    n = u.n
    verts = u.epigraph.vrep.vertices
    brackets = [norm_bracket(v[:n]) for v in verts]
    b_fail = min(v[n] - a * lo for v, (lo, _) in zip(verts, brackets))
    b_pass = min(v[n] - a * hi for v, (_, hi) in zip(verts, brackets))
    return ConeBound(a, b_fail), ConeBound(a, b_pass)


@lru_cache(maxsize=None)
def bound_cases(n):
    """Coercive pair functions, a cone function (rays in every direction),
    conjugates (a vertical ray only) and a function with a line."""
    fns = []
    for seed in range(3):
        pair = generate_pair_with_convex_min(seed, n)
        fns += [pair.u, pair.v, conjugate(pair.u)]
    fns.append(cone_function(Polyhedron.box([(-1, 2)] * n), F(1, 3)))
    fns.append(make([((1,) + (0,) * (n - 1), 0)], n=n, coercive=False))
    return tuple(fns)


class TestHoldsFor:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_least_margins(self, data):
        n = data.draw(st.integers(1, 3))
        u = data.draw(st.sampled_from(bound_cases(n)))
        certified = u.coercive and data.draw(st.booleans())
        if certified:  # its rays pass, so only the vertices decide
            a = cone_bound(u).a
        else:
            a = data.draw(st.sampled_from([F(1, 7), F(1, 2), F(1), F(3)]))
        fail, ok = tight_bounds(u, a)
        assert fail.holds_for(u) is False
        assert oracle_holds_for(fail, u) is False
        assert ok.holds_for(u) == oracle_holds_for(ok, u)
        if certified:
            assert ok.holds_for(u) is True
        b = data.draw(st.fractions(min_value=-20, max_value=20, max_denominator=9))
        any_bound = ConeBound(a, b)
        assert any_bound.holds_for(u) == oracle_holds_for(any_bound, u)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_least_ray_margins(self, data):
        # A cone function's rays (r, 1) fail once a|r| >= 1: slopes just
        # above and just below 1 / |r| for its longest ray.
        n = data.draw(st.integers(1, 3))
        u = cone_function(Polyhedron.box([(-1, data.draw(st.integers(1, 3)))] * n))
        lo, hi = max(norm_bracket(r[:n]) for r in u.epigraph.vrep.rays)
        steep, gentle = ConeBound(1 / lo, F(-100)), ConeBound(1 / hi, F(-100))
        assert steep.holds_for(u) is False is oracle_holds_for(steep, u)
        assert gentle.holds_for(u) is True is oracle_holds_for(gentle, u)

    def test_certified_bounds_pass(self):
        for n in (1, 2, 3):
            for u in bound_cases(n):
                if u.coercive:
                    bound = cone_bound(u)
                    assert bound.holds_for(u) is True is oracle_holds_for(bound, u)

    def test_equality_on_a_pythagorean_vertex(self):
        # Every vertex of the box has |x| = 5, so t - b == 5a is the boundary.
        u = indicator_function(Polyhedron.box([(-3, 3), (-4, 4)]), F(1, 2))
        a = F(2, 3)
        at = ConeBound(a, F(1, 2) - 5 * a)
        below = ConeBound(a, F(1, 2) - 5 * a - F(1, 10 ** 40))
        assert at.holds_for(u) is False is oracle_holds_for(at, u)
        assert below.holds_for(u) is True is oracle_holds_for(below, u)


@st.composite
def coercive_functions(draw):
    """Maxima of pieces with one slope per sign orthant and their smoothing
    sequences, lattice pairs, cone functions, box and segment indicators,
    and a function on a line in the plane."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["pieces", "smoothed", "pair", "cone", "box", "segment",
                                 "flat"]))
    slope = st.fractions(F(1, 2), 4, max_denominator=2)
    offset = st.fractions(-3, 3, max_denominator=3)
    if kind in ("pieces", "smoothed"):
        pieces = [(tuple(s * draw(slope) for s in signs), draw(offset))
                  for signs in product((1, -1), repeat=n)]
        pieces += [(tuple(draw(coords) for _ in range(n)), draw(offset))
                   for _ in range(draw(st.integers(0, 2)))]
        u = make(pieces, n=n)
        if kind == "pieces":
            return u
        return smoothing_sequence(u, Polyhedron.box([(-1, 1)] * n), 2 ** draw(st.integers(0, 3)))
    if kind == "pair":
        return draw(st.sampled_from(generate_pair_with_convex_min(draw(st.integers(0, 50)),
                                                                  n).lattice()))
    if kind == "cone":
        return cone_function(random_body(draw(st.integers(0, 10 ** 6)), n), draw(offset))
    if kind == "box":
        return indicator_function(Polyhedron.box([(-1, draw(slope))] * n), draw(offset))
    if kind == "segment":
        ends = [tuple(draw(coords) for _ in range(n)) for _ in range(2)]
        return indicator_function(Polyhedron.from_generators(n, ends), draw(offset))
    c = draw(offset)  # |x_1| + x_2 on the line x_2 = c in R^2
    return make([((1, 1), 0), ((-1, 1), 0)], HRep.make(2, [((0, 1), c), ((0, -1), -c)]))


class TestConeBound:
    @settings(max_examples=100, deadline=None)
    @given(coercive_functions())
    def test_matches_the_conjugate_route(self, u):
        assert outcome(cone_bound, u) == outcome(oracle_cone_bound_by_conjugate, u)

    def test_builds_no_conjugate(self):
        for n in (1, 2, 3):
            for u in bound_cases(n):
                if not u.coercive:
                    continue
                u.epigraph.vrep
                with counted(polyhedra, "vrep_to_hrep") as polars, \
                        counted(conjugacy, "conjugate") as conjugates:
                    cone_bound(u)
                assert polars == [] and conjugates == []

    def test_corpus_smoothing_elements(self):
        steep = Polyhedron.box([(-1, 1), (-1, 1)])
        for pu, pv, _ in conjugacy_corpus():
            for pieces in (pu, pv):
                for k in (1, 2, 4, 8):
                    w = smoothing_sequence(make(pieces, n=2), steep, k)
                    assert cone_bound(w) == oracle_cone_bound_by_conjugate(w)

    def test_scaled_cone_functions_keep_no_vrep(self):
        """The carried epigraph of ``scale_values`` is read on its integer
        cone only: the cone bound builds no ``Fraction`` V-rep of it."""
        for n in (1, 2, 3):
            for body in (random_body(0, n), Polyhedron.box([(-1, 2)] * n)):
                for k in (1, 3, F(2, 5), 2 ** 10):
                    w = scale_values(cone_function(body), k)
                    bound = cone_bound(w)
                    assert w.epigraph._vrep is None
                    assert bound == oracle_cone_bound_by_conjugate(w)


# ---------------------------------------------------------------------------
# Moreau envelopes
# ---------------------------------------------------------------------------


T_VALUES = [F(1, 4), F(1, 2), F(1), F(2), F(4)]


class TestMoreauAgainstTheFractionRoute:
    """``moreau_eval`` against the least value over every independent subset
    of every cell's rows (``oracle_moreau``), in ``Fraction``s."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_function_cases(self, data):
        n = data.draw(st.integers(1, 3))
        u = data.draw(st.sampled_from(function_cases(n)))
        t = data.draw(st.sampled_from(T_VALUES + [F(3, 7)]))
        x = points_near(u, data) if data.draw(st.booleans()) else tuple(
            data.draw(st.lists(coords, min_size=n, max_size=n)))
        got = moreau_eval(u, t, x)
        assert type(got) is F
        assert got == oracle_moreau(u, t, x)

    def test_corpus(self):
        for pu, pv, x in conjugacy_corpus():
            for pieces in (pu, pv):
                u = make(pieces, n=2)
                for t in T_VALUES:
                    assert moreau_eval(u, t, x) == oracle_moreau(u, t, x)
