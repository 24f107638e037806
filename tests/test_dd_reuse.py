"""Routes that reuse a double description already computed, against the
per-piece and per-pair routes they replaced (``oracles.py``): pruning by one
cell polyhedron per piece, the cells read off the epigraph against one
double description per cell, ``inf_if_convex`` with a fresh double
description per facet pair, and the cone function built afresh on every
call.  Every comparison is an exact ``==`` on pieces, domains and both
representations of the epigraph (in order), or on the ``NotConvexMin``
witness.  The count guards make a per-piece, per-cell or per-pair double
description, a cut by a row the hull does not cross, a double description
step per pair, a canonical H-rep of a certified pair's epigraphs, or a cone
function built again for the same body, fail a test, not only a benchmark
run.  ``from_epigraph`` checks the
polyhedron on its own double description and builds on first read; it is
compared with the route that checked the canonical H-rep and built right
away, and its count guards make a smoothing element built for a cone
bound, or a conjugate built twice, fail a test.  The pair generator and
``sup`` build each function once, by ``_build``; they are compared with
the routes that built l, 2w - l and the common domain first.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from convval import functions, polyhedra
from convval.conjugacy import (ConeBound, biconjugate_check, cone_bound, conjugate,
                               inf_convolution, uniform_cone_bound)
from convval.documents import function_to_doc
from convval.errors import ConvvalError, EmptyDomain, NotCoercive, UnboundedPolyhedron
from convval.functions import (cone_function, from_epigraph, indicator_function,
                               inf_if_convex, make, pwa_equal, scale_values, sup)
from convval.laws import generate_pair_with_convex_min, random_body, smoothing_sequence
from convval.linalg import dot
from convval.polyhedra import HRep, Polyhedron, cut_by, minkowski_sum
from counting import counted
from oracles import (SLOPES_12, building_by, conjugacy_corpus, coords, epigraph_candidates,
                     function_cases, functions_in, hull_of, is_implicit, oracle_active_cells,
                     oracle_build_pruned_by_cells, oracle_cone_bound_by_conjugate,
                     oracle_cone_function, oracle_from_epigraph, oracle_holds_for,
                     oracle_incidence, oracle_inf_if_convex, oracle_pair_by_sup, oracle_sup,
                     outcome)


def open_rows(hrep, v):
    """The integer rows of ``hrep``, an H-rep of epi u, that a generator of
    epi v violates strictly: those the hull of both epigraphs has points
    strictly beyond."""
    gv = v.epigraph.vrep
    return [row for row, (g, c) in zip(hrep.int_rows, hrep.halfspaces)
            if any(dot(g, x) > c for x in gv.vertices) or any(dot(g, r) > 0 for r in gv.rays)
            or any(dot(g, l) != 0 for l in gv.lines)]


@contextmanager
def cut_by_steps():
    """Record the ``_dd_step`` calls that ``cut_by`` makes itself, not those
    of a double description it or its caller starts."""
    calls = []
    real = polyhedra._dd_step

    def step(*args):
        if sys._getframe(1).f_code.co_name == "cut_by":
            calls.append(args[1])
        return real(*args)

    with mock.patch.object(polyhedra, "_dd_step", step):
        yield calls


# ---------------------------------------------------------------------------
# Pruning from the epigraph's vertices
# ---------------------------------------------------------------------------


class TestPruningAgainstPerPieceCells:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3).flatmap(functions_in))
    def test_make(self, case):
        pieces, domain, coercive = case
        n = domain.d
        got = outcome(make, pieces, domain, n=n, coercive=coercive)
        with building_by(oracle_build_pruned_by_cells):
            want = outcome(make, pieces, domain, n=n, coercive=coercive)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(functions_in))
    def test_conjugate_and_from_epigraph(self, case):
        pieces, domain, _ = case
        try:
            u = make(pieces, domain, n=domain.d, coercive=False)
        except ConvvalError:
            return
        got = [outcome(conjugate, u), outcome(from_epigraph, u.epigraph, coercive=False),
               outcome(inf_convolution, u, u)]
        with building_by(oracle_build_pruned_by_cells):
            want = [outcome(conjugate, u),
                    outcome(from_epigraph, u.epigraph, coercive=False),
                    outcome(inf_convolution, u, u)]
        assert got == want

    def test_cells_follow_the_kept_pieces(self):
        u = make([((1,), 0), ((-1,), 0), ((0,), 0), ((0,), -1), ((1,), 0)])
        assert u.pieces == (((F(1),), F(0)), ((F(-1),), F(0)), ((F(0),), F(0)))
        assert [p for p, _ in u.cells] == list(u.pieces)
        assert [cell.dim for _, cell in u.cells] == [1, 1, 0]


class TestCellsFromTheEpigraph:
    """``u.cells`` read off the epigraph's double description, against one
    double description per cell (``oracle_active_cells``): the same pieces
    in order, each cell the same set with the same H-rep, rows, dimension
    and emptiness, and its carried masks the incidences recomputed on its
    rows."""

    @staticmethod
    def assert_same_cells(u):
        got, want = u.cells, oracle_active_cells(u.n, u.pieces, u.domain)
        assert [p for p, _ in got] == [p for p, _ in want]
        for (_, cell), (_, ref) in zip(got, want):
            assert cell == ref
            assert cell.hrep == ref.hrep
            assert (cell.dim, cell.is_empty) == (ref.dim, ref.is_empty)
            cone = cell._integer()
            assert cone.rows == ref._integer().rows
            every = (1 << len(cone.rows)) - 1
            assert cone.masks == [oracle_incidence(cone.rows, every, g) for g in cone.gens]
            assert all(g[-1] > 0 for g in cone.gens[:cone.nverts])
            assert all(g[-1] == 0 for g in cone.gens[cone.nverts:])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(functions_in))
    def test_lines_flat_domains_and_one_piece(self, case):
        pieces, domain, _ = case
        try:
            u = make(pieces, domain, n=domain.d, coercive=False)
        except ConvvalError:
            return
        self.assert_same_cells(u)
        self.assert_same_cells(conjugate(u))

    def test_function_cases(self):
        for n in (1, 2, 3):
            for u in function_cases(n):
                self.assert_same_cells(u)

    def test_no_double_description_once_the_epigraph_is_built(self):
        for n in (1, 2, 3):
            for case in function_cases(n):
                u = make(case.pieces, case.domain, n=n, coercive=False)
                u.epigraph._integer()
                with counted(polyhedra, "hrep_to_vrep") as h2v, \
                        counted(polyhedra, "vrep_to_hrep") as v2h:
                    cells = u.cells
                assert h2v == [] and v2h == []
                assert len(cells) == len(u.pieces)


# ---------------------------------------------------------------------------
# cut_by and inf_if_convex: DD steps from the hull
# ---------------------------------------------------------------------------


@st.composite
def rows_in(draw, d, count):
    """Integer normals; offsets mostly nonnegative, so the origin is often inside."""
    offsets = st.one_of(coords.map(abs), coords.map(abs), coords)
    return [(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)), draw(offsets))
            for _ in range(count)]


class TestCutByAgainstFreshDD:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        rows_in(d, 6), st.lists(rows_in(d, 2), min_size=1, max_size=3), st.booleans())))
    def test_same_generators(self, case):
        """Same vertex and ray sets as a fresh DD, and one flag per extra row
        equal to ``is_implicit``; pointed, unbounded, empty and lineality
        cases (the last two take the fresh route)."""
        base, extras, boxed = case
        d = len(base[0][0])
        if boxed:
            base += [([s * int(i == j) for i in range(d)], 3) for j in range(d) for s in (1, -1)]
        p = Polyhedron.from_halfspaces(d, base)
        cuts = list(polyhedra.cut_by(p, extras))
        assert len(cuts) == len(extras)
        for (q, flags), extra in zip(cuts, extras):
            assert q.hrep == HRep.make(d, list(p.hrep.halfspaces) + extra)
            fresh = polyhedra.hrep_to_vrep(q.hrep)
            assert set(q.vrep.vertices) == set(fresh.vertices)
            assert set(q.vrep.rays) == set(fresh.rays) and q.vrep.lines == fresh.lines
            assert flags == tuple(is_implicit(q, a, b) for a, b in extra)

    @pytest.mark.parametrize("lines", [False, True], ids=["pointed", "lineality"])
    def test_flags_on_a_face(self, lines):
        """x >= 1 cuts the face x = 1 off 0 <= x <= 1 (tight throughout),
        x <= 1/2 a part of it (not tight) and x >= 2 nothing (empty)."""
        box = [((1, 0), 1), ((-1, 0), 0)] + ([] if lines else [((0, 1), 1), ((0, -1), 0)])
        p = Polyhedron.from_halfspaces(2, box)
        assert bool(p.vrep.lines) == lines
        extras = [[((-1, 0), -1), ((0, 0), 1)], [((1, 0), F(1, 2))], [((-1, 0), -2)]]
        flags = [f for _, f in polyhedra.cut_by(p, extras)]
        assert flags == [(True, False), (False,), (True,)]


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 3))
    (pu, du, cu), (pv, dv, cv) = draw(functions_in(n)), draw(functions_in(n))
    try:
        u = make(pu, du, n=n, coercive=cu)
        v = make(pv, dv, n=n, coercive=cv)
        if draw(st.booleans()):  # min(u, max(u, v)) = u is convex
            v = sup(u, v)
    except ConvvalError:
        return None
    return u, v


# x <= 1 twice, 2x <= 4 and x + y <= 5 are implied by the rest of the box
REDUNDANT_DOMAIN = HRep.make(2, [((1, 0), 1), ((1, 0), 1), ((2, 0), 4), ((-1, 0), 1),
                                 ((0, 1), 1), ((0, -1), 1), ((1, 1), 5)])


class TestInfIfConvexAgainstPerPairRoute:
    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_same_result_or_witness(self, pair):
        if pair is None:
            return
        u, v = pair
        with counted(functions, "from_epigraph") as built:
            got = outcome(inf_if_convex, u, v)
        assert got == outcome(oracle_inf_if_convex, u, v)
        for hull, *_ in built:  # the hull from integer generators, int_rows in order
            want = hull_of(u, v).hrep
            assert hull.hrep == want and hull.hrep.int_rows == want.int_rows

    def test_hull_with_lines(self):
        u = make([((1,), 0)], coercive=False)
        v = make([((-1,), 0)], coercive=False)
        assert u.epigraph.vrep.lines and v.epigraph.vrep.lines
        got = outcome(inf_if_convex, u, v)
        assert got[0] == "NotConvexMin"
        assert got == outcome(oracle_inf_if_convex, u, v)

    def test_first_failing_pair_of_the_full_product(self):
        u = make([((-1,), -2), ((3,), -1), ((-1,), -1), ((1,), 0)])
        v = make([((-3,), 2), ((1,), -2), ((2,), -3), ((-1,), -3)])
        outsides = [[(tuple(-x for x in g), -c) for g, c in e.canonical_hrep.halfspaces]
                    for e in (u.epigraph, v.epigraph)]
        failing = [q.relint_point()[:1] if not any(flags) else None
                   for q, flags in cut_by(hull_of(u, v), product(*outsides))]
        # facets 1 and 2 of epi u are open; of the 3 x 2 pairs, (g1, h1) and
        # (g2, h1) fail, with different witnesses
        assert len(open_rows(u.epigraph.canonical_hrep, v)) == 2 and len(outsides[1]) == 2
        assert [i for i, w in enumerate(failing) if w] == [3, 5] and failing[3] != failing[5]
        got = outcome(inf_if_convex, u, v)
        assert got == ("NotConvexMin", failing[3])
        assert got == outcome(oracle_inf_if_convex, u, v)

    def test_hull_with_lines_convex(self):
        u = make([((1, 0), 0)], coercive=False)  # x_1, constant along x_2
        w = u.translate_graph(1)
        assert outcome(inf_if_convex, u, w) == outcome(oracle_inf_if_convex, u, w)
        assert pwa_equal(inf_if_convex(u, w), u)

    def test_segments_in_the_plane(self):
        def segment(a, b):
            return indicator_function(Polyhedron.box([(a, b), (0, 0)]))

        overlapping, disjoint = (segment(0, 2), segment(1, 3)), (segment(0, 1), segment(2, 3))
        assert outcome(inf_if_convex, *overlapping) == outcome(oracle_inf_if_convex, *overlapping)
        assert pwa_equal(inf_if_convex(*overlapping), segment(0, 3))
        got = outcome(inf_if_convex, *disjoint)
        assert got == ("NotConvexMin", (F(3, 2), F(0))) == outcome(oracle_inf_if_convex, *disjoint)

    @pytest.mark.parametrize("other, convex", [
        ([((1,), 1), ((-1,), 1)], True),                       # |x| + 1
        ([((2,), 0), ((-2,), 0)], True),                       # 2|x|
        ([((1,), -1), ((-1,), 1)], False),                     # |x - 1|
        ([((1,), -2), ((-1,), 2), ((0,), 0)], False),          # |x - 2|, its 0 kept too
    ], ids=["shifted", "steeper", "crossing", "crossing-with-zero"])
    def test_a_piece_tight_at_one_vertex(self, other, convex):
        """max(x, -x, 0) keeps its 0 piece, tight at x = 0 only: a row of
        epi u that is not a facet, on either side of the pair."""
        u, v = make([((1,), 0), ((-1,), 0), ((0,), 0)]), make(other)
        assert len(u.epigraph.hrep.halfspaces) > len(u.epigraph.canonical_hrep.halfspaces)
        for a, b in ((u, v), (v, u)):
            got = outcome(inf_if_convex, a, b)
            assert (got[0] != "NotConvexMin") == convex
            assert got == outcome(oracle_inf_if_convex, a, b)

    @pytest.mark.parametrize("other, convex", [
        (make([((1, 0), F(1, 2)), ((-1, 0), F(1, 2)), ((0, 1), F(1, 2))],
              REDUNDANT_DOMAIN, n=2), True),                     # u + 1/2
        (make([((0, 0), 0)], Polyhedron.box([(0, 3), (-1, 1)]), n=2), False),
        (make([((0, 0), 0)], Polyhedron.box([(2, 3), (-1, 1)]), n=2), False),
    ], ids=["shifted", "overlapping-box", "far-box"])
    def test_a_domain_with_repeated_and_redundant_rows(self, other, convex):
        u = make([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0)], REDUNDANT_DOMAIN, n=2)
        assert len(u.epigraph.hrep.halfspaces) > len(u.epigraph.canonical_hrep.halfspaces)
        for a, b in ((u, other), (other, u)):
            got = outcome(inf_if_convex, a, b)
            assert (got[0] != "NotConvexMin") == convex
            assert got == outcome(oracle_inf_if_convex, a, b)


# ---------------------------------------------------------------------------
# Count guards
# ---------------------------------------------------------------------------


SLOPES_4 = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


class TestBuiltOnce:
    """Each function is built once, by ``_build``: the pair generator builds
    u and v from their pieces, and ``sup`` leaves the emptiness of the common
    domain to ``_build``, against the routes that built l, 2w - l and that
    domain first (``oracle_pair_by_sup``, ``oracle_sup``)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pairs_equal_the_sup_route(self, n):
        for seed in range(8):
            pair = generate_pair_with_convex_min(seed, n)
            for got, want in zip((pair.u, pair.v), oracle_pair_by_sup(seed, n)):
                assert outcome(lambda: got) == outcome(lambda: want)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(functions_in(n), functions_in(n))))
    def test_sup_equals_the_route_through_make(self, cases):
        try:
            u, v = (make(pieces, domain, n=domain.d, coercive=coercive)
                    for pieces, domain, coercive in cases)
        except ConvvalError:
            return
        assert outcome(sup, u, v) == outcome(oracle_sup, u, v)

    def test_sup_of_disjoint_domains_is_empty(self):
        a = indicator_function(Polyhedron.box([(0, 1), (0, 1)]))
        b = indicator_function(Polyhedron.box([(2, 3), (0, 1)]))
        with pytest.raises(EmptyDomain):
            sup(a, b)

    def test_sup_runs_one_double_description(self):
        u = make([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)])
        v = make([((2, 0), -3), ((-2, 0), -3), ((0, 2), -3), ((0, -2), -3)])
        with counted(polyhedra, "hrep_to_vrep") as calls:
            w = sup(u, v)
        assert w.pieces == u.pieces + v.pieces  # every piece is active
        assert len(calls) == 1


class TestDoubleDescriptionCounts:
    @pytest.mark.parametrize("extra", [[], [((0, 0), -1)]], ids=["all-active", "one-pruned"])
    def test_make_runs_no_dd_per_piece(self, extra):
        counts = []
        for slopes in (SLOPES_4, SLOPES_12):
            with counted(polyhedra, "hrep_to_vrep") as calls:
                u = make([(a, 0) for a in slopes] + extra)
            assert len(u.pieces) == len(slopes)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2

    def test_inf_if_convex_runs_no_dd_per_facet_pair(self):
        counts, facet_pairs = [], []
        for slopes in (SLOPES_4, SLOPES_12):
            u = make([(a, 0) for a in slopes])
            v = u.translate_graph(1)  # min(u, u + 1) = u
            with counted(polyhedra, "hrep_to_vrep") as calls:
                assert pwa_equal(inf_if_convex(u, v), u)
            counts.append(len(calls))
            facet_pairs.append(len(u.epigraph.canonical_hrep.halfspaces)
                               * len(v.epigraph.canonical_hrep.halfspaces))
        assert facet_pairs[1] > 4 * facet_pairs[0]
        assert counts[0] == counts[1] <= 3

    def test_inf_if_convex_cuts_only_open_facet_pairs(self):
        u = make([(a, 0) for a in SLOPES_12])
        v = u.translate_graph(1)  # the hull is epi u: no row of epi u is open
        facets_u = len(u.epigraph.canonical_hrep.halfspaces)
        assert facets_u * len(v.epigraph.canonical_hrep.halfspaces) == 144
        assert open_rows(u.epigraph.hrep, v) == []
        with cut_by_steps() as steps:
            assert pwa_equal(inf_if_convex(u, v), u)
        assert steps == []  # no cut for a row of epi v, nor two for each of 144 pairs

    def test_inf_if_convex_steps_on_a_pair(self):
        pair = generate_pair_with_convex_min(0, 2)  # u = w sup l, v = w sup (2w - l)
        u, v = pair.u, pair.v
        open_g, open_h = open_rows(u.epigraph.hrep, v), open_rows(v.epigraph.hrep, u)
        assert open_g and len(open_h) > len(open_g)
        with cut_by_steps() as steps:
            assert pwa_equal(inf_if_convex(u, v), pair.wedge)
        assert len(steps) == len(open_g)  # one per open row of epi u, none per pair

    def test_inf_if_convex_reads_no_canonical_hrep_on_a_convex_pair(self):
        """The hull's polar double description is the only one: neither
        epigraph's canonical H-rep is built."""
        pair = generate_pair_with_convex_min(0, 2)
        u, v = make(pair.u.pieces), make(pair.v.pieces)
        with counted(polyhedra, "vrep_to_hrep") as v2h:
            w = inf_if_convex(u, v)
        assert len(v2h) == 1
        assert u.epigraph._canonical_hrep is None and v.epigraph._canonical_hrep is None
        assert pwa_equal(w, pair.wedge)

    def test_smoothing_builds_the_cone_function_once(self):
        """Four steepnesses run the cone function's double descriptions once,
        and none for the steepened epigraphs, which carry its cone."""
        u = make([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)])
        u.epigraph.canonical_hrep  # u's own double descriptions, done first
        with counted(polyhedra, "hrep_to_vrep") as h2v, \
                counted(polyhedra, "vrep_to_hrep") as v2h:
            # reading the epigraph runs the build that from_epigraph defers
            cone_function(Polyhedron.box([(-1, 1), (-1, 2)])).epigraph
        once = [args[0] for args in h2v + v2h]
        assert len(once) >= 4
        body = Polyhedron.box([(-1, 1), (-1, 2)])
        with counted(polyhedra, "hrep_to_vrep") as h2v, \
                counted(polyhedra, "vrep_to_hrep") as v2h:
            seq = [smoothing_sequence(u, body, 2 ** j) for j in range(4)]
        inputs = [args[0] for args in h2v + v2h]
        for x in once:
            assert sum(x == y for y in inputs) == 1
        base = cone_function(body)
        for j in range(1, 4):  # at k = 1 it is l_K's own epigraph, counted in `once`
            k = 2 ** j
            steep = functions._epigraph_of(2, tuple((tuple(k * x for x in a), k * b)
                                                    for a, b in base.pieces), base.domain)
            assert steep.hrep not in inputs
        assert all(pwa_equal(w, inf_convolution(u, scale_values(base, 2 ** j)))
                   for j, w in enumerate(seq))


def steep_bodies():
    """Bodies with the origin inside: ``random_body`` in R^1..R^3, and boxes."""
    for n in (1, 2, 3):
        for seed in range(3):
            yield random_body(seed, n)
        yield Polyhedron.box([(-1, 1)] * n)
        yield Polyhedron.box([(-1, 2)] * n)


class TestSteepenedConeFunction:
    """k l_K carries the cone of l_K through (x, t) -> (x, k t) instead of a
    fresh ``make``; l_K is built once and kept on K."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 2 ** 10])
    def test_carried_equals_make(self, k):
        for body in steep_bodies():
            base = cone_function(body)
            got = scale_values(base, k)
            want = make([(tuple(k * x for x in a), k * b) for a, b in base.pieces], base.domain)
            assert got.pieces == want.pieces
            assert got.domain == want.domain and got.coercive == want.coercive
            assert got.epigraph.hrep == want.epigraph.hrep
            gc, wc = got.epigraph._integer(), want.epigraph._integer()
            for field in ("rows", "gens", "masks", "lines", "nverts"):
                assert getattr(gc, field) == getattr(wc, field), field
            assert got.epigraph.vrep == want.epigraph.vrep

    def test_kept_on_the_body(self):
        for body in steep_bodies():
            u = cone_function(body)
            assert cone_function(body) is u
            for t in (0, F(1, 3), -2, 5):
                got, want = cone_function(body, t), oracle_cone_function(Polyhedron(body.hrep), t)
                assert got.pieces == want.pieces and got.domain == want.domain
                assert got.epigraph._integer() == want.epigraph._integer()

    def test_rejects_a_body_without_caching(self):
        body = Polyhedron.box([(1, 2)])
        for _ in range(2):
            with pytest.raises(ConvvalError):
                cone_function(body)
        assert body._cone_function is None
        with pytest.raises(ValueError):
            scale_values(cone_function(Polyhedron.box([(-1, 1)])), 0)


class TestScaleValues:
    """``scale_values`` equals ``make`` of the scaled pieces: carried when the
    epigraph is pointed, built afresh when it has lines."""

    @pytest.mark.parametrize("pieces, n, domain", [
        ([((1, 2), 3)], 2, None),                                  # lines: a plane
        ([((1, 0), 1), ((-1, 0), F(1, 2))], 2, None),              # lines: a ridge
        ([((1,), F(2, 3)), ((-2,), 1)], 1, None),                  # pointed
        ([((1, 1), 0), ((-1, 0), 1)], 2, Polyhedron.box([(0, 1), (-1, 2)])),  # pointed
    ])
    def test_equals_make_with_and_without_lines(self, pieces, n, domain):
        u = make(pieces, domain, n=n, coercive=False)
        for k in (3, F(2, 5)):
            got = scale_values(u, k)
            want = make([(tuple(k * x for x in a), k * b) for a, b in pieces], domain,
                        n=n, coercive=False)
            assert got.pieces == want.pieces
            assert got.epigraph.vrep == want.epigraph.vrep
            assert function_to_doc(conjugate(got)) == function_to_doc(conjugate(want))


def observed(u):
    """Pieces, domain, coercivity, the epigraph's H-rep with its integer rows
    and its integer double description."""
    return (u.pieces, u.domain, u.coercive, u.epigraph.hrep, u.epigraph.hrep.int_rows,
            u.epigraph._integer())


def from_epigraph_outcome(route, epi, coercive):
    """``observed`` of ``route(epi, coercive=...)``, or the error's type and
    message."""
    try:
        u = route(epi, coercive=coercive)
    except (ConvvalError, ValueError) as exc:
        return type(exc), str(exc)
    return observed(u)


def smoothing_inputs():
    """(u, k) for the ``conjugacy_n2`` corpus inputs, with the pieces in the
    order drawn and reversed, and the steepnesses of the benchmark."""
    for pu, pv, _ in conjugacy_corpus():
        for pieces in (pu, pu[::-1], pv, pv[::-1]):
            for k in (1, 2, 4, 8):
                yield make(pieces, n=2), k


STEEP = Polyhedron.box([(-1, 1), (-1, 1)])


class TestDeferredFromEpigraph:
    """``from_epigraph`` checks the polyhedron on its own double description
    and builds the function on the first read, against the route that
    checked the canonical H-rep and built right away (``oracle_from_epigraph``)."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(epigraph_candidates), st.booleans())
    def test_same_function_or_error(self, epi, coercive):
        fresh = Polyhedron(epi.hrep)
        assert (from_epigraph_outcome(from_epigraph, epi, coercive)
                == from_epigraph_outcome(oracle_from_epigraph, fresh, coercive))

    def test_error_cases(self):
        up = (0, 0, 1)
        cases = [
            (Polyhedron.empty(3), EmptyDomain),
            (Polyhedron.from_generators(3, [(0, 0, 0)], [(0, 0, -1)]), ValueError),  # ray down
            (Polyhedron.from_generators(3, [(0, 0, 0)], lines=[up]),  # vertical line
             UnboundedPolyhedron),
            (Polyhedron.from_generators(3, [(0, 0, 0)], [up], [(1, 0, 0)]), NotCoercive),
            (Polyhedron.from_generators(3, [(0, 0, 0)], [up, (1, 0, 0)]), NotCoercive),
        ]
        for epi, error in cases:
            got = from_epigraph_outcome(from_epigraph, epi, True)
            assert got[0] is error
            assert got == from_epigraph_outcome(oracle_from_epigraph, Polyhedron(epi.hrep), True)

    def test_corpus_inf_convolutions_and_smoothing(self):
        """The results of ``inf_convolution`` and ``smoothing_sequence`` on
        the benchmark corpus, compared in piece order."""
        for pu, pv, _ in conjugacy_corpus():
            for u, v in ((make(pu, n=2), make(pv, n=2)), (make(pu[::-1], n=2), make(pv, n=2))):
                want = oracle_from_epigraph(minkowski_sum(u.epigraph, v.epigraph))
                assert observed(inf_convolution(u, v)) == observed(want)
        for u, k in smoothing_inputs():
            steep = scale_values(cone_function(STEEP), k)
            want = oracle_from_epigraph(minkowski_sum(u.epigraph, steep.epigraph))
            assert observed(smoothing_sequence(u, STEEP, k)) == observed(want)

    def test_cone_bounds_read_the_given_polyhedron(self):
        """On a result that is not built, ``cone_bound`` and ``holds_for``
        equal the routes through the built epigraph and the conjugate, and
        run no polar double description."""
        for u, k in smoothing_inputs():
            w = smoothing_sequence(u, STEEP, k)
            with counted(polyhedra, "vrep_to_hrep") as v2h:
                bound = cone_bound(w)
                others = [ConeBound(bound.a, bound.b + 2), ConeBound(4 * bound.a, bound.b)]
                held = [b.holds_for(w) for b in [bound] + others]
            assert v2h == []
            assert "pieces" not in vars(w)
            assert bound == oracle_cone_bound_by_conjugate(w)
            assert held == [oracle_holds_for(b, w) for b in [bound] + others]


class TestDeferredCounts:
    def test_smoothing_element_for_a_cone_bound(self):
        """Each element that only feeds ``uniform_cone_bound`` runs the polar
        double description of its Minkowski sum and that sum's own one."""
        cone_function(STEEP).epigraph  # the body's cone function, built once
        pu, _, _ = conjugacy_corpus()[0]
        u = make(pu, n=2)
        with counted(polyhedra, "hrep_to_vrep") as h2v, \
                counted(polyhedra, "vrep_to_hrep") as v2h:
            seq = [smoothing_sequence(u, STEEP, 2 ** j) for j in range(4)]
            bound = uniform_cone_bound(seq)
        assert len(v2h) == len(h2v) == 4
        assert all(bound.holds_for(w) for w in seq)

    def test_biconjugate_check_after_conjugate_builds_the_conjugate_once(self):
        pu, _, _ = conjugacy_corpus()[1]
        u = make(pu, n=2)
        star = conjugate(u)
        with counted(functions, "_build") as builds:
            assert biconjugate_check(u)
        assert len(builds) == 1  # u** only
        assert conjugate(u) is star
