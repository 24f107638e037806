"""Routes that reuse a double description already computed, against the
per-piece and per-pair routes they replaced.

The oracles below are the pruning by one cell polyhedron per piece and the
``inf_if_convex`` with one fresh ``hrep_to_vrep`` per facet pair that
``functions`` used before, and the cone function built afresh on every
call, steepened by a fresh ``make``.  Every comparison is an exact ``==`` on
pieces, domains and both representations of the epigraph (in order), or on
the ``NotConvexMin`` witness.  The count guards make a per-piece or per-pair
double description, a check of a facet pair that cannot fail, or a cone
function built again for the same body, fail a test, not only a benchmark
run.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from convval import conjugacy, functions, polyhedra
from convval.conjugacy import conjugate, inf_convolution
from convval.errors import ConvvalError, EmptyDomain, NotCoercive, NotConvexMin
from convval.functions import (cone_function, from_epigraph, inf_if_convex, make,
                               pwa_equal, scale_values, sup)
from convval.laws import generate_pair_with_convex_min, random_body, smoothing_sequence
from convval.linalg import dot, vec_sub
from convval.polyhedra import HRep, Polyhedron, cut_by, is_implicit
from counting import counted

# ---------------------------------------------------------------------------
# Oracles: one double description per piece and per facet pair
# ---------------------------------------------------------------------------


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


def plain_build(n, pieces, domain, coercive):
    """The builder that kept every piece it was given."""
    pieces = tuple((polyhedra._fracvec(a), F(b)) for a, b in pieces)
    epi = functions._epigraph_of(n, pieces, domain)
    if epi.is_empty:
        raise EmptyDomain("empty domain: the function is improper")
    if coercive and not functions._check_coercive(epi, n):
        raise NotCoercive("some sublevel set is unbounded")
    return functions.PWAConvex(n, pieces, domain, epi, coercive)


def oracle_build_pruned(n, pieces, domain, coercive):
    pieces = [(polyhedra._fracvec(a), F(b)) for a, b in pieces]
    cells = oracle_active_cells(n, pieces, domain)
    return plain_build(n, tuple(p for p, _ in cells), domain, coercive)


@contextmanager
def per_piece_pruning():
    with mock.patch.object(functions, "_build", oracle_build_pruned), \
            mock.patch.object(conjugacy, "_build", oracle_build_pruned):
        yield


def oracle_inf_if_convex(u, v):
    n = u.n
    eu, ev = u.epigraph, v.epigraph
    gu, gv = eu.vrep, ev.vrep
    hull = Polyhedron.from_generators(
        n + 1,
        tuple(gu.vertices) + tuple(gv.vertices),
        tuple(gu.rays) + tuple(gv.rays),
        tuple(gu.lines) + tuple(gv.lines),
    )
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


def fresh_cone_function(k, t=0):
    """``cone_function`` as it was: built afresh on every call."""
    origin = tuple(F(0) for _ in range(k.d))
    epi = Polyhedron.from_generators(k.d + 1, [origin + (F(0),)],
                                     rays=[tuple(v) + (F(1),) for v in k.vrep.vertices])
    u = from_epigraph(epi, coercive=True)
    return u.translate_graph(t) if F(t) != 0 else u


def hull_of(u, v):
    gu, gv = u.epigraph.vrep, v.epigraph.vrep
    return Polyhedron.from_generators(u.n + 1, gu.vertices + gv.vertices,
                                      gu.rays + gv.rays, gu.lines + gv.lines)


def open_facets(u, v):
    """The facet rows of epi u that a generator of epi v violates strictly:
    those the hull of both epigraphs has points strictly beyond."""
    gv = v.epigraph.vrep
    return [(g, c) for g, c in u.epigraph.canonical_hrep.halfspaces
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


def outcome(fn, *args, **kwargs):
    """Everything observable about a constructed function, or the error."""
    try:
        u = fn(*args, **kwargs)
    except NotConvexMin as exc:
        return ("NotConvexMin", exc.witness)
    except (ConvvalError, ValueError) as exc:
        return (type(exc).__name__,)
    return (u.pieces, u.domain, u.coercive, u.epigraph.hrep, u.epigraph.vrep)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

coords = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2,
                                                    max_denominator=3))


@st.composite
def piece_sets(draw, n):
    """Pieces with duplicates, pieces active at one point only (the 0 of
    max(x, -x, 0)) and, when ``flat``, no dependence on the last coordinate,
    which gives the epigraph a line."""
    flat = draw(st.booleans())
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.lists(coords, min_size=n, max_size=n))
        if flat:
            a[-1] = 0
        pieces.append((tuple(a), draw(coords)))
    if draw(st.booleans()):  # max(x_1, -x_1, 0): the 0 piece is active at x_1 = 0
        e = tuple(int(i == 0) for i in range(n))
        pieces += [(e, 0), (tuple(-x for x in e), 0), ((0,) * n, 0)]
    if draw(st.booleans()):
        pieces += pieces[:2]
    return pieces, flat


@st.composite
def domains(draw, n):
    kind = draw(st.sampled_from(["all", "box", "flat", "point"]))
    if kind == "all":
        return HRep(n, ())
    box = Polyhedron.box([(-draw(st.integers(0, 2)), draw(st.integers(0, 2)))
                          for _ in range(n)]).hrep
    if kind == "box":
        return box
    e = tuple(F(int(i == 0)) for i in range(n))
    c = draw(coords)
    flat = box.halfspaces + ((e, c), (tuple(-x for x in e), -c))
    if kind == "point":  # a single point: every coordinate pinned
        flat = tuple((tuple(F(s * int(i == j)) for i in range(n)), F(s) * c)
                     for j in range(n) for s in (1, -1))
    return HRep(n, flat)


@st.composite
def functions_in(draw, n):
    pieces, flat = draw(piece_sets(n))
    domain = draw(domains(n))
    coercive = not flat and draw(st.booleans())
    return pieces, domain, coercive


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
        with per_piece_pruning():
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
        with per_piece_pruning():
            want = [outcome(conjugate, u),
                    outcome(from_epigraph, u.epigraph, coercive=False),
                    outcome(inf_convolution, u, u)]
        assert got == want

    def test_cells_follow_the_kept_pieces(self):
        u = make([((1,), 0), ((-1,), 0), ((0,), 0), ((0,), -1), ((1,), 0)])
        assert u.pieces == (((F(1),), F(0)), ((F(-1),), F(0)), ((F(0),), F(0)))
        assert [p for p, _ in u.cells] == list(u.pieces)
        assert [cell.dim for _, cell in u.cells] == [1, 1, 0]


# ---------------------------------------------------------------------------
# cut_by and inf_if_convex: two DD steps from the hull
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


class TestInfIfConvexAgainstPerPairRoute:
    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_same_result_or_witness(self, pair):
        if pair is None:
            return
        u, v = pair
        assert outcome(inf_if_convex, u, v) == outcome(oracle_inf_if_convex, u, v)

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
        assert len(open_facets(u, v)) == 2 and len(outsides[1]) == 2
        assert [i for i, w in enumerate(failing) if w] == [3, 5] and failing[3] != failing[5]
        got = outcome(inf_if_convex, u, v)
        assert got == ("NotConvexMin", failing[3])
        assert got == outcome(oracle_inf_if_convex, u, v)

    def test_hull_with_lines_convex(self):
        u = make([((1, 0), 0)], coercive=False)  # x_1, constant along x_2
        w = u.translate_graph(1)
        assert outcome(inf_if_convex, u, w) == outcome(oracle_inf_if_convex, u, w)
        assert pwa_equal(inf_if_convex(u, w), u)


# ---------------------------------------------------------------------------
# Count guards
# ---------------------------------------------------------------------------


SLOPES_4 = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
SLOPES_12 = [(4, 1), (4, -1), (-4, 1), (-4, -1), (1, 4), (1, -4), (-1, 4), (-1, -4),
             (3, 3), (3, -3), (-3, 3), (-3, -3)]


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
        v = u.translate_graph(1)  # the hull is epi u: no facet of epi u is open
        facets_u = len(u.epigraph.canonical_hrep.halfspaces)
        assert facets_u * len(v.epigraph.canonical_hrep.halfspaces) == 144
        with cut_by_steps() as steps:
            assert pwa_equal(inf_if_convex(u, v), u)
        assert len(steps) == facets_u  # not two steps for each of 144 pairs

    def test_inf_if_convex_steps_on_a_pair(self):
        pair = generate_pair_with_convex_min(0, 2)  # u = w sup l, v = w sup (2w - l)
        u, v = pair.u, pair.v
        open_g, open_h = open_facets(u, v), open_facets(v, u)
        assert open_g and open_h
        with cut_by_steps() as steps:
            assert pwa_equal(inf_if_convex(u, v), pair.wedge)
        assert len(steps) == (len(u.epigraph.canonical_hrep.halfspaces)
                              + len(v.epigraph.canonical_hrep.halfspaces)
                              + 2 * len(open_g) * len(open_h))

    def test_smoothing_builds_the_cone_function_once(self):
        """Four steepnesses run the cone function's double descriptions once,
        and none for the steepened epigraphs, which carry its cone."""
        u = make([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)])
        u.epigraph.canonical_hrep  # u's own double descriptions, done first
        with counted(polyhedra, "hrep_to_vrep") as h2v, \
                counted(polyhedra, "vrep_to_hrep") as v2h:
            cone_function(Polyhedron.box([(-1, 1), (-1, 2)]))
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
                got, want = cone_function(body, t), fresh_cone_function(Polyhedron(body.hrep), t)
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
