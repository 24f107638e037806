"""The fraction-free integer kernel against the Fraction route it replaced.

The oracles (``oracles.py``) are the Fraction-based elimination, double
description and mask-free face triangulation (with its Fraction polygon fan
and affine rank) that ``linalg`` and ``polyhedra`` used before they moved
to ``linalg.echelon``, int-bitmask incidence sets and integer points, and
the ``cone_generators`` that took one ``echelon`` for its pointedness test
and another for its DD basis.  Every comparison is an exact ``==`` on the
returned values and their order.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from convval import linalg
from convval.linalg import vec_add, vec_sub
from convval.polyhedra import (HRep, Polyhedron, VRep, _fracvec, _int_rows, apply_linear,
                               cone_generators, cut_by, hrep_to_vrep, minkowski_sum,
                               scale, translate, triangulate, volume, vrep_to_hrep)
from counting import counted
from oracles import (oracle_cone_generators, oracle_determinant, oracle_hrep_to_vrep,
                     oracle_invert, oracle_is_bounded, oracle_null_space, oracle_rank, oracle_rref,
                     oracle_scale_to_int, oracle_solve, oracle_triangulate,
                     oracle_two_echelon_cone_generators, oracle_vrep_to_hrep, rationals)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

small_rationals = rationals(4, 3, 5)


@st.composite
def matrices(draw, square=False):
    """Rational matrices with zero rows, repeated rows and combinations of rows."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows = [draw(st.lists(small_rationals, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "combo"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "combo" and i >= 2:
            c = draw(small_rationals)
            rows[i] = [F(x) + c * F(y) for x, y in zip(rows[i - 1], rows[i - 2])]
    return rows


# Mostly nonnegative offsets, so that most drawn H-reps contain the origin.
offsets = st.one_of(small_rationals.map(abs), small_rationals.map(abs), small_rationals)


@st.composite
def hreps(draw):
    """H-reps in R^1..R^4: often empty or unbounded, with lineality when the
    normals miss a coordinate."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(0, 7))
    lineal = draw(st.booleans())
    halfspaces = []
    if draw(st.booleans()):  # a box around the origin on the coordinates in use
        for i in range(d - 1 if lineal else d):
            for sgn in (1, -1):
                halfspaces.append(([sgn * int(j == i) for j in range(d)], 3))
    for _ in range(k):
        a = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        if lineal:
            a[-1] = 0
        halfspaces.append((a, draw(offsets)))
    if draw(st.integers(0, 9)) == 0:
        return HRep.infeasible(d)
    return HRep.make(d, halfspaces)


@st.composite
def vreps(draw):
    d = draw(st.integers(1, 4))
    point = st.lists(small_rationals, min_size=d, max_size=d)
    direction = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    return VRep.make(d, draw(st.lists(point, min_size=0, max_size=6)),
                     draw(st.lists(direction, max_size=2)),
                     draw(st.lists(direction, max_size=1)))


@st.composite
def cone_row_lists(draw):
    """Primitive integer rows in R^0..R^5: often rank deficient (a cone with
    lines), with zero rows, repeated rows and combinations of rows, or none."""
    dim = draw(st.integers(0, 5))
    used = draw(st.integers(0, dim))  # the rows live in the first `used` coordinates
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["new", "new", "new", "zero", "repeat", "combo"]))
        if kind == "zero" or not used:
            row = [0] * dim
        elif kind == "repeat" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combo" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(st.integers(-2, 2))
            row = [x + c * y for x, y in zip(a, b)]
        else:
            row = draw(st.lists(st.integers(-3, 3), min_size=used, max_size=used))
            row += [0] * (dim - used)
        rows.append(linalg.scale_to_int(row))
    return rows, dim


@st.composite
def carried_polyhedra(draw):
    """A polyhedron whose generators are the integer cone of its own double
    description or one carried to it: from an H-rep (with lines or empty at
    times), then possibly restricted by ``cut_by`` or mapped by ``translate``,
    ``apply_linear`` or ``scale``."""
    p = Polyhedron(draw(hreps()))
    d = p.d
    move = draw(st.sampled_from(["none", "cut", "translate", "linear", "scale"]))
    if move == "cut":
        a = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        p, _ = next(cut_by(p, [[(a, draw(offsets))]]))
    elif move == "translate":
        p = translate(p, draw(st.lists(small_rationals, min_size=d, max_size=d)))
    elif move == "linear":
        m = [[int(i == j) for j in range(d)] for i in range(d)]
        if d >= 2:
            m[0][1] = draw(st.integers(-2, 2))
        m[-1][-1] = draw(st.sampled_from([1, 2, -3, F(1, 2)]))
        p = apply_linear(p, m)
    elif move == "scale":
        p = scale(p, draw(st.sampled_from([F(1, 3), 2, F(7, 2)])))
    return p


@st.composite
def redundant_vreps(draw):
    """Raw generators with repeats and points inside the hull of others."""
    d = draw(st.integers(1, 4))
    point = st.lists(small_rationals, min_size=d, max_size=d)
    pts = draw(st.lists(point, min_size=1, max_size=5))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))  # repeats
    for _ in range(draw(st.integers(0, 2))):  # midpoints: never extreme
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append([(F(x) + F(y)) / 2 for x, y in zip(a, b)])
    direction = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    rays = draw(st.lists(direction, max_size=2))
    rays += [[2 * x for x in r] for r in rays[:1]]  # a repeated direction
    return VRep.make(d, draw(st.permutations(pts)), rays, draw(st.lists(direction, max_size=1)))


def assert_seeded_rows(h):
    """The integer rows the polar route hands on are those the lazy
    ``HRep.int_rows`` would build."""
    assert h.int_rows == _int_rows(h.halfspaces)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestKernelAgainstFractionRoute:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_rref_rank_null_space(self, rows):
        assert [linalg.scale_to_int(r) for r in rows] == [oracle_scale_to_int(r) for r in rows]
        assert linalg.rref(rows) == oracle_rref(rows)
        assert linalg.rank(rows) == oracle_rank(rows)
        ncols = len(rows[0]) if rows else 3
        assert linalg.null_space(rows, ncols) == [
            oracle_scale_to_int(v) for v in oracle_null_space(rows, ncols)]

    @settings(max_examples=200, deadline=None)
    @given(matrices(square=True))
    def test_invert_determinant(self, mat):
        assert linalg.invert(mat) == oracle_invert(mat)
        assert linalg.determinant(mat) == oracle_determinant(mat)

    @settings(max_examples=100, deadline=None)
    @given(matrices(), st.data())
    def test_solve(self, rows, data):
        if not rows:
            return
        b = data.draw(st.lists(small_rationals, min_size=len(rows), max_size=len(rows)))
        assert linalg.solve(rows, b) == oracle_solve(rows, b)

    def test_fixed_cases(self):
        for rows in ([], [[0, 0, 0]], [[0, 2, 4], [0, 1, 2]], [[F(1, 2), 3]],
                     [[0, 1], [1, 0]], [[2, 1, 0], [1, 1, 1], [3, 2, 1], [0, 0, 0]]):
            assert linalg.rref(rows) == oracle_rref(rows)
        assert linalg.invert([[0, 1], [1, 0]]) == oracle_invert([[0, 1], [1, 0]])
        assert linalg.determinant([[0, 1], [1, 0]]) == -1
        assert linalg.determinant([]) == 1

    def test_echelon_rows_are_d_times_rref(self):
        rows = [[0, 3, 6, 1], [2, 1, 0, 5], [2, 4, 6, 6], [1, 0, 1, 0]]
        red, pivots, d = linalg.echelon(rows)
        want, want_pivots = oracle_rref(rows)
        assert pivots == want_pivots
        assert [tuple(F(x, d) for x in row) for row in red] == want
        square = rows[1:]
        assert linalg.echelon([r[:3] for r in square])[2] == oracle_determinant(
            [r[:3] for r in square])


class TestDoubleDescriptionAgainstFractionRoute:
    @settings(max_examples=200, deadline=None)
    @given(hreps())
    def test_hrep_to_vrep(self, h):
        assert hrep_to_vrep(h) == oracle_hrep_to_vrep(h)

    @settings(max_examples=200, deadline=None)
    @given(vreps())
    def test_vrep_to_hrep(self, v):
        assert vrep_to_hrep(v) == oracle_vrep_to_hrep(v)

    @settings(max_examples=200, deadline=None)
    @given(carried_polyhedra())
    def test_polar_route_on_carried_cones(self, p):
        """``canonical_hrep`` runs the polar DD on the integer generators of
        the polyhedron's cone, ``vrep_to_hrep`` on its V-rep scaled once."""
        v = p.vrep
        want = oracle_vrep_to_hrep(v)
        for h in (vrep_to_hrep(v), p.canonical_hrep):
            assert h == want
            assert_seeded_rows(h)

    @settings(max_examples=200, deadline=None)
    @given(redundant_vreps())
    def test_polar_route_on_raw_generators(self, v):
        want = oracle_vrep_to_hrep(v)
        h = vrep_to_hrep(v)
        assert h == want
        assert_seeded_rows(h)
        if not v.is_empty:
            p = Polyhedron.from_generators(v.d, v.vertices, v.rays, v.lines)
            assert p.hrep == want
            # the canonical rows follow the hull's own generators, in their order
            assert p.canonical_hrep == oracle_vrep_to_hrep(p.vrep)
            assert_seeded_rows(p.canonical_hrep)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_minkowski_sum_of_integer_generators(self, data):
        """The vertex sums (X y0 + Y x0, x0 y0) give the H-rep the Fraction
        sums gave."""
        p = data.draw(carried_polyhedra())
        q = data.draw(carried_polyhedra().filter(lambda q: q.d == p.d))
        got = minkowski_sum(p, q)
        vp, vq = p.vrep, q.vrep
        if vp.is_empty or vq.is_empty:
            assert got.is_empty
            return
        raw = VRep.make(p.d, [vec_add(a, b) for a in vp.vertices for b in vq.vertices],
                        vp.rays + vq.rays, vp.lines + vq.lines)
        assert got.hrep == oracle_vrep_to_hrep(raw)
        assert_seeded_rows(got.hrep)
        assert minkowski_sum(vp, vq).hrep == got.hrep

    def test_lineality_and_empty_cases(self):
        slab = HRep.make(3, [((1, 0, 0), 1), ((-1, 0, 0), 1)])
        v = hrep_to_vrep(slab)
        assert v == oracle_hrep_to_vrep(slab) and len(v.lines) == 2
        assert hrep_to_vrep(HRep.infeasible(2)) == VRep.empty(2)
        assert hrep_to_vrep(HRep.make(2, [])) == oracle_hrep_to_vrep(HRep.make(2, []))


class TestBoundedOnTheCone:
    """``is_bounded`` reads the integer cone, as ``is_empty`` and ``dim``
    do, not the Fraction V-rep."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(carried_polyhedra(), redundant_vreps().map(
        lambda v: Polyhedron.from_generators(v.d, v.vertices, v.rays, v.lines))))
    def test_against_the_vrep_route(self, p):
        """Empty, lineal, with rays, hulls and carried images."""
        assert p.is_bounded == oracle_is_bounded(p)

    def test_builds_no_fraction_vrep(self):
        box = Polyhedron.box([(0, 1), (-1, 2)])
        quadrant = Polyhedron.from_halfspaces(2, [((-1, 0), 0), ((0, -1), 0)])
        image, ray_image = scale(box, 3), translate(quadrant, (1, F(1, 2)))
        restricted, _ = next(cut_by(box, [[((1, 1), 1)]]))
        assert image.is_bounded and not ray_image.is_bounded
        assert volume(restricted) == F(3, 2)
        assert image._vrep is None and ray_image._vrep is None and restricted._vrep is None
        assert Polyhedron.empty(2).is_bounded


class TestConeGeneratorsOneElimination:
    """One ``echelon`` of the transpose next to an identity picks the DD
    basis, decides pointedness and inverts the basis; only a cone with lines
    takes a ``null_space``."""

    @staticmethod
    def assert_same_generators(rows, dim):
        got = cone_generators(rows, dim)
        assert got == oracle_two_echelon_cone_generators(rows, dim)
        rays, lines = oracle_cone_generators(rows, dim)
        assert [_fracvec(r) for r, _ in got[0]] == rays
        assert [_fracvec(l) for l in got[1]] == lines

    @settings(max_examples=300, deadline=None)
    @given(cone_row_lists())
    def test_against_the_two_echelon_route(self, case):
        self.assert_same_generators(*case)

    def test_fixed_cases(self):
        cases = [([], 0), ([], 3), ([(0, 0, 0)], 3), ([(0, 0), (0, 0)], 2),
                 ([(1, 0, 0), (-1, 0, 0)], 3),                  # a slab: two lines
                 ([(1, 1, 0), (0, 0, 0), (1, 1, 0), (-1, 0, 0)], 3),  # zero and repeated rows
                 ([(-1, 0), (0, -1)], 2), ([(1, 2), (-1, -2), (0, 1)], 2)]
        for rows, dim in cases:
            self.assert_same_generators(rows, dim)

    def test_null_space_only_with_lines(self):
        with counted(linalg, "null_space") as calls:
            cone_generators([(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)], 3)
        assert calls == []
        with counted(linalg, "null_space") as calls:
            rays, lines = cone_generators([(-1, 0, 0), (0, -1, 0)], 3)
        assert len(calls) == 1 and lines == [(0, 0, 1)]

    def test_pointed_cone_takes_one_transposed_echelon(self):
        rows = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1), (1, -1, 0)]
        with counted(linalg, "echelon") as calls:
            cone_generators(rows, 3)
        # [R^T | I], 3 x (5 + 3), gives the basis and its inverse; the DD
        # steps take none
        assert len(calls) == 1
        assert calls[0][0] == [list(col) + [int(i == j) for j in range(3)]
                               for i, col in enumerate(zip(*rows))]


class TestTriangulateAgainstFractionRoute:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_simplex_lists(self, d, data):
        pts = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                                 min_size=d + 1, max_size=d + 5))
        p = Polyhedron.from_generators(d, pts)
        if p.dim < d:
            return
        assert triangulate(p) == oracle_triangulate(p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.data())
    def test_rational_vertices(self, d, data):
        pts = data.draw(st.lists(st.lists(small_rationals, min_size=d, max_size=d),
                                 min_size=d + 2, max_size=d + 5))
        p = Polyhedron.from_generators(d, pts)
        if p.dim < d:
            return
        assert triangulate(p) == oracle_triangulate(p)

    def test_redundant_hrep(self):
        cube = Polyhedron.box([(0, 1)] * 3)
        doubled = Polyhedron.from_halfspaces(3, cube.hrep.halfspaces * 2
                                             + (((1, 1, 1), 3),))
        for p in (cube, doubled):
            simplices = triangulate(p)
            assert simplices == oracle_triangulate(p)
            assert sum(abs(linalg.determinant([vec_sub(q, s[0]) for q in s[1:]]))
                       for s in simplices) == 6
