"""The double description's integer data, kept and read, against the
``Fraction`` routes it replaced (``oracles.py``): masks recomputed by dot
products, eager ``Fraction`` V-reps of restrictions and images,
``contains_polyhedron``, ``dim``, full dimension read off the masks
against ``dim``, ``relative_interior_contains``, the triangulation of
carried cones against the ``Fraction`` rank-test route and the elimination
route, pruning by ``Fraction`` dots, and the layer cake summed on a sorted
set of cuts; affine images on integer matrices against the
``Fraction`` maps they replaced.  Every comparison is an exact ``==``, in order where the
result is ordered.  The count guards make a return to those routes fail a
test.
"""

from fractions import Fraction as F
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from convval import linalg, polyhedra
from convval.conjugacy import conjugate
from convval.errors import ConvvalError
from convval.functions import (cone_function, from_epigraph, inf_if_convex, make, pwa_equal,
                               scale_values)
from convval.growth import integral_against, make_growth
from convval.laws import generate_pair_with_convex_min, random_body
from convval.linalg import invert, vec_add, vec_scale, vec_sub
from convval.polyhedra import (HRep, Polyhedron, apply_linear, cut_by, intersect,
                               relative_interior_contains, translate, triangulate, volume,
                               vrep_to_hrep)
from counting import counted
from oracles import (SLOPES_12, building_by, capped_epigraph, coords, functions_in,
                     images_by_fractions, oracle_apply_linear, oracle_build_pruned_by_dots,
                     oracle_contains, oracle_cut_by, oracle_dd_step, oracle_dim, oracle_image,
                     oracle_incidence, oracle_integer_simplices_by_lattice_det,
                     oracle_integral_against_by_region, oracle_relative_interior_contains,
                     oracle_restrictions, oracle_scale, oracle_translate, oracle_triangulate,
                     outcome, profiles, scale_values_by_fractions, weights)


def same_triangulation(p):
    """The simplices against the ``Fraction`` rank-test route, read off the
    ``Fraction`` representations, and the points, scale, simplices and
    determinants against the elimination route."""
    assert triangulate(p) == oracle_triangulate(p)
    assert polyhedra._integer_simplices(p) == oracle_integer_simplices_by_lattice_det(p)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def polyhedra_in(draw, d):
    """Pointed, unbounded, with lines, empty, lower-dimensional and
    redundant H-reps, hulls of generators, and translates (which carry the
    mapped integer data of their source)."""
    kind = draw(st.sampled_from(["rows", "box", "lines", "flat", "empty", "hull"]))
    rows = [(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)), draw(coords))
            for _ in range(draw(st.integers(0, 5)))]
    if kind == "hull":
        pts = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=6))
        rays = draw(st.lists(st.lists(st.integers(-1, 1), min_size=d, max_size=d), max_size=2))
        lines = draw(st.lists(st.lists(st.integers(-1, 1), min_size=d, max_size=d), max_size=1))
        return Polyhedron.from_generators(d, pts, rays, lines)
    if kind in ("box", "flat", "empty"):
        rows += [([s * int(i == j) for i in range(d)], draw(st.integers(0, 2)))
                 for j in range(d) for s in (1, -1)]
    if kind == "lines":
        rows = [([0] + a[1:], b) for a, b in rows]
    if kind == "flat":  # x_1 = c
        c = draw(coords)
        e = [int(i == 0) for i in range(d)]
        rows += [(e, c), ([-x for x in e], -c)]
    if kind == "empty":
        e = [int(i == 0) for i in range(d)]
        rows += [(e, -1), ([-x for x in e], -1)]
    if draw(st.booleans()):  # redundant copies, one of them scaled
        rows += [([2 * x for x in a], 2 * b) for a, b in rows[:2]]
    p = Polyhedron.from_halfspaces(d, rows)
    if draw(st.booleans()):
        p.vrep
        p = translate(p, draw(st.lists(coords, min_size=d, max_size=d)))
    return p


@st.composite
def cone_rows(draw, d):
    """Integer rows of a pointed cone in R^d: a random set with duplicates,
    zero rows and many rows through one ray (degenerate), plus y >= 0."""
    rows = [tuple(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
            for _ in range(draw(st.integers(0, 7)))]
    if d >= 2 and draw(st.booleans()):  # rows tight on (1, ..., 1)
        for _ in range(draw(st.integers(2, 5))):
            r = list(draw(st.lists(st.integers(-2, 2), min_size=d - 1, max_size=d - 1)))
            rows.append(tuple(r + [-sum(r)]))
    if draw(st.booleans()):
        rows += rows[:2] + [(0,) * d]
    rows += [tuple(-int(i == j) for i in range(d)) for j in range(d)]
    return draw(st.permutations(rows))


# ---------------------------------------------------------------------------
# Incidence masks inherited from the parent rays
# ---------------------------------------------------------------------------


class TestInheritedMasks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(cone_rows))
    def test_masks_match_recomputed_incidence(self, rows):
        """After every DD step each mask equals the incidence recomputed by
        dot products, and the rays are those of the recomputing step, in
        order."""
        d = len(rows[0])
        real = polyhedra._dd_step
        steps = []

        def checked(rows_, idx, raylist, processed, d_):
            got = real(rows_, idx, raylist, processed, d_)
            assert got == oracle_dd_step(rows_, idx, raylist, processed, d_)
            for r, mask in got:
                assert mask == oracle_incidence(rows_, processed | 1 << idx, r)
            steps.append(idx)
            return got

        with mock.patch.object(polyhedra, "_dd_step", checked):
            raylist, lines = polyhedra.cone_generators(list(rows), d)
        assert lines == []  # rows of full rank d
        every = (1 << len(rows)) - 1
        assert [m for _, m in raylist] == [oracle_incidence(rows, every, r) for r, _ in raylist]
        assert len(steps) == len(rows) - d

    def test_degenerate_apex(self):
        """A square pyramid: four facets through one vertex, so the new rays
        of the last steps have parents with equal masks on several rows."""
        h = HRep.make(3, [((1, 0, 1), 1), ((-1, 0, 1), 1), ((0, 1, 1), 1), ((0, -1, 1), 1),
                          ((0, 0, -1), 0)])
        v = polyhedra.hrep_to_vrep(h)
        cone = v._cone
        every = (1 << len(cone.rows)) - 1
        assert cone.masks == [oracle_incidence(cone.rows, every, g) for g in cone.gens]
        assert (F(0), F(0), F(1)) in v.vertices and len(v.vertices) == 5


# ---------------------------------------------------------------------------
# Lazy restrictions, containment, dimension and triangulation
# ---------------------------------------------------------------------------


@st.composite
def extra_row_sets(draw, d):
    return [[(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)), draw(coords))
             for _ in range(draw(st.integers(1, 2)))]
            for _ in range(draw(st.integers(1, 3)))]


class TestAgainstFractionRoutes:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(polyhedra_in(d), extra_row_sets(d))))
    def test_lazy_restrictions(self, case):
        """Each ``q`` has the eager route's V-rep, in the same order, and
        the same flags; its emptiness is read before its V-rep is built."""
        p, extras = case
        v = p.vrep
        got = list(cut_by(p, extras))
        assert len(got) == len(extras)
        if v.is_empty or v.lines:
            return  # the fresh-DD route, unchanged
        for (q, flags), (want_q, want_flags) in zip(got, oracle_cut_by(p, extras)):
            assert q._vrep is None
            assert q.is_empty == want_q.is_empty and q._vrep is None
            assert flags == want_flags
            assert q.vrep == want_q

    def test_restriction_of_a_translated_cone(self):
        """A translate carries the quadrant's mapped cone; the rays (1, 0)
        and (0, 1) are adjacent through the homogenizing row alone, and
        x <= y cuts between them."""
        quadrant = Polyhedron.from_halfspaces(2, [((-1, 0), 0), ((0, -1), 0)])
        quadrant.vrep
        p = translate(quadrant, (F(1, 2), 1))
        extras = [[((1, -1), F(1, 2))], [((1, 1), 4)]]
        got = list(cut_by(p, extras))
        assert got[0][0].vrep.rays == ((F(0), F(1)), (F(1), F(1)))
        for (q, flags), (want_q, want_flags) in zip(got, oracle_cut_by(p, extras)):
            assert q.vrep == want_q and flags == want_flags

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(polyhedra_in(d), polyhedra_in(d))))
    def test_contains_eq_and_dim(self, pair):
        p, q = pair
        assert p.contains_polyhedron(q) == oracle_contains(p, q)
        assert q.contains_polyhedron(p) == oracle_contains(q, p)
        assert (p == q) == (oracle_contains(p, q) and oracle_contains(q, p))
        assert p.contains_polyhedron(p) and p == Polyhedron(hrep=p.hrep)
        assert p.dim == oracle_dim(p) and q.dim == oracle_dim(q)

    def test_contains_with_lines_and_empty_sets(self):
        """Lines dot to 0 with every row: one dotting negatively is no more
        contained than one dotting positively."""
        strip = Polyhedron.from_halfspaces(2, [((1, 0), 1), ((-1, 0), 1)])  # along y
        x_axis = Polyhedron.from_halfspaces(2, [((0, 1), 0), ((0, -1), 0)])
        halves = [Polyhedron.from_halfspaces(2, [(a, 0)])
                  for a in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        segment = Polyhedron.from_generators(2, [(0, 0), (0, 1)])
        empty = Polyhedron.from_halfspaces(2, [((1, 0), -1), ((-1, 0), -1)])
        cases = [strip, x_axis, *halves, segment, empty, Polyhedron.empty(2)]
        for p in cases:
            for q in cases:
                assert p.contains_polyhedron(q) == oracle_contains(p, q), (p, q)
        assert [h.contains_polyhedron(x_axis) for h in halves] == [False, False, True, True]
        assert [h.contains_polyhedron(strip) for h in halves] == [False] * 4
        assert not segment.contains_polyhedron(strip) and empty == Polyhedron.empty(2)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(polyhedra_in))
    def test_integer_simplices(self, p):
        """``same_triangulation`` of every full-dimensional polytope, of its
        translate and of the polyhedron capped by ``cut_by``."""
        d = p.d
        top = (0,) * (d - 1) + (1,)
        capped = [q for q, _ in cut_by(p, [[(top, 3), (tuple(-x for x in top), 3)]])]
        for body in [p, translate(p, (F(1, 2),) * d)] + capped:
            if body.is_empty or not body.is_bounded or body.dim < d:
                continue
            same_triangulation(body)

    def test_integer_simplices_of_capped_epigraphs(self):
        for seed in range(3):
            pair = generate_pair_with_convex_min(seed, 3)
            for u in (pair.u, pair.v, *pair.lattice(), cone_function(random_body(seed, 3))):
                capped = capped_epigraph(u)
                assert capped.is_full_dimensional
                same_triangulation(capped)


@st.composite
def full_dimension_cases(draw, d):
    """A body of ``polyhedra_in`` with rows 0.x <= 0, 0.x <= 1 or 0.x <= -1
    (the last empties it) among its own rows or its extra rows, a
    translation, a positive factor and extra row sets for ``cut_by``."""
    p = draw(polyhedra_in(d))
    zero = [((0,) * d, b) for b in draw(st.lists(st.sampled_from([0, 1, -1]), max_size=3))]
    if zero and draw(st.booleans()):
        p = intersect(p, HRep.make(d, zero))
    extras = draw(extra_row_sets(d)) + [zero[:1] + [((1,) + (0,) * (d - 1), 1)]]
    return (p, draw(st.lists(coords, min_size=d, max_size=d)),
            draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)), extras)


def same_full_dimension(p):
    assert p.is_full_dimensional == (p.dim == p.d), p


class TestFullDimensionFromMasks:
    """``is_full_dimensional`` reads the implicit rows off the AND of the
    masks; ``dim`` takes a rank.  A row with a zero normal is no implicit
    equality, however tight."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(full_dimension_cases))
    def test_rays_lines_zero_rows_and_carried_cones(self, case):
        p, v, t, extras = case
        bodies = [p, translate(p, v), polyhedra.scale(p, t)]
        bodies += [q for q, _ in cut_by(p, extras)]
        bodies += [q for q, _ in cut_by(translate(p, v), extras)]
        for q in bodies:
            same_full_dimension(q)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(functions_in))
    def test_cells_and_sublevel_sets(self, case):
        pieces, domain, _ = case
        try:
            u = make(pieces, domain, n=domain.d, coercive=False)
        except ConvvalError:
            return
        for _, cell in u.cells:
            same_full_dimension(cell)
        for _, b in u.pieces[:2]:
            same_full_dimension(u.sublevel(b))

    def test_zero_rows(self):
        box = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
        segment = box[:2] + [((0, 1), 0), ((0, -1), 0)]
        for rows, full in [(box, True), (box + [((0, 0), 0)], True), (box + [((0, 0), 1)], True),
                           (box + [((0, 0), -1)], False), (segment + [((0, 0), 0)], False),
                           ([((0, 0), 0)], True), ([((0, 0), 0), ((1, 0), 0)], True)]:
            p = Polyhedron.from_halfspaces(2, rows)
            assert p.is_full_dimensional == full and (p.dim == 2) == full
            for q in (translate(p, (F(1, 2), 3)), polyhedra.scale(p, F(2, 3)),
                      *(q for q, _ in cut_by(p, [[((0, 0), 0)], [((0, 1), F(1, 2))]]))):
                same_full_dimension(q)


def points_around(p, x):
    """Points in, on and off ``p``: x, and for a nonempty p a relative
    interior point m, m + t (q - m) for each vertex q and t = 1/2, 1, 2, and
    the first vertex moved along each ray and line."""
    if p.is_empty:
        return [x]
    v = p.vrep
    m = p.relint_point()
    pts = [x, m] + [vec_add(m, vec_scale(t, vec_sub(q, m)))
                    for q in v.vertices for t in (F(1, 2), 1, 2)]
    q = v.vertices[0]
    return pts + [vec_add(q, r) for r in v.rays + v.lines] + [vec_sub(q, r) for r in v.rays]


class TestRelativeInteriorFromMasks:
    """Implicit rows read off the generators' masks, against strictness on
    the canonical H-rep's rows that ``is_implicit`` does not flag."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        polyhedra_in(d), st.lists(coords, min_size=d, max_size=d))))
    def test_pointed_unbounded_lineality_flat_and_empty(self, case):
        p, x = case
        for y in points_around(p, tuple(x)) + [(0,) * (p.d + 1)]:
            assert (outcome(relative_interior_contains, p, y)
                    == outcome(oracle_relative_interior_contains, p, y))

    def test_pair_epigraphs(self):
        for n in (1, 2, 3):
            pair = generate_pair_with_convex_min(0, n)
            for p in (pair.u.epigraph, pair.v.epigraph, conjugate(pair.u).epigraph):
                pts = points_around(p, (F(1, 3),) * (n + 1))
                inside = [relative_interior_contains(p, y) for y in pts]
                assert inside == [oracle_relative_interior_contains(p, y) for y in pts]
                assert True in inside and False in inside


# ---------------------------------------------------------------------------
# Affine images carry the mapped cone
# ---------------------------------------------------------------------------


@st.composite
def affine_cases(draw, d):
    """A body of ``polyhedra_in`` or a ``cut_by`` restriction of one, a
    translation, an invertible matrix, a positive factor and extra rows."""
    p = draw(polyhedra_in(d))
    if draw(st.booleans()):
        p, _ = next(cut_by(p, draw(extra_row_sets(d))[:1]))
    m = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=d, max_size=d))
    assume(invert(m) is not None)
    return (p, draw(st.lists(coords, min_size=d, max_size=d)), m,
            draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)),
            draw(extra_row_sets(d)))


class TestAffineImagesAgainstGivenVRep:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(affine_cases))
    def test_same_images(self, case):
        """Each image equals the one built from the mapped ``Fraction``
        V-rep: both representations in order, emptiness, dimension, the
        canonical H-rep, the volume and ``cut_by`` with its flags; the
        carried masks are the incidences recomputed on the mapped rows."""
        p, v, m, t, extras = case
        d = p.d
        for image, (want_h, want_v) in [(translate(p, v), oracle_translate(p, v)),
                                        (apply_linear(p, m), oracle_apply_linear(p, m)),
                                        (polyhedra.scale(p, t), oracle_scale(p, t))]:
            want = oracle_image(want_h, want_v)
            assert image.hrep == want_h and image.vrep == want_v
            assert image.is_empty == want_v.is_empty and image.dim == want.dim
            assert image.canonical_hrep == vrep_to_hrep(want_v)
            if not image.is_empty and image.is_bounded and image.dim == d:
                assert volume(image) == volume(want)
            cone = image._integer()
            every = (1 << len(cone.rows)) - 1
            assert cone.masks == [oracle_incidence(cone.rows, every, g) for g in cone.gens]
            got = [(q.vrep, flags) for q, flags in cut_by(image, extras)]
            assert got == list(oracle_restrictions(want, extras))


class TestAffineImagesOnIntegerMatrices:
    """The images against the ``Fraction`` maps they replaced
    (``oracle_affine_image_by_fractions``): the H-rep and every ``_Cone``
    field, in order."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(affine_cases))
    def test_translate_apply_linear_scale(self, case):
        p, v, m, t, _ = case
        got = [translate(p, v), apply_linear(p, m), polyhedra.scale(p, t)]
        for image, want in zip(got, images_by_fractions(p, v, m, t)):
            assert image.hrep == want.hrep
            assert image._integer()._asdict() == want._integer()._asdict()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(functions_in),
           st.fractions(min_value=F(1, 5), max_value=5, max_denominator=5))
    def test_scale_values_with_and_without_lines(self, case, k):
        pieces, domain, _ = case
        try:
            u = make(pieces, domain, n=domain.d, coercive=False)
        except ConvvalError:
            return
        got, want = scale_values(u, k), scale_values_by_fractions(u, k)
        assert (got.pieces, got.domain, got.coercive, got.epigraph.hrep) == \
            (want.pieces, want.domain, want.coercive, want.epigraph.hrep)
        assert got.epigraph._integer()._asdict() == want.epigraph._integer()._asdict()


# ---------------------------------------------------------------------------
# Pruning by incidence masks
# ---------------------------------------------------------------------------


class TestPruningByMasks:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3).flatmap(functions_in))
    def test_make(self, case):
        pieces, domain, coercive = case
        n = domain.d
        got = outcome(make, pieces, domain, n=n, coercive=coercive)
        with building_by(oracle_build_pruned_by_dots):
            want = outcome(make, pieces, domain, n=n, coercive=coercive)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(functions_in))
    def test_from_epigraph_and_conjugate(self, case):
        pieces, domain, _ = case
        try:
            u = make(pieces, domain, n=domain.d, coercive=False)
        except ConvvalError:
            return
        got = [outcome(from_epigraph, u.epigraph, coercive=False), outcome(conjugate, u)]
        with building_by(oracle_build_pruned_by_dots):
            want = [outcome(from_epigraph, u.epigraph, coercive=False), outcome(conjugate, u)]
        assert got == want


# ---------------------------------------------------------------------------
# The layer-cake sum with V' computed once per profile
# ---------------------------------------------------------------------------


class TestLayerCakeAgainstPerIntervalRoute:
    @settings(max_examples=200, deadline=None)
    @given(weights(), st.data())
    def test_same_value(self, zeta, data):
        prof = data.draw(st.sampled_from(profiles()))
        starts = [prof.t_min, *prof.breakpoints, prof.breakpoints[-1] + 1,
                  prof.t_min + data.draw(st.fractions(0, 4, max_denominator=5))]
        for start in starts:
            got = integral_against(zeta, prof.breakpoints, prof._derivatives, start)
            want = oracle_integral_against_by_region(zeta, prof.breakpoints, prof._derivatives, start)
            assert type(got) is type(want) and got == want

    def test_tailed_weights_give_the_same_floats(self):
        zeta = make_growth([0], [], tail=(1, [1]))
        tailed = make_growth([0, 1], [[0, 1]], tail=(2, [-1, 1]))
        floats = 0
        for prof in profiles():
            for z in (zeta, tailed):
                got = integral_against(z, prof.breakpoints, prof._derivatives, prof.t_min)
                want = oracle_integral_against_by_region(z, prof.breakpoints, prof._derivatives, prof.t_min)
                assert type(got) is type(want) and got == want
                floats += isinstance(got, float)
        assert floats >= 2 * (len(profiles()) - 1)  # all but the constant's V' = 0


# ---------------------------------------------------------------------------
# Count guards
# ---------------------------------------------------------------------------


class TestIntegerRepCounts:
    def test_inf_if_convex_builds_no_restriction_vrep(self):
        """Every Fraction V-rep built comes from a fresh double description;
        none is built for any of the 144 restrictions."""
        u = make([(a, 0) for a in SLOPES_12])
        v = u.translate_graph(1)  # min(u, u + 1) = u
        with counted(polyhedra, "_dehomogenize") as vreps, \
                counted(polyhedra, "hrep_to_vrep") as dds:
            w = inf_if_convex(u, v)
        assert pwa_equal(w, u)
        assert len(vreps) == len(dds) <= 3

    def test_dd_step_takes_no_incidence_for_new_rays(self):
        # the positive quadrant cone cut by y_1 <= y_2 gets the new ray (1, 1)
        rows = [(-1, 0), (0, -1), (1, -1)]
        start = [((1, 0), 0b10), ((0, 1), 0b01)]
        with counted(polyhedra, "mul") as products:
            out = polyhedra._dd_step(rows, 2, start, 0b11, 2)
        assert out == [((0, 1), 0b01), ((1, 1), 0b100)]
        # one dot product per ray, its value on the new row; none for a mask
        assert len(products) == len(start) * len(rows[2])

    def test_cut_by_reads_the_cache(self):
        u = make([(a, 0) for a in SLOPES_12])
        u.epigraph.vrep
        extras = [[((1, 0, -1), 0), ((0, 1, -1), F(1, 2))]] * 5
        with counted(polyhedra, "_dd_step") as steps, counted(polyhedra, "mul") as products, \
                counted(polyhedra, "scale_to_int") as scaled:
            list(cut_by(u.epigraph, extras))
        # the only products are each step's values of its rays on the new row
        assert len(steps) == 10
        assert len(products) == sum(len(raylist) * len(rows[idx])
                                    for rows, idx, raylist, *_ in steps)
        # one scale_to_int per extra row; the new rays of the steps add the rest
        with counted(polyhedra, "scale_to_int") as base_scaled:
            list(cut_by(u.epigraph, extras[:1]))
        assert len(scaled) == 5 * len(base_scaled)

    def test_affine_images_scale_nothing(self):
        """The four affine images map integer generators and rows by integer
        matrices: none is scaled from ``Fraction``s."""
        u = make([(a, 0) for a in SLOPES_12])
        p = u.epigraph
        p._integer()
        with counted(linalg, "scale_to_int") as scaled:
            images = [translate(p, (F(1, 2), -1, F(2, 3))),
                      apply_linear(p, [[1, F(1, 2), 0], [0, 1, 0], [F(1, 3), 0, -2]]),
                      polyhedra.scale(p, F(3, 2)), scale_values(u, F(3, 2)).epigraph]
        assert scaled == []
        assert all(image._cone is not None for image in images)

    def test_make_and_pwa_equal_take_no_dot(self):
        pieces = [(a, 0) for a in SLOPES_12] + [((0, 0), -1)]  # one piece is pruned
        other = make(pieces[::-1])
        with counted(linalg, "dot") as calls:  # linalg's, polyhedra's, functions'...
            u = make(pieces)
            assert pwa_equal(u, other) and not pwa_equal(u, u.translate_graph(1))
        assert len(u.pieces) == 12
        assert calls == []
