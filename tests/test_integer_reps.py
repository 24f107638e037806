"""The double description's integer data, kept and read, against the
``Fraction`` routes it replaced.

The oracles below are the earlier routes, copied in: new-ray incidence masks
recomputed by dot products in ``_dd_step``, the eager ``Fraction`` V-rep of
every ``cut_by`` restriction, ``contains_polyhedron``, ``dim`` and the
triangulation's integer points and tight masks taken from the ``Fraction``
representations, pruning by ``Fraction`` dots of each piece against each
epigraph vertex, and the layer cake finding V' by ``poly_at`` and
``pdiff`` on every interval.  Every comparison is an exact ``==``, in order
where the result is ordered.  The count guards make a return to those
routes fail a test, not only a benchmark run.
"""

import math
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache
from operator import mul
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from convval import conjugacy, functions, linalg, polyhedra
from convval.conjugacy import conjugate
from convval.errors import ConvvalError, EmptyDomain, NotCoercive
from convval.functions import cone_function, from_epigraph, inf_if_convex, make, pwa_equal
from convval.growth import (integral_against, make_growth, pantider, pdiff, peval, pmul,
                            tail_integral)
from convval.laws import generate_pair_with_convex_min, random_body
from convval.linalg import dot, invert, rank, scale_to_int, vec_add, vec_scale, vec_sub
from convval.polyhedra import (HRep, Polyhedron, VRep, _fracvec, apply_linear, cut_by,
                               is_implicit, translate, volume, vrep_to_hrep)
from convval.valuation import level_volume_profile
from counting import counted

# ---------------------------------------------------------------------------
# Oracles: the Fraction routes and recomputed masks
# ---------------------------------------------------------------------------


def oracle_incidence(rows, mask, ray):
    return sum(1 << i for i, row in enumerate(rows)
               if mask >> i & 1 and sum(map(mul, row, ray)) == 0)


def oracle_dd_step(rows, idx, raylist, processed, d):
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


def oracle_cut_by(p, row_sets):
    """The pointed route with an eager Fraction V-rep per restriction."""
    d = p.d
    base = p.hrep.halfspaces
    v = p.vrep
    rows = [scale_to_int(tuple(a) + (-b,)) for a, b in base]
    rows.append((0,) * d + (-1,))
    gens = [scale_to_int(tuple(x) + (1,)) for x in v.vertices]
    gens += [scale_to_int(tuple(r) + (0,)) for r in v.rays]
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


def oracle_integer_simplices(p):
    d = p.d
    verts = p.vrep.vertices
    scale = math.lcm(*(x.denominator for v in verts for x in v))
    pts = [tuple(x.numerator * (scale // x.denominator) for x in v) for v in verts]
    if len(verts) == d + 1:
        return pts, scale, [tuple(range(d + 1))]
    rows = [scale_to_int(tuple(a) + (b,)) for a, b in p.hrep.halfspaces]
    tight_masks = [sum(1 << i for i, q in enumerate(pts)
                       if sum(map(mul, row[:d], q)) == row[d] * scale)
                   for row in rows]
    return pts, scale, [s for s, _ in polyhedra._face_simplices((1 << len(verts)) - 1, d,
                                                                tight_masks, pts)]


def simplex_indices(pts, scale, simplices):
    """``_integer_simplices`` without the determinants."""
    return pts, scale, [s for s, _ in simplices]


def plain_checked(n, pieces, domain, epi, coercive):
    """The function of ``pieces`` with the given epigraph, after the builder's checks."""
    if epi.is_empty:
        raise EmptyDomain("empty domain: the function is improper")
    if coercive and not functions._check_coercive(epi, n):
        raise NotCoercive("some sublevel set is unbounded")
    return functions.PWAConvex(n, pieces, domain, epi, coercive)


def oracle_build_pruned(n, pieces, domain, coercive):
    pieces = tuple(dict.fromkeys((_fracvec(a), F(b)) for a, b in pieces))
    epi = functions._epigraph_of(n, pieces, domain)
    verts = epi.vrep.vertices
    active = tuple((a, b) for a, b in pieces
                   if any(dot(a, v[:n]) + b == v[n] for v in verts))
    if 0 < len(active) < len(pieces):
        pieces, epi = active, functions._epigraph_of(n, active, domain)
    return plain_checked(n, pieces, domain, epi, coercive)


@contextmanager
def dot_pruning():
    with mock.patch.object(functions, "_build", oracle_build_pruned), \
            mock.patch.object(conjugacy, "_build", oracle_build_pruned):
        yield


def pint(c, a, b):
    """Integral_a^b of the polynomial c in Fractions."""
    q = pantider(c)
    return peval(q, b) - peval(q, a)


def oracle_layer_cake(zeta, prof, start):
    cuts = sorted({c for c in prof.breakpoints + zeta.breakpoints if c > start})
    cuts = [start] + cuts
    exact = F(0)
    fl = 0.0
    has_float = False
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        vp = pdiff(prof.poly_at(mid))
        kind, payload = zeta.region_at(mid)
        if kind in ("left", "piece") and payload and vp:
            exact += pint(pmul(payload, vp), a, b)
        elif kind == "tail" and vp:
            lam, coeffs = payload
            fl += (tail_integral(lam, pmul(coeffs, vp), a)
                   - tail_integral(lam, pmul(coeffs, vp), b))
            has_float = True
    a = cuts[-1]
    vp = pdiff(prof.final_poly)
    if zeta.tail is not None and vp:
        lam, coeffs = zeta.tail
        fl += tail_integral(lam, pmul(coeffs, vp), a)
        has_float = True
    return float(exact) + fl if has_float else exact


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

coords = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2,
                                                    max_denominator=3))


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
            base = linalg.echelon(list(zip(*rows)))[1]  # rows of full rank d
            raylist = polyhedra._pointed_cone_rays(list(rows), d, base)
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
        """The points, scale and simplices, in order, of every full-dimensional
        polytope, of its translate and of the polyhedron capped by ``cut_by``."""
        d = p.d
        top = (0,) * (d - 1) + (1,)
        capped = [q for q, _ in cut_by(p, [[(top, 3), (tuple(-x for x in top), 3)]])]
        for body in [p, translate(p, (F(1, 2),) * d)] + capped:
            if body.is_empty or not body.is_bounded or body.dim < d:
                continue
            assert (simplex_indices(*polyhedra._integer_simplices(body))
                    == oracle_integer_simplices(body))

    def test_integer_simplices_of_capped_epigraphs(self):
        for seed in range(3):
            pair = generate_pair_with_convex_min(seed, 3)
            for u in (pair.u, pair.v, *pair.lattice(), cone_function(random_body(seed, 3))):
                top = max(v[-1] for v in u.epigraph.vrep.vertices) + 1
                capped, _ = next(cut_by(u.epigraph, [[((F(0),) * 3 + (F(1),), top)]]))
                assert capped.is_full_dimensional
                assert (simplex_indices(*polyhedra._integer_simplices(capped))
                        == oracle_integer_simplices(capped))


# ---------------------------------------------------------------------------
# Affine images carry the mapped cone
# ---------------------------------------------------------------------------


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
    d = h.d
    rows = [scale_to_int(tuple(a) + (-b,)) for a, b in h.halfspaces] + [(0,) * d + (-1,)]
    gens = [scale_to_int(tuple(x) + (1,)) for x in v.vertices]
    gens += [scale_to_int(tuple(r) + (0,)) for r in v.rays]
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


# ---------------------------------------------------------------------------
# Pruning by incidence masks
# ---------------------------------------------------------------------------


@st.composite
def functions_in(draw, n):
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
    kind = draw(st.sampled_from(["all", "box", "flat", "empty"]))
    domain = HRep(n, ())
    if kind != "all":
        box = [([s * int(i == j) for i in range(n)], draw(st.integers(0, 2)))
               for j in range(n) for s in (1, -1)]
        e = [int(i == 0) for i in range(n)]
        if kind == "flat":
            c = draw(coords)
            box += [(e, c), ([-x for x in e], -c)]
        if kind == "empty":
            box += [(e, -1), ([-x for x in e], -1)]
        domain = HRep.make(n, box)
    return pieces, domain, not flat and draw(st.booleans())


def outcome(fn, *args, **kwargs):
    try:
        u = fn(*args, **kwargs)
    except (ConvvalError, ValueError) as exc:
        return (type(exc).__name__,)
    return (u.pieces, u.domain, u.coercive, u.epigraph.hrep, u.epigraph.vrep)


class TestPruningByMasks:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3).flatmap(functions_in))
    def test_make(self, case):
        pieces, domain, coercive = case
        n = domain.d
        got = outcome(make, pieces, domain, n=n, coercive=coercive)
        with dot_pruning():
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
        with dot_pruning():
            want = [outcome(from_epigraph, u.epigraph, coercive=False), outcome(conjugate, u)]
        assert got == want


# ---------------------------------------------------------------------------
# The layer-cake sum with V' computed once per profile
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def profiles():
    fns = []
    for n, seeds in ((1, range(2)), (2, range(2)), (3, range(2))):
        for seed in seeds:
            pair = generate_pair_with_convex_min(seed, n)
            fns += [pair.u, pair.v, *pair.lattice()]
    fns += [cone_function(random_body(0, 2)), make([((1,), 0), ((-1,), 0)]),
            make([((0, 0), 2)], Polyhedron.box([(0, 1), (0, 1)]))]  # a constant: one level
    return tuple(level_volume_profile(u) for u in fns)


@st.composite
def weights(draw):
    """Continuous piecewise polynomials, with no tail, a tail from the first
    breakpoint, or a tail joining the last piece at value 0."""
    bps = sorted(set(draw(st.lists(st.fractions(-2, 6, max_denominator=4),
                                   min_size=1, max_size=5))))
    tail_kind = draw(st.sampled_from([None, "direct", "joined"]))
    lam = draw(st.fractions(F(1, 2), 3, max_denominator=4))
    if tail_kind == "direct":
        return make_growth(bps[:1], [], left_constant=draw(coords),
                           tail=(lam, draw(st.lists(coords, min_size=1, max_size=3))))
    pieces, value = [], draw(coords)
    for a, b in zip(bps, bps[1:]):
        s, r = draw(coords), draw(coords)  # value + s (t - a) + r (t - a)^2
        pieces.append([value - s * a + r * a * a, s - 2 * r * a, r])
        value += s * (b - a) + r * (b - a) ** 2
    tail = None
    if tail_kind == "joined" and pieces:
        for piece in pieces:  # the last piece ends at 0, and so starts the tail
            piece[0] -= value
        k, t_m = draw(coords), bps[-1]
        tail = (lam, [-k * t_m, k])
    return make_growth(bps, pieces, left_constant=draw(coords), tail=tail)


class TestLayerCakeAgainstPerIntervalRoute:
    @settings(max_examples=200, deadline=None)
    @given(weights(), st.data())
    def test_same_value(self, zeta, data):
        prof = data.draw(st.sampled_from(profiles()))
        starts = [prof.t_min, *prof.breakpoints, prof.breakpoints[-1] + 1,
                  prof.t_min + data.draw(st.fractions(0, 4, max_denominator=5))]
        for start in starts:
            got = integral_against(zeta, prof.breakpoints, prof._derivatives, start)
            want = oracle_layer_cake(zeta, prof, start)
            assert type(got) is type(want) and got == want

    def test_tailed_weights_give_the_same_floats(self):
        zeta = make_growth([0], [], tail=(1, [1]))
        tailed = make_growth([0, 1], [[0, 1]], tail=(2, [-1, 1]))
        floats = 0
        for prof in profiles():
            for z in (zeta, tailed):
                got = integral_against(z, prof.breakpoints, prof._derivatives, prof.t_min)
                want = oracle_layer_cake(z, prof, prof.t_min)
                assert type(got) is type(want) and got == want
                floats += isinstance(got, float)
        assert floats >= 2 * (len(profiles()) - 1)  # all but the constant's V' = 0


# ---------------------------------------------------------------------------
# Count guards
# ---------------------------------------------------------------------------


SLOPES_12 = [(4, 1), (4, -1), (-4, 1), (-4, -1), (1, 4), (1, -4), (-1, 4), (-1, -4),
             (3, 3), (3, -3), (-3, 3), (-3, -3)]


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
        with counted(polyhedra, "_incidence") as calls:
            out = polyhedra._dd_step(rows, 2, start, 0b11, 2)
        assert out == [((0, 1), 0b01), ((1, 1), 0b100)]
        assert calls == []

    def test_cut_by_reads_the_cache(self):
        u = make([(a, 0) for a in SLOPES_12])
        u.epigraph.vrep
        extras = [[((1, 0, -1), 0), ((0, 1, -1), F(1, 2))]] * 5
        with counted(polyhedra, "_incidence") as incidences, \
                counted(polyhedra, "scale_to_int") as scaled:
            list(cut_by(u.epigraph, extras))
        assert incidences == []
        # one scale_to_int per extra row; the new rays of the steps add the rest
        with counted(polyhedra, "scale_to_int") as base_scaled:
            list(cut_by(u.epigraph, extras[:1]))
        assert len(scaled) == 5 * len(base_scaled)

    def test_make_and_pwa_equal_take_no_dot(self):
        pieces = [(a, 0) for a in SLOPES_12] + [((0, 0), -1)]  # one piece is pruned
        other = make(pieces[::-1])
        with counted(linalg, "dot") as calls:  # linalg's, polyhedra's, functions'...
            u = make(pieces)
            assert pwa_equal(u, other) and not pwa_equal(u, u.translate_graph(1))
        assert len(u.pieces) == 12
        assert calls == []
