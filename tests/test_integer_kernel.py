"""The fraction-free integer kernel against the Fraction route it replaced.

The oracles below are the Fraction-based elimination, double description and
mask-free face triangulation (with its Fraction polygon fan and affine rank)
that ``linalg`` and ``polyhedra`` used before they moved to
``linalg.echelon``, int-bitmask incidence sets and integer points, and the
``cone_generators`` that took one ``echelon`` for its pointedness test and
another for its DD basis.  Every comparison is an exact ``==`` on the
returned values and their order.
"""

import functools
from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

from convval import linalg, polyhedra
from convval.linalg import dot, vec_add, vec_sub
from convval.polyhedra import (HRep, Polyhedron, VRep, _int_rows, apply_linear,
                               cone_generators, cut_by, hrep_to_vrep, minkowski_sum,
                               scale, translate, triangulate, vrep_to_hrep)
from counting import counted

# ---------------------------------------------------------------------------
# Oracles: the Fraction route
# ---------------------------------------------------------------------------


def scale_to_int(vec):
    fracs = [F(x) for x in vec]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def oracle_rref(rows):
    mat = [list(map(F, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def oracle_rank(rows):
    return len(oracle_rref(rows)[0])


def oracle_null_space(rows, ncols):
    red, pivots = oracle_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def oracle_solve(a_rows, b):
    n = len(a_rows[0]) if a_rows else 0
    aug = [list(map(F, row)) + [F(bv)] for row, bv in zip(a_rows, b, strict=True)]
    red, pivots = oracle_rref(aug)
    if n in pivots or len(pivots) < n:
        return None
    x = [F(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = red[i][n]
    return tuple(x)


def oracle_invert(mat):
    n = len(mat)
    aug = [list(map(F, row)) + [F(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = oracle_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [tuple(red[i][n:]) for i in range(n)]


def oracle_determinant(mat):
    m = [list(map(F, r)) for r in mat]
    n = len(m)
    det = F(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def oracle_pointed_cone_rays(rows, d):
    if d == 0:
        return []
    base_idx, base_rows = [], []
    for i, r in enumerate(rows):
        if oracle_rank(base_rows + [r]) > len(base_rows):
            base_rows.append(r)
            base_idx.append(i)
            if len(base_rows) == d:
                break
    if len(base_rows) < d:
        raise ValueError("cone rows are rank deficient")
    binv = oracle_invert(base_rows)
    rays = [scale_to_int(tuple(-binv[j][i] for j in range(d))) for i in range(d)]
    processed = list(base_idx)
    pset = set(processed)
    raylist = [(r, frozenset(i for i in processed if dot(rows[i], r) == 0)) for r in rays]
    for idx in (i for i in range(len(rows)) if i not in pset):
        c = rows[idx]
        vals = [dot(c, r) for r, _ in raylist]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        processed.append(idx)
        if not pos:
            raylist = [((r, a | {idx}) if vals[i] == 0 else (r, a))
                       for i, (r, a) in enumerate(raylist)]
            continue
        new_rays = []
        for ip in pos:
            rp, ap = raylist[ip]
            for ineg in neg:
                rn, an = raylist[ineg]
                common = ap & an
                if len(common) < d - 2:
                    continue
                if any(k != ip and k != ineg and common <= ak
                       for k, (_, ak) in enumerate(raylist)):
                    continue
                combo = tuple(vals[ip] * x - vals[ineg] * y for x, y in zip(rn, rp))
                new_rays.append(scale_to_int(combo))
        kept = {}
        for i in neg + zero:
            r, a = raylist[i]
            kept[r] = a | {idx} if vals[i] == 0 else a
        for nr in new_rays:
            if nr not in kept:
                kept[nr] = frozenset(i for i in processed if dot(rows[i], nr) == 0)
        raylist = list(kept.items())
    return [r for r, _ in raylist]


def _fracvec(v):
    return tuple(F(x) for x in v)


def oracle_cone_generators(rows, dim):
    int_rows = [scale_to_int(r) for r in rows]
    int_rows = [r for r in int_rows if any(x != 0 for x in r)]
    lines = [_fracvec(scale_to_int(l)) for l in oracle_null_space(int_rows, dim)]
    if not int_rows:
        return [], lines
    if not lines:
        return [_fracvec(r) for r in oracle_pointed_cone_rays(int_rows, dim)], []
    w_basis = oracle_rref(int_rows)[0]
    r = len(w_basis)
    proj = [tuple(dot(row, w) for w in w_basis) for row in int_rows]
    z_rays = oracle_pointed_cone_rays([scale_to_int(p) for p in proj], r)
    rays = []
    for z in z_rays:
        y = tuple(sum(F(z[j]) * w_basis[j][i] for j in range(r)) for i in range(dim))
        rays.append(_fracvec(scale_to_int(y)))
    return rays, lines


def oracle_hrep_to_vrep(h):
    d = h.d
    rows = [tuple(a) + (-b,) for a, b in h.halfspaces]
    rows.append(tuple(F(0) for _ in range(d)) + (F(-1),))
    rays, lines = oracle_cone_generators(rows, d + 1)
    assert all(l[d] == 0 for l in lines)
    vertices, rec_rays = [], []
    for r in rays:
        if r[d] > 0:
            vertices.append(tuple(x / r[d] for x in r[:d]))
        else:
            rec_rays.append(r[:d])
    if not vertices:
        return VRep.empty(d)
    return VRep(d, tuple(vertices), tuple(rec_rays), tuple(l[:d] for l in lines))


def oracle_vrep_to_hrep(v):
    d = v.d
    if v.is_empty:
        return HRep.infeasible(d)
    gens = [tuple(p) + (F(1),) for p in v.vertices]
    gens += [tuple(r) + (F(0),) for r in v.rays]
    for l in v.lines:
        gens.append(tuple(l) + (F(0),))
        gens.append(tuple(-x for x in l) + (F(0),))
    prays, plines = oracle_cone_generators(gens, d + 1)
    halfspaces = []
    eq_normals = [w[:d] for w in plines if any(x != 0 for x in w[:d])]
    hull_dirs = oracle_null_space(eq_normals, d) if eq_normals else None
    for w in prays:
        a, c = w[:d], w[d]
        if all(x == 0 for x in a):
            continue
        if hull_dirs is not None and all(dot(a, u) == 0 for u in hull_dirs):
            continue
        halfspaces.append((a, -c))
    for w in plines:
        a, c = w[:d], w[d]
        if any(x != 0 for x in a):
            halfspaces.append((a, -c))
            halfspaces.append((tuple(-x for x in a), c))
    return HRep(d, tuple(halfspaces))


def two_echelon_cone_generators(rows, dim):
    """``cone_generators`` as it was: ``null_space`` decides pointedness, and
    ``_pointed_cone_rays`` takes its own ``echelon`` of the transpose for the
    DD basis (run here through ``polyhedra._dd_step``, the one DD loop)."""

    def pointed_cone_rays(rows, d):
        if d == 0:
            return []
        _, base_idx, _ = linalg.echelon(list(zip(*rows)))
        if len(base_idx) < d:
            raise ValueError("cone rows are rank deficient")
        aug = [list(rows[i]) + [int(i == j) for j in base_idx] for i in base_idx]
        red, pivots, det = linalg.echelon(aug)
        assert pivots == list(range(d))
        s = -1 if det > 0 else 1
        rays = [linalg.scale_to_int(tuple(s * red[j][d + i] for j in range(d)))
                for i in range(d)]
        processed = sum(1 << i for i in base_idx)
        raylist = [(r, polyhedra._incidence(rows, processed, r)) for r in rays]
        for idx in range(len(rows)):
            if not processed >> idx & 1:
                raylist = polyhedra._dd_step(rows, idx, raylist, processed, d)
                processed |= 1 << idx
        return raylist

    int_rows = [linalg.scale_to_int(r) for r in rows]
    lines = linalg.null_space(int_rows, dim)
    if not lines:
        return pointed_cone_rays(int_rows, dim), []
    w_basis = linalg.echelon(int_rows)[0]
    r = len(w_basis)
    proj = [tuple(dot(row, w) for w in w_basis) for row in int_rows]
    rays = []
    for z, mask in pointed_cone_rays([linalg.scale_to_int(p) for p in proj], r):
        y = tuple(sum(z[j] * w_basis[j][i] for j in range(r)) for i in range(dim))
        rays.append((linalg.scale_to_int(y), mask))
    return rays, lines


def affine_rank(points):
    pts = list(points)
    if not pts:
        return -1
    return oracle_rank([vec_sub(p, pts[0]) for p in pts[1:]])


def oracle_angular_order(points, plane_basis):
    u1, u2 = plane_basis
    n = len(points)
    cen = tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))
    coords = []
    for p in points:
        rel = vec_sub(p, cen)
        coords.append((dot(rel, u1), dot(rel, u2), p))

    def half(c):
        x, y, _ = c
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(c1, c2):
        h1, h2 = half(c1), half(c2)
        if h1 != h2:
            return -1 if h1 < h2 else 1
        cr = c1[0] * c2[1] - c1[1] * c2[0]
        return 0 if cr == 0 else (-1 if cr > 0 else 1)

    return [c[2] for c in sorted(coords, key=functools.cmp_to_key(cmp))]


def oracle_polygon_fan(points):
    p0 = points[0]
    basis_rows = oracle_rref([vec_sub(p, p0) for p in points[1:]])[0]
    assert len(basis_rows) == 2
    ordered = oracle_angular_order(points, (basis_rows[0], basis_rows[1]))
    return [(ordered[0], ordered[i], ordered[i + 1]) for i in range(1, len(ordered) - 1)]


def oracle_face_simplices(points, fdim, halfspaces):
    if fdim == 0:
        return [points[:1]]
    if fdim == 1:
        assert len(points) == 2
        return [points]
    if fdim == 2:
        return [tuple(t) for t in oracle_polygon_fan(points)]
    v0 = points[0]
    seen = set()
    simplices = []
    for a, b in halfspaces:
        tight = tuple(v for v in points if dot(a, v) == b)
        if not tight or v0 in tight:
            continue
        key = frozenset(tight)
        if key in seen:
            continue
        seen.add(key)
        if affine_rank(tight) != fdim - 1:
            continue
        for s in oracle_face_simplices(tight, fdim - 1, halfspaces):
            simplices.append((v0,) + s)
    return simplices


def oracle_triangulate(p):
    verts = p.vrep.vertices
    if len(verts) == p.d + 1:
        return [verts]
    return oracle_face_simplices(verts, p.d, p.hrep.halfspaces)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

small_rationals = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


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
        assert [linalg.scale_to_int(r) for r in rows] == [scale_to_int(r) for r in rows]
        assert linalg.rref(rows) == oracle_rref(rows)
        assert linalg.rank(rows) == oracle_rank(rows)
        ncols = len(rows[0]) if rows else 3
        assert linalg.null_space(rows, ncols) == [
            scale_to_int(v) for v in oracle_null_space(rows, ncols)]

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


class TestConeGeneratorsOneElimination:
    """One ``echelon`` of the transpose picks the DD basis and decides
    pointedness; only a cone with lines takes a ``null_space``."""

    @settings(max_examples=300, deadline=None)
    @given(cone_row_lists())
    def test_against_the_two_echelon_route(self, case):
        rows, dim = case
        got = cone_generators(rows, dim)
        assert got == two_echelon_cone_generators(rows, dim)
        rays, lines = oracle_cone_generators(rows, dim)
        assert [_fracvec(r) for r, _ in got[0]] == rays
        assert [_fracvec(l) for l in got[1]] == lines

    def test_fixed_cases(self):
        cases = [([], 0), ([], 3), ([(0, 0, 0)], 3), ([(0, 0), (0, 0)], 2),
                 ([(1, 0, 0), (-1, 0, 0)], 3),                  # a slab: two lines
                 ([(1, 1, 0), (0, 0, 0), (1, 1, 0), (-1, 0, 0)], 3),  # zero and repeated rows
                 ([(-1, 0), (0, -1)], 2), ([(1, 2), (-1, -2), (0, 1)], 2)]
        for rows, dim in cases:
            got = cone_generators(rows, dim)
            assert got == two_echelon_cone_generators(rows, dim)
            rays, lines = oracle_cone_generators(rows, dim)
            assert [_fracvec(r) for r, _ in got[0]] == rays
            assert [_fracvec(l) for l in got[1]] == lines

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
        # the transpose, then the [B | I] of the basis; the DD steps take none
        assert [len(args[0]) for args in calls] == [3, 3]
        assert calls[0][0] == list(zip(*rows))


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
