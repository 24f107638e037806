"""Exact rational polyhedral computation.

Polyhedra live in R^d with two dual descriptions:

* an H-representation (list of halfspaces ``<normal, x> <= offset``), and
* a V-representation (vertices, recession rays, lineality directions).

Conversion between the two is done by the double description method on the
homogenization cone.  Its rows and rays are primitive integer vectors, its
eliminations run on ``linalg.echelon`` (fraction-free), and the incidence
set of each ray -- the rows it is tight on -- is an int bitmask, so the
adjacency test is ``&``, ``bit_count`` and one comparison (Fukuda and
Prodon, "Double description method revisited", 1996).  Volumes are exact
rationals from a simplicial decomposition that likewise works on bitmasks of
tight vertices.  Only Euclidean distances (Hausdorff) leave the rational
world, via a single square root at the end.

Scales targeted: ambient dimension <= 6, a few dozen constraints.  All values
are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    CertificateFailed,
    DimensionMismatch,
    EmptyPolyhedron,
    SingularMatrix,
    UnboundedPolyhedron,
)
from .linalg import (
    Vec,
    affine_rank,
    determinant,
    dot,
    echelon,
    invert,
    null_space,
    rank,
    row_space_basis,
    scale_to_int,
    solve,
    vec_add,
    vec_scale,
    vec_sub,
)

Point = tuple[Fraction, ...]


def _fracvec(v: Sequence) -> Point:
    return tuple(Fraction(x) for x in v)


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HRep:
    """Halfspace description {x : <a_i, x> <= b_i for all i}."""

    d: int
    halfspaces: tuple[tuple[Point, Fraction], ...]

    @staticmethod
    def make(d: int, halfspaces: Iterable[tuple[Sequence, object]]) -> "HRep":
        rows = []
        for normal, offset in halfspaces:
            normal = _fracvec(normal)
            if len(normal) != d:
                raise DimensionMismatch(f"normal of length {len(normal)} in R^{d}")
            rows.append((normal, Fraction(offset)))
        return HRep(d, tuple(rows))

    @staticmethod
    def infeasible(d: int) -> "HRep":
        return HRep(d, ((tuple(Fraction(0) for _ in range(d)), Fraction(-1)),))

    def satisfies(self, x: Sequence) -> bool:
        x = _fracvec(x)
        if len(x) != self.d:
            raise DimensionMismatch(f"point of length {len(x)} in R^{self.d}")
        return all(dot(a, x) <= b for a, b in self.halfspaces)


@dataclass(frozen=True)
class VRep:
    """Generator description conv(vertices) + cone(rays) + span(lines).

    For pointed polyhedra ``vertices`` really are the vertices; when lineality
    is present they are representatives of the minimal faces.  An empty
    polyhedron is marked explicitly.
    """

    d: int
    vertices: tuple[Point, ...]
    rays: tuple[Point, ...] = ()
    lines: tuple[Point, ...] = ()

    @staticmethod
    def make(d, vertices, rays=(), lines=()) -> "VRep":
        vs = tuple(_fracvec(v) for v in vertices)
        rs = tuple(_fracvec(r) for r in rays)
        ls = tuple(_fracvec(l) for l in lines)
        for v in vs + rs + ls:
            if len(v) != d:
                raise DimensionMismatch(f"generator of length {len(v)} in R^{d}")
        return VRep(d, vs, rs, ls)

    @staticmethod
    def empty(d: int) -> "VRep":
        return VRep(d, ())

    @property
    def is_empty(self) -> bool:
        return not self.vertices


# ---------------------------------------------------------------------------
# Double description on cones
# ---------------------------------------------------------------------------

def _pointed_cone_rays(rows: list[tuple[int, ...]], d: int) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {y : r.y <= 0 for r in rows}.

    Requires rank(rows) == d.  Incremental double description with the
    combinatorial adjacency test; the incidence set of a ray (the rows it
    is tight on) is an int bitmask with bit i for ``rows[i]``.
    """
    if d == 0:
        return []
    # The first rows that raise the rank are the pivot columns of the transpose.
    _, base_idx, _ = echelon(list(zip(*rows)))
    if len(base_idx) < d:
        raise ValueError("cone rows are rank deficient; caller must project out lineality")
    # [B | I] reduces to [D I | D B^-1]; the rays are the columns of -B^-1.
    aug = [list(rows[i]) + [int(i == j) for j in base_idx] for i in base_idx]
    red, pivots, det = echelon(aug)
    if pivots != list(range(d)):
        raise CertificateFailed("double description basis is singular")
    s = -1 if det > 0 else 1
    rays = [scale_to_int(tuple(s * red[j][d + i] for j in range(d))) for i in range(d)]

    processed = sum(1 << i for i in base_idx)
    raylist: list[tuple[tuple[int, ...], int]] = [
        (r, _incidence(rows, processed, r)) for r in rays
    ]
    for idx in range(len(rows)):
        bit = 1 << idx
        if processed & bit:
            continue
        c = rows[idx]
        vals = [sum(map(mul, c, r)) for r, _ in raylist]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        processed |= bit
        if not pos:
            raylist = [
                ((r, a | bit) if vals[i] == 0 else (r, a))
                for i, (r, a) in enumerate(raylist)
            ]
            continue
        new_rays: list[tuple[int, ...]] = []
        for ip in pos:
            rp, ap = raylist[ip]
            for ineg in neg:
                rn, an = raylist[ineg]
                common = ap & an
                if common.bit_count() < d - 2:
                    continue
                adjacent = True
                for k, (_, ak) in enumerate(raylist):
                    if k != ip and k != ineg and common & ak == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(vals[ip] * x - vals[ineg] * y for x, y in zip(rn, rp))
                new_rays.append(scale_to_int(combo))
        kept: dict[tuple[int, ...], int] = {}
        for i in neg + zero:
            r, a = raylist[i]
            kept[r] = a | bit if vals[i] == 0 else a
        for nr in new_rays:
            if nr not in kept:
                kept[nr] = _incidence(rows, processed, nr)
        raylist = list(kept.items())
    return [r for r, _ in raylist]


def _incidence(rows: list[tuple[int, ...]], mask: int, ray: tuple[int, ...]) -> int:
    """Bitmask of the rows in ``mask`` that are tight on ``ray``."""
    return sum(1 << i for i, row in enumerate(rows)
               if mask >> i & 1 and sum(map(mul, row, ray)) == 0)


def cone_generators(rows: Sequence[Sequence], dim: int) -> tuple[list[Point], list[Point]]:
    """Rays and lineality basis of the cone {y in R^dim : r.y <= 0 for r in rows}."""
    int_rows = [scale_to_int(r) for r in rows]
    int_rows = [r for r in int_rows if any(x != 0 for x in r)]
    lines = [_fracvec(l) for l in null_space(int_rows, dim)]
    if not int_rows:
        return [], lines
    if not lines:  # pointed cone: no projection needed
        return [_fracvec(r) for r in _pointed_cone_rays(int_rows, dim)], []
    # Project onto the row space, spanned by the reduced rows.  Their common
    # scale D drops out: negating the basis negates both the projected rows
    # and the rays of their cone, so each lifted ray y is unchanged.
    w_basis = echelon(int_rows)[0]
    r = len(w_basis)
    proj = [tuple(dot(row, w) for w in w_basis) for row in int_rows]
    z_rays = _pointed_cone_rays([scale_to_int(p) for p in proj], r)
    rays = []
    for z in z_rays:
        y = tuple(sum(z[j] * w_basis[j][i] for j in range(r)) for i in range(dim))
        rays.append(_fracvec(scale_to_int(y)))
    return rays, lines


# ---------------------------------------------------------------------------
# H <-> V conversion via homogenization
# ---------------------------------------------------------------------------

def hrep_to_vrep(h: HRep) -> VRep:
    """Vertex/ray/line description of an H-polyhedron (double description)."""
    d = h.d
    rows = [tuple(a) + (-b,) for a, b in h.halfspaces]
    rows.append(tuple(Fraction(0) for _ in range(d)) + (Fraction(-1),))
    rays, lines = cone_generators(rows, d + 1)
    if any(l[d] != 0 for l in lines):
        raise CertificateFailed("homogenization cone contains a line with x0 != 0")
    vertices = []
    rec_rays = []
    for r in rays:
        if r[d] > 0:
            vertices.append(tuple(x / r[d] for x in r[:d]))
        else:
            rec_rays.append(r[:d])
    if not vertices:
        return VRep.empty(d)
    return VRep(d, tuple(vertices), tuple(rec_rays), tuple(l[:d] for l in lines))


def vrep_to_hrep(v: VRep) -> HRep:
    """Irredundant facet description of a V-polyhedron (polar double description)."""
    d = v.d
    if v.is_empty:
        return HRep.infeasible(d)
    gens = [tuple(p) + (Fraction(1),) for p in v.vertices]
    gens += [tuple(r) + (Fraction(0),) for r in v.rays]
    for l in v.lines:
        gens.append(tuple(l) + (Fraction(0),))
        gens.append(tuple(-x for x in l) + (Fraction(0),))
    prays, plines = cone_generators(gens, d + 1)
    halfspaces: list[tuple[Point, Fraction]] = []
    # directions of the affine hull: orthogonal to every equality normal
    eq_normals = [w[:d] for w in plines if any(x != 0 for x in w[:d])]
    hull_dirs = null_space(eq_normals, d) if eq_normals else None
    for w in prays:
        a, c = w[:d], w[d]
        if all(x == 0 for x in a):
            continue
        if hull_dirs is not None and all(dot(a, u) == 0 for u in hull_dirs):
            # constant on the affine hull, implied by the equalities
            continue
        halfspaces.append((a, -c))
    for w in plines:
        a, c = w[:d], w[d]
        if any(x != 0 for x in a):
            halfspaces.append((a, -c))
            halfspaces.append((tuple(-x for x in a), c))
    return HRep(d, tuple(halfspaces))


# ---------------------------------------------------------------------------
# Polyhedron
# ---------------------------------------------------------------------------

class Polyhedron:
    """Convex polyhedron with lazily synchronized dual representations."""

    def __init__(self, hrep: HRep | None = None, vrep: VRep | None = None):
        if hrep is None and vrep is None:
            raise ValueError("need at least one representation")
        if hrep is not None and vrep is not None and hrep.d != vrep.d:
            raise DimensionMismatch("H- and V-representation dimensions differ")
        self._hrep = hrep
        self._vrep = vrep
        self._canonical_hrep: HRep | None = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_halfspaces(d: int, halfspaces: Iterable) -> "Polyhedron":
        return Polyhedron(hrep=HRep.make(d, halfspaces))

    @staticmethod
    def from_generators(d: int, vertices, rays=(), lines=()) -> "Polyhedron":
        """Hull of arbitrary (possibly redundant) generators, canonicalized."""
        raw = VRep.make(d, vertices, rays, lines)
        if raw.is_empty:
            return Polyhedron(hrep=HRep.infeasible(d), vrep=raw)
        h = vrep_to_hrep(raw)
        return Polyhedron(hrep=h, vrep=hrep_to_vrep(h))

    @staticmethod
    def empty(d: int) -> "Polyhedron":
        return Polyhedron(hrep=HRep.infeasible(d), vrep=VRep.empty(d))

    @staticmethod
    def box(bounds: Sequence[tuple]) -> "Polyhedron":
        """Axis-aligned box given per-coordinate (lo, hi) bounds."""
        d = len(bounds)
        halfspaces = []
        for i, (lo, hi) in enumerate(bounds):
            e = [0] * d
            e[i] = 1
            halfspaces.append((tuple(e), hi))
            halfspaces.append((tuple(-x for x in e), -Fraction(lo)))
        return Polyhedron.from_halfspaces(d, halfspaces)

    # -- representations -----------------------------------------------------

    @property
    def d(self) -> int:
        return self._hrep.d if self._hrep is not None else self._vrep.d

    @property
    def hrep(self) -> HRep:
        if self._hrep is None:
            self._hrep = vrep_to_hrep(self._vrep)
        return self._hrep

    @property
    def vrep(self) -> VRep:
        if self._vrep is None:
            self._vrep = hrep_to_vrep(self._hrep)
        return self._vrep

    @property
    def canonical_hrep(self) -> HRep:
        """Irredundant facet description (recomputed from the V-rep)."""
        if self._canonical_hrep is None:
            self._canonical_hrep = vrep_to_hrep(self.vrep)
        return self._canonical_hrep

    # -- predicates ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.vrep.is_empty

    @property
    def is_bounded(self) -> bool:
        v = self.vrep
        return not v.rays and not v.lines

    @property
    def dim(self) -> int:
        """Dimension of the affine hull (-1 for empty)."""
        v = self.vrep
        if v.is_empty:
            return -1
        vecs = [vec_sub(p, v.vertices[0]) for p in v.vertices[1:]]
        vecs += list(v.rays) + list(v.lines)
        return rank(vecs) if vecs else 0

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.d

    def contains(self, x: Sequence) -> bool:
        return self.hrep.satisfies(x)

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        ov = other.vrep
        for a, b in self.hrep.halfspaces:
            if any(dot(a, p) > b for p in ov.vertices):
                return False
            if any(dot(a, r) > 0 for r in ov.rays):
                return False
            if any(dot(a, l) != 0 for l in ov.lines):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        if self.d != other.d:
            return False
        return self.contains_polyhedron(other) and other.contains_polyhedron(self)

    __hash__ = None  # mutable caches; not hashable

    def relint_point(self) -> Point:
        """A point in the relative interior (positive mix of all generators)."""
        v = self.vrep
        if v.is_empty:
            raise EmptyPolyhedron("relative interior of the empty set")
        n = len(v.vertices)
        p = tuple(sum(vert[i] for vert in v.vertices) / n for i in range(self.d))
        for r in v.rays:
            p = vec_add(p, r)
        return p

    def __repr__(self) -> str:  # debugging aid only
        if self._vrep is not None:
            v = self._vrep
            return (f"Polyhedron(d={self.d}, vertices={len(v.vertices)}, "
                    f"rays={len(v.rays)}, lines={len(v.lines)})")
        return f"Polyhedron(d={self.d}, halfspaces={len(self._hrep.halfspaces)})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def intersect(a: HRep | Polyhedron, b: HRep | Polyhedron) -> Polyhedron:
    """Exact intersection of two polyhedra (may be empty)."""
    ha = a.hrep if isinstance(a, Polyhedron) else a
    hb = b.hrep if isinstance(b, Polyhedron) else b
    if ha.d != hb.d:
        raise DimensionMismatch(f"cannot intersect R^{ha.d} with R^{hb.d}")
    return Polyhedron(hrep=HRep(ha.d, ha.halfspaces + hb.halfspaces))


def minkowski_sum(a: VRep | Polyhedron, b: VRep | Polyhedron) -> Polyhedron:
    """Minkowski sum: hull of pairwise vertex sums, union of rays and lines."""
    va = a.vrep if isinstance(a, Polyhedron) else a
    vb = b.vrep if isinstance(b, Polyhedron) else b
    if va.d != vb.d:
        raise DimensionMismatch(f"cannot add R^{va.d} and R^{vb.d}")
    if va.is_empty or vb.is_empty:
        return Polyhedron.empty(va.d)
    sums = [vec_add(p, q) for p in va.vertices for q in vb.vertices]
    return Polyhedron.from_generators(
        va.d, sums, tuple(va.rays) + tuple(vb.rays), tuple(va.lines) + tuple(vb.lines)
    )


def translate(p: Polyhedron, v: Sequence) -> Polyhedron:
    v = _fracvec(v)
    if len(v) != p.d:
        raise DimensionMismatch("translation vector dimension mismatch")
    vr = p.vrep
    if vr.is_empty:
        return Polyhedron.empty(p.d)
    new_v = VRep(p.d, tuple(vec_add(x, v) for x in vr.vertices), vr.rays, vr.lines)
    new_h = HRep(p.d, tuple((a, b + dot(a, v)) for a, b in p.hrep.halfspaces))
    return Polyhedron(hrep=new_h, vrep=new_v)


def apply_linear(p: Polyhedron, m: Sequence[Sequence]) -> Polyhedron:
    """Image of p under an invertible linear map m (rows of m)."""
    mat = [_fracvec(row) for row in m]
    if len(mat) != p.d or any(len(r) != p.d for r in mat):
        raise DimensionMismatch("matrix shape does not match ambient dimension")
    minv = invert(mat)
    if minv is None:
        raise SingularMatrix("linear image needs an invertible matrix")
    vr = p.vrep
    if vr.is_empty:
        return Polyhedron.empty(p.d)

    def img(x: Point) -> Point:
        return tuple(dot(row, x) for row in mat)

    new_v = VRep(
        p.d,
        tuple(img(x) for x in vr.vertices),
        tuple(_fracvec(scale_to_int(img(r))) for r in vr.rays),
        tuple(_fracvec(scale_to_int(img(l))) for l in vr.lines),
    )
    # normals transform by the inverse-transpose: a . m^{-1} y <= b
    new_h = HRep(
        p.d,
        tuple(
            (tuple(sum(a[i] * minv[i][j] for i in range(p.d)) for j in range(p.d)), b)
            for a, b in p.hrep.halfspaces
        ),
    )
    return Polyhedron(hrep=new_h, vrep=new_v)


def scale(p: Polyhedron, t) -> Polyhedron:
    """Dilate by a positive rational factor."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    vr = p.vrep
    if vr.is_empty:
        return Polyhedron.empty(p.d)
    new_v = VRep(p.d, tuple(vec_scale(t, x) for x in vr.vertices), vr.rays, vr.lines)
    new_h = HRep(p.d, tuple((a, t * b) for a, b in p.hrep.halfspaces))
    return Polyhedron(hrep=new_h, vrep=new_v)


def random_unimodular(seed: int, n: int, steps: int) -> tuple[Vec, ...]:
    """Random product of elementary integer shears; determinant exactly 1."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        # row_i += k * row_j
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


def is_implicit(p: Polyhedron, a: Sequence, b) -> bool:
    """True iff the row <a, x> <= b holds with equality on all of p."""
    v = p.vrep
    return (all(dot(a, q) == b for q in v.vertices)
            and all(dot(a, r) == 0 for r in v.rays)
            and all(dot(a, l) == 0 for l in v.lines))


def relative_interior_contains(p: Polyhedron, x: Sequence) -> bool:
    """True iff x lies in the relative interior of p.

    Strict inequality is required on every constraint that is not implicit
    (i.e. not tight on all of p).
    """
    if p.is_empty:
        raise EmptyPolyhedron("relative interior of the empty set")
    x = _fracvec(x)
    if len(x) != p.d:
        raise DimensionMismatch("point dimension mismatch")
    for a, b in p.canonical_hrep.halfspaces:
        val = dot(a, x)
        if is_implicit(p, a, b):
            if val != b:
                return False
        elif val >= b:
            return False
    return True


# ---------------------------------------------------------------------------
# Volume
# ---------------------------------------------------------------------------

def _angular_order(points: Sequence[Point], plane_basis: tuple[Point, Point], origin: Point) -> list[Point]:
    """Order coplanar points angularly around their centroid, exactly."""
    u1, u2 = plane_basis
    coords = []
    n = len(points)
    cen = tuple(sum(p[i] for p in points) / n for i in range(len(origin)))
    for p in points:
        rel = vec_sub(p, cen)
        coords.append((dot(rel, u1), dot(rel, u2), p))

    def half(c):  # 0 for upper half-plane (y>0 or y==0,x>0), 1 for lower
        x, y, _ = c
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cross(c1, c2):
        return c1[0] * c2[1] - c1[1] * c2[0]

    import functools

    def cmp(c1, c2):
        h1, h2 = half(c1), half(c2)
        if h1 != h2:
            return -1 if h1 < h2 else 1
        cr = cross(c1, c2)
        return 0 if cr == 0 else (-1 if cr > 0 else 1)

    return [c[2] for c in sorted(coords, key=functools.cmp_to_key(cmp))]


def _polygon_fan(points: Sequence[Point]) -> list[tuple[Point, Point, Point]]:
    """Fan triangulation of a planar polygon given as an unordered vertex set."""
    p0 = points[0]
    diffs = [vec_sub(p, p0) for p in points[1:]]
    basis_rows = row_space_basis(diffs)
    if len(basis_rows) != 2:
        raise CertificateFailed(f"polygon face spans {len(basis_rows)} dimensions, not 2")
    ordered = _angular_order(points, (basis_rows[0], basis_rows[1]), p0)
    return [(ordered[0], ordered[i], ordered[i + 1]) for i in range(1, len(ordered) - 1)]


def _face_simplices(face: int, fdim: int, tight_masks: Sequence[int],
                    verts: Sequence[Point]) -> list[tuple[Point, ...]]:
    """Triangulate a face of affine dimension fdim given by its vertex mask.

    A face is an int bitmask over ``verts`` (bit i for ``verts[i]``), and
    ``tight_masks`` holds, per defining halfspace, the mask of the vertices
    it is tight on.  Faces are explored purely combinatorially: the facets
    of a face are its intersections ``face & mask`` with the tight masks
    that are (fdim-1)-dimensional, so no further vertex enumeration and no
    further inner product is needed.  The points of a face are listed in
    the order of ``verts``, and the face is coned from its first point.
    """
    points = tuple(v for i, v in enumerate(verts) if face >> i & 1)
    if fdim == 0:
        return [points[:1]]
    if fdim == 1:
        if len(points) != 2:  # all listed points are extreme
            raise CertificateFailed(f"edge face has {len(points)} vertices, not 2")
        return [points]
    if fdim == 2:
        return [tuple(t) for t in _polygon_fan(points)]
    v0 = face & -face  # the lowest set bit: the first point
    seen: set[int] = set()
    simplices = []
    for mask in tight_masks:
        tight = face & mask
        if not tight or tight & v0 or tight in seen:
            continue
        seen.add(tight)
        if affine_rank([v for i, v in enumerate(verts) if tight >> i & 1]) != fdim - 1:
            continue
        for s in _face_simplices(tight, fdim - 1, tight_masks, verts):
            simplices.append((points[0],) + s)
    return simplices


def triangulate(p: Polyhedron) -> list[tuple[Point, ...]]:
    """Decompose a bounded full-dimensional polytope into d-simplices."""
    d = p.d
    verts = p.vrep.vertices
    if len(verts) == d + 1:
        return [verts]
    # Any defining H-rep works: redundant rows produce duplicate or
    # lower-dimensional tight sets, which are filtered out.
    tight_masks = [sum(1 << i for i, v in enumerate(verts) if dot(a, v) == b)
                   for a, b in p.hrep.halfspaces]
    return _face_simplices((1 << len(verts)) - 1, d, tight_masks, verts)


def volume(p: Polyhedron) -> Fraction:
    """Exact Lebesgue volume of a bounded polyhedron (0 if lower-dimensional)."""
    if p.is_empty:
        return Fraction(0)
    if not p.is_bounded:
        raise UnboundedPolyhedron("volume of an unbounded polyhedron")
    d = p.d
    if p.dim < d:
        return Fraction(0)
    if d == 1:
        xs = [v[0] for v in p.vrep.vertices]
        return max(xs) - min(xs)
    total = Fraction(0)
    fact = math.factorial(d)
    for simplex in triangulate(p):
        base = simplex[0]
        mat = [vec_sub(q, base) for q in simplex[1:]]
        total += abs(determinant(mat))
    return total / fact


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def _dist2_point_polytope(x: Point, poly: Polyhedron) -> Fraction:
    """Exact squared Euclidean distance from a point to a bounded polytope."""
    if poly.contains(x):
        return Fraction(0)
    rows = poly.canonical_hrep.halfspaces
    d = poly.d
    best: Fraction | None = None
    for k in range(1, min(d, len(rows)) + 1):
        for subset in itertools.combinations(rows, k):
            normals = [a for a, _ in subset]
            if rank(normals) < k:
                continue
            gram = [[dot(a, b) for b, _ in subset] for a in normals]
            rhs = [dot(a, x) - b for a, b in subset]
            lam = solve(gram, rhs)
            if lam is None:
                continue
            proj = x
            for coeff, a in zip(lam, normals):
                proj = vec_sub(proj, vec_scale(coeff, a))
            if poly.contains(proj):
                dist2 = dot(vec_sub(proj, x), vec_sub(proj, x))
                if best is None or dist2 < best:
                    best = dist2
    if best is None:
        raise CertificateFailed("no face projection of the point lies in the polytope")
    return best


def hausdorff_distance(k: Polyhedron, l: Polyhedron) -> float:
    """Hausdorff distance between two bounded nonempty polytopes.

    Exact up to the final square root (absolute accuracy ~1e-15).
    """
    if k.is_empty or l.is_empty:
        raise EmptyPolyhedron("Hausdorff distance needs nonempty bodies")
    if not (k.is_bounded and l.is_bounded):
        raise UnboundedPolyhedron("Hausdorff distance needs bounded bodies")
    if k.d != l.d:
        raise DimensionMismatch("ambient dimensions differ")
    worst2 = Fraction(0)
    for v in k.vrep.vertices:
        worst2 = max(worst2, _dist2_point_polytope(v, l))
    for v in l.vrep.vertices:
        worst2 = max(worst2, _dist2_point_polytope(v, k))
    return math.sqrt(worst2)
