"""Exact rational polyhedral computation.

Polyhedra live in R^d with two dual descriptions:

* an H-representation (list of halfspaces ``<normal, x> <= offset``), and
* a V-representation (vertices, recession rays, lineality directions).

Conversion between the two is done by the double description method on the
homogenization cone.  Its rows and rays are primitive integer vectors, its
eliminations run on ``linalg.echelon`` (fraction-free), and the incidence
set of each ray -- the rows it is tight on -- is an int bitmask, so the
adjacency test is ``&``, ``bit_count`` and one comparison (Fukuda and
Prodon, "Double description method revisited", 1996).  A new ray is a
positive combination of two adjacent rays, so its mask is theirs AND-ed
plus the new row; only the initial basis takes dot products.  ``_dd_step``
adds one row to a cone and is the only DD loop: ``_pointed_cone_rays`` runs
it from an initial basis, and ``cut_by`` runs it from the known generators
of a pointed polyhedron to intersect it with a few extra rows, reading
which of them are implicit off the incidence masks.

A ``Polyhedron`` is built from halfspaces only.  Its generators come from
its own DD or from one that ``cut_by`` or an affine map carries over, and it
keeps that integer data (a ``_Cone``: rows, generators, masks, lines);
containment, emptiness, dimension, ``cut_by`` and triangulation read it,
and a carried cone becomes a ``Fraction`` V-rep only when that is read.
Volumes are exact rationals from a simplicial decomposition that works on
integer points (the vertices times the lcm L of their denominators) and
bitmasks of tight vertices: the integer |det| of the simplices are summed
and divided by L^d d! once.
Only Euclidean distances (Hausdorff) leave the rational world, via a single
square root at the end.

Scales targeted: ambient dimension <= 6, a few dozen constraints.  All values
are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
from operator import and_, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CertificateFailed,
    DimensionMismatch,
    EmptyPolyhedron,
    SingularMatrix,
    UnboundedPolyhedron,
)
from .linalg import (
    Vec,
    dot,
    echelon,
    invert,
    null_space,
    rank,
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

def _pointed_cone_rays(rows: list[tuple[int, ...]], d: int) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {y : r.y <= 0 for r in rows}, each
    with its incidence mask: bit i is set iff the ray is tight on ``rows[i]``.

    Requires rank(rows) == d.  Incremental double description with the
    combinatorial adjacency test.
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
        if not processed >> idx & 1:
            raylist = _dd_step(rows, idx, raylist, processed, d)
            processed |= 1 << idx
    return raylist


def _dd_step(rows: list[tuple[int, ...]], idx: int,
             raylist: list[tuple[tuple[int, ...], int]], processed: int,
             d: int) -> list[tuple[tuple[int, ...], int]]:
    """One double description step: cut a pointed cone in R^d by ``rows[idx]``.

    ``raylist`` holds the extreme rays of the cone cut out by the rows in the
    bitmask ``processed``, each with its incidence mask over those rows.
    Returns the same for the cone also cut by ``rows[idx]``, with masks over
    ``processed`` and that row.  A new ray is a positive combination of two
    rays that satisfy every processed row with <= 0, so it is tight on a
    processed row iff both are: its mask is theirs AND-ed, plus the new row.
    """
    bit = 1 << idx
    c = rows[idx]
    vals = [sum(map(mul, c, r)) for r, _ in raylist]
    pos = [i for i, v in enumerate(vals) if v > 0]
    if not pos:
        return [((r, a | bit) if v == 0 else (r, a)) for (r, a), v in zip(raylist, vals)]
    neg = [i for i, v in enumerate(vals) if v < 0]
    zero = [i for i, v in enumerate(vals) if v == 0]
    new_rays: list[tuple[tuple[int, ...], int]] = []
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
            new_rays.append((scale_to_int(combo), common | bit))
    kept: dict[tuple[int, ...], int] = {}
    for i in neg + zero:
        r, a = raylist[i]
        kept[r] = a | bit if vals[i] == 0 else a
    for nr, a in new_rays:
        kept.setdefault(nr, a)
    return list(kept.items())


def _incidence(rows: list[tuple[int, ...]], mask: int, ray: tuple[int, ...]) -> int:
    """Bitmask of the rows in ``mask`` that are tight on ``ray``."""
    return sum(1 << i for i, row in enumerate(rows)
               if mask >> i & 1 and sum(map(mul, row, ray)) == 0)


def cone_generators(rows: Sequence[Sequence], dim: int
                    ) -> tuple[list[tuple[tuple[int, ...], int]], list[tuple[int, ...]]]:
    """Rays and lineality basis of the cone {y in R^dim : r.y <= 0 for r in rows},
    as primitive integer vectors; each ray comes with its incidence mask over
    ``rows`` (bit i for ``rows[i]``)."""
    int_rows = [scale_to_int(r) for r in rows]
    lines = null_space(int_rows, dim)
    if not lines:  # pointed cone: no projection needed
        return _pointed_cone_rays(int_rows, dim), []
    # Project onto the row space, spanned by the reduced rows.  Their common
    # scale D drops out: negating the basis negates both the projected rows
    # and the rays of their cone, so each lifted ray y is unchanged.  A row
    # is tight on y iff its projection is tight on z, so the masks carry over.
    w_basis = echelon(int_rows)[0]
    r = len(w_basis)
    proj = [tuple(dot(row, w) for w in w_basis) for row in int_rows]
    rays = []
    for z, mask in _pointed_cone_rays([scale_to_int(p) for p in proj], r):
        y = tuple(sum(z[j] * w_basis[j][i] for j in range(r)) for i in range(dim))
        rays.append((scale_to_int(y), mask))
    return rays, lines


# ---------------------------------------------------------------------------
# H <-> V conversion via homogenization
# ---------------------------------------------------------------------------

class _Cone(NamedTuple):
    """The integer double description of a polyhedron P in R^d.

    ``rows`` are primitive integer rows (a, -b) of an H-rep of P, in its order,
    and the homogenizing row (0, ..., 0, -1) after them; ``cut_by`` appends
    its extra rows after that.  ``gens`` are the extreme rays (x, x0) of the
    homogenization cone modulo its lineality space, primitive: the first
    ``nverts`` are the vertices x / x0 (x0 > 0), the rest the rays (x0 = 0),
    each group in the order the double description produced it.  ``masks[j]``
    has bit i set iff ``gens[j]`` is tight on ``rows[i]``.  ``lines`` span the
    lineality space.
    """

    rows: list[tuple[int, ...]]
    gens: list[tuple[int, ...]]
    masks: list[int]
    lines: list[tuple[int, ...]]
    nverts: int


def _cone(rows: list[tuple[int, ...]], raylist: list[tuple[tuple[int, ...], int]],
          lines: list[tuple[int, ...]], d: int) -> _Cone:
    """``_Cone`` from a double description's rays, vertex generators first."""
    verts = [rm for rm in raylist if rm[0][d] > 0]
    ordered = verts + [rm for rm in raylist if rm[0][d] <= 0]
    return _Cone(rows, [r for r, _ in ordered], [m for _, m in ordered], lines, len(verts))


def _int_rows(halfspaces: Iterable[tuple[Sequence, object]]) -> list[tuple[int, ...]]:
    """Primitive integer rows (a, -b) of halfspaces a.x <= b: y = (x, 1)
    satisfies a.x <= b iff row.y <= 0."""
    return [scale_to_int(tuple(a) + (-b,)) for a, b in halfspaces]


def hrep_to_vrep(h: HRep) -> VRep:
    """Vertex/ray/line description of an H-polyhedron (double description).

    The integer double description rides along on the result as the
    attribute ``_cone`` (not a field: ``VRep``'s fields, equality and repr
    are unchanged), which ``Polyhedron.vrep`` keeps.
    """
    d = h.d
    rows = _int_rows(h.halfspaces) + [(0,) * d + (-1,)]
    raylist, lines = cone_generators(rows, d + 1)
    if any(l[d] != 0 for l in lines):
        raise CertificateFailed("homogenization cone contains a line with x0 != 0")
    cone = _cone(rows, raylist, lines, d)
    v = _dehomogenize(cone, d)
    object.__setattr__(v, "_cone", cone)
    return v


def _dehomogenize(cone: _Cone, d: int) -> VRep:
    """V-rep of the polyhedron whose integer double description is ``cone``."""
    if not cone.nverts:
        return VRep.empty(d)
    return VRep(d,
                tuple(tuple(Fraction(x, g[d]) for x in g[:d]) for g in cone.gens[:cone.nverts]),
                tuple(_fracvec(g[:d]) for g in cone.gens[cone.nverts:]),
                tuple(_fracvec(l[:d]) for l in cone.lines))


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
    raylist, plines = cone_generators(gens, d + 1)
    prays = [_fracvec(w) for w, _ in raylist]
    plines = [_fracvec(w) for w in plines]
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
    """Convex polyhedron given by halfspaces; its generators are computed lazily.

    The V-rep and its integer data (a ``_Cone``) come from the polyhedron's
    own double description, or from the cone that ``cut_by`` or an affine map
    hands over (``_carrying``).  Either way the generators are extreme and
    the masks describe faces, as the predicates below and triangulation need.
    """

    def __init__(self, hrep: HRep):
        self._hrep = hrep
        self._vrep: VRep | None = None
        self._canonical_hrep: HRep | None = None
        self._cone: _Cone | None = None

    @staticmethod
    def _carrying(hrep: HRep, cone: _Cone) -> "Polyhedron":
        """``Polyhedron(hrep)`` whose integer double description is ``cone``."""
        p = Polyhedron(hrep)
        p._cone = cone
        return p

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_halfspaces(d: int, halfspaces: Iterable) -> "Polyhedron":
        return Polyhedron(HRep.make(d, halfspaces))

    @staticmethod
    def from_generators(d: int, vertices, rays=(), lines=()) -> "Polyhedron":
        """Hull of arbitrary (possibly redundant) generators, canonicalized."""
        raw = VRep.make(d, vertices, rays, lines)
        if raw.is_empty:
            return Polyhedron.empty(d)
        return Polyhedron(vrep_to_hrep(raw))

    @staticmethod
    def empty(d: int) -> "Polyhedron":
        return Polyhedron(HRep.infeasible(d))

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
        return self._hrep.d

    @property
    def hrep(self) -> HRep:
        return self._hrep

    @property
    def vrep(self) -> VRep:
        if self._vrep is None:
            if self._cone is None:
                self._vrep = hrep_to_vrep(self._hrep)
                self._cone = self._vrep._cone
            else:
                self._vrep = _dehomogenize(self._cone, self.d)
        return self._vrep

    def _integer(self) -> _Cone:
        """The integer double description behind the V-rep."""
        if self._cone is None:
            self.vrep  # the double description keeps its cone
        return self._cone

    @property
    def canonical_hrep(self) -> HRep:
        """Irredundant facet description (recomputed from the V-rep)."""
        if self._canonical_hrep is None:
            self._canonical_hrep = vrep_to_hrep(self.vrep)
        return self._canonical_hrep

    # -- predicates ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._integer().nverts

    @property
    def is_bounded(self) -> bool:
        v = self.vrep
        return not v.rays and not v.lines

    @property
    def dim(self) -> int:
        """Dimension of the affine hull (-1 for empty): one less than the rank
        of the homogenized generators."""
        c = self._integer()
        if not c.nverts:
            return -1
        return rank(c.gens + c.lines) - 1

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
        # A row (a, -b) and a generator (x, x0) of the other: a.x <= b x0, and
        # a.l == 0 on its lines.
        oc = other._integer()
        for row in self._integer().rows:
            if any(sum(map(mul, row, g)) > 0 for g in oc.gens):
                return False
            if any(sum(map(mul, row, l)) != 0 for l in oc.lines):
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
    return Polyhedron(HRep(ha.d, ha.halfspaces + hb.halfspaces))


def cut_by(p: Polyhedron, row_sets: Iterable[Sequence[tuple[Sequence, object]]]
           ) -> Iterator[tuple[Polyhedron, tuple[bool, ...]]]:
    """``p`` intersected with each set of extra halfspaces, lazily and in order.

    Yields ``(q, flags)``, one flag per extra row: whether the row is tight on
    all of ``q``.  The flags are the AND of the incidence masks of the
    generators of ``q``, starting from all bits set, so an empty ``q`` flags
    every row.

    A nonempty pointed ``p`` continues its own double description: from the
    integer generators of ``p`` and their incidence masks (``p._integer()``),
    each intersection costs one ``_dd_step`` per extra row, and ``q`` carries
    the resulting cone, whose extra rows follow the homogenizing row.  With
    lines the homogenization cone is not pointed, so each ``q`` runs its own
    ``hrep_to_vrep``, and its extra rows follow the rows of ``p``.
    """
    d = p.d
    base = p.hrep.halfspaces
    cone = p._integer()
    pointed = cone.nverts and not cone.lines
    start = list(zip(cone.gens, cone.masks))
    every = (1 << len(cone.rows)) - 1
    for extra in row_sets:
        extra = tuple((_fracvec(a), Fraction(b)) for a, b in extra)
        h = HRep(d, base + extra)
        if pointed:
            rows = cone.rows + _int_rows(extra)
            raylist, mask = start, every
            for idx in range(len(cone.rows), len(rows)):
                raylist = _dd_step(rows, idx, raylist, mask, d + 1)
                mask |= 1 << idx
            q, first = Polyhedron._carrying(h, _cone(rows, raylist, [], d)), len(cone.rows)
        else:
            q, first = Polyhedron(h), len(base)
        qc = q._integer()
        common = reduce(and_, qc.masks, -1) if qc.nverts else -1  # -1: all bits
        yield q, tuple(bool(common >> idx & 1) for idx in range(first, first + len(extra)))


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


def _affine_image(p: Polyhedron, point, normal, v: Point,
                  halfspaces: Iterable[tuple[Point, Fraction]]) -> Polyhedron:
    """Image of ``p`` under a bijection x -> m x + v, whose H-rep is ``halfspaces``;
    ``point`` maps x to m x and ``normal`` maps a to a m^-1.

    The image carries the mapped integer double description of ``p``: a
    generator (x, x0) goes to (m x + x0 v, x0) and a row (a, c) to
    (a m^-1, c - a m^-1 v), each made primitive.  Every row value of every
    generator keeps its sign, so the masks and ``nverts`` carry over.
    """
    d = p.d
    if p.is_empty:
        return Polyhedron.empty(d)
    cone = p._integer()

    def gen(g):
        return scale_to_int(vec_add(point(g[:d]), vec_scale(g[d], v)) + (g[d],))

    def row(r):
        a = normal(r[:d])
        return scale_to_int(a + (r[d] - dot(a, v),))

    image = _Cone([row(r) for r in cone.rows], [gen(g) for g in cone.gens], cone.masks,
                  [gen(l) for l in cone.lines], cone.nverts)
    return Polyhedron._carrying(HRep(d, tuple(halfspaces)), image)


def translate(p: Polyhedron, v: Sequence) -> Polyhedron:
    v = _fracvec(v)
    if len(v) != p.d:
        raise DimensionMismatch("translation vector dimension mismatch")
    return _affine_image(p, lambda x: x, lambda a: a, v,
                         ((a, b + dot(a, v)) for a, b in p.hrep.halfspaces))


def apply_linear(p: Polyhedron, m: Sequence[Sequence]) -> Polyhedron:
    """Image of p under an invertible linear map m (rows of m)."""
    mat = [_fracvec(row) for row in m]
    if len(mat) != p.d or any(len(r) != p.d for r in mat):
        raise DimensionMismatch("matrix shape does not match ambient dimension")
    minv = invert(mat)
    if minv is None:
        raise SingularMatrix("linear image needs an invertible matrix")

    def normal(a):  # normals transform by the inverse-transpose: a . m^{-1} y <= b
        return tuple(dot(a, col) for col in zip(*minv))

    return _affine_image(p, lambda x: tuple(dot(row, x) for row in mat), normal,
                         (Fraction(0),) * p.d, ((normal(a), b) for a, b in p.hrep.halfspaces))


def scale(p: Polyhedron, t) -> Polyhedron:
    """Dilate by a positive rational factor."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    return _affine_image(p, lambda x: vec_scale(t, x), lambda a: vec_scale(1 / t, a),
                         (Fraction(0),) * p.d, ((a, t * b) for a, b in p.hrep.halfspaces))


def random_unimodular(seed: int, n: int, steps: int) -> tuple[Vec, ...]:
    """Random product of elementary integer shears; determinant exactly 1."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if n == 1:
        return ((Fraction(1),),)  # SL(1) = {1}: there is no shear to draw
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

def _angular_order(points: Sequence[tuple[int, ...]], u1: Sequence[int],
                   u2: Sequence[int]) -> list[int]:
    """Indices of coplanar integer points in angular order around their centroid.

    ``u1`` and ``u2`` span the plane.  A point p is placed by ``n p - sum p``,
    its offset from the centroid times the point count n, so the order is
    exact in integers.
    """
    n = len(points)
    total = [sum(c) for c in zip(*points)]
    coords = []
    for p in points:
        rel = [n * x - s for x, s in zip(p, total)]
        coords.append((sum(map(mul, rel, u1)), sum(map(mul, rel, u2))))

    def half(c):  # 0 for upper half-plane (y>0 or y==0,x>0), 1 for lower
        x, y = c
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(i, j):
        ci, cj = coords[i], coords[j]
        hi, hj = half(ci), half(cj)
        if hi != hj:
            return -1 if hi < hj else 1
        cr = ci[0] * cj[1] - ci[1] * cj[0]
        return 0 if cr == 0 else (-1 if cr > 0 else 1)

    return sorted(range(n), key=cmp_to_key(cmp))


def _polygon_fan(points: Sequence[tuple[int, ...]]) -> list[tuple[int, int, int]]:
    """Fan triangulation of a planar polygon given as an unordered set of
    integer points, as index triples into ``points``.

    The plane is spanned by the ``echelon`` rows of the differences, times
    the sign of its pivot ``D``: a positive multiple of the RREF basis.
    """
    p0 = points[0]
    red, pivots, det = echelon([vec_sub(p, p0) for p in points[1:]])
    if len(pivots) != 2:
        raise CertificateFailed(f"polygon face spans {len(pivots)} dimensions, not 2")
    s = 1 if det > 0 else -1
    u1, u2 = ([s * x for x in row] for row in red)
    order = _angular_order(points, u1, u2)
    return [(order[0], order[i], order[i + 1]) for i in range(1, len(order) - 1)]


def _face_simplices(face: int, fdim: int, tight_masks: Sequence[int],
                    pts: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Triangulate a face of affine dimension fdim given by its vertex mask.

    A face is an int bitmask over the integer points ``pts`` (bit i for
    ``pts[i]``), and ``tight_masks`` holds, per defining halfspace, the mask
    of the points it is tight on.  Faces are explored combinatorially: the
    facets of a face are its intersections ``face & mask`` with the tight
    masks that are (fdim-1)-dimensional, so no further vertex enumeration
    and no further inner product is needed.  Simplices are tuples of indices
    into ``pts``, in the order of ``pts``, and the face is coned from its
    first point.
    """
    idx = [i for i in range(len(pts)) if face >> i & 1]
    if fdim == 0:
        return [(idx[0],)]
    if fdim == 1:
        if len(idx) != 2:  # all listed points are extreme
            raise CertificateFailed(f"edge face has {len(idx)} vertices, not 2")
        return [tuple(idx)]
    if fdim == 2:
        return [tuple(idx[k] for k in t) for t in _polygon_fan([pts[i] for i in idx])]
    v0 = face & -face  # the lowest set bit: the first point
    seen: set[int] = set()
    simplices = []
    for mask in tight_masks:
        tight = face & mask
        if not tight or tight & v0 or tight in seen:
            continue
        seen.add(tight)
        sub = [p for i, p in enumerate(pts) if tight >> i & 1]
        if len(echelon([vec_sub(p, sub[0]) for p in sub[1:]])[1]) != fdim - 1:
            continue
        for s in _face_simplices(tight, fdim - 1, tight_masks, pts):
            simplices.append((idx[0],) + s)
    return simplices


def _integer_simplices(p: Polyhedron) -> tuple[list[tuple[int, ...]], int,
                                                list[tuple[int, ...]]]:
    """``(pts, scale, simplices)`` for a bounded full-dimensional polytope.

    ``pts`` are the vertices times ``scale``, the lcm of their denominators;
    the recursion runs on those integer points, and each simplex is a tuple
    of indices into ``pts``.  Both come from ``p._integer()``: a vertex
    generator (x, x0) is primitive, so x0 is the lcm of the denominators of
    x / x0, and the points tight on a row are read off the vertex masks.
    """
    d = p.d
    cone = p._integer()
    gens, masks = cone.gens[:cone.nverts], cone.masks[:cone.nverts]
    scale = math.lcm(*(g[d] for g in gens))
    pts = [tuple(x * (scale // g[d]) for x in g[:d]) for g in gens]
    if len(pts) == d + 1:
        return pts, scale, [tuple(range(d + 1))]
    # Any defining H-rep works: redundant rows (and the homogenizing row,
    # tight on no vertex) produce empty, duplicate or lower-dimensional tight
    # sets, which are filtered out.
    tight_masks = [sum(1 << j for j, m in enumerate(masks) if m >> i & 1)
                   for i in range(len(cone.rows))]
    return pts, scale, _face_simplices((1 << len(pts)) - 1, d, tight_masks, pts)


def _lattice_det(pts: Sequence[tuple[int, ...]], simplex: Sequence[int]) -> int:
    """|det| of the edges from the first point of an integer simplex.

    Each edge is divided by its gcd before ``echelon`` and the gcds are
    multiplied back in, which keeps the Bareiss minors small when the
    points share a large scale.
    """
    base = pts[simplex[0]]
    rows, factor = [], 1
    for i in simplex[1:]:
        edge = [x - y for x, y in zip(pts[i], base)]
        g = math.gcd(*edge) or 1
        rows.append([x // g for x in edge])
        factor *= g
    _, pivots, det = echelon(rows)
    return abs(det) * factor if len(pivots) == len(rows) else 0


def triangulate(p: Polyhedron) -> list[tuple[Point, ...]]:
    """Decompose a bounded full-dimensional polytope into d-simplices."""
    verts = p.vrep.vertices
    return [tuple(verts[i] for i in s) for s in _integer_simplices(p)[2]]


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
    pts, scale, simplices = _integer_simplices(p)
    total = sum(_lattice_det(pts, s) for s in simplices)
    return Fraction(total, scale ** d * math.factorial(d))


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
