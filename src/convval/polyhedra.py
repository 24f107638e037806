"""Exact rational polyhedral computation.

Polyhedra live in R^d with two dual descriptions:

* an H-representation (list of halfspaces ``<normal, x> <= offset``), and
* a V-representation (vertices, recession rays, lineality directions).

Conversion between the two is done by the double description method on the
homogenization cone.  Its rows and rays are primitive integer vectors, its
eliminations run on ``linalg.echelon`` (fraction-free), and the incidence
set of each ray -- the rows it is tight on -- is an int bitmask, so the
adjacency test is ``&``, ``bit_count`` and one comparison (Fukuda and
Prodon, "Double description method revisited", 1996).  No mask is
computed by dot products: an initial ray is tight on every basis row but
one, and a new ray is a positive combination of two adjacent rays, so its
mask is theirs AND-ed plus the new row.  ``_dd_step`` adds one row to a
cone and is the only DD loop: ``cone_generators`` runs it from an initial
basis, and ``cut_by`` runs it from the known generators of a pointed
polyhedron to intersect it with a few extra rows, reading which of them
are implicit off the incidence masks.

Integer rows go into each DD and come out of it, so one DD hands its rows
to the next without a ``Fraction`` in between: ``hrep_to_vrep`` reads the
rows an ``HRep`` keeps (``HRep.int_rows``), and the polar DD
(``vrep_to_hrep``) takes integer generators (``_Generators``: a
polyhedron's own ``_Cone``, the vertex sums of a Minkowski sum, or a raw
V-rep scaled once) and returns an ``HRep`` that already carries its integer
rows, the primitive polar rays.  In ``cone_generators`` one ``echelon`` of
the transposed rows next to an identity picks the DD basis, says whether
the cone is pointed and inverts the basis; only a cone with lines takes a
``null_space``.

A ``Polyhedron`` is built from halfspaces only.  Its generators come from
its own DD or from one that ``cut_by`` or an affine map carries over (the
map as two integer matrices, on generators and on rows), and it keeps that
integer data (a ``_Cone``: rows, generators, masks, lines);
containment, emptiness, dimension, ``cut_by`` and triangulation read it,
and a carried cone becomes a ``Fraction`` V-rep only when that is read.
Full dimension is read off the same masks, with no rank: a nonempty
polyhedron is full-dimensional iff no row with a nonzero normal is tight on
every generator, since dim P = d - rank of its implicit rows.
Volumes are exact rationals from a pulling triangulation (De Loera, Rambau
and Santos, *Triangulations*, 2010, ch. 4) that works on integer points
(the vertices times the lcm L of their denominators) and bitmasks of tight
vertices: the facets of a face are the inclusion-maximal tight sets inside
it, so no rank test is taken.  Every simplex ends in a triangle of a
polygon fan.  No elimination runs: determinants are exterior products.
The recursion carries the exterior product of its chain's edges, one edge
more per level.  Each polygon's fan is built once per triangulation,
however many faces cone over it, with the 2x2 minors of two of its edges,
which give its plane; each visit wedges in one edge and pairs the result
with those minors for one determinant, which, scaled by the exact cross
products of the fan's triangles in the polygon's plane, gives the integer
|det| of all the visit's simplices; they are summed and divided by
L^d d! once.
Points meet rows in integers as well: a rational point x becomes the
homogeneous integer point (X, q) with x = X / q (``_int_point``), and
``_within`` tests it against primitive integer rows (a, -b); that is the one
halfspace test, behind ``HRep.satisfies`` (on the rows ``HRep.int_rows``
keeps), ``Polyhedron.contains`` and ``PWAConvex.eval``.  The Euclidean
projection onto a polyhedron is exact and runs on the same integer rows: one
loop (``_projection``, behind ``nearest_point``, the Hausdorff distance and
the Moreau envelope) takes one ``echelon`` per candidate active set and
returns a homogeneous integer point, which ``nearest_point`` divides once.
Only distances leave the rational world, via a single square root at the
end.

Scales targeted: ambient dimension <= 6, a few dozen constraints.  All values
are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache, reduce
from operator import and_, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BudgetExceeded,
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
    null_space,
    rank,
    scale_to_int,
    vec_add,
)
from .reports import record

Point = tuple[Fraction, ...]


def _fracvec(v: Sequence) -> Point:
    return tuple(Fraction(x) for x in v)


def _int_point(x: Sequence) -> tuple[int, ...]:
    """Homogeneous integer point (X, q) of a rational point: x = X / q, with q
    the lcm of the denominators of x."""
    vals = []
    q = 1
    for v in x:
        if not isinstance(v, (int, Fraction)):
            v = Fraction(v)
        vals.append(v)
        den = v.denominator
        if q % den:
            q = q // math.gcd(q, den) * den
    out = [v.numerator * (q // v.denominator) for v in vals]
    out.append(q)
    return tuple(out)


def _within(rows: Iterable[Sequence[int]], y: Sequence[int]) -> bool:
    """True iff the homogeneous integer point y satisfies every integer row
    (a, -b), i.e. row.y <= 0: the one halfspace test of the package."""
    for row in rows:
        if sum(map(mul, row, y)) > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

@record
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

    @cached_property
    def int_rows(self) -> list[tuple[int, ...]]:
        """The halfspaces as primitive integer rows (``_int_rows``), built on
        first use."""
        return _int_rows(self.halfspaces)

    def satisfies(self, x: Sequence) -> bool:
        y = _int_point(x)
        if len(y) != self.d + 1:
            raise DimensionMismatch(f"point of length {len(y) - 1} in R^{self.d}")
        return _within(self.int_rows, y)


@record
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
    pos, neg, zero = [], [], []
    for i, v in enumerate(vals):
        if v > 0:
            pos.append(i)
        elif v < 0:
            neg.append(i)
        else:
            zero.append(i)
    if not pos:
        return [((r, a | bit) if v == 0 else (r, a)) for (r, a), v in zip(raylist, vals)]
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
            combo = [vals[ip] * x - vals[ineg] * y for x, y in zip(rn, rp)]
            g = math.gcd(*combo)  # nonzero: rn and rp are not parallel
            new_rays.append((tuple(x // g for x in combo), common | bit))
    kept: dict[tuple[int, ...], int] = {}
    for i in neg + zero:
        r, a = raylist[i]
        kept[r] = a | bit if vals[i] == 0 else a
    for nr, a in new_rays:
        kept.setdefault(nr, a)
    return list(kept.items())


def cone_generators(rows: Sequence[tuple[int, ...]], dim: int
                    ) -> tuple[list[tuple[tuple[int, ...], int]], list[tuple[int, ...]]]:
    """Rays and lineality basis of the cone {y in R^dim : r.y <= 0 for r in rows}.

    ``rows`` are primitive integer rows, as every double description hands
    them on (``HRep.int_rows``, ``_Cone.rows``, ``_Generators``); the rays and
    the lineality basis come back as primitive integer vectors, and each ray
    with its incidence mask over ``rows`` (bit i for ``rows[i]``).

    One ``echelon`` of [R^T | I] gives the first rows that raise the rank
    (its pivots among the columns of R^T) and the rank that says whether the
    cone is pointed (rank ``dim``).  For a pointed cone those rows B are the
    DD basis, and the last ``dim`` columns hold B^-1, whose negated columns
    are the initial rays; then incremental double description with the
    combinatorial adjacency test.  Only a cone with lines takes its
    ``null_space``.
    """
    m = len(rows)
    red, pivots, det = echelon([[r[i] for r in rows] + [int(i == j) for j in range(dim)]
                                for i in range(dim)])
    base_idx = [c for c in pivots if c < m]
    if len(base_idx) < dim:
        lines = null_space(rows, dim)
        # Project onto the row space, spanned by the reduced rows, where the
        # cone is pointed.  Their common scale D drops out: negating the basis
        # negates both the projected rows and the rays of their cone, so each
        # lifted ray y is unchanged.  A row is tight on y iff its projection
        # is tight on z, so the masks carry over.  The projection is injective
        # on the row space, so the projected rows raise the rank at the same
        # indices: the cone in R^r has the same DD basis.
        w_basis = echelon(rows)[0]
        r = len(w_basis)
        proj = [tuple(dot(row, w) for w in w_basis) for row in rows]
        rays = []
        for z, mask in cone_generators([scale_to_int(p) for p in proj], r)[0]:
            y = tuple(sum(z[j] * w_basis[j][i] for j in range(r)) for i in range(dim))
            rays.append((scale_to_int(y), mask))
        return rays, lines
    # red is M [R^T | I] for an invertible M.  Once pivot column i of red is
    # det e_i, M B^T = det I, so the last dim columns, M, are det (B^-1)^T:
    # row i of them is det times column i of B^-1.
    for i, c in enumerate(base_idx):
        if any(row[c] != (det if j == i else 0) for j, row in enumerate(red)):
            raise CertificateFailed("double description basis is singular")
    s = -1 if det > 0 else 1
    processed = sum(1 << i for i in base_idx)
    # ray i has B.ray = -e_i: it is tight on every basis row but base_idx[i]
    raylist = [(scale_to_int([s * x for x in row[m:]]), processed & ~(1 << c))
               for row, c in zip(red, base_idx)]
    for idx in range(m):
        if not processed >> idx & 1:
            raylist = _dd_step(rows, idx, raylist, processed, dim)
            processed |= 1 << idx
    return raylist, []


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
    rows = h.int_rows + [(0,) * d + (-1,)]
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


class _Generators(NamedTuple):
    """A V-polyhedron in R^d as primitive integer generators of its
    homogenization cone, the input of the polar double description:
    (x q, q) per vertex x, q the lcm of its denominators, (r, 0) per ray and
    (l, 0) per line."""

    d: int
    verts: list[tuple[int, ...]]
    rays: list[tuple[int, ...]]
    lines: list[tuple[int, ...]]


def _generators(p: VRep | Polyhedron) -> _Generators:
    """``_Generators`` of a polyhedron, read off its ``_Cone``, or of a V-rep,
    each generator scaled once."""
    if isinstance(p, Polyhedron):
        c = p._integer()
        return _Generators(p.d, c.gens[:c.nverts], c.gens[c.nverts:], c.lines)
    return _Generators(p.d, [scale_to_int(tuple(x) + (1,)) for x in p.vertices],
                       [scale_to_int(tuple(r) + (0,)) for r in p.rays],
                       [scale_to_int(tuple(l) + (0,)) for l in p.lines])


def vrep_to_hrep(v: VRep | _Generators) -> HRep:
    """Irredundant facet description of a V-polyhedron (polar double description).

    ``v`` is a V-rep, whose generators are scaled to integers once, or the
    ``_Generators`` that a caller holding integer generators passes.  Each
    polar ray (a, c) is primitive, so it is the integer row of its halfspace
    a.x <= -c: the result carries those rows as its ``int_rows``, ready for
    the next double description.
    """
    if isinstance(v, VRep):
        v = _generators(v)
    d = v.d
    if not v.verts:
        return HRep.infeasible(d)
    gens = v.verts + v.rays
    for l in v.lines:
        gens += [l, tuple(-x for x in l)]
    raylist, plines = cone_generators(gens, d + 1)
    # directions of the affine hull: orthogonal to every equality normal
    eq_normals = [w[:d] for w in plines if any(w[:d])]
    hull_dirs = null_space(eq_normals, d) if eq_normals else None
    rows: list[tuple[int, ...]] = []
    for w, _ in raylist:
        a = w[:d]
        if not any(a):
            continue
        if hull_dirs is not None and all(sum(map(mul, a, u)) == 0 for u in hull_dirs):
            # constant on the affine hull, implied by the equalities
            continue
        rows.append(w)
    for w in plines:
        if any(w[:d]):
            rows += [w, tuple(-x for x in w)]
    h = HRep(d, tuple((_fracvec(w[:d]), Fraction(-w[d])) for w in rows))
    object.__setattr__(h, "int_rows", rows)  # fills the cached property
    return h


# ---------------------------------------------------------------------------
# Polyhedron
# ---------------------------------------------------------------------------

class Polyhedron:
    """Convex polyhedron given by halfspaces; its generators are computed lazily.

    The V-rep and its integer data (a ``_Cone``) come from the polyhedron's
    own double description, or from the cone that ``cut_by`` or an affine map
    hands over (``_carrying``).  Either way the generators are extreme and
    the masks describe faces, as the predicates below and triangulation need.

    The V-rep, the cone, the canonical H-rep and the body's cone function
    (``functions.cone_function``) are filled in on first use.  Each is a
    function of the H-rep alone, so filling one never changes what the
    polyhedron is or how it compares.
    """

    def __init__(self, hrep: HRep):
        self._hrep = hrep
        self._vrep: VRep | None = None
        self._canonical_hrep: HRep | None = None
        self._cone: _Cone | None = None
        self._cone_function = None  # kept by functions.cone_function

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
        """Irredundant facet description: the polar double description of
        the generators in ``_integer()``."""
        if self._canonical_hrep is None:
            self._canonical_hrep = vrep_to_hrep(_generators(self))
        return self._canonical_hrep

    # -- predicates ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._integer().nverts

    @property
    def is_bounded(self) -> bool:
        c = self._integer()
        return not c.nverts or (len(c.gens) == c.nverts and not c.lines)

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
        """Nonempty, and no row with a nonzero normal is tight on every
        generator: dim P = d - rank of the implicit rows (Schrijver, *Theory
        of Linear and Integer Programming*, 8.2), and those are the bits of
        the AND of the incidence masks.  A zero normal, as in 0.x <= 0, says
        nothing about the dimension, however tight."""
        c = self._integer()
        if not c.nverts:
            return False
        implicit = reduce(and_, c.masks)
        d = self.d
        return not any(implicit >> i & 1 and any(row[:d]) for i, row in enumerate(c.rows))

    def contains(self, x: Sequence) -> bool:
        return self.hrep.satisfies(x)

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        if self.d != other.d:
            raise DimensionMismatch(f"cannot compare R^{self.d} with R^{other.d}")
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

    __hash__ = None  # __eq__ is set equality; no cheap hash agrees with it

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
    """Minkowski sum: hull of pairwise vertex sums, union of rays and lines.

    Runs on the integer generators of both (``_generators``): the sum of
    vertices (X, x0) and (Y, y0) is the primitive (X y0 + Y x0, x0 y0).
    """
    if a.d != b.d:
        raise DimensionMismatch(f"cannot add R^{a.d} and R^{b.d}")
    d = a.d
    ga, gb = _generators(a), _generators(b)
    if not ga.verts or not gb.verts:
        return Polyhedron.empty(d)
    sums = [scale_to_int(tuple(x * q[d] + y * p[d] for x, y in zip(p[:d], q[:d]))
                         + (p[d] * q[d],))
            for p in ga.verts for q in gb.verts]
    return Polyhedron(vrep_to_hrep(_Generators(d, sums, ga.rays + gb.rays, ga.lines + gb.lines)))


def _mapped(mat: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    """The integer matrix ``mat`` applied to ``v``, made primitive."""
    w = [sum(map(mul, row, v)) for row in mat]
    g = math.gcd(*w) or 1  # a zero row stays zero
    return tuple(x // g for x in w)


def _diag(entries: Sequence[int]) -> list[list[int]]:
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


def _affine_image(p: Polyhedron, gmat: Sequence[Sequence[int]], rmat: Sequence[Sequence[int]],
                  halfspaces: Iterable[tuple[Point, Fraction]]) -> Polyhedron:
    """Image of ``p`` under an affine bijection whose H-rep is ``halfspaces``.

    ``gmat`` and ``rmat`` are integer (d+1) x (d+1) matrices, positive
    multiples of the bijection on homogeneous points (x, x0) and of its
    action on rows (a, c), which keeps every row value a.x + c x0: for
    x -> m x + v, those are (x, x0) -> (m x + x0 v, x0) and
    (a, c) -> (a m^-1, c - a m^-1 v).  The image carries the mapped
    integer double description of ``p``: each generator and line is
    ``gmat`` times it and each row ``rmat`` times it, made primitive, so
    no ``Fraction`` is built.  Every row value of every generator keeps its
    sign, so the masks and ``nverts`` carry over.
    """
    d = p.d
    if p.is_empty:
        return Polyhedron.empty(d)
    cone = p._integer()
    image = _Cone([_mapped(rmat, r) for r in cone.rows], [_mapped(gmat, g) for g in cone.gens],
                  cone.masks, [_mapped(gmat, l) for l in cone.lines], cone.nverts)
    return Polyhedron._carrying(HRep(d, tuple(halfspaces)), image)


def translate(p: Polyhedron, v: Sequence) -> Polyhedron:
    v = _fracvec(v)
    d = p.d
    if len(v) != d:
        raise DimensionMismatch("translation vector dimension mismatch")
    *vs, s = _int_point(v)  # v = vs / s
    gmat = [[s * (i == j) for j in range(d)] + [vs[i]] for i in range(d)] + [[0] * d + [s]]
    rmat = [[s * (i == j) for j in range(d + 1)] for i in range(d)] + [[-x for x in vs] + [s]]
    return _affine_image(p, gmat, rmat, ((a, b + dot(a, v)) for a, b in p.hrep.halfspaces))


def apply_linear(p: Polyhedron, m: Sequence[Sequence]) -> Polyhedron:
    """Image of p under an invertible linear map m (rows of m).

    With M = L m the integer matrix, L the lcm of the denominators of m, one
    ``echelon`` of [M | I] gives N = D M^-1: generators map by M and rows by
    sign(D) L N^T, with |D| on the constant.
    """
    mat = [_fracvec(row) for row in m]
    d = p.d
    if len(mat) != d or any(len(r) != d for r in mat):
        raise DimensionMismatch("matrix shape does not match ambient dimension")
    scale = math.lcm(*(x.denominator for row in mat for x in row))
    ints = [[x.numerator * (scale // x.denominator) for x in row] for row in mat]
    red, pivots, det = echelon([row + [int(i == j) for j in range(d)]
                                for i, row in enumerate(ints)])
    if pivots[:d] != list(range(d)):
        raise SingularMatrix("linear image needs an invertible matrix")
    s = 1 if det > 0 else -1
    # m^-1 = L N / D; normals transform by it: a . m^{-1} y <= b
    minv_cols = [[Fraction(scale * row[d + j], det) for row in red] for j in range(d)]
    gmat = [row + [0] for row in ints] + [[0] * d + [scale]]
    rmat = ([[s * scale * row[d + j] for row in red] + [0] for j in range(d)]
            + [[0] * d + [abs(det)]])
    return _affine_image(p, gmat, rmat, ((tuple(dot(a, col) for col in minv_cols), b)
                                         for a, b in p.hrep.halfspaces))


def scale(p: Polyhedron, t) -> Polyhedron:
    """Dilate by a positive rational factor."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    num, den, d = t.numerator, t.denominator, p.d
    return _affine_image(p, _diag([num] * d + [den]), _diag([den] * d + [num]),
                         ((a, t * b) for a, b in p.hrep.halfspaces))


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


def relative_interior_contains(p: Polyhedron, x: Sequence) -> bool:
    """True iff x lies in the relative interior of p.

    Equality is required on every implicit row (tight on all of p) and strict
    inequality on every other one.  The rows are those of ``p._integer()``,
    tested on the homogeneous integer point of x; the implicit ones are the
    AND of the generators' incidence masks.  Any H-rep of p will do: a valid
    row that is tight at a relative interior point is tight on all of p.
    """
    if p.is_empty:
        raise EmptyPolyhedron("relative interior of the empty set")
    y = _int_point(x)
    if len(y) != p.d + 1:
        raise DimensionMismatch("point dimension mismatch")
    cone = p._integer()
    implicit = reduce(and_, cone.masks)
    for i, row in enumerate(cone.rows):
        val = sum(map(mul, row, y))
        if val > 0 or (val == 0) != bool(implicit >> i & 1):
            return False
    return True


# ---------------------------------------------------------------------------
# Volume
# ---------------------------------------------------------------------------

def _angular_order(coords: Sequence[tuple[int, int]]) -> list[int]:
    """Indices of nonzero integer plane coordinates in angular order around
    the origin."""

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

    return sorted(range(len(coords)), key=cmp_to_key(cmp))


def _polygon_fan(points: Sequence[tuple[int, ...]]
                 ) -> tuple[list[int], int, list[tuple[tuple[int, int, int], int]]]:
    """Fan triangulation of a planar polygon given as an unordered set of
    integer points, with the 2x2 minors of its plane.

    Returns ``(minors, ref, fan)``.  ``minors`` are the 2x2 minors m_ij of
    x = p_1 - p_0 and the first y = p_j - p_0 independent of it, over the
    pairs i < j in ``itertools.combinations`` order.  ``fan`` holds index
    triples into ``points``, each with the |cross| of its edges from its
    first point in the plane coordinates below, and ``ref`` is the |cross|
    of x and y there.  Those coordinates are one linear map of the plane, so
    a simplex that cones a fan triangle from points off the plane has |det|
    equal to that of the one coning (p_0, p_1, p_j), times cross / ref.

    The plane basis is read off the minors.  With (p, q) the first pair with
    m_pq != 0, the pivots of the plane's RREF, its rows are
    (m_kq / m_pq)_k and (m_pk / m_pq)_k (Cramer), so
    u1 = s (y_q x - x_q y) and u2 = s (x_p y - y_p x), s the sign of m_pq,
    are both the same positive multiple |m_pq| of the RREF rows.  A vector v
    lies in the plane iff s m_pq v = v_p u1 + v_q u2, which every point is
    checked for.  A point p is placed at ``(r.u1, r.u2)`` with
    ``r = n p - sum p``, its offset from the centroid times the point count
    n, so the angular order is exact in integers.
    """
    p0 = points[0]
    edges = [[a - b for a, b in zip(p, p0)] for p in points[1:]]
    pairs = list(itertools.combinations(range(len(p0)), 2))
    x, *rest = edges or [()]
    for j, y in enumerate(rest, 2):
        minors = [x[a] * y[b] - x[b] * y[a] for a, b in pairs]
        if any(minors):
            break
    else:
        raise CertificateFailed(f"polygon face of {len(points)} points spans a line or less")
    mpq, (p, q) = next((m, pair) for m, pair in zip(minors, pairs) if m)
    s = 1 if mpq > 0 else -1
    u1 = [s * (y[q] * a - x[q] * b) for a, b in zip(x, y)]
    u2 = [s * (x[p] * b - y[p] * a) for a, b in zip(x, y)]
    for v in edges:
        if any(s * mpq * c != v[p] * a + v[q] * b for c, a, b in zip(v, u1, u2)):
            raise CertificateFailed(f"polygon face point {v} from {p0} is off its plane")
    n = len(points)
    total = [sum(c) for c in zip(*points)]
    coords = []
    for pt in points:
        rel = [n * a - t for a, t in zip(pt, total)]
        coords.append((sum(map(mul, rel, u1)), sum(map(mul, rel, u2))))

    def cross(o, i, k):
        (ox, oy), (ix, iy), (kx, ky) = coords[o], coords[i], coords[k]
        return abs((ix - ox) * (ky - oy) - (iy - oy) * (kx - ox))

    order = _angular_order(coords)
    fan = [((order[0], i, k), cross(order[0], i, k)) for i, k in zip(order[1:], order[2:])]
    return minors, cross(0, 1, j), fan


@lru_cache(maxsize=None)
def _wedge_table(k: int, d: int) -> list[tuple[tuple[int, int, int], ...]]:
    """Index table of the exterior product of a k-vector with a vector of
    R^d.  A k-vector is a list of coordinates over the k-subsets of range(d)
    in ``itertools.combinations`` order.  Entry number s lists, for the
    (k+1)-subset S number s, one ``(a, j, sign)`` per j in S: a is the index
    of S without j, and e_(S - j) ^ e_j = sign e_S."""
    index = {c: a for a, c in enumerate(itertools.combinations(range(d), k))}
    return [tuple((index[c[:i] + c[i + 1:]], j, (-1) ** (k - i)) for i, j in enumerate(c))
            for c in itertools.combinations(range(d), k + 1)]


@lru_cache(maxsize=None)
def _pairing_table(d: int) -> list[tuple[int, int, int]]:
    """Index table of the Laplace pairing of a (d-2)-vector with a 2-vector
    of R^d: one ``(a, b, sign)`` per pair T = (i, j), with b its index, a the
    index of its complement S, and e_S ^ e_i ^ e_j = sign e_0 ^ ... ^ e_(d-1)."""
    index = {c: a for a, c in enumerate(itertools.combinations(range(d), d - 2))}
    return [(index[tuple(c for c in range(d) if c != i and c != j)], b, (-1) ** (i + j + 1))
            for b, (i, j) in enumerate(itertools.combinations(range(d), 2))]


def _wedge(e: Sequence[int], k: int, v: Sequence[int]) -> list[int]:
    """The exterior product e ^ v of the integer k-vector e and the vector v."""
    return [sum(s * e[a] * v[j] for a, j, s in terms) for terms in _wedge_table(k, len(v))]


def _exterior_det(vectors: Sequence[Sequence[int]]) -> int:
    """Determinant of d integer vectors of R^d, d >= 1: the one coordinate
    of their exterior product, taken one vector at a time."""
    e = [1]
    for k, v in enumerate(vectors):
        e = _wedge(e, k, v)
    return e[0]


def _pairing(f: Sequence[int], minors: Sequence[int], d: int) -> int:
    """det(f_1, ..., f_(d-2), x, y) in R^d from the exterior product ``f`` of
    the f_i and the 2x2 minors of x and y: the Laplace expansion along the
    last two rows."""
    return sum(s * f[a] * minors[b] for a, b, s in _pairing_table(d))


def _face_simplices(face: int, fdim: int, tight_masks: Sequence[int],
                    pts: Sequence[tuple[int, ...]],
                    fans: dict[int, tuple[list[int], int, list[tuple[tuple[int, ...], int]]]],
                    chain: tuple[int, ...] = (), wedge: Sequence[int] = (1,)
                    ) -> list[tuple[tuple[int, ...], int]]:
    """Triangulate a face of affine dimension fdim >= 2 given by its vertex
    mask, coned from the points ``chain``; each simplex comes with its |det|.

    A face is an int bitmask over the integer points ``pts`` (bit i for
    ``pts[i]``), and ``tight_masks`` holds, per row of an H-rep of the
    full-dimensional polytope, the mask of the points that row is tight on.
    Every facet of the polytope is among those rows and every face is the
    intersection of the facets that contain it, so the facets of a face are
    the inclusion-maximal sets among the proper, nonempty ``face & mask``:
    faces are explored on bitmasks alone.  Each face is coned from its first
    point, so a simplex is ``chain``, the first point of each face down the
    recursion, and a triangle of a polygon fan, as indices into ``pts`` in
    the order of ``pts``.

    ``wedge`` is the exterior product of the chain's edges from its first
    point, carried down the recursion: each face wedges in the edge to its
    own first point, once for all the faces below it.  A polygon is reached
    once per chain that cones over it, but its fan and its 2x2 minors
    (``_polygon_fan``) are built once: ``fans`` keeps them by the polygon's
    mask, for one triangulation.  Each visit pairs its wedge with the minors
    (``_pairing``) for the |det| of the chain coned over the polygon's
    reference triangle, which the fan's |cross| scale to the |det| of each
    of its simplices.
    """
    first = (face & -face).bit_length() - 1  # the lowest set bit: the first point
    if chain:
        base = pts[chain[0]]
        wedge = _wedge(wedge, len(chain) - 1, [a - b for a, b in zip(pts[first], base)])
    if fdim == 2:
        polygon = fans.get(face)
        if polygon is None:
            idx = [i for i in range(len(pts)) if face >> i & 1]
            minors, ref, fan = _polygon_fan([pts[i] for i in idx])
            polygon = fans[face] = (minors, ref, [(tuple(idx[k] for k in t), cross)
                                                  for t, cross in fan])
        minors, ref, fan = polygon
        det_ref = abs(_pairing(wedge, minors, len(pts[first])))
        out = []
        for triangle, cross in fan:
            det, rest = divmod(det_ref * cross, ref)
            if rest:
                raise CertificateFailed(f"fan determinant {det_ref} * {cross} / {ref} is inexact")
            out.append((chain + triangle, det))
        return out
    if fdim < 2:  # only a polytope in R^0 or R^1 gets here, and it is no simplex
        raise CertificateFailed(f"{fdim}-dimensional face has {face.bit_count()} vertices, "
                                f"not {fdim + 1}")
    candidates = [t for t in dict.fromkeys(face & m for m in tight_masks) if t and t != face]
    maximal: list[int] = []
    for t in sorted(candidates, key=int.bit_count, reverse=True):
        if all(t & f != t for f in maximal):
            maximal.append(t)
    facets = set(maximal)
    chain += (first,)
    return [s for t in candidates if t in facets and not t >> first & 1
            for s in _face_simplices(t, fdim - 1, tight_masks, pts, fans, chain, wedge)]


def _integer_simplices(p: Polyhedron) -> tuple[list[tuple[int, ...]], int,
                                                list[tuple[tuple[int, ...], int]]]:
    """``(pts, scale, simplices)`` for a bounded full-dimensional polytope.

    ``pts`` are the vertices times ``scale``, the lcm of their denominators;
    the recursion runs on those integer points, and each simplex is a tuple
    of indices into ``pts`` together with its integer |det|, its volume
    times ``d! scale^d``, from exterior products (``_exterior_det`` for a
    lone simplex, ``_face_simplices`` otherwise): no elimination runs.  Both
    come from ``p._integer()``: a vertex generator (x, x0) is primitive, so
    x0 is the lcm of the denominators of x / x0, and the points tight on a
    row are read off the vertex masks.
    """
    d = p.d
    cone = p._integer()
    gens, masks = cone.gens[:cone.nverts], cone.masks[:cone.nverts]
    scale = math.lcm(*(g[d] for g in gens))
    pts = [tuple(x * (scale // g[d]) for x in g[:d]) for g in gens]
    if len(pts) == d + 1:
        base = pts[0]
        det = _exterior_det([[a - b for a, b in zip(pt, base)] for pt in pts[1:]])
        return pts, scale, [(tuple(range(d + 1)), abs(det))]
    # Any defining H-rep works: redundant rows (and the homogenizing row,
    # tight on no vertex) give empty, duplicate or non-maximal tight sets.
    tight_masks = [sum(1 << j for j, m in enumerate(masks) if m >> i & 1)
                   for i in range(len(cone.rows))]
    return pts, scale, _face_simplices((1 << len(pts)) - 1, d, tight_masks, pts, {})


def triangulate(p: Polyhedron) -> list[tuple[Point, ...]]:
    """Decompose a bounded full-dimensional polytope into d-simplices."""
    verts = p.vrep.vertices
    return [tuple(verts[i] for i in s) for s, _ in _integer_simplices(p)[2]]


def volume(p: Polyhedron) -> Fraction:
    """Exact Lebesgue volume of a bounded polyhedron: 0 if it is not full
    dimensional, read off its incidence masks (``is_full_dimensional``),
    and otherwise the sum of its ``_integer_simplices`` determinants."""
    if p.is_empty:
        return Fraction(0)
    if not p.is_bounded:
        raise UnboundedPolyhedron("volume of an unbounded polyhedron")
    if not p.is_full_dimensional:
        return Fraction(0)
    d = p.d
    _, scale, simplices = _integer_simplices(p)
    return Fraction(sum(det for _, det in simplices), scale ** d * math.factorial(d))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def _projection(rows: Sequence[tuple[int, ...]], y0: Sequence[int], budget: int
                ) -> tuple[int, ...]:
    """The projection of the homogeneous integer point ``y0`` = (X, q) onto
    the nonempty polyhedron of the primitive integer rows ``rows``, as a
    homogeneous integer point (Y, E): the loop behind ``nearest_point``.

    KKT active-set enumeration: for k = 0, 1, ..., min(d, rows), each
    k-subset with independent normals G gives the projection y = x - G^T lam
    of x = X / q onto {G y = c}, lam solving the Gram system
    G G^T lam = G x - c.  The first y with lam >= 0 that lies in the
    polyhedron is a KKT point of a convex problem, hence its minimum, and
    some independent active set yields it (conic Caratheodory).  A point of
    the polyhedron is its own answer, with no elimination.  More than
    ``budget`` subsets raise :class:`BudgetExceeded`; if no subset works,
    :class:`CertificateFailed`.

    One ``echelon`` of [G G^T | G X - q c] per subset is both the rank test
    (its pivots are the first k columns iff G has rank k) and the solve: its
    pivot D is then det(G G^T) > 0, a Gram determinant, and its last column
    is M = D q lam, so lam >= 0 is read off the signs of M, Y = D X - G^T M
    is the projection times D q, and a.Y <= c D q is the membership test.
    """
    xs, q = y0[:-1], y0[-1]
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(len(rows)), k)
        for k in range(min(len(xs), len(rows)) + 1))
    for used, subset in enumerate(subsets, 1):
        if used > budget:
            raise BudgetExceeded(f"nearest_point exceeded the {budget}-subset budget")
        if not subset:
            if _within(rows, y0):
                return tuple(y0)
            normals = [row[:-1] for row in rows]
            gram = [[sum(map(mul, a, b)) for b in normals] for a in normals]
            rhs = [sum(map(mul, row, y0)) for row in rows]  # a.X - q c
            continue
        k = len(subset)
        red, pivots, det = echelon([[gram[i][j] for j in subset] + [rhs[i]] for i in subset])
        if pivots != list(range(k)):
            continue
        m = [r[k] for r in red]
        if any(v < 0 for v in m):
            continue
        y = [det * v for v in xs]
        for coeff, i in zip(m, subset):
            y = [v - coeff * a for v, a in zip(y, normals[i])]
        y.append(det * q)
        if _within(rows, y):
            return tuple(y)
    raise CertificateFailed("no face projection of the point lies in the polyhedron")


def nearest_point(p: Polyhedron, x: Sequence, budget: int = 10 ** 6) -> Point:
    """The point of the nonempty polyhedron ``p`` nearest to ``x``, exactly.

    ``_projection`` over the rows of ``p.canonical_hrep`` (its primitive
    ``HRep.int_rows``), from the homogeneous point (X, q) of ``_int_point``;
    the answer is its one division.  More than ``budget`` subsets raise
    :class:`BudgetExceeded`; if no subset works, :class:`CertificateFailed`.
    """
    if p.is_empty:
        raise EmptyPolyhedron("nearest point in the empty set")
    rows = p.canonical_hrep.int_rows
    y0 = _int_point(x)
    if len(y0) != p.d + 1:
        raise DimensionMismatch(f"point of length {len(y0) - 1} in R^{p.d}")
    *y, e = _projection(rows, y0, budget)
    return tuple(Fraction(v, e) for v in y)


def hausdorff_distance(k: Polyhedron, l: Polyhedron) -> float:
    """Hausdorff distance between two bounded polytopes.

    Exact up to the final square root (absolute accuracy ~1e-15): the
    largest squared distance from a vertex of one body to its
    ``nearest_point`` in the other, then one ``math.sqrt``.  Two empty
    bodies are at distance 0 and an empty body is at distance inf from a
    nonempty one, the convention for empty sublevel sets.
    """
    if k.d != l.d:
        raise DimensionMismatch("ambient dimensions differ")
    if k.is_empty or l.is_empty:
        return 0.0 if k.is_empty and l.is_empty else math.inf
    if not (k.is_bounded and l.is_bounded):
        raise UnboundedPolyhedron("Hausdorff distance needs bounded bodies")
    worst = Fraction(0)
    for a, b in ((k, l), (l, k)):
        for v in a.vrep.vertices:
            worst = max(worst, sum((s - r) ** 2 for s, r in zip(nearest_point(b, v), v)))
    return math.sqrt(worst)
