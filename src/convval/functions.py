"""Piecewise-affine convex functions, stored as max-of-affine over a polyhedral domain.

The central type is :class:`PWAConvex`: a proper, lower-semicontinuous convex
function u(x) = max_i (<a_i, x> + b_i) on a polyhedral domain D, +inf outside.
By default construction enforces coercivity (all sublevel sets bounded); the
relaxed closed variant (``coercive=False``) is used for conjugates, which are
finite near the origin but need not be coercive.

The epigraph is cached as an exact :class:`~convval.polyhedra.Polyhedron` in
R^{n+1}; most operations (sup, sublevel, conjugation, infimal convolution)
are simple polyhedral manipulations of that object.  Construction keeps the
distinct pieces that are active somewhere, read off the vertices of the
epigraph of all the pieces (one double description, whose vertex incidence
masks say which rows are tight where, so no dot product is taken); when
none is dropped, that epigraph is the function's.  The cells of the domain
on which each piece attains the maximum are computed by
:func:`_active_cells` on first use and cached as :attr:`PWAConvex.cells`;
only the Moreau envelope reads them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    EmptyDomain,
    NotCoercive,
    NotConvexMin,
    NotUnimodular,
    OriginNotInBody,
    EmptyPolyhedron,
)
from .linalg import determinant, dot, invert, vec_sub
from .polyhedra import HRep, Polyhedron, _fracvec, cut_by

Piece = tuple[tuple[Fraction, ...], Fraction]
INF = math.inf


class PWAConvex:
    """Piecewise-affine convex function; immutable after construction.

    Use :func:`make`, :func:`cone_function`, :func:`indicator_function` or the
    other constructors rather than calling ``PWAConvex`` directly.
    """

    def __init__(self, n: int, pieces: tuple[Piece, ...], domain: HRep,
                 epigraph: Polyhedron, coercive: bool):
        self.n = n
        self.pieces = pieces
        self.domain = domain
        self.epigraph = epigraph
        self.coercive = coercive
        self._cells = None
        self._min = None

    @property
    def cells(self) -> tuple[tuple[Piece, Polyhedron], ...]:
        """(piece, cell) per piece, in piece order: the cell is the nonempty
        part of the domain where that piece attains the maximum."""
        if self._cells is None:
            self._cells = _active_cells(self.n, self.pieces, self.domain)
        return self._cells

    # -- basic queries -------------------------------------------------------

    def eval(self, x: Sequence) -> Fraction | float:
        """Exact value at a rational point (+inf outside the domain)."""
        x = _fracvec(x)
        if len(x) != self.n:
            raise DimensionMismatch(f"point of length {len(x)} for a function on R^{self.n}")
        if not self.domain.satisfies(x):
            return INF
        return max(dot(a, x) + b for a, b in self.pieces)

    def min_value(self) -> tuple[Fraction, Polyhedron]:
        """(min value, argmin polytope); the minimum is attained by coercivity."""
        if self._min is None:
            verts = self.epigraph.vrep.vertices
            if not verts:
                raise EmptyDomain("improper function has no minimum")
            tmin = min(v[self.n] for v in verts)
            self._min = (tmin, self.sublevel(tmin))
        return self._min

    def sublevel(self, t) -> Polyhedron:
        """{u <= t} as an exact polyhedron (empty below the minimum)."""
        t = Fraction(t)
        rows = list(self.domain.halfspaces)
        rows += [(a, t - b) for a, b in self.pieces]
        return Polyhedron(hrep=HRep(self.n, tuple(rows)))

    def domain_polyhedron(self) -> Polyhedron:
        return Polyhedron(hrep=self.domain)

    def translate_graph(self, shift) -> "PWAConvex":
        """u + shift."""
        shift = Fraction(shift)
        pieces = tuple((a, b + shift) for a, b in self.pieces)
        return _build(self.n, pieces, self.domain, self.coercive)

    def __repr__(self):
        return (f"PWAConvex(n={self.n}, pieces={len(self.pieces)}, "
                f"domain_rows={len(self.domain.halfspaces)}, coercive={self.coercive})")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _epigraph_of(n: int, pieces: tuple[Piece, ...], domain: HRep) -> Polyhedron:
    rows = []
    zero = Fraction(0)
    for a, b in pieces:
        rows.append((tuple(a) + (Fraction(-1),), -b))
    for c, d in domain.halfspaces:
        rows.append((tuple(c) + (zero,), d))
    return Polyhedron(hrep=HRep(n + 1, tuple(rows)))


def _active_cells(n: int, pieces, domain: HRep) -> tuple[tuple[Piece, Polyhedron], ...]:
    """(piece, cell) for every distinct piece whose active set is nonempty.

    The cell of piece i is {x in D : piece i >= every other piece}.  It may be
    lower-dimensional (the 0 piece of max(x, -x, 0) is active at x = 0 only);
    keeping exactly the pieces returned here never changes the function.  A
    lone piece is active on all of D, whose emptiness ``_build`` checks.
    """
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


def _check_coercive(epi: Polyhedron, n: int) -> bool:
    v = epi.vrep
    if v.lines:
        return False
    return all(r[n] > 0 for r in v.rays)


def _build(n: int, pieces, domain: HRep, coercive: bool) -> PWAConvex:
    pieces = tuple((_fracvec(a), Fraction(b)) for a, b in pieces)
    return _checked(n, pieces, domain, _epigraph_of(n, pieces, domain), coercive)


def _checked(n: int, pieces: tuple[Piece, ...], domain: HRep, epi: Polyhedron,
             coercive: bool) -> PWAConvex:
    if epi.is_empty:
        raise EmptyDomain("empty domain: the function is improper")
    if coercive and not _check_coercive(epi, n):
        raise NotCoercive("some sublevel set is unbounded")
    return PWAConvex(n, pieces, domain, epi, coercive)


def _build_pruned(n: int, pieces, domain: HRep, coercive: bool) -> PWAConvex:
    """``_build`` on the distinct pieces that are active somewhere.

    The active set of piece i is the face of the epigraph where its row is
    tight.  A nonempty face contains a minimal face, and a valid row is
    constant along the lines, so piece i is active somewhere iff it is
    tight at some vertex of the epigraph: one double description decides
    every piece, by the incidence masks of its vertices (row i of the
    epigraph is piece i).  When none is pruned, that epigraph is the
    function's.
    """
    pieces = tuple(dict.fromkeys((_fracvec(a), Fraction(b)) for a, b in pieces))
    epi = _epigraph_of(n, pieces, domain)
    cone = epi._integer()
    tight = 0
    for mask in cone.masks[:cone.nverts]:
        tight |= mask
    active = tuple(piece for i, piece in enumerate(pieces) if tight >> i & 1)
    if 0 < len(active) < len(pieces):
        return _build(n, active, domain, coercive)
    return _checked(n, pieces, domain, epi, coercive)  # no vertex: EmptyDomain


def make(pieces: Iterable, domain: HRep | Polyhedron | None = None, *,
         n: int | None = None, coercive: bool = True) -> PWAConvex:
    """Validated max-of-affine function on a polyhedral domain.

    ``domain=None`` means all of R^n.  Raises :class:`NotCoercive` when a
    sublevel set is unbounded (unless ``coercive=False`` asks for the relaxed
    closed class) and :class:`EmptyDomain` when the domain is empty.
    """
    pieces = [(_fracvec(a), Fraction(b)) for a, b in pieces]
    if not pieces:
        raise ValueError("need at least one affine piece")
    if n is None:
        n = len(pieces[0][0])
    for a, _ in pieces:
        if len(a) != n:
            raise DimensionMismatch("piece slope dimension mismatch")
    if domain is None:
        domain = HRep(n, ())
    elif isinstance(domain, Polyhedron):
        domain = domain.hrep
    if domain.d != n:
        raise DimensionMismatch("domain dimension mismatch")
    return _build_pruned(n, pieces, domain, coercive)


def from_epigraph(epi: Polyhedron, *, coercive: bool = True) -> PWAConvex:
    """Function whose epigraph is the given polyhedron in R^{n+1}.

    The polyhedron must actually be an epigraph: recession direction
    (0, ..., 0, 1) and bounded below in the last coordinate.
    """
    n = epi.d - 1
    if epi.is_empty:
        raise EmptyDomain("empty epigraph")
    pieces = []
    dom_rows = []
    for w, c in epi.canonical_hrep.halfspaces:
        a, tc = w[:n], w[n]
        if tc < 0:
            pieces.append((tuple(x / -tc for x in a), c / tc))
        elif tc == 0:
            dom_rows.append((a, c))
        else:
            raise ValueError("polyhedron is not an epigraph (violates recession (0,1))")
    if not pieces:
        raise ValueError("polyhedron is unbounded below; not the epigraph of a proper function")
    return _build_pruned(n, pieces, HRep(n, tuple(dom_rows)), coercive)


def indicator_function(k: Polyhedron, t=0) -> PWAConvex:
    """Ind_K + t: value t on K, +inf outside."""
    if k.is_empty:
        raise EmptyPolyhedron("indicator of the empty set")
    n = k.d
    return make([(tuple(Fraction(0) for _ in range(n)), Fraction(t))], k.hrep, n=n,
                coercive=k.is_bounded)


def cone_function(k: Polyhedron, t=0) -> PWAConvex:
    """The function with epigraph pos(K x {1}), shifted up by t.

    Sublevel sets are {. <= t + s} = sK for s >= 0; the domain is pos(K).
    Requires K bounded with 0 in K.
    """
    n = k.d
    origin = tuple(Fraction(0) for _ in range(n))
    if not k.contains(origin):
        raise OriginNotInBody("cone function needs the origin inside the body")
    if not k.is_bounded:
        raise ValueError("cone function needs a bounded body")
    epi = Polyhedron.from_generators(
        n + 1, [origin + (Fraction(0),)],
        rays=[tuple(v) + (Fraction(1),) for v in k.vrep.vertices],
    )
    u = from_epigraph(epi, coercive=True)
    return u.translate_graph(t) if Fraction(t) != 0 else u


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def sup(u: PWAConvex, v: PWAConvex) -> PWAConvex:
    """Pointwise maximum; epigraph intersection."""
    if u.n != v.n:
        raise DimensionMismatch("dimension mismatch in sup")
    dom = HRep(u.n, u.domain.halfspaces + v.domain.halfspaces)
    if Polyhedron(hrep=dom).is_empty:
        raise EmptyDomain("sup has empty domain; the maximum is improper")
    return make(u.pieces + v.pieces, dom, n=u.n,
                coercive=u.coercive or v.coercive)


def inf_if_convex(u: PWAConvex, v: PWAConvex) -> PWAConvex:
    """Pointwise minimum, provided it is convex.

    The minimum is convex exactly when conv(epi u  U  epi v) equals the union
    of the epigraphs.  The check is exact: for every facet pair (g of epi u,
    h of epi v), the hull restricted to the outside of both facets must be
    empty up to faces: empty, or tight on g or on h throughout.  These
    restrictions come from ``cut_by``, which continues the hull's double
    description by two steps per pair when the hull is pointed and flags
    the rows that are tight throughout from the incidence masks of those
    steps.  On failure raises :class:`NotConvexMin` with a witness point x
    where min(u, v)(x) exceeds the hull function.
    """
    if u.n != v.n:
        raise DimensionMismatch("dimension mismatch in inf")
    n = u.n
    eu, ev = u.epigraph, v.epigraph
    gu, gv = eu.vrep, ev.vrep
    hull = Polyhedron.from_generators(
        n + 1,
        tuple(gu.vertices) + tuple(gv.vertices),
        tuple(gu.rays) + tuple(gv.rays),
        tuple(gu.lines) + tuple(gv.lines),
    )
    pairs = product(eu.canonical_hrep.halfspaces, ev.canonical_hrep.halfspaces)
    outside = (((tuple(-x for x in g), -cg), (tuple(-x for x in h), -ch))
               for (g, cg), (h, ch) in pairs)
    for q, (tight_g, tight_h) in cut_by(hull, outside):
        if not (tight_g or tight_h):  # an empty q is tight on both rows
            raise NotConvexMin(q.relint_point()[:n])
    return from_epigraph(hull, coercive=u.coercive and v.coercive)


def pwa_equal(u: PWAConvex, v: PWAConvex) -> bool:
    """Exact function equality (epigraphs describe the same set)."""
    return u.n == v.n and u.epigraph == v.epigraph


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def transform(u: PWAConvex, phi: Sequence[Sequence], tau: Sequence, shift=0) -> PWAConvex:
    """x -> u(phi^{-1}(x - tau)) + shift for unimodular phi (det = 1)."""
    n = u.n
    phi = [_fracvec(row) for row in phi]
    tau = _fracvec(tau)
    if len(phi) != n or any(len(r) != n for r in phi) or len(tau) != n:
        raise DimensionMismatch("transform shape mismatch")
    if determinant(phi) != 1:
        raise NotUnimodular("transform requires det(phi) = 1")
    inv = invert(phi)
    shift = Fraction(shift)

    def push(row):
        return tuple(sum(row[i] * inv[i][j] for i in range(n)) for j in range(n))

    pieces = []
    for a, b in u.pieces:
        na = push(a)
        pieces.append((na, b - dot(na, tau) + shift))
    dom_rows = []
    for c, d in u.domain.halfspaces:
        nc = push(c)
        dom_rows.append((nc, d + dot(nc, tau)))
    return _build(n, tuple(pieces), HRep(n, tuple(dom_rows)), u.coercive)
