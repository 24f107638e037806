"""Piecewise-affine convex functions, stored as max-of-affine over a polyhedral domain.

The central type is :class:`PWAConvex`: a proper, lower-semicontinuous convex
function u(x) = max_i (<a_i, x> + b_i) on a polyhedral domain D, +inf outside.
By default construction enforces coercivity (all sublevel sets bounded); the
relaxed closed variant (``coercive=False``) is used for conjugates, which are
finite near the origin but need not be coercive.

The epigraph is cached as an exact :class:`~convval.polyhedra.Polyhedron` in
R^{n+1}; most operations (sup, sublevel, conjugation, infimal convolution)
are simple polyhedral manipulations of that object.  Every constructor and
transform goes through one builder, ``_build``: it keeps the distinct
pieces that are active somewhere, read off the vertices of the epigraph of
all the pieces (one double description, whose vertex incidence masks say
which rows are tight where, so no dot product is taken); when none is
dropped, that epigraph is the function's.  ``from_epigraph`` defers that
builder: it checks the polyhedron it is given on that polyhedron's own
double description and builds the pieces, domain and epigraph the first
time one of them is read; until then the cone bounds of ``conjugacy``,
which need the epigraph only as a set, read the given polyhedron.  The
cells of the domain on which each piece attains the maximum are computed
by :func:`_active_cells` on first use and read as
:attr:`PWAConvex.cells`; only the Moreau envelope reads them.  A cell is
the face of the epigraph where its piece's row is tight, projected by
dropping t, so it is read off the epigraph's double description: the
generators tight on that row, without t and made primitive, with their
masks remapped to the cell's rows; no cell runs a double description.  Such
derived values (the deferred build, the cells, the integer pieces, the
minimum, the level profile and the conjugate) are computed on first use
and kept on the function itself; none refers back to it, so each is freed
with its function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul
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
from .linalg import determinant, dot, invert, vec_scale, vec_sub
from .polyhedra import (HRep, Polyhedron, _affine_image, _Cone, _diag, _fracvec, _Generators,
                        _generators, _int_point, _within, cut_by, vrep_to_hrep)

Piece = tuple[tuple[Fraction, ...], Fraction]
INF = math.inf


class PWAConvex:
    """Piecewise-affine convex function; what it derives is kept on it.

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

    def __getattr__(self, name):
        """``pieces``, ``domain`` and ``epigraph`` of a function that
        ``from_epigraph`` returned: the first read of any of them runs its
        build once and sets all three on the function, so later reads are
        plain attribute reads.  Only called for a name the function does
        not hold."""
        if name not in ("pieces", "domain", "epigraph"):
            raise AttributeError(f"'PWAConvex' object has no attribute '{name}'")
        built = _build_from_rows(self._given, self.n, self.coercive)
        self.pieces, self.domain, self.epigraph = built.pieces, built.domain, built.epigraph
        return getattr(built, name)

    def _derived(self, name: str, compute):
        """``compute()``, worked out on first use and kept on the function."""
        if name not in vars(self):
            vars(self)[name] = compute()
        return vars(self)[name]

    def _epigraph_set(self) -> Polyhedron:
        """The epigraph as a set, for readers that need neither the pieces
        nor an H-rep: the polyhedron ``from_epigraph`` was given, whose
        double description has run, so reading it builds nothing."""
        return self.__dict__.get("_given") or self.epigraph

    @cached_property
    def cells(self) -> tuple[tuple[Piece, Polyhedron], ...]:
        """(piece, cell) per piece, in piece order: the cell is the nonempty
        part of the domain where that piece attains the maximum."""
        return _active_cells(self)

    # -- basic queries -------------------------------------------------------

    def eval(self, x: Sequence) -> Fraction | float:
        """Exact value at a rational point (+inf outside the domain).

        Runs on integers: x is the homogeneous point (X, q) of ``_int_point``,
        tested against the domain's integer rows, and each piece is kept as
        the integer row L (a, b), L the lcm of the denominators of all the
        pieces, so its value at x is L (a, b).(X, q) / (L q).
        """
        y = _int_point(x)
        if len(y) != self.n + 1:
            raise DimensionMismatch(f"point of length {len(y) - 1} for a function on R^{self.n}")
        if not _within(self.domain.int_rows, y):
            return INF
        scale, rows = self._integer_pieces
        return Fraction(max(sum(map(mul, row, y)) for row in rows), scale * y[-1])

    @cached_property
    def _integer_pieces(self) -> tuple[int, list[tuple[int, ...]]]:
        """(L, rows): the rows L (a, b) of the pieces, L the lcm of their
        denominators."""
        scale = math.lcm(*(v.denominator for a, b in self.pieces for v in a + (b,)))
        return scale, [tuple(v.numerator * (scale // v.denominator) for v in a + (b,))
                       for a, b in self.pieces]

    def min_value(self) -> tuple[Fraction, Polyhedron]:
        """(min value, argmin polytope); the minimum is attained by coercivity."""
        return self._minimum

    @cached_property
    def _minimum(self) -> tuple[Fraction, Polyhedron]:
        verts = self.epigraph.vrep.vertices
        if not verts:
            raise EmptyDomain("improper function has no minimum")
        tmin = min(v[self.n] for v in verts)
        return tmin, self.sublevel(tmin)

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

def _epigraph_rows(pieces: tuple[Piece, ...], domain: HRep) -> tuple:
    """Halfspaces of the epigraph: (a, -1).(x, t) <= -b per piece, then the
    domain's rows."""
    zero = Fraction(0)
    return (tuple((tuple(a) + (Fraction(-1),), -b) for a, b in pieces)
            + tuple((tuple(c) + (zero,), d) for c, d in domain.halfspaces))


def _epigraph_of(n: int, pieces: tuple[Piece, ...], domain: HRep) -> Polyhedron:
    return Polyhedron(hrep=HRep(n + 1, _epigraph_rows(pieces, domain)))


def _active_cells(u: PWAConvex) -> tuple[tuple[Piece, Polyhedron], ...]:
    """(piece, cell) for every piece of ``u`` whose active set is nonempty.

    The cell of piece i is {x in D : piece i >= every other piece}.  It may be
    lower-dimensional (the 0 piece of max(x, -x, 0) is active at x = 0 only).
    It is the image of the face of epi u where epigraph row i is tight under
    (x, t) -> x, which is an affine bijection there (t = a_i.x + b_i).  So its
    integer double description is read off the epigraph's, with no double
    description of its own: its generators are the epigraph generators tight
    on row i with t dropped, made primitive, and so are its lines; it is
    empty iff no vertex is tight on row i.  Its rows are the domain rows,
    then piece j - piece i <= 0 for every j != i in piece order, then the
    homogenizing row, and each is tight where its epigraph row is: domain
    row k is epigraph row m + k (m pieces), difference row j is epigraph
    row j, and the homogenizing rows match.  A lone piece's cell is the
    domain.
    """
    n, pieces, domain = u.n, u.pieces, u.domain
    cone = u.epigraph._integer()
    m, k = len(pieces), len(domain.halfspaces)
    rows = cone.rows
    dom_rows = [r[:n] + r[n + 1:] for r in rows[m:m + k]]
    home = (0,) * n + (-1,)
    dom_bits = (1 << k) - 1

    def drop_t(g):
        g = g[:n] + g[n + 1:]
        c = math.gcd(*g)
        return tuple(x // c for x in g)

    cells = []
    for i, (ai, bi) in enumerate(pieces):
        bit = 1 << i
        tight = [(drop_t(g), mask) for g, mask in zip(cone.gens, cone.masks) if mask & bit]
        nverts = sum(g[n] > 0 for g, _ in tight)
        if not nverts:
            continue
        # piece j - piece i as an integer row: rows[j] = s_j (a_j, -1, b_j)
        ri, si = rows[i], -rows[i][n]
        diffs = []
        for j in range(m):
            if j != i:
                rj, sj = rows[j], -rows[j][n]
                diffs.append(drop_t(tuple(si * x - sj * y for x, y in zip(rj, ri))))
        low, high = bit - 1, (1 << (m - i - 1)) - 1
        masks = [(mask >> m & dom_bits) | (mask & low) << k | (mask >> (i + 1) & high) << (k + i)
                 | (mask >> (m + k) & 1) << (k + m - 1) for _, mask in tight]
        cell_cone = _Cone(dom_rows + diffs + [home], [g for g, _ in tight], masks,
                          [drop_t(l) for l in cone.lines], nverts)
        hrep = HRep(n, domain.halfspaces + tuple((vec_sub(aj, ai), bi - bj)
                                                 for j, (aj, bj) in enumerate(pieces) if j != i))
        cells.append(((ai, bi), Polyhedron._carrying(hrep, cell_cone)))
    return tuple(cells)


def _check_coercive(epi: Polyhedron, n: int) -> bool:
    """Whether every sublevel set of the nonempty epigraph ``epi`` is
    bounded: no line, and every ray rises in t, read off its integer cone."""
    cone = epi._integer()
    return not cone.lines and all(g[n] > 0 for g in cone.gens[cone.nverts:])


def _build(n: int, pieces, domain: HRep, coercive: bool) -> PWAConvex:
    """max(pieces) on ``domain``, kept to the distinct pieces that are active somewhere.

    The active set of piece i is the face of the epigraph where its row is
    tight.  A nonempty face contains a minimal face, and a valid row is
    constant along the lines, so piece i is active somewhere iff it is
    tight at some vertex of the epigraph: one double description decides
    every piece, by the incidence masks of its vertices (row i of the
    epigraph is piece i).  When none is pruned, that epigraph is the
    function's; with no vertex at all the function is improper.  The pieces
    are ``(tuple of Fraction, Fraction)``: ``make`` converts at the boundary.
    """
    pieces = tuple(dict.fromkeys(pieces))
    epi = _epigraph_of(n, pieces, domain)
    cone = epi._integer()
    tight = 0
    for mask in cone.masks[:cone.nverts]:
        tight |= mask
    active = tuple(piece for i, piece in enumerate(pieces) if tight >> i & 1)
    if 0 < len(active) < len(pieces):
        pieces, epi = active, _epigraph_of(n, active, domain)
    if epi.is_empty:
        raise EmptyDomain("empty domain: the function is improper")
    if coercive and not _check_coercive(epi, n):
        raise NotCoercive("some sublevel set is unbounded")
    return PWAConvex(n, pieces, domain, epi, coercive)


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
    return _build(n, pieces, domain, coercive)


def from_epigraph(epi: Polyhedron, *, coercive: bool = True) -> PWAConvex:
    """Function whose epigraph is the given polyhedron in R^{n+1}.

    The polyhedron must actually be an epigraph: recession direction
    (0, ..., 0, 1) and bounded below in the last coordinate.  Both are
    checked on the rows of its own double description: for a nonempty
    polyhedron the recession cone is {y : A y <= 0} for any H-rep A, so some
    row has a positive (or a negative) t-coefficient iff some row of the
    canonical H-rep has.  The pieces, domain and epigraph are built from the
    canonical H-rep (``_build_from_rows``) the first time one of them is
    read.
    """
    n = epi.d - 1
    if epi.is_empty:
        raise EmptyDomain("empty epigraph")
    rows = epi._integer().rows
    if any(row[n] > 0 for row in rows):
        raise ValueError("polyhedron is not an epigraph (violates recession (0,1))")
    if not any(row[n] < 0 for row in rows):
        raise ValueError("polyhedron is unbounded below; not the epigraph of a proper function")
    if coercive and not _check_coercive(epi, n):
        raise NotCoercive("some sublevel set is unbounded")
    u = object.__new__(PWAConvex)  # pieces, domain and epigraph come from __getattr__
    u.n, u.coercive, u._given = n, coercive, epi
    return u


def _build_from_rows(epi: Polyhedron, n: int, coercive: bool) -> PWAConvex:
    """``_build`` of the pieces (t-coefficient < 0) and domain rows
    (t-coefficient 0) of the canonical H-rep of the epigraph ``epi``, which
    ``from_epigraph`` has checked."""
    pieces = []
    dom_rows = []
    for w, c in epi.canonical_hrep.halfspaces:
        a, tc = w[:n], w[n]
        if tc < 0:
            pieces.append((tuple(x / -tc for x in a), c / tc))
        else:
            dom_rows.append((a, c))
    return _build(n, pieces, HRep(n, tuple(dom_rows)), coercive)


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
    Requires K bounded with 0 in K.  The function at t = 0 is worked out
    once per body and kept on K, next to its other lazily filled values;
    any other t translates that kept function.
    """
    if k._cone_function is None:
        n = k.d
        origin = tuple(Fraction(0) for _ in range(n))
        if not k.contains(origin):
            raise OriginNotInBody("cone function needs the origin inside the body")
        if not k.is_bounded:
            raise ValueError("cone function needs a bounded body")
        # pos(K x {1}): the apex (0, 0) and a ray (x, x0) per vertex generator
        # (x, x0) of K, homogenized in R^(n+2) as (0, 0, 1) and (x, x0, 0)
        kc = k._integer()
        epi = Polyhedron(vrep_to_hrep(_Generators(
            n + 1, [(0,) * (n + 1) + (1,)], [g + (0,) for g in kc.gens[:kc.nverts]], [])))
        k._cone_function = from_epigraph(epi, coercive=True)
    u = k._cone_function
    return u.translate_graph(t) if Fraction(t) != 0 else u


def scale_values(u: PWAConvex, k) -> PWAConvex:
    """k u for rational k > 0: the pieces (k a, k b) on the same domain.

    Equal to ``make`` of those pieces.  When u's epigraph is pointed, that is
    without a double description: the epigraph is the image of u's under
    (x, t) -> (x, k t), a positive diagonal map, so it carries u's
    (``_affine_image``; with k = p / q, generators map by
    diag(q, ..., q, p, q) and rows by diag(p, ..., p, q, p)).  Such a map
    keeps the sign of every row value on every generator, so the carried
    cone is the one a fresh double description of the scaled rows would
    give, and every piece stays active where it was.  An epigraph with lines
    is built afresh: its line basis and ray representatives are read off an
    echelon form, which the map does not carry over.
    """
    k = Fraction(k)
    if k <= 0:
        raise ValueError("scale_values requires k > 0")
    n = u.n
    pieces = tuple((vec_scale(k, a), k * b) for a, b in u.pieces)
    if u.epigraph._integer().lines:
        return _build(n, pieces, u.domain, u.coercive)
    p, q = k.numerator, k.denominator
    epi = _affine_image(u.epigraph, _diag([q] * n + [p, q]), _diag([p] * n + [q, p]),
                        _epigraph_rows(pieces, u.domain))
    return PWAConvex(n, pieces, u.domain, epi, u.coercive)


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def sup(u: PWAConvex, v: PWAConvex) -> PWAConvex:
    """Pointwise maximum; epigraph intersection.  An empty common domain
    raises :class:`EmptyDomain` from ``_build``."""
    if u.n != v.n:
        raise DimensionMismatch("dimension mismatch in sup")
    dom = HRep(u.n, u.domain.halfspaces + v.domain.halfspaces)
    return _build(u.n, u.pieces + v.pieces, dom, u.coercive or v.coercive)


def inf_if_convex(u: PWAConvex, v: PWAConvex) -> PWAConvex:
    """Pointwise minimum, provided it is convex.

    The minimum is convex exactly when conv(epi u  U  epi v) equals the union
    of the epigraphs.  The hull is the polar double description of both
    epigraphs' integer generators (``_generators``), as in ``minkowski_sum``.
    The check is exact: for every facet pair (g of epi u,
    h of epi v), the hull restricted to the outside of both facets must be
    empty up to faces: empty, or tight on g or on h throughout.  These
    restrictions come from ``cut_by``, which continues the hull's double
    description by one step per extra row when the hull is pointed and flags
    the rows that are tight throughout from the incidence masks of those
    steps.

    Only pairs of *open* facets are checked: g is open when the hull has a
    point strictly beyond it, i.e. when its one-row restriction is not tight
    on g.  The restriction of a pair lies inside that of each of its facets,
    so a pair with a closed facet passes, and the open rows of epi v are not
    needed when epi u has none.  The pairs are checked in the order of the
    full product, so the first failing pair is the same.  On failure raises
    :class:`NotConvexMin` with a witness point x where min(u, v)(x) exceeds
    the hull function.
    """
    if u.n != v.n:
        raise DimensionMismatch("dimension mismatch in inf")
    n = u.n
    eu, ev = u.epigraph, v.epigraph
    gu, gv = _generators(eu), _generators(ev)
    hull = Polyhedron(vrep_to_hrep(_Generators(n + 1, gu.verts + gv.verts, gu.rays + gv.rays,
                                               gu.lines + gv.lines)))

    def open_outsides(epi: Polyhedron) -> list:
        outsides = [(tuple(-x for x in g), -cg) for g, cg in epi.canonical_hrep.halfspaces]
        flags = cut_by(hull, ([row] for row in outsides))
        return [row for row, (_, (tight,)) in zip(outsides, flags) if not tight]

    open_g = open_outsides(eu)
    open_h = open_outsides(ev) if open_g else []
    for q, (tight_g, tight_h) in cut_by(hull, product(open_g, open_h)):
        if not (tight_g or tight_h):  # an empty q is tight on both rows
            raise NotConvexMin(q.relint_point()[:n])
    return from_epigraph(hull, coercive=u.coercive and v.coercive)


def pwa_equal(u: PWAConvex, v: PWAConvex) -> bool:
    """Exact function equality: the epigraphs, read as sets, are equal."""
    return u.n == v.n and u._epigraph_set() == v._epigraph_set()


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
