"""Convex conjugation, infimal convolution, epi-scaling, Moreau envelopes,
and certified linear-cone lower bounds.

All operations are exact over the rationals.  Conjugates of coercive functions
need not be coercive themselves; they are returned with ``coercive=False``
(the relaxed closed class) unless coercivity happens to hold.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from typing import Sequence

from .errors import CertificateFailed, DimensionMismatch, NotCoercive
from .functions import PWAConvex, _build, _check_coercive, from_epigraph
from .polyhedra import HRep, _int_point, _projection, minkowski_sum
from .reports import record


def conjugate(u: PWAConvex) -> PWAConvex:
    """Legendre-Fenchel conjugate u*(y) = sup_x (<y, x> - u(x)).

    Built from the epigraph generators: each epigraph vertex (x_v, t_v)
    contributes the affine piece <y, x_v> - t_v; each recession ray (r, s)
    contributes the domain halfspace <y, r> <= s; each line contributes the
    corresponding equality.  Exact.  Worked out once per function and kept
    with it, so ``biconjugate_check(u)`` after ``conjugate(u)`` builds u*
    once.
    """
    return u._derived("conjugate", lambda: _conjugate(u))


def _conjugate(u: PWAConvex) -> PWAConvex:
    n = u.n
    g = u.epigraph.vrep
    pieces = [(tuple(v[:n]), -v[n]) for v in g.vertices]
    # vertical rays (0, s) yield the trivial constraint 0 <= s; drop them
    rows = [(tuple(r[:n]), r[n]) for r in g.rays if any(x != 0 for x in r[:n])]
    for l in g.lines:
        a, s = tuple(l[:n]), l[n]
        rows.append((a, s))
        rows.append((tuple(-x for x in a), -s))
    star = _build(n, pieces, HRep(n, tuple(rows)), coercive=False)
    return PWAConvex(n, star.pieces, star.domain, star.epigraph,
                     _check_coercive(star.epigraph, n))


def biconjugate_check(u: PWAConvex) -> bool:
    """True iff u** equals u exactly (epigraph set equality)."""
    return conjugate(conjugate(u)).epigraph == u.epigraph


def inf_convolution(u: PWAConvex, v: PWAConvex) -> PWAConvex:
    """(u box v)(x) = inf_y u(x - y) + v(y); epigraph = epi u + epi v."""
    if u.n != v.n:
        raise DimensionMismatch("dimension mismatch in inf-convolution")
    epi = minkowski_sum(u.epigraph, v.epigraph)
    return from_epigraph(epi, coercive=u.coercive and v.coercive)


def epi_scale(u: PWAConvex, t) -> PWAConvex:
    """u_t(x) = t * u(x / t) for rational t > 0 (epigraph scaled by t)."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("epi_scale requires t > 0")
    pieces = tuple((a, t * b) for a, b in u.pieces)
    dom = HRep(u.n, tuple((c, t * d) for c, d in u.domain.halfspaces))
    return _build(u.n, pieces, dom, u.coercive)


def moreau_eval(u: PWAConvex, t, x: Sequence, *, budget: int = 10 ** 6) -> Fraction:
    """Exact Moreau envelope value e_t u(x) = min_y (u(y) + |x - y|^2 / (2t)).

    On the cell where the piece a.y + b is active (``u.cells``, cached per
    function), min a.y + b + |x - y|^2 / (2t) is attained at the projection
    of x - t a onto the cell; the envelope is the least of these values over
    the cells.  ``budget`` caps the subsets that one cell's projection
    examines.

    Runs on integers: with x = X / q, t = t1 / t2 and each piece the row
    (A, B) = L (a, b) of ``_integer_pieces``, x - t a is the homogeneous
    point (t2 L X - q t1 A, q t2 L), made primitive, and ``_projection``
    onto the cell's canonical rows returns y = Y / E.  The cell's value is
    then N / (2 t1 q^2 L E^2) with
    N = 2 t1 q^2 E (A.Y + B E) + t2 L |E X - q Y|^2; the values are compared
    by cross-multiplication, and the least becomes one ``Fraction``.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("moreau_eval requires t > 0")
    *xs, q = _int_point(x)
    if len(xs) != u.n:
        raise DimensionMismatch("point dimension mismatch")
    t1, t2 = t.numerator, t.denominator
    scale, prows = u._integer_pieces
    den = 2 * t1 * q * q * scale  # each value is N / (den E^2)
    rows = zip(u.pieces, prows)
    best = None
    for piece, cell in u.cells:
        row = next(r for p, r in rows if p == piece)  # the cells follow the pieces
        z = [v * t2 * scale - q * t1 * a for v, a in zip(xs, row)]
        z.append(q * t2 * scale)
        g = gcd(*z)
        *y, e = _projection(cell.canonical_hrep.int_rows, [v // g for v in z], budget)
        lin = sum(map(mul, row, y)) + row[-1] * e  # A.Y + B E
        dist = sum((v * e - q * w) ** 2 for v, w in zip(xs, y))
        num, sq = 2 * t1 * q * q * e * lin + t2 * scale * dist, e * e
        if best is None or num * best[1] < best[0] * sq:
            best = (num, sq)
    if best is None:
        raise NotCoercive("moreau_eval found no feasible cell (improper function)")
    return Fraction(best[0], den * best[1])


# ---------------------------------------------------------------------------
# Cone bounds
# ---------------------------------------------------------------------------

@record
class ConeBound:
    """Certified lower bound u(x) > a|x| + b with rational a > 0, b."""
    a: Fraction
    b: Fraction

    def holds_for(self, u: PWAConvex) -> bool:
        """Exact certificate on the epigraph generators.

        Vertices (x_v, t_v) must satisfy t_v > a|x_v| + b and recession rays
        (r, s) must satisfy s > a|r|; both checks avoid square roots by
        comparing squares.  They run on the integer generators of the
        epigraph, vertices (X, T, x0) and rays (R, S, 0), with a = p / q and
        b = m / e: a vertex passes iff G = T e - m x0 > 0 and
        (G q)^2 > (p e)^2 |X|^2, a ray iff S > 0 and (S q)^2 > p^2 |R|^2.
        """
        n = u.n
        cone = u._epigraph_set()._integer()
        if cone.lines:
            return False
        a, b = Fraction(self.a), Fraction(self.b)
        p, q, m, e = a.numerator, a.denominator, b.numerator, b.denominator
        for j, g in enumerate(cone.gens):
            if j < cone.nverts:
                gap, slope = g[n] * e - m * g[n + 1], p * e
            else:
                gap, slope = g[n], p
            if gap <= 0 or (gap * q) ** 2 <= slope * slope * sum(v * v for v in g[:n]):
                return False
        return True


def _rational_sqrt_lower(q: Fraction) -> Fraction:
    """Largest-denominator-free rational r with r^2 <= q (q > 0)."""
    num, den = q.numerator, q.denominator
    return Fraction(isqrt(num * den), den)


def cone_bound(u: PWAConvex) -> ConeBound:
    """Certified (a, b) with u(x) > a|x| + b everywhere.

    Route: coercivity puts the origin in the interior of dom u*, so a ball of
    radius 2a fits inside dom u* for a rational a > 0; then u = u** >= 2a|x| - M
    with M an exact upper bound for u* on that ball, and b = -M - 1 gives
    strict inequality.  The domain rows of u* are <y, r> <= s, one per ray
    (r, s) of epi u with r != 0, so a is read off the rays without building
    u*: a redundant row lies no nearer the origin than the facets, whose
    least distance is the radius of the largest ball at 0 in dom u*.  The
    returned certificate is re-verified exactly.  Both read the epigraph
    only as a set (``_epigraph_set``), so a function that ``from_epigraph``
    returned is not built for them.

    Both maxima run on the integer generators of the epigraph: the least
    S^2 / (4 |R|^2) over the rays (R, S, 0), and, with a = p / q, the
    greatest (2 p |X|_1 - q T) / (q x0) over the vertices (X, T, x0), each
    compared by cross-multiplication and made one ``Fraction`` at the end.
    """
    if not u.coercive:
        raise NotCoercive("cone_bound requires a coercive function")
    n = u.n
    cone = u._epigraph_set()._integer()
    least = None  # (S^2, |R|^2)
    for g in cone.gens[cone.nverts:]:
        rr = sum(v * v for v in g[:n])
        if rr == 0:
            continue
        ss = g[n] * g[n]
        if least is None or ss * least[1] < least[0] * rr:  # (2a)^2 |r|^2 <= s^2
            least = (ss, rr)
    a = Fraction(1) if least is None else _rational_sqrt_lower(Fraction(least[0], 4 * least[1]))
    if a <= 0:
        raise NotCoercive("failed to certify a positive cone slope")
    # max of u* on the 2a-ball, bounded via |<y, x_v>| <= 2a * ||x_v||_1.
    p, q = a.numerator, a.denominator
    top = None  # (2 p |X|_1 - q T, q x0)
    for g in cone.gens[:cone.nverts]:
        val, vden = 2 * p * sum(map(abs, g[:n])) - q * g[n], q * g[n + 1]
        if top is None or val * top[1] > top[0] * vden:
            top = (val, vden)
    bound = ConeBound(a, Fraction(-top[0] - top[1], top[1]))  # -m - 1
    if not bound.holds_for(u):
        raise CertificateFailed(f"cone bound {bound} fails its exact re-check")
    return bound


def uniform_cone_bound(us: Sequence[PWAConvex]) -> ConeBound:
    """Single (a, b) certified for every function in the list."""
    if not us:
        raise ValueError("uniform_cone_bound needs a nonempty list")
    bounds = [cone_bound(u) for u in us]
    combined = ConeBound(min(b.a for b in bounds), min(b.b for b in bounds))
    if not all(combined.holds_for(u) for u in us):
        raise CertificateFailed(f"uniform cone bound {combined} fails its exact re-check")
    return combined
