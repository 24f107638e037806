"""Convex conjugation, infimal convolution, epi-scaling, Moreau envelopes,
and certified linear-cone lower bounds.

All operations are exact over the rationals.  Conjugates of coercive functions
need not be coercive themselves; they are returned with ``coercive=False``
(the relaxed closed class) unless coercivity happens to hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Sequence

from .errors import BudgetExceeded, CertificateFailed, DimensionMismatch, NotCoercive
from .functions import PWAConvex, _build, _build_pruned, _check_coercive, from_epigraph
from .linalg import dot, rank, solve, vec_sub
from .polyhedra import HRep, _fracvec, minkowski_sum


def conjugate(u: PWAConvex) -> PWAConvex:
    """Legendre-Fenchel conjugate u*(y) = sup_x (<y, x> - u(x)).

    Built from the epigraph generators: each epigraph vertex (x_v, t_v)
    contributes the affine piece <y, x_v> - t_v; each recession ray (r, s)
    contributes the domain halfspace <y, r> <= s; each line contributes the
    corresponding equality.  Exact.
    """
    n = u.n
    g = u.epigraph.vrep
    pieces = [(tuple(v[:n]), -v[n]) for v in g.vertices]
    # vertical rays (0, s) yield the trivial constraint 0 <= s; drop them
    rows = [(tuple(r[:n]), r[n]) for r in g.rays if any(x != 0 for x in r[:n])]
    for l in g.lines:
        a, s = tuple(l[:n]), l[n]
        rows.append((a, s))
        rows.append((tuple(-x for x in a), -s))
    star = _build_pruned(n, pieces, HRep(n, tuple(rows)), coercive=False)
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

    Per affine cell of u (``u.cells``, cached on u) this is a convex QP; the
    minimizer is found by exhaustive KKT active-set enumeration over linearly
    independent subsets of the cell's facet rows (at most n at a time).
    ``budget`` caps the total number of subsets examined across all cells.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("moreau_eval requires t > 0")
    x = _fracvec(x)
    n = u.n
    if len(x) != n:
        raise DimensionMismatch("point dimension mismatch")
    best = None
    used = 0
    for (ai, bi), cell in u.cells:
        crows = cell.canonical_hrep.halfspaces
        y0 = vec_sub(x, tuple(t * a for a in ai))
        for k in range(0, min(n, len(crows)) + 1):
            for subset in combinations(range(len(crows)), k):
                used += 1
                if used > budget:
                    raise BudgetExceeded(f"moreau_eval exceeded the {budget}-subset budget")
                gs = [crows[s][0] for s in subset]
                cs = [crows[s][1] for s in subset]
                if k and rank(gs) < k:
                    continue
                if k:
                    gram = [[t * dot(g1, g2) for g2 in gs] for g1 in gs]
                    rhs = [dot(g, y0) - c for g, c in zip(gs, cs)]
                    lam = solve(gram, rhs)
                    if lam is None or any(l < 0 for l in lam):
                        continue
                    y = tuple(y0[j] - t * sum(lam[m] * gs[m][j] for m in range(k))
                              for j in range(n))
                else:
                    y = y0
                if not all(dot(g, y) <= c for g, c in crows):
                    continue
                diff = vec_sub(x, y)
                val = dot(ai, y) + bi + dot(diff, diff) / (2 * t)
                if best is None or val < best:
                    best = val
    if best is None:
        raise NotCoercive("moreau_eval found no feasible cell (improper function)")
    return best


# ---------------------------------------------------------------------------
# Cone bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeBound:
    """Certified lower bound u(x) > a|x| + b with rational a > 0, b."""
    a: Fraction
    b: Fraction

    def holds_for(self, u: PWAConvex) -> bool:
        """Exact certificate on the epigraph generators.

        Vertices (x_v, t_v) must satisfy t_v > a|x_v| + b and recession rays
        (r, s) must satisfy s > a|r|; both checks avoid square roots by
        comparing squares.
        """
        n = u.n
        g = u.epigraph.vrep
        if g.lines:
            return False
        for v in g.vertices:
            xv, tv = v[:n], v[n]
            gap = tv - self.b
            if gap <= 0 or gap * gap <= self.a * self.a * dot(xv, xv):
                return False
        for r in g.rays:
            rx, s = r[:n], r[n]
            if s <= 0 or s * s <= self.a * self.a * dot(rx, rx):
                return False
        return True


def _rational_sqrt_lower(q: Fraction) -> Fraction:
    """Largest-denominator-free rational r with r^2 <= q (q > 0)."""
    num, den = q.numerator, q.denominator
    return Fraction(isqrt(num * den), den)


def cone_bound(u: PWAConvex) -> ConeBound:
    """Certified (a, b) with u(x) > a|x| + b everywhere.

    Route: coercivity puts the origin in the interior of dom u*, so a ball of
    radius 2a fits inside dom u* for a rational a > 0 read off the domain
    halfspaces of the conjugate; then u = u** >= 2a|x| - M with M an exact
    upper bound for u* on that ball, and b = -M - 1 gives strict inequality.
    The returned certificate is re-verified exactly.
    """
    if not u.coercive:
        raise NotCoercive("cone_bound requires a coercive function")
    n = u.n
    star = conjugate(u)
    rows = star.epigraph.canonical_hrep.halfspaces
    # Domain rows of u* are the epigraph rows with zero t-coefficient.
    radius_sq = None
    for w, c in rows:
        if w[n] != 0:
            continue
        cc = dot(w[:n], w[:n])
        if cc == 0:
            continue
        cand = c * c / (4 * cc)  # (2a)^2 * |w|^2 <= c^2
        if radius_sq is None or cand < radius_sq:
            radius_sq = cand
    a = Fraction(1) if radius_sq is None else _rational_sqrt_lower(radius_sq)
    if a <= 0:
        raise NotCoercive("failed to certify a positive cone slope")
    # max of u* on the 2a-ball, bounded via |<y, x_v>| <= 2a * ||x_v||_1.
    verts = u.epigraph.vrep.vertices
    m = max(2 * a * sum(abs(f) for f in v[:n]) - v[n] for v in verts)
    bound = ConeBound(a, -m - 1)
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
