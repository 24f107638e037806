"""Growth functions: piecewise-polynomial weights with optional exponential
tails, their moments, and the cone growth function psi derived from them.

A :class:`GrowthFunction` represents

    zeta(t) = left constant           on (-inf, t0]
            = polynomial piece_i(t)   on [t_i, t_{i+1}]
            = sum_k c_k t^k e^{-lam t} on [t_m, inf)   (optional tail; else 0)

with rational breakpoints and coefficients.  Purely polynomial compactly
supported instances ("polynomial-compact") admit exact rational integration;
tails are evaluated in closed form as rational * e^{-lam * a} (float).

One routine, :func:`integral_against`, integrates zeta against a piecewise
polynomial f from a start level to infinity: the moments take f = t^k, and
the valuation's layer cake takes f = V', the derivative of the level-volume
profile.  The cone growth function of the induced integral valuation is

    psi_n(t) = n * Integral_t^inf (r - t)^(n-1) zeta(r) dr = n! * I^n zeta(t)

with I f(t) = Integral_t^inf f(r) dr (Cauchy's formula for repeated
integration), so for polynomial-compact zeta it is one exact integration
step applied n times and scaled by n!.  The inverse relation zeta =
((-1)^n / n!) * psi_n^{(n)}, that is D^n I^n = (-1)^n, is checked exactly,
piece by piece.  Nonnegativity certificates use Sturm sequences over the
rationals; mpmath is imported only to integrate exponential tails.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from math import factorial
from typing import Sequence

from .reports import LawReport, record

Poly = tuple[Fraction, ...]  # ascending coefficients


# ---------------------------------------------------------------------------
# Exact polynomial helpers
# ---------------------------------------------------------------------------

def peval(c: Sequence, t) -> Fraction:
    t = Fraction(t)
    acc = Fraction(0)
    for coef in reversed(tuple(c)):
        acc = acc * t + coef
    return acc


def ptrim(c: Sequence) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a: Sequence, b: Sequence) -> Poly:
    n = max(len(a), len(b))
    return ptrim(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                       for i in range(n)))


def pscale(s, a: Sequence) -> Poly:
    s = Fraction(s)
    return ptrim(tuple(s * x for x in a))


def pmul(a: Sequence, b: Sequence) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(tuple(out))


def pdiff(c: Sequence) -> Poly:
    return ptrim(tuple(Fraction(i) * c[i] for i in range(1, len(c))))


def pantider(c: Sequence) -> Poly:
    return (Fraction(0),) + tuple(Fraction(x, i + 1) for i, x in enumerate(c))


def _float_at(c: Poly, p: int, q: int) -> float:
    """float(peval(c, p / q)), q > 0: integer Horner over one denominator,
    then one ``int / int``, which rounds correctly as ``Fraction`` does."""
    if not c:
        return 0.0
    d = math.lcm(*(x.denominator for x in c))
    num = 0
    for k, x in enumerate(reversed(c)):
        num = num * p + x.numerator * (d // x.denominator) * q ** k
    return num / (d * q ** (len(c) - 1))


def tail_integral_exact(lam: Fraction, coeffs: Sequence, a: Fraction) -> Fraction:
    """R with Integral_a^inf (sum c_m t^m) e^{-lam t} dt = R * e^{-lam a}:
    R = sum c_m R_m, R_m = (a^m + m R_(m-1)) / lam, R_(-1) = 0 (by parts)."""
    lam, a = Fraction(lam), Fraction(a)
    total = r = Fraction(0)
    for m, c in enumerate(coeffs):
        r = (a ** m + m * r) / lam
        total += c * r
    return total


def tail_integral(lam, coeffs, a) -> float:
    return float(tail_integral_exact(lam, coeffs, a)) * math.exp(-float(lam) * float(a))


def _pdivmod(a: Sequence, b: Sequence) -> tuple[Poly, Poly]:
    """(quotient, remainder) of a by the nonzero polynomial b."""
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = f
        for i, y in enumerate(b):
            r[k + i] -= f * y
        r = list(ptrim(r[:-1]))
    return ptrim(q), tuple(r)


def _sign_changes(seq: Sequence[Poly], t: Fraction) -> int:
    signs = [v > 0 for v in (peval(f, t) for f in seq) if v != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def poly_nonneg_on(c: Sequence, a, b) -> bool:
    """Exact certificate that the polynomial is >= 0 on [a, b] (b=None: +inf).

    The Sturm sequence of the squarefree part q = p / gcd(p, p') counts the
    distinct roots of p in (lo, hi].  Bisection from [a, b] isolates them; p
    is evaluated at the ends, at every bisection point and at one point of
    each root-free gap, and p has constant sign between consecutive roots.
    For b=None a positive leading coefficient is needed and the search stops
    at the Cauchy bound, beyond which p has no root.
    """
    c = ptrim(tuple(Fraction(x) for x in c))
    if not c:
        return True
    a = Fraction(a)
    if b is None:
        if len(c) == 1 or c[-1] < 0:
            return c[-1] >= 0
        b = max(a, 1 + max(abs(x / c[-1]) for x in c[:-1]))
    b = Fraction(b)
    pa, pb = peval(c, a), peval(c, b)
    if pa < 0 or pb < 0:
        return False
    g = c
    h = pdiff(c)
    while h:
        g, h = h, _pdivmod(g, h)[1]
    q = _pdivmod(c, g)[0]
    seq = [q, pdiff(q)]
    while seq[-1]:
        seq.append(pscale(-1, _pdivmod(seq[-2], seq[-1])[1]))
    stack = [(a, b, pa, pb)] if a < b else []
    while stack:
        lo, hi, plo, phi = stack.pop()
        # distinct roots strictly inside (lo, hi)
        inside = _sign_changes(seq, lo) - _sign_changes(seq, hi) - (phi == 0)
        if inside == 1 and plo and phi:
            continue  # both sides of the one root take the (positive) end signs
        mid = (lo + hi) / 2
        pm = peval(c, mid)
        if pm < 0:
            return False
        if inside:
            stack += [(lo, mid, plo, pm), (mid, hi, pm, phi)]
    return True


# ---------------------------------------------------------------------------
# GrowthFunction
# ---------------------------------------------------------------------------

@record
class GrowthFunction:
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Poly, ...]        # len(breakpoints) - 1
    left: Poly                      # on (-inf, breakpoints[0]]
    tail: tuple[Fraction, Poly] | None  # (lam, coeffs) on [breakpoints[-1], inf)
    nonnegative: bool = False

    @property
    def sup_support(self) -> Fraction:
        """Least s with the function identically 0 on [s, inf) (tail-free only)."""
        if self.tail is not None:
            raise ValueError("tailed growth function has unbounded support")
        for i in range(len(self.pieces) - 1, -1, -1):
            if ptrim(self.pieces[i]):
                return self.breakpoints[i + 1]
        return self.breakpoints[0]

    def region_at(self, t):
        """('left'|'piece'|'tail'|'zero', payload) describing the formula at t."""
        t = Fraction(t)
        b = self.breakpoints
        # Pieces own their closed intervals: the canonical weight 1 on [0, 1]
        # evaluates to 1 at both endpoints.
        if t < b[0] or (t == b[0] and not self.pieces and self.tail is None):
            return ("left", self.left)
        for i in range(len(self.pieces)):
            if t <= b[i + 1]:
                return ("piece", self.pieces[i])
        if self.tail is not None:
            return ("tail", self.tail)
        return ("zero", ())

    def eval(self, t):
        """Exact rational in the polynomial regions; float on the tail."""
        kind, payload = self.region_at(t)
        if kind == "tail":
            lam, coeffs = payload
            return float(peval(coeffs, t)) * math.exp(-float(lam) * float(t))
        return peval(payload, t)

    def eval_float(self, t) -> float:
        """``float(self.eval(t))`` for a float, int or Fraction t, in integers:
        t = p / q exactly, the region picked by cross-multiplication."""
        p, q = t.as_integer_ratio()
        sign = [p * x.denominator - x.numerator * q for x in self.breakpoints]  # of t - x
        if sign[0] < 0 or (sign[0] == 0 and not self.pieces and self.tail is None):
            return _float_at(self.left, p, q)
        for piece, s in zip(self.pieces, sign[1:]):
            if s <= 0:
                return _float_at(piece, p, q)
        if self.tail is None:
            return 0.0
        lam, coeffs = self.tail
        return _float_at(coeffs, p, q) * math.exp(-float(lam) * float(t))

    def eval_array(self, ts):
        """Vectorized float evaluation (numpy array in, array out)."""
        import numpy as np
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        b = [float(x) for x in self.breakpoints]
        # As in region_at: with no piece and no tail, t0 belongs to the left.
        mask = ts < b[0] if self.pieces or self.tail is not None else ts <= b[0]
        if self.left:
            out[mask] = np.polyval([float(c) for c in reversed(self.left)], ts[mask])
        for i, piece in enumerate(self.pieces):
            mask = (ts >= b[i]) & (ts <= b[i + 1])
            if piece:
                out[mask] = np.polyval([float(c) for c in reversed(piece)], ts[mask])
            else:
                out[mask] = 0.0
        mask = (ts > b[-1]) if self.pieces else (ts >= b[-1])
        if self.tail is not None:
            lam, coeffs = self.tail
            out[mask] = (np.polyval([float(c) for c in reversed(coeffs)], ts[mask])
                         * np.exp(-float(lam) * ts[mask]))
        return out

    def derivative_pieces(self, order: int) -> "GrowthFunction":
        """Piecewise order-th derivative (polynomial regions only; no tail)."""
        if self.tail is not None:
            raise ValueError("derivative_pieces requires a tail-free function")
        left, pieces = self.left, self.pieces
        for _ in range(order):
            left = pdiff(left)
            pieces = tuple(pdiff(p) for p in pieces)
        return GrowthFunction(self.breakpoints, pieces, left, None, False)

    def scaled(self, s) -> "GrowthFunction":
        return GrowthFunction(self.breakpoints, tuple(pscale(s, p) for p in self.pieces),
                              pscale(s, self.left), None if self.tail is None else
                              (self.tail[0], pscale(s, self.tail[1])), False)


def make_growth(breakpoints: Sequence, pieces: Sequence, *, left_constant=0,
                tail=None, require_nonnegative: bool = False) -> GrowthFunction:
    """Validated growth function.

    ``pieces`` are ascending-coefficient polynomials between consecutive
    breakpoints; ``left_constant`` is the value on (-inf, t0]; ``tail`` is an
    optional (lam, coeffs) exponential tail on [t_m, inf).  Continuity is
    enforced exactly where two polynomial pieces meet.  The junctions at the
    support edges (the left constant at t0, the drop to zero or to the tail
    at t_m) are part of the definition and may jump, as e^{-t} on [0, inf)
    does at 0, so a tail is accepted as given wherever it starts.
    """
    bp = tuple(Fraction(b) for b in breakpoints)
    if not bp:
        raise ValueError("need at least one breakpoint")
    if any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
        raise ValueError("breakpoints must be strictly increasing")
    ps = tuple(ptrim(tuple(Fraction(c) for c in p)) for p in pieces)
    if len(ps) != len(bp) - 1:
        raise ValueError("need exactly one polynomial piece per breakpoint interval")
    left = ptrim((Fraction(left_constant),))
    if tail is not None:
        lam = Fraction(tail[0])
        if lam <= 0:
            raise ValueError("tail decay rate must be positive")
        tail = (lam, ptrim(tuple(Fraction(c) for c in tail[1])))
    # Interior breakpoints only: the canonical weight 1 on [0, 1] jumps at both edges.
    for i in range(1, len(ps)):
        if peval(ps[i - 1], bp[i]) != peval(ps[i], bp[i]):
            raise ValueError(f"discontinuous at breakpoint {bp[i]}")
    nonneg = False
    if require_nonnegative:
        ok = (not left or left[0] >= 0)
        for i, p in enumerate(ps):
            ok = ok and poly_nonneg_on(p, bp[i], bp[i + 1])
        if tail is not None:
            ok = ok and poly_nonneg_on(tail[1], bp[-1], None)
        if not ok:
            raise ValueError("nonnegativity certificate failed")
        nonneg = True
    return GrowthFunction(bp, ps, left, tail, nonneg)


def zero_growth() -> GrowthFunction:
    return GrowthFunction((Fraction(0),), (), (), None, True)


# ---------------------------------------------------------------------------
# Integrals of zeta against a piecewise polynomial
# ---------------------------------------------------------------------------

def integral_against(zeta: GrowthFunction, breaks: tuple[Fraction, ...],
                     polys: Sequence[Poly], start: Fraction):
    """Integral_start^inf zeta(t) f(t) dt, f the piecewise polynomial that is
    polys[i] up to breaks[i + 1] and polys[-1] past breaks[-1].

    The cuts are the breakpoints of f and of zeta above ``start``, met by
    walking both increasing lists with one index each: on the interval
    (a, b) that ends at the next cut b, f is polys[i - 1] (polys[0] for
    i = 0), i the number of breaks below b, and zeta is its left constant
    if no breakpoint of zeta is below b, its tail (or zero) if all are, and
    otherwise piece j - 1, j the number of them below b.

    Exact Fraction unless the tail contributes; then float(exact) plus the
    tail terms, summed interval by interval in float.  The exact part runs on
    ints: on each interval (a, b) the product of the zeta piece and f is
    scaled to integer coefficients over one denominator, its antiderivative
    by lcm(1..m) on top, and a and b are put over one denominator, so
    Integral_a^b is one integer over one denominator.  The sum is one
    integer pair, and one Fraction is built at the end.
    """
    zb, nb = zeta.breakpoints, len(breaks)
    i, j = bisect_right(breaks, start), bisect_right(zb, start)
    num, den = 0, 1  # the exact part
    fl = 0.0
    has_float = False
    a = start
    while i < nb or j < len(zb):
        b = breaks[i] if j == len(zb) or (i < nb and breaks[i] < zb[j]) else zb[j]
        fp = polys[max(i - 1, 0)]
        payload = zeta.tail if j == len(zb) else zeta.pieces[j - 1] if j else zeta.left
        if j < len(zb) and payload and fp:
            q = math.lcm(*(c.denominator for c in (*payload, *fp)))
            zs, fs = ([c.numerator * (q // c.denominator) for c in p] for p in (payload, fp))
            prod = [0] * (len(zs) + len(fs) - 1)  # q^2 zeta f
            for r, zc in enumerate(zs):
                for s, fc in enumerate(fs):
                    prod[r + s] += zc * fc
            # With a = y / e and b = x / e, Integral_a^b is part / pden.
            m = len(prod)
            lm = math.lcm(*range(1, m + 1))
            an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
            x, y, e = bn * ad, an * bd, ad * bd
            part = sum(lm // k * c * e ** (m - k) * (x ** k - y ** k)
                       for k, c in enumerate(prod, 1))
            pden = q * q * lm * e ** m
            new = math.lcm(den, pden)
            num, den = num * (new // den) + part * (new // pden), new
        elif j == len(zb) and payload is not None and fp:
            lam, coeffs = payload
            g = pmul(coeffs, fp)
            fl += tail_integral(lam, g, a) - tail_integral(lam, g, b)
            has_float = True
        if i < nb and breaks[i] == b:
            i += 1
        if j < len(zb) and zb[j] == b:
            j += 1
        a = b
    # Final ray [a, inf): past every breakpoint of both functions, so f is
    # polys[-1] and zeta is its tail (or zero).
    fp = polys[-1]
    if zeta.tail is not None and fp:
        lam, coeffs = zeta.tail
        fl += tail_integral(lam, pmul(coeffs, fp), a)
        has_float = True
    exact = Fraction(num, den)
    return float(exact) + fl if has_float else exact


def moment(zeta: GrowthFunction, k: int):
    """Integral_0^inf t^k zeta(t) dt; exact Fraction unless a tail contributes."""
    return integral_against(zeta, (Fraction(0),), ((Fraction(0),) * k + (Fraction(1),),),
                            Fraction(0))


# ---------------------------------------------------------------------------
# The cone growth function psi_n
# ---------------------------------------------------------------------------

def _integrate_above(b: Sequence[Fraction], pieces: Sequence[Poly],
                     left: Poly) -> tuple[tuple[Poly, ...], Poly]:
    """(pieces, left) of I f(t) = Integral_t^inf f(r) dr for the tail-free f
    that is ``left`` up to b[0], pieces[j] on [b[j], b[j + 1]] and 0 past
    b[-1].  From right to left, each piece becomes its antiderivative
    measured from its right end d, plus I f(d); the left piece likewise."""
    out: list[Poly] = []  # I f on the pieces already passed, right to left
    for p, d in reversed(tuple(zip((left, *pieces), b))):
        q = pantider(p)
        rest = peval(out[-1], d) if out else 0
        out.append(padd((peval(q, d) + rest,), pscale(-1, q)))
    return tuple(reversed(out[:-1])), out[-1]


class NumericPsi:
    """Float-path psi for tailed zeta: quadrature evaluation only."""

    def __init__(self, zeta: GrowthFunction, n: int):
        self.zeta = zeta
        self.n = n

    def eval(self, t) -> float:
        import mpmath
        t = float(t)
        n, tm, zeta = self.n, mpmath.mpf(t), self.zeta.eval_float
        cuts = [t] + [float(b) for b in self.zeta.breakpoints if float(b) > t]
        f = lambda r: (r - tm) ** (n - 1) * zeta(float(r))
        return float(n * mpmath.quad(f, cuts + [mpmath.inf]))


def psi_from_zeta(zeta: GrowthFunction, n: int):
    """psi_n(t) = n * Integral_t^inf (r - t)^(n-1) zeta(r) dr = n! * I^n zeta(t).

    Exact piecewise polynomial (a GrowthFunction with polynomial left piece)
    for polynomial-compact zeta, one :func:`_integrate_above` step applied n
    times; a quadrature-backed :class:`NumericPsi` for tailed zeta.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if zeta.tail is not None:
        return NumericPsi(zeta, n)
    pieces, left = zeta.pieces, zeta.left
    for _ in range(n):
        pieces, left = _integrate_above(zeta.breakpoints, pieces, left)
    return GrowthFunction(zeta.breakpoints, pieces, left, None, False).scaled(factorial(n))


def check_derivative_relation(zeta: GrowthFunction, n: int) -> LawReport:
    """zeta_n(t) = ((-1)^n / n!) d^n/dt^n psi_n(t), exact piecewise equality."""
    name = "derivative_relation"
    inputs = f"zeta bp={zeta.breakpoints} n={n}"
    if zeta.tail is not None:
        return LawReport(name, inputs, False, witness="tail (exact path requires polynomial-compact zeta)")
    psi = psi_from_zeta(zeta, n)
    rec = psi.derivative_pieces(n).scaled(Fraction((-1) ** n, factorial(n)))
    ok = rec.left == zeta.left and all(a == b for a, b in zip(rec.pieces, zeta.pieces))
    witness = None
    if not ok:
        for i, (a, b) in enumerate(zip(rec.pieces, zeta.pieces)):
            if a != b:
                witness = ("interval", i, a, b)
                break
        else:
            witness = ("left", rec.left, zeta.left)
    return LawReport(name, inputs, ok, witness=witness)


def check_psi_vanishes(zeta: GrowthFunction, n: int) -> LawReport:
    """psi_n identically 0 on [sup supp zeta, inf)."""
    name = "psi_vanishes_at_infinity"
    inputs = f"zeta bp={zeta.breakpoints} n={n}"
    if zeta.tail is not None:
        return LawReport(name, inputs, False, witness="tail: support not compact")
    psi = psi_from_zeta(zeta, n)
    s = zeta.sup_support
    ok = True
    witness = None
    for i, p in enumerate(psi.pieces):
        if psi.breakpoints[i] >= s and ptrim(p):
            ok, witness = False, ("interval", psi.breakpoints[i], p)
            break
    if ok and psi.eval(s) != 0:
        ok, witness = False, ("value", s)
    return LawReport(name, inputs, ok, witness=witness,
                     details={"sup_support": s})

