"""Integral valuations of piecewise-affine convex functions.

The central object is the level-volume profile V(t) = vol_n({u <= t}): a
piecewise polynomial of degree <= n whose breakpoints s_0 < ... < s_p are the
levels of the epigraph vertices of u.  It is the derivative of
W(t) = vol_{n+1}{(x, y) : u(x) <= y <= t}.  The epigraph is capped at
T = s_p + 1 by one step of its own double description (``cut_by``) and
triangulated once; a simplex with volume vol and vertex heights
h_0..h_{n+1} contributes (-1)^{n+1} vol [h_0, ..., h_{n+1}] (t - .)_+^{n+1}
to W (a confluent divided difference, polynomial in t between breakpoints;
Baldoni, Berline, De Loera, Koeppe, Vergne, Math. Comp. 80, 2011).  The
sum runs on integers: the simplex weights are integer determinants of the
triangulation's integer points, summed per sorted height tuple, and each
tuple is expanded once with integer Taylor weights (``_taylor_weights``)
over heights scaled to integers, so a Fraction is built only for each
coefficient a tuple adds.  The result is certified by V(s_0) =
vol_n(argmin u), computed separately from the sublevel set, and continuity
of V at every breakpoint.

The integral valuation is then the layer-cake sum

    Z_zeta(u) = zeta(t_min) * vol_n(argmin u) + sum_I Integral_I zeta(t) V'(t) dt,

exact over the rationals whenever zeta is polynomial-compact.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CertificateFailed, NotCoercive, UnboundedPolyhedron
from .functions import PWAConvex, cone_function, indicator_function
from .growth import (GrowthFunction, Poly, padd, pdiff, peval, pint, pmul,
                     poly_nonneg_on, tail_integral)
from .polyhedra import (Polyhedron, _integer_simplices, _lattice_det, cut_by,
                        volume)


# ---------------------------------------------------------------------------
# Level-volume profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelVolumeProfile:
    n: int
    t_min: Fraction
    atom: Fraction                      # vol_n(argmin u); 0 unless argmin is full-dim
    breakpoints: tuple[Fraction, ...]   # t_min = s_0 < ... < s_p
    interval_polys: tuple[Poly, ...]    # on [s_i, s_{i+1}]
    final_poly: Poly                    # on [s_p, inf)

    def poly_at(self, t) -> Poly:
        t = Fraction(t)
        for i, p in enumerate(self.interval_polys):
            if t <= self.breakpoints[i + 1]:
                return p
        return self.final_poly

    def value(self, t) -> Fraction:
        t = Fraction(t)
        if t < self.t_min:
            return Fraction(0)
        return peval(self.poly_at(t), t)

    @cached_property
    def _derivatives(self) -> tuple[Poly, ...]:
        """V' on each interval, and on [s_p, inf) last."""
        return tuple(pdiff(p) for p in self.interval_polys + (self.final_poly,))

    def verify_monotone(self) -> bool:
        """Exact certificate that V is nondecreasing on every interval."""
        *inner, last = self._derivatives
        for i, dp in enumerate(inner):
            if not poly_nonneg_on(dp, self.breakpoints[i], self.breakpoints[i + 1]):
                return False
        return poly_nonneg_on(last, self.breakpoints[-1], None)


def _taylor_weights(z: int, mult: dict[int, int]) -> tuple[list[int], int, int]:
    """Taylor coefficients of prod_{w != z} (x - w)^(-mult[w]) at x = z, up to
    order mult[z] - 1, over integer heights: the weights of the values
    f^(m)(z) / m! in the divided difference of f over the nodes ``mult``.

    Returns ``(a, q, p)``: the coefficient of (x - z)^l is a[l] / (q p^l).
    With delta_w = z - w, p = prod delta_w and q = prod delta_w^mult[w],
    substituting x - z = p s turns each factor (1 + (x - z) / delta_w)^(-mult[w])
    into an integer series in s, so the product is one integer convolution.
    """
    order = mult[z]
    deltas = [(z - w, mu) for w, mu in mult.items() if w != z]
    p = math.prod(dw for dw, _ in deltas)
    q = math.prod(dw ** mu for dw, mu in deltas)
    series = [1] + [0] * (order - 1)
    for dw, mu in deltas:
        c = -(p // dw)
        factor = [math.comb(mu + l - 1, l) * c ** l for l in range(order)]
        series = [sum(series[i] * factor[l - i] for i in range(l + 1)) for l in range(order)]
    return series, q, p


_PROFILES = weakref.WeakKeyDictionary()  # function -> its profile, while the function lives


def level_volume_profile(u: PWAConvex) -> LevelVolumeProfile:
    """Exact piecewise-polynomial t -> vol_n({u <= t}); cached per function."""
    if u in _PROFILES:
        return _PROFILES[u]
    if not u.coercive:
        raise NotCoercive("level-volume profile requires a coercive function")
    n = u.n
    d = n + 1
    levels = sorted({v[n] for v in u.epigraph.vrep.vertices})
    t_min = levels[0]
    atom = volume(u.sublevel(t_min))

    # V = W' with W(t) = vol_{n+1}{(x, y) : u(x) <= y <= t}.  Cap the epigraph
    # at top = s_p + 1 by one DD step and triangulate it once: a simplex with
    # heights h_0..h_d adds (-1)^d vol [h_0..h_d] (t - .)_+^d to W.  That
    # divided difference depends only on the sorted heights, so the integer
    # |det| of each simplex (its volume times d! L^d, L the scale of the
    # integer points) is summed per height tuple first, and each tuple is
    # expanded once, at its distinct heights z (multiplicity mu) below the
    # cap: sum_z sum_{m < mu} series_z[mu - 1 - m] f^(m)(z) / m!.  For t in
    # (s_i, s_{i+1}) the kernel f is (t - x)^d near z <= s_i and 0 near the
    # higher heights.  So on that interval W is, up to a constant that W'
    # drops, the sum over levels z <= s_i of sum_j shifted[z][j] (t - z)^j.
    # Heights are taken as integers times 1/H, H the lcm of the level
    # denominators (``shifted`` is keyed by them), so series_z[l] is
    # H^(d + 1 - mu + l) a[l] / (q p^l) with (a, q, p) from _taylor_weights.
    top = levels[-1] + 1
    scale_h = math.lcm(*(z.denominator for z in levels))
    hlevels = [z.numerator * (scale_h // z.denominator) for z in levels]
    up = tuple(Fraction(0) for _ in range(n)) + (Fraction(1),)
    capped, _ = next(cut_by(u.epigraph, [[(up, top)]]))
    shifted = {z: [Fraction(0)] * (d + 1) for z in hlevels}
    if capped.is_full_dimensional:
        pts, scale, simplices = _integer_simplices(capped)
        heights = [pt[n] * scale_h // scale for pt in pts]
        weights: Counter[tuple[int, ...]] = Counter()
        for simplex in simplices:
            weights[tuple(sorted(heights[i] for i in simplex))] += _lattice_det(pts, simplex)
        cap = hlevels[-1] + scale_h
        for key, weight in weights.items():
            mult = Counter(key)
            for z, mu in mult.items():
                if z == cap:
                    continue
                series, q, p = _taylor_weights(z, mult)
                for m in range(mu):  # f^(m)(z) / m! = C(d, m) (-1)^m (t - z)^(d - m)
                    l = mu - 1 - m
                    shifted[z][d - m] += Fraction(
                        (-1) ** m * math.comb(d, m) * weight * series[l]
                        * scale_h ** (d + 1 - mu + l), q * p ** l)
        sign = Fraction((-1) ** d, math.factorial(d) * scale ** d)
        shifted = {z: [sign * c for c in cs] for z, cs in shifted.items()}
    polys: list[Poly] = []  # V = W' on [s_i, s_{i+1}], and on [s_p, inf) last
    acc: Poly = ()
    for z, hz in zip(levels, hlevels):
        c = shifted[hz]  # d/dt sum_j c_j (t - z)^j, in powers of t
        acc = padd(acc, tuple(sum(j * c[j] * math.comb(j - 1, i) * (-z) ** (j - 1 - i)
                                  for j in range(i + 1, d + 1)) for i in range(d)))
        polys.append(acc)

    left = atom  # V is right-continuous at the minimum level
    for i, p in enumerate(polys):
        right = peval(p, levels[i])
        if right != left:
            raise CertificateFailed(
                f"volume profile discontinuous at level {levels[i]}: {left} -> {right}")
        if i + 1 < len(levels):
            left = peval(p, levels[i + 1])
    prof = LevelVolumeProfile(n, t_min, atom, tuple(levels), tuple(polys[:-1]), polys[-1])
    _PROFILES[u] = prof
    return prof


# ---------------------------------------------------------------------------
# Integral / minimum / combined valuations
# ---------------------------------------------------------------------------

def _layer_cake(zeta: GrowthFunction, prof: LevelVolumeProfile, start: Fraction):
    """sum of Integral zeta(t) V'(t) dt over [start, inf); Fraction unless the
    tail contributes."""
    cuts = sorted({c for c in prof.breakpoints + zeta.breakpoints if c > start})
    cuts = [start] + cuts
    derivs, bps = prof._derivatives, prof.breakpoints
    exact = Fraction(0)
    fl = 0.0
    has_float = False
    i = 0  # V' on (a, b) is derivs[i], i the first interval with s_{i+1} >= b
    for a, b in zip(cuts, cuts[1:]):
        while i + 1 < len(bps) and bps[i + 1] < b:
            i += 1
        vp = derivs[i]
        mid = (a + b) / 2
        kind, payload = zeta.region_at(mid)
        if kind in ("left", "piece") and payload and vp:
            exact += pint(pmul(payload, vp), a, b)
        elif kind == "tail" and vp:
            lam, coeffs = payload
            fl += (tail_integral(lam, pmul(coeffs, vp), a)
                   - tail_integral(lam, pmul(coeffs, vp), b))
            has_float = True
    # Final ray [cuts[-1], inf): past every breakpoint of both functions, so
    # V' is the final profile polynomial and zeta is its tail (or zero).
    a = cuts[-1]
    vp = derivs[-1]
    if zeta.tail is not None and vp:
        lam, coeffs = zeta.tail
        fl += tail_integral(lam, pmul(coeffs, vp), a)
        has_float = True
    return float(exact) + fl if has_float else exact


def integral_valuation(zeta: GrowthFunction, u: PWAConvex):
    """Z_zeta(u) = Integral_{dom u} zeta(u(x)) dx, via the level profile."""
    prof = level_volume_profile(u)
    atom_term = zeta.eval(prof.t_min) * prof.atom
    rest = _layer_cake(zeta, prof, prof.t_min)
    if isinstance(atom_term, Fraction) and isinstance(rest, Fraction):
        return atom_term + rest
    return float(atom_term) + float(rest)


def min_valuation(zeta0: GrowthFunction, u: PWAConvex):
    """zeta0(min u)."""
    return zeta0.eval(u.min_value()[0])


def combined_valuation(zeta0: GrowthFunction, zetan: GrowthFunction, u: PWAConvex):
    """zeta0(min u) + Integral zeta_n(u(x)) dx (the classified valuation form)."""
    a = min_valuation(zeta0, u)
    b = integral_valuation(zetan, u)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def tail_mass(zeta: GrowthFunction, u: PWAConvex, t):
    """Integral over {u > t} of zeta(u(x)) dx (the truncated remainder)."""
    t = Fraction(t)
    prof = level_volume_profile(u)
    if t < prof.t_min:
        return integral_valuation(zeta, u)
    return _layer_cake(zeta, prof, t)


def truncation_level(zeta: GrowthFunction, u: PWAConvex, eps: float):
    """First probed t0 with |tail_mass| < eps, probing the last breakpoint
    s_p and then s_p + 1, s_p + 2, ... (at most 10^4 probes)."""
    prof = level_volume_profile(u)
    t = prof.breakpoints[-1]
    for _ in range(10 ** 4):
        if abs(float(tail_mass(zeta, u, t))) < eps:
            return t
        t += 1
    raise ValueError("no truncation level found (moment too heavy for eps)")


# ---------------------------------------------------------------------------
# Growth extraction and the Monte Carlo oracle
# ---------------------------------------------------------------------------

def extract_growth(zfn: Callable[[PWAConvex], object], n: int, tgrid: Sequence):
    """Sample the growth functions of an opaque valuation.

    psi0(t) = Z(Ind_{origin} + t); psi_n(t) = (Z(l_Q + t) - psi0(t)) / vol(Q)
    with Q the unit cube (vol 1).  Returns (psi0 samples, psi_n samples).
    """
    origin = Polyhedron.from_generators(n, [tuple(Fraction(0) for _ in range(n))])
    cube = Polyhedron.box([(0, 1)] * n)
    lq = cone_function(cube)
    psi0, psin = [], []
    for t in tgrid:
        t = Fraction(t)
        z0 = zfn(indicator_function(origin, t))
        zq = zfn(lq.translate_graph(t))
        psi0.append(z0)
        psin.append(zq - z0)
    return psi0, psin


def mc_oracle(zeta: GrowthFunction, u: PWAConvex, samples: int = 10 ** 6,
              seed: int = 0, truncation=None) -> tuple[float, float]:
    """Uniform Monte Carlo estimate of Integral zeta(u) with standard error.

    Samples the bounding box of dom u (bounded domains) or of the sublevel
    set at ``truncation`` (the estimate then covers {u <= truncation} only).
    Deterministic per seed.
    """
    import numpy as np
    dom = u.domain_polyhedron()
    if dom.is_bounded:
        region = dom
    elif truncation is not None:
        region = u.sublevel(truncation)
    else:
        raise UnboundedPolyhedron("unbounded domain: supply a truncation level")
    verts = region.vrep.vertices
    n = u.n
    lo = [float(min(v[i] for v in verts)) for i in range(n)]
    hi = [float(max(v[i] for v in verts)) for i in range(n)]
    box_vol = 1.0
    for a, b in zip(lo, hi):
        box_vol *= b - a
    if box_vol == 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, n))
    amat = np.array([[float(c) for c in a] for a, _ in u.pieces])
    bvec = np.array([float(b) for _, b in u.pieces])
    uvals = (pts @ amat.T + bvec).max(axis=1)
    inside = np.ones(samples, dtype=bool)
    for c, d in u.domain.halfspaces:
        inside &= pts @ np.array([float(x) for x in c]) <= float(d) + 1e-12
    if truncation is not None:
        inside &= uvals <= float(truncation) + 1e-12
    f = np.where(inside, zeta.eval_array(uvals), 0.0)
    estimate = box_vol * float(f.mean())
    stderr = box_vol * float(f.std(ddof=1)) / math.sqrt(samples)
    return estimate, stderr
