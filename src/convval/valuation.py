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
sum runs on Python ints: the simplex weights are integer determinants of
the triangulation's integer points, summed per sorted height tuple, and
each tuple is expanded once with integer Taylor weights
(``_taylor_weights``) over heights scaled to integers, into integer
numerators over one denominator per level.  V is taken to powers of t over
one common denominator, and a Fraction is built only for each coefficient
returned.  The result is certified, in ints, by V(s_0) = vol_n(argmin u),
computed separately, continuity of V at every breakpoint, and
Integral_{s_0}^{s_p + 1} V dt = the volume of the capped epigraph, which
sees every term of V and not only its jumps.  The argmin is the sublevel set
at s_0, carried with the double description of the epigraph's lowest face
(``_argmin_set``): its volume reads that face's vertices and masks and runs
no double description of its own.

The integral valuation is then the layer-cake sum

    Z_zeta(u) = zeta(t_min) * vol_n(argmin u) + Integral_{t_min}^inf zeta(t) V'(t) dt,

the integral taken by ``growth.integral_against`` on the profile's
breakpoints and its derivatives V', which walks them and zeta's breakpoints
in one merge.  It is exact over the rationals whenever
zeta is polynomial-compact; a tail makes it a float, and the exact and float
parts of a valuation add by Python's own Fraction/float rules.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CertificateFailed, NotCoercive, UnboundedPolyhedron
from .functions import PWAConvex, cone_function, indicator_function
from .growth import (GrowthFunction, Poly, integral_against, pdiff, peval, poly_nonneg_on,
                     ptrim)
from .polyhedra import Polyhedron, _Cone, _integer_simplices, cut_by, volume
from .reports import record


# ---------------------------------------------------------------------------
# Level-volume profile
# ---------------------------------------------------------------------------

@record
class LevelVolumeProfile:
    n: int
    t_min: Fraction
    atom: Fraction                      # vol_n(argmin u); 0 unless argmin is full-dim
    breakpoints: tuple[Fraction, ...]   # t_min = s_0 < ... < s_p
    interval_polys: tuple[Poly, ...]    # on [s_i, s_{i+1}]
    final_poly: Poly                    # on [s_p, inf)

    def poly_at(self, t) -> Poly:
        """V's polynomial at t: () below t_min, where {u <= t} is empty."""
        t = Fraction(t)
        if t < self.t_min:
            return ()
        for i, p in enumerate(self.interval_polys):
            if t <= self.breakpoints[i + 1]:
                return p
        return self.final_poly

    def value(self, t) -> Fraction:
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
    At a simple height (mult[z] == 1) the series is [1], with no convolution.
    """
    order = mult[z]
    deltas = [(z - w, mu) for w, mu in mult.items() if w != z]
    p = math.prod(dw for dw, _ in deltas)
    q = math.prod(dw ** mu for dw, mu in deltas)
    if order == 1:
        return [1], q, p
    series = [1] + [0] * (order - 1)
    for dw, mu in deltas:
        c = -(p // dw)
        factor = [math.comb(mu + l - 1, l) * c ** l for l in range(order)]
        series = [sum(series[i] * factor[l - i] for i in range(l + 1)) for l in range(order)]
    return series, q, p


def level_volume_profile(u: PWAConvex) -> LevelVolumeProfile:
    """Exact piecewise-polynomial t -> vol_n({u <= t}); cached per function."""
    if not u.coercive:
        raise NotCoercive("level-volume profile requires a coercive function")
    return u._derived("profile", lambda: _profile(u))


def _argmin_set(u: PWAConvex, t_min: Fraction) -> Polyhedron:
    """{u <= t_min}, carrying the integer double description of the face of
    the epigraph at height t_min, its lowest face, with no double
    description of its own.

    The face projects to the set by (x, t) -> x, an affine bijection on it.
    The profile is built for coercive functions only, so the epigraph has no
    line and every ray rises in t: the face is the hull of the vertices at
    height t_min.  Each is projected to (x, x0) and made primitive.  A vertex
    is tight on an epigraph row iff its x is tight on the matching row of
    the set, so its mask is remapped from the epigraph's rows (pieces, then
    domain, then the homogenizing row) to the set's (domain, then pieces,
    then the homogenizing row).
    """
    n, d = u.n, u.n + 1
    cone = u.epigraph._integer()
    m, k = len(u.pieces), len(u.domain.halfspaces)
    num, den = t_min.numerator, t_min.denominator
    gens, masks = [], []
    for g, mask in zip(cone.gens[:cone.nverts], cone.masks):
        if g[n] * den == num * g[d]:
            x = g[:n] + g[d:]
            c = math.gcd(*x)
            gens.append(tuple(v // c for v in x))
            masks.append(mask >> m & (1 << k) - 1 | (mask & (1 << m) - 1) << k
                         | mask & 1 << (m + k))  # the homogenizing row keeps its place
    sub = u.sublevel(t_min)
    rows = sub.hrep.int_rows + [(0,) * n + (-1,)]
    return Polyhedron._carrying(sub.hrep, _Cone(rows, gens, masks, [], len(gens)))


def _profile(u: PWAConvex) -> LevelVolumeProfile:
    n = u.n
    d = n + 1
    levels = sorted({v[n] for v in u.epigraph.vrep.vertices})
    t_min = levels[0]
    # V(s_0) = vol{u <= t_min}, the set read off the epigraph's lowest face:
    # 0 from its masks if it is not full-dimensional, else its triangulation.
    atom = volume(_argmin_set(u, t_min))

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
    # drops, (-1)^d / (d! L^d) times the sum over levels z <= s_i of
    # sum_j shifted[z][j] / den[z] (t - z)^j.  Heights are taken as integers
    # times 1/H, H the lcm of the level denominators (``shifted`` and ``den``
    # are keyed by them), so series_z[l] is H^(d + 1 - mu + l) a[l] / (q p^l)
    # with (a, q, p) from _taylor_weights.
    top = levels[-1] + 1
    scale_h = math.lcm(*(z.denominator for z in levels))
    hlevels = [z.numerator * (scale_h // z.denominator) for z in levels]
    up = tuple(Fraction(0) for _ in range(n)) + (Fraction(1),)
    capped, _ = next(cut_by(u.epigraph, [[(up, top)]]))
    shifted = {z: [0] * (d + 1) for z in hlevels}
    den = dict.fromkeys(hlevels, 1)
    scale, total = 1, 0  # with no simplex every sum stays 0
    if capped.is_full_dimensional:
        pts, scale, simplices = _integer_simplices(capped)
        heights = [pt[n] * scale_h // scale for pt in pts]
        weights: Counter[tuple[int, ...]] = Counter()
        for simplex, det in simplices:
            weights[tuple(sorted(heights[i] for i in simplex))] += det
        total = sum(weights.values())  # W(top) = total / (d! L^d)
        del pts, simplices, heights  # free the triangulation before the sums grow
        cap = hlevels[-1] + scale_h
        for key, weight in weights.items():
            mult = Counter(key)
            for z, mu in mult.items():
                if z == cap:
                    continue
                series, q, p = _taylor_weights(z, mult)
                # The tuple's terms at z share the denominator q p^(mu - 1),
                # which may be negative: den[z] grows to the (positive) lcm,
                # and new // div carries the sign.
                div = q * p ** (mu - 1)
                old = den[z]
                new = den[z] = math.lcm(old, div)
                if new != old:
                    shifted[z] = [c * (new // old) for c in shifted[z]]
                w = weight * (new // div)
                for m in range(mu):  # f^(m)(z) / m! = C(d, m) (-1)^m (t - z)^(d - m)
                    l = mu - 1 - m
                    shifted[z][d - m] += ((-1) ** m * math.comb(d, m) * w * series[l]
                                          * scale_h ** (d + 1 - mu + l) * p ** m)
    for z in hlevels:  # the lcms leave large common factors in each level's sums
        g = math.gcd(den[z], *shifted[z])
        den[z] //= g
        shifted[z] = [c // g for c in shifted[z]]
    # V on [s_i, s_{i+1}] in powers of t is acc / common, acc the running sum
    # over levels z <= s_i of d/dt sum_j shifted[z][j] / den[z] (t - z)^j with
    # z = hz / H, each (-z)^k written as (-hz)^k H^(d - 1 - k) / H^(d - 1).
    lcm_den = math.lcm(*den.values())
    common = lcm_den * math.factorial(d) * scale ** d * scale_h ** (d - 1)
    hpow = [scale_h ** k for k in range(d)]
    accs: list[list[int]] = []  # V = W' on [s_i, s_{i+1}], and on [s_p, inf) last
    acc = [0] * d
    for hz in hlevels:
        c, w = shifted[hz], (-1) ** d * (lcm_den // den[hz])
        zpow = [(-hz) ** k for k in range(d)]
        acc = [acc[i] + w * sum(j * c[j] * math.comb(j - 1, i) * zpow[j - 1 - i]
                                * hpow[d - j + i] for j in range(i + 1, d + 1))
               for i in range(d)]
        accs.append(acc)

    # Certificate, for the polynomials returned: V(s_0) = atom (V is
    # right-continuous at the minimum level) and p_(i-1)(s_i) = p_i(s_i),
    # where p_i(hz / H) = at(accs[i], hz) / base in ints.
    def at(acc, hz):
        return sum(c * hz ** i * hpow[d - 1 - i] for i, c in enumerate(acc))

    base = common * hpow[d - 1]
    lefts = [(atom.numerator * base, atom.denominator)]  # V(s_i-) = left / (base q)
    lefts += [(at(acc, hz), 1) for acc, hz in zip(accs, hlevels[1:])]
    for z, hz, acc, (left, q) in zip(levels, hlevels, accs, lefts):
        right = at(acc, hz)
        if right * q != left:
            raise CertificateFailed(f"volume profile discontinuous at level {z}: "
                                    f"{Fraction(left, base * q)} -> {Fraction(right, base)}")
    # Continuity sees only V's jumps: a wrong higher term of W keeps V
    # continuous.  So also check int_{s_0}^{top} V dt = W(top): with
    # V = sum_k acc[k] t^k / common on [ha / H, hb / H], d! H^d common times
    # the integral is sum_k acc[k] (d! / (k + 1)) (hb^(k+1) - ha^(k+1)) H^(d-1-k).
    ends = hlevels + [hlevels[-1] + scale_h]
    integral = sum(c * (math.factorial(d) // (k + 1)) * (hb ** (k + 1) - ha ** (k + 1))
                   * hpow[d - 1 - k]
                   for acc, ha, hb in zip(accs, ends, ends[1:]) for k, c in enumerate(acc))
    if integral * scale ** d != total * scale_h ** d * common:
        raise CertificateFailed(
            f"volume profile integrates to "
            f"{Fraction(integral, math.factorial(d) * scale_h ** d * common)} up to level "
            f"{top}, not to the capped epigraph's volume "
            f"{Fraction(total, math.factorial(d) * scale ** d)}")
    polys = [ptrim(Fraction(c, common) for c in acc) for acc in accs]
    return LevelVolumeProfile(n, t_min, atom, tuple(levels), tuple(polys[:-1]), polys[-1])


# ---------------------------------------------------------------------------
# Integral / minimum / combined valuations
# ---------------------------------------------------------------------------

def integral_valuation(zeta: GrowthFunction, u: PWAConvex):
    """Z_zeta(u) = Integral_{dom u} zeta(u(x)) dx, via the level profile."""
    prof = level_volume_profile(u)
    return (zeta.eval(prof.t_min) * prof.atom
            + integral_against(zeta, prof.breakpoints, prof._derivatives, prof.t_min))


def min_valuation(zeta0: GrowthFunction, u: PWAConvex):
    """zeta0(min u)."""
    return zeta0.eval(u.min_value()[0])


def combined_valuation(zeta0: GrowthFunction, zetan: GrowthFunction, u: PWAConvex):
    """zeta0(min u) + Integral zeta_n(u(x)) dx (the classified valuation form)."""
    return min_valuation(zeta0, u) + integral_valuation(zetan, u)


def tail_mass(zeta: GrowthFunction, u: PWAConvex, t):
    """Integral over {u > t} of zeta(u(x)) dx (the truncated remainder)."""
    t = Fraction(t)
    prof = level_volume_profile(u)
    if t < prof.t_min:
        return integral_valuation(zeta, u)
    return integral_against(zeta, prof.breakpoints, prof._derivatives, t)


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
    if region.is_empty:  # truncation below min u
        return 0.0, 0.0
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
