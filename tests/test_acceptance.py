"""Acceptance harness: one pass/fail line per criterion.

Every rational comparison is exact (tolerance 0); float tolerances appear only
where an irrational quantity (Euclidean distance, Monte Carlo, exponential
tail) is inherently involved, and are stated inline.
"""

import math
import random
from fractions import Fraction as F

from convval.conjugacy import (biconjugate_check, cone_bound, conjugate,
                               epi_scale, inf_convolution, moreau_eval,
                               uniform_cone_bound)
from convval.functions import cone_function, indicator_function, inf_if_convex, pwa_equal, sup
from convval.growth import (check_derivative_relation, check_psi_vanishes,
                            make_growth, moment, peval, psi_from_zeta)
from convval.laws import (check_invariance, check_level_convergence,
                          conjugacy_suite, default_zetas,
                          generate_pair_with_convex_min, random_body,
                          random_weights, smoothing_inputs, smoothing_sequence,
                          staircase_reports, truncation_fixture, valuation_suite)
from convval.polyhedra import Polyhedron, volume
from convval.valuation import combined_valuation, integral_valuation, mc_oracle

ZETAS = default_zetas()


def _line(capsys, ok: bool, msg: str):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {msg}", flush=True)
    assert ok, msg


def test_criterion_01_valuation_identity(capsys):
    """The valuation suite on 100 seeded pairs per n in {2, 3}: 3 weight
    pairs with exact equality, and the minima of the lattice."""
    ok = all(rep.passed and rep.tolerance == 0
             for n in (2, 3) for rep in valuation_suite(0, 100, n))
    _line(capsys, ok, "criterion 1: valuation identity on 100 pairs x n in {2,3} x 3 weights, exact")


def test_criterion_02_truncation_family(capsys):
    """Exact lattice + valuation identities at s in {1/2, 1, 2, 8}; s = 64
    convergence of Z(u_s) to Z(l_P) below 1e-6 with the psi-predicted value
    matched exactly on the rational path."""
    ok = True
    n = 2
    p_body = Polyhedron.from_generators(2, [(0, 0), (F(1, 2), F(1, 2)), (0, 1)])
    vol_p = volume(p_body)
    for z0, zn in ZETAS:
        zfn = lambda u: combined_valuation(z0, zn, u)
        psi = psi_from_zeta(zn, n)
        for s in (F(1, 2), F(1), F(2), F(8), F(64)):
            u_s, lp, lps, lqs = truncation_fixture(n, s)
            ok = ok and pwa_equal(inf_if_convex(u_s, lps), lp)
            ok = ok and pwa_equal(sup(u_s, lps), lqs)
            ok = ok and zfn(u_s) + zfn(lps) == zfn(lp) + zfn(lqs)
            predicted = zfn(lp) - vol_p * peval(psi.region_at(s)[1], s)
            ok = ok and zfn(u_s) == predicted
            if s == 64:
                ok = ok and abs(float(zfn(u_s) - zfn(lp))) < 1e-6
    _line(capsys, ok, "criterion 2: truncation family exact at s in {1/2,1,2,8}, "
                      "converged (< 1e-6) and psi-predicted at s = 64")


def test_criterion_03_invariance(capsys):
    """50 unimodular shears x 10 rational translations per fixture, tolerance 0."""
    z0, zn = ZETAS[0]
    zfn = lambda u: combined_valuation(z0, zn, u)
    fixtures = [generate_pair_with_convex_min(0, 2).u,
                sup(cone_function(random_body(1, 2)),
                    indicator_function(Polyhedron.box([(-2, 2), (-2, 2)])))]
    ok = True
    for i, u in enumerate(fixtures):
        rep = check_invariance(zfn, u, trials=50, seed=i, translations=10)
        ok = ok and rep.passed
    _line(capsys, ok, "criterion 3: invariance under 50 shears x 10 translations per fixture, exact")


def test_criterion_04_growth_relation(capsys):
    """10 random weights x n in {2, 3}: exact n-th derivative recovery and
    vanishing of psi beyond the support."""
    weights = random_weights("acceptance-growth", 10)
    # the generator is shared with the growth suite: its inputs must not drift
    assert weights[0] == make_growth([0, 1, 3], [[-4, 1, F(1, 2)], [-2, F(-1, 2)]])
    ok = True
    for zeta in weights:
        for n in (2, 3):
            ok = ok and check_derivative_relation(zeta, n).passed
            ok = ok and check_psi_vanishes(zeta, n).passed
    _line(capsys, ok, "criterion 4: growth relation zeta = ((-1)^n/n!) psi^(n) "
                      "and psi vanishing, 10 weights x n in {2,3}, exact")


def test_criterion_05_moment_identity(capsys):
    """Z_zeta(l_P) = vol(P) * n * integral t^{n-1} zeta dt, 10 bodies x 5 weights."""
    weights = [zn for _, zn in ZETAS] + [make_growth([0, 4], [[4, -1]]),
                                         make_growth([0, 1], [[0, 0, 6, -6]])]
    ok = True
    for i in range(10):
        n = 2 if i < 6 else 3
        body = random_body(i, n)
        u = cone_function(body)
        for zeta in weights:
            ok = ok and integral_valuation(zeta, u) == volume(body) * n * moment(zeta, n - 1)
    _line(capsys, ok, "criterion 5: cone moment identity on 10 bodies x 5 weights, exact")


def test_criterion_06_staircase(capsys):
    """Difference quotients of psi_k converge to zeta with order >= 0.9,
    final error <= 1e-2, and the exact symbolic limit holds."""
    hs = [F(1, 2 ** j) for j in range(2, 9)]
    ok = all(staircase_reports([zeta for _, zeta in ZETAS[:2]], hs))
    _line(capsys, ok, "criterion 6: staircase difference quotients, order >= 0.9, "
                      "final <= 1e-2, symbolic limit exact")


def test_criterion_07_conjugacy_laws(capsys):
    """u** = u on 25 fixtures; (u box v)* = u* + v* on 100 grid points;
    conjugate of the epi-scaled function is the scaled conjugate."""
    biconjugated = [r for r in conjugacy_suite(0, 10, 2) if r.law == "biconjugation"]
    assert len(biconjugated) == 20  # u and v of 10 pairs
    ok = all(r.passed for r in biconjugated)
    for seed in range(5):
        ok = ok and biconjugate_check(cone_function(random_body(seed, 2)))
    u, v = (generate_pair_with_convex_min(seed, 2).u for seed in (0, 1))
    left = conjugate(inf_convolution(u, v))
    su, sv = conjugate(u), conjugate(v)
    grid = [(F(i, 5), F(j, 5)) for i in range(-5, 5) for j in range(-5, 5)]
    assert len(grid) == 100
    for y in grid:
        lv = left.eval(y)
        rv = (su.eval(y), sv.eval(y))
        if lv == math.inf or math.inf in rv:
            ok = ok and (lv == math.inf and math.inf in rv)
        else:
            ok = ok and lv == rv[0] + rv[1]
    t = F(7, 3)
    left = conjugate(epi_scale(u, t))
    for y in grid:
        lv, rv = left.eval(y), su.eval(y)
        if lv == math.inf or rv == math.inf:
            ok = ok and lv == rv
        else:
            ok = ok and lv == t * rv
    _line(capsys, ok, "criterion 7: biconjugation on 25 fixtures, infconv and "
                      "epi-scaling conjugacy laws on 100 grid points, exact")


def test_criterion_08_smoothing(capsys):
    """Level-set distances decrease strictly while nonzero and drop below 1e-6
    by k = 2^10; the valuation gap does the same."""
    z0, zn = ZETAS[0]
    zfn = lambda u: combined_valuation(z0, zn, u)
    ok = True
    for seed in (0, 1):
        u = generate_pair_with_convex_min(seed, 2).u
        seq, levels = smoothing_inputs(u)
        distances = check_level_convergence(seq, u, levels).details["distances"]
        gaps = [abs(float(zfn(u) - zfn(uk))) for uk in seq]
        for values in [*distances.values(), gaps]:
            for a, b in zip(values, values[1:]):
                ok = ok and (b < a or a == 0.0)  # strict until exactly converged
            ok = ok and values[-1] < 1e-6
    _line(capsys, ok, "criterion 8: smoothing sequences strictly converge, "
                      "distances and valuation gap < 1e-6 at k = 2^10")


def test_criterion_09_monte_carlo(capsys):
    """Layer-cake values within 3 standard errors of the Monte Carlo oracle
    on 20 bounded fixtures, 10^6 samples each."""
    z0, zn = ZETAS[0]
    cage = indicator_function(Polyhedron.box([(-2, 2), (-2, 2)]))
    ok = True
    for seed in range(20):
        u = sup(generate_pair_with_convex_min(seed, 2).u, cage)
        u = u.translate_graph(-u.min_value()[0])  # min 0: inside the support
        exact = float(integral_valuation(zn, u))
        est, err = mc_oracle(zn, u, samples=10 ** 6, seed=seed)
        ok = ok and err > 0 and abs(est - exact) <= 3 * err
    _line(capsys, ok, "criterion 9: Monte Carlo oracle within 3 stderr on 20 fixtures, 10^6 samples")


def test_criterion_10_moreau(capsys):
    """e_t u <= u at the epigraph vertices; the point-indicator envelope is
    |x|^2 / (2t) exactly at 20 points; the envelope error is monotone in t."""
    ok = True
    u = generate_pair_with_convex_min(0, 2).u
    t = F(1, 2)
    for vtx in u.epigraph.vrep.vertices:
        x = vtx[:2]
        ok = ok and moreau_eval(u, t, x) <= u.eval(x)
    origin = Polyhedron.from_generators(2, [(0, 0)])
    ind = indicator_function(origin)
    rng = random.Random(10)
    for _ in range(20):
        t = F(rng.randint(1, 8), rng.randint(1, 4))
        x = (F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2))
        ok = ok and moreau_eval(ind, t, x) == (x[0] ** 2 + x[1] ** 2) / (2 * t)
    x0 = (F(3, 2), F(-1))
    prev = None
    for j in range(1, 11):
        gap = u.eval(x0) - moreau_eval(u, F(1, 2 ** j), x0)
        ok = ok and gap >= 0
        if prev is not None:
            ok = ok and gap <= prev
        prev = gap
    _line(capsys, ok, "criterion 10: Moreau envelope below u, exact quadratic "
                      "for the point indicator, error monotone in t = 2^-1..2^-10")


def test_criterion_11_cone_bounds(capsys):
    """Certified linear-cone lower bounds on every fixture, plus uniform
    bounds over whole smoothing sequences."""
    bounds = [r for r in conjugacy_suite(0, 10, 2) if r.law == "cone_bound_certificate"]
    ok = all(r.passed and r.details["bound"].a > 0 for r in bounds)  # each pair's u
    for seed in range(10):
        v = generate_pair_with_convex_min(seed, 2).v
        b = cone_bound(v)
        ok = ok and b.a > 0 and b.holds_for(v)
    ball = Polyhedron.box([(-1, 1), (-1, 1)])
    for seed in (0, 3):
        u = generate_pair_with_convex_min(seed, 2).u
        seq = [smoothing_sequence(u, ball, 2 ** j) for j in range(0, 7, 2)]
        b = uniform_cone_bound(seq + [u])
        ok = ok and all(b.holds_for(w) for w in seq + [u])
    _line(capsys, ok, "criterion 11: certified cone bounds on all fixtures and "
                      "uniform bounds over smoothing sequences, exact")
