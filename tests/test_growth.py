"""Growth functions: evaluation, moments, the induced cone profile psi."""

import math
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from convval.functions import make
from convval.growth import (GrowthFunction, NumericPsi, check_derivative_relation,
                            check_psi_vanishes, integral_against, make_growth, moment, peval,
                            pmul, poly_nonneg_on, psi_from_zeta, ptrim, tail_integral,
                            tail_integral_exact, zero_growth)
from convval.polyhedra import Polyhedron
from convval.valuation import (combined_valuation, integral_valuation,
                               level_volume_profile, tail_mass)
from oracles import (box01, oracle_combined_valuation, oracle_integral_against_by_region,
                     oracle_integral_valuation, oracle_moment, oracle_nonneg_on,
                     oracle_psi_from_the_right, oracle_tail_integral_by_factorials, pint,
                     profiles, weights)


def hat():
    """1 - |t| on [-1, 1]."""
    return make_growth([-1, 0, 1], [[1, 1], [1, -1]], require_nonnegative=True)


def exp_tail():
    """e^{-t} on [0, inf)."""
    return make_growth([0], [], tail=(1, [1]), require_nonnegative=True)


def random_compact_zeta(seed):
    """Continuous nonnegative piecewise-polynomial with compact support."""
    rng = random.Random(f"zeta-{seed}")
    bps = sorted(rng.sample(range(-2, 9), rng.randint(2, 4)))
    heights = [F(0)] + [F(rng.randint(1, 5), rng.randint(1, 3))
                        for _ in range(len(bps) - 2)] + [F(0)]
    pieces = []
    for i in range(len(bps) - 1):
        a, b = F(bps[i]), F(bps[i + 1])
        ya, yb = heights[i], heights[i + 1]
        slope = (yb - ya) / (b - a)
        pieces.append([ya - slope * a, slope])
    return make_growth(bps, pieces, require_nonnegative=True)


class TestEvaluation:
    def test_box_closed_interval_values(self):
        z = box01()
        assert z.eval(0) == 1 and z.eval(1) == 1 and z.eval(F(1, 2)) == 1
        assert z.eval(-F(1, 1000)) == 0 and z.eval(F(1001, 1000)) == 0

    def test_hat_values(self):
        z = hat()
        assert z.eval(0) == 1 and z.eval(F(1, 2)) == F(1, 2) and z.eval(-F(1, 2)) == F(1, 2)
        assert z.eval(2) == 0 and z.eval(-2) == 0

    def test_left_constant(self):
        z = make_growth([0, 1], [[1, -1]], left_constant=1)
        assert z.eval(-5) == 1 and z.eval(F(1, 2)) == F(1, 2) and z.eval(2) == 0

    def test_tail_eval(self):
        z = exp_tail()
        assert z.eval(0) == pytest.approx(1.0)
        assert z.eval(2.0) == pytest.approx(math.exp(-2))
        assert z.eval(-1) == 0

    def test_eval_array_matches_eval(self):
        import numpy as np
        for z in (hat(), box01(), exp_tail(),
                  make_growth([0, 2], [[2, -1]], left_constant=2)):
            ts = np.linspace(-3, 5, 641)
            arr = z.eval_array(ts)
            for t, a in zip(ts, arr):
                assert a == pytest.approx(z.eval_float(F(t).limit_denominator(10 ** 9)), abs=1e-9)

    def test_continuity_enforced_at_interior_breakpoints(self):
        with pytest.raises(ValueError):
            make_growth([0, 1, 2], [[1], [2]])

    def test_a_tail_may_jump_where_it_starts(self):
        """The support edges are part of the definition: 5 on [0, 1], then
        e^(-t) past 1, is accepted as given."""
        z = make_growth([0, 1], [[5]], tail=(1, [1]))
        assert z.eval(1) == 5 and z.eval(2) == pytest.approx(math.exp(-2))

    def test_nonnegativity_certificate(self):
        with pytest.raises(ValueError):
            make_growth([0, 2], [[F(1, 2), 0, -1]], require_nonnegative=True)
        # t(2 - t) on [0, 2] is fine
        make_growth([0, 2], [[0, 2, -1]], require_nonnegative=True)


class TestPolyNonneg:
    def test_interior_dip_detected(self):
        # (t - 1)^2 - 1/4 is negative near t = 1 though nonnegative at 0 and 2
        assert not poly_nonneg_on((F(3, 4), F(-2), F(1)), 0, 2)
        assert poly_nonneg_on((F(1), F(-2), F(1)), 0, 2)

    def test_unbounded_interval(self):
        assert poly_nonneg_on((F(0), F(1)), 0, None)
        assert not poly_nonneg_on((F(1), F(-1)), 0, None)

    def test_repeated_roots_and_roots_at_the_ends(self):
        # (t - 1)^2 (t - 2)^3 is >= 0 on [2, 5] only; t^3 (t - 1)^2 from 0 on
        p = pmul(pmul((F(1), F(-2), F(1)), (F(-2), F(1))), (F(4), F(-4), F(1)))
        assert poly_nonneg_on(p, 2, 5) and poly_nonneg_on(p, 1, 1)
        assert not poly_nonneg_on(p, 1, 2) and not poly_nonneg_on(p, 0, None)
        q = pmul((F(0), F(0), F(0), F(1)), (F(1), F(-2), F(1)))
        assert poly_nonneg_on(q, 0, None) and not poly_nonneg_on(q, -F(1, 1000), 0)

    def test_empty_and_degenerate_intervals(self):
        assert poly_nonneg_on((F(-1), F(1)), 1, 1)
        assert not poly_nonneg_on((F(-1), F(1)), F(1, 2), F(1, 2))
        assert poly_nonneg_on((), 3, None) and poly_nonneg_on((F(0),), 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_sympy_route(self, data):
        sympy = pytest.importorskip("sympy")
        frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        roots = data.draw(st.lists(frac, max_size=3), label="roots")
        p = (data.draw(frac.filter(lambda x: x != 0), label="scale"),)
        for r in roots:
            for _ in range(data.draw(st.integers(1, 3), label="multiplicity")):
                p = pmul(p, (-r, F(1)))
        p = pmul(p, data.draw(st.lists(frac, min_size=1, max_size=3), label="cofactor"))
        ends = st.sampled_from(roots) | frac if roots else frac
        a = data.draw(ends, label="a")
        b = data.draw(st.none() | st.just(a) | ends, label="b")
        if b is not None and b < a:
            a, b = b, a
        assert poly_nonneg_on(p, a, b) == oracle_nonneg_on(sympy, p, a, b)


class TestMoments:
    def test_box_moments(self):
        z = box01()
        for k in range(4):
            assert moment(z, k) == F(1, k + 1)

    def test_hat_moment_counts_positive_part_only(self):
        # integral over [0, inf) only: t^0 gives 1/2 for the hat
        assert moment(hat(), 0) == F(1, 2)
        assert moment(hat(), 1) == F(1, 6)

    def test_exponential_moments_against_factorials(self):
        z = exp_tail()
        for k in range(5):
            assert moment(z, k) == pytest.approx(math.factorial(k), rel=1e-12)

    def test_quadrature_oracle(self):
        import mpmath
        z = make_growth([0, 1, 3], [[0, 1], [F(3, 2), F(-1, 2)]])
        for k in (0, 1, 2):
            exact = moment(z, k)
            quad = mpmath.quad(
                lambda t: float(t) ** k
                * z.eval_float(F(float(t)).limit_denominator(10 ** 9)),
                [0, 1, 3])
            assert float(exact) == pytest.approx(float(quad), rel=1e-9)


class TestTailIntegral:
    def test_closed_form(self):
        # integral_a^inf t e^{-2t} dt = e^{-2a}(a/2 + 1/4)
        for a in (F(0), F(1), F(5, 2)):
            got = tail_integral(F(2), (F(0), F(1)), a)
            want = math.exp(-2 * float(a)) * (float(a) / 2 + 0.25)
            assert got == pytest.approx(want, rel=1e-12)


class TestPsi:
    def test_box_psi_n1(self):
        # n=1: psi(t) = integral_t^inf zeta = 1 - t on [0, 1], 1 for t <= 0
        psi = psi_from_zeta(box01(), 1)
        assert peval(psi.region_at(-2)[1], -2) == 1
        assert peval(psi.region_at(F(1, 2))[1], F(1, 2)) == F(1, 2)
        assert peval(psi.region_at(1)[1], 1) == 0

    def test_box_psi_n2(self):
        # n=2: psi(t) = 2 integral_t^1 (r - t) dr = (1 - t)^2 on [0, 1]
        psi = psi_from_zeta(box01(), 2)
        for t in (F(0), F(1, 3), F(1)):
            assert peval(psi.region_at(t)[1], t) == (1 - t) ** 2
        # below the support: (1 - t)^2 - t^2-free? direct quadrature check
        t = F(-1)
        assert peval(psi.region_at(t)[1], t) == 2 * pint(pmul((-t, F(1)), (F(1),)), 0, 1)

    def test_derivative_relation_examples(self):
        for z in (box01(), hat(), make_growth([0, 2], [[0, 2, -1]])):
            for n in (1, 2, 3):
                assert check_derivative_relation(z, n).passed

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 5), st.sampled_from([1, 2, 3]))
    def test_derivative_relation_random(self, seed, n):
        z = random_compact_zeta(seed)
        assert check_derivative_relation(z, n).passed
        assert check_psi_vanishes(z, n).passed

    def test_psi_monotone_nonincreasing(self):
        z = hat()
        psi = psi_from_zeta(z, 2)
        prev = None
        for t in [F(k, 4) for k in range(-8, 9)]:
            val = peval(psi.region_at(t)[1], t)
            if prev is not None:
                assert val <= prev
            prev = val

    def test_tailed_zeta_numeric_psi(self):
        psi = psi_from_zeta(exp_tail(), 1)
        assert isinstance(psi, NumericPsi)
        # psi(t) = e^{-t} for t >= 0
        for t in (0.0, 0.5, 2.0):
            assert psi.eval(t) == pytest.approx(math.exp(-t), rel=1e-8)


# ---------------------------------------------------------------------------
# psi_n = n! I^n zeta and the tail recurrence against the routes they replaced
# ---------------------------------------------------------------------------
# ``oracle_psi_from_the_right`` expands (r - t)^(n-1) binomially and sums the
# pieces' fixed-limit integrals from the right; ``oracle_tail_integral_by_
# factorials`` sums m!/i! a^i / lam^(m-i+1).  Both results must be ``==``.

small_rationals = st.fractions(-3, 3, max_denominator=4)


def polys(max_degree):
    """Ascending coefficients, trimmed, as a GrowthFunction keeps them."""
    return st.lists(small_rationals, max_size=max_degree + 1).map(
        lambda c: ptrim(tuple(F(x) for x in c)))


@st.composite
def tail_free_weights(draw):
    """0-3 pieces of degree up to 3 (a jump may sit at any breakpoint) on
    breakpoints that may all be negative, and a left constant, or the left
    piece of degree up to 2 that psi_n itself has."""
    bps = sorted(set(draw(st.lists(st.fractions(-6, 4, max_denominator=3),
                                   min_size=1, max_size=4))))
    pieces = tuple(draw(polys(3)) for _ in bps[1:])
    left = draw(st.one_of(polys(0), polys(2)))
    return GrowthFunction(tuple(bps), pieces, left, None, False)


class TestRepeatedIntegration:
    @settings(max_examples=200, deadline=None)
    @given(tail_free_weights(), st.integers(1, 6))
    def test_psi_equals_the_kernel_route(self, zeta, n):
        assert psi_from_zeta(zeta, n) == oracle_psi_from_the_right(zeta, n)

    def test_named_weights(self):
        named = (box01(), hat(), zero_growth(), make_growth([0], [], left_constant=3),
                 make_growth([-3, -1], [[2, 1]], left_constant=-1),
                 *(random_compact_zeta(seed) for seed in range(5)))
        for zeta in named:
            for n in range(1, 7):
                assert psi_from_zeta(zeta, n) == oracle_psi_from_the_right(zeta, n)

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(F(1, 4), 6, max_denominator=4),
           st.lists(st.one_of(st.just(F(0)), small_rationals), max_size=6),
           st.fractions(-9, 9, max_denominator=5))
    def test_tail_recurrence_equals_the_factorial_sum(self, lam, coeffs, a):
        """Zero and trailing zero coefficients, and starts below 0."""
        got = tail_integral_exact(lam, coeffs, a)
        assert type(got) is F and got == oracle_tail_integral_by_factorials(lam, coeffs, a)

    def test_tail_recurrence_steps_through_zero_coefficients(self):
        # Integral_a^inf t^2 e^(-t) dt = (a^2 + 2a + 2) e^(-a)
        for a in (F(-2), F(0), F(3, 2)):
            assert tail_integral_exact(1, (0, 0, 1), a) == a * a + 2 * a + 2


class TestZeroGrowth:
    def test_identically_zero(self):
        z = zero_growth()
        assert z.eval(-1) == 0 and z.eval(0) == 0 and z.eval(7) == 0
        assert moment(z, 3) == 0


class TestEvalArrayEdges:
    """``eval_array`` takes the region ``region_at`` takes at t0 and t_m."""

    @pytest.mark.parametrize("z", [
        make_growth([0], [], left_constant=1),
        make_growth([0], [], left_constant=1, tail=(1, [2])),
        make_growth([-1, F(1, 2)], [[3, 1]], left_constant=2),
        make_growth([-1, F(1, 2)], [[3, 1]], left_constant=2, tail=(2, [1, 1])),
        make_growth([0, 1, 3], [[0, 1], [F(3, 2), F(-1, 2)]]),
    ])
    def test_both_edges(self, z):
        edges = [z.breakpoints[0], z.breakpoints[-1]]
        got = z.eval_array([float(t) for t in edges])
        for t, a in zip(edges, got):
            assert a == float(z.eval(t))


# ---------------------------------------------------------------------------
# One weighted integral against the per-site routes it replaced
# ---------------------------------------------------------------------------
# The oracles (``oracles.py``) are the earlier routes: ``moment`` walking
# zeta's regions itself, psi_n summing the kernel's fixed-limit integrals
# from the right, the valuations adding exact and float parts by their own
# isinstance branches, and ``integral_against`` summing one Fraction per
# interval.

def assert_same(got, want):
    """Equal Fractions, or floats with the same repr."""
    assert type(got) is type(want)
    assert got == want if isinstance(want, F) else repr(got) == repr(want)


@lru_cache(maxsize=None)
def valued_functions():
    """Minima below, at and above 0, and a constant on a box (an atom)."""
    return (make([((1,), 0), ((-1,), 0)]),
            make([((1,), F(-3, 2)), ((-2,), -1)]),
            make([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)], n=2),
            make([((1, 1), -2), ((-1, 0), -1), ((0, -1), 0)], n=2),
            make([((0, 0), F(-1, 2))], Polyhedron.box([(0, 1), (0, 2)])))


class TestOneWeightedIntegral:
    @settings(max_examples=150, deadline=None)
    @given(weights())
    def test_moments_and_psi(self, zeta):
        for k in range(4):
            assert_same(moment(zeta, k), oracle_moment(zeta, k))
        if zeta.tail is None:
            for n in range(1, 5):
                assert psi_from_zeta(zeta, n) == oracle_psi_from_the_right(zeta, n)

    @settings(max_examples=60, deadline=None)
    @given(weights(), weights())
    def test_valuations(self, zeta0, zeta):
        for u in valued_functions():
            assert_same(integral_valuation(zeta, u), oracle_integral_valuation(zeta, u))
            assert_same(combined_valuation(zeta0, zeta, u),
                        oracle_combined_valuation(zeta0, zeta, u))
            prof = level_volume_profile(u)
            for start in (*prof.breakpoints, prof.breakpoints[-1] + F(1, 2)):
                assert_same(tail_mass(zeta, u, start),
                            oracle_integral_against_by_region(zeta, prof.breakpoints,
                                                              prof._derivatives, start))

    def test_the_weights_reach_every_branch(self):
        tailed = make_growth([-1, 1], [[1, -1]], left_constant=2, tail=(1, [1]))
        step = make_growth([F(-1, 2)], [], left_constant=3, tail=(2, [1, 1]))
        for u in valued_functions():
            for zeta in (tailed, step, hat(), box01()):
                assert_same(integral_valuation(zeta, u), oracle_integral_valuation(zeta, u))
                assert_same(combined_valuation(step, zeta, u),
                            oracle_combined_valuation(step, zeta, u))
                assert_same(combined_valuation(box01(), zeta, u),
                            oracle_combined_valuation(box01(), zeta, u))


@st.composite
def piecewise_polys(draw):
    """(breaks, polys): a piecewise polynomial with mixed denominators, zero
    on some intervals."""
    breaks = tuple(sorted(set(draw(st.lists(st.fractions(-3, 4, max_denominator=12),
                                            min_size=1, max_size=4)))))
    coeffs = st.fractions(-5, 5, max_denominator=97)
    polys = tuple(ptrim(draw(st.lists(coeffs, max_size=4))) for _ in breaks)
    return breaks, polys


class TestIntegralAgainstFractionSums:
    """``integral_against`` at drawn starts and at the ends of ``breaks``,
    against the region route, the one reference kept for it."""

    @settings(max_examples=150, deadline=None)
    @given(weights(), piecewise_polys(), st.fractions(-4, 5, max_denominator=6))
    def test_piecewise_polynomials(self, zeta, f, start):
        breaks, polys = f
        for s in (start, breaks[0], breaks[-1], breaks[-1] + F(1, 3)):
            assert_same(integral_against(zeta, breaks, polys, s),
                        oracle_integral_against_by_region(zeta, breaks, polys, s))

    @settings(max_examples=40, deadline=None)
    @given(weights())
    def test_profiles(self, zeta):
        for prof in profiles():
            for start in (prof.t_min, prof.breakpoints[-1], prof.breakpoints[-1] + F(1, 2)):
                assert_same(integral_against(zeta, prof.breakpoints, prof._derivatives, start),
                            oracle_integral_against_by_region(zeta, prof.breakpoints,
                                                              prof._derivatives, start))


class TestIntegralAgainstRegionRoute:
    """``integral_against`` walking both breakpoint lists against its parent
    route, which sorted a set of cuts and called ``region_at`` on each
    interval's midpoint: ``==``, floats included, so a tail's float sum is
    taken in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(weights(), piecewise_polys(), st.fractions(0, 1, max_denominator=5))
    def test_piecewise_polynomials(self, zeta, f, frac):
        breaks, polys = f
        cuts = sorted({*breaks, *zeta.breakpoints})
        lo, hi = cuts[0], cuts[-1]
        # before every breakpoint, at and between them, and past the last
        for start in (lo - 1 - frac, lo, lo + frac * (hi - lo), *cuts, hi + frac, hi + 1):
            got = integral_against(zeta, breaks, polys, start)
            want = oracle_integral_against_by_region(zeta, breaks, polys, start)
            assert type(got) is type(want) and got == want

    @settings(max_examples=40, deadline=None)
    @given(weights())
    def test_profiles(self, zeta):
        for prof in profiles():
            for start in (prof.t_min - 1, prof.t_min, prof.breakpoints[-1] + F(1, 2)):
                got = integral_against(zeta, prof.breakpoints, prof._derivatives, start)
                want = oracle_integral_against_by_region(zeta, prof.breakpoints,
                                                         prof._derivatives, start)
                assert type(got) is type(want) and got == want
