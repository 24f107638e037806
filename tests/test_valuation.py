"""Level-volume profiles and the integral valuation (layer-cake) machinery."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from convval.errors import CertificateFailed, NotCoercive
from convval.functions import cone_function, indicator_function, make, sup
from convval.growth import make_growth, moment, peval, psi_from_zeta
from convval.laws import (generate_pair_with_convex_min, random_body,
                          staircase_fixture, truncation_fixture)
from convval.polyhedra import Polyhedron, volume
from convval.valuation import (combined_valuation, extract_growth,
                               integral_valuation, level_volume_profile,
                               mc_oracle, min_valuation, tail_mass,
                               truncation_level)
from oracles import box01, python_stdout


def hat_pos():
    """2 - t on [0, 2]."""
    return make_growth([0, 2], [[2, -1]], require_nonnegative=True)


def absn(n):
    """The l1 norm on R^n."""
    from itertools import product
    return make([(tuple(F(s) for s in signs), F(0))
                 for signs in product((1, -1), repeat=n)], n=n)


class TestProfile:
    def test_l1_profile(self):
        # {|x|_1 <= t} has volume 2 t^2 / 2! = 2 t^2 ... in R^2: (2t)^2/2 = 2t^2
        u = absn(2)
        prof = level_volume_profile(u)
        assert prof.t_min == 0 and prof.atom == 0
        assert prof.value(1) == 2 and prof.value(F(3, 2)) == F(9, 2)
        assert prof.final_poly == (F(0), F(0), F(2))
        assert prof.verify_monotone()

    def test_indicator_profile_is_step(self):
        u = indicator_function(Polyhedron.box([(0, 2), (0, 3)]), t=1)
        prof = level_volume_profile(u)
        assert prof.t_min == 1 and prof.atom == 6
        assert prof.value(1) == 6 and prof.value(10) == 6
        assert prof.value(F(1, 2)) == 0

    def test_cone_profile_matches_body_volume(self):
        for seed in range(4):
            body = random_body(seed, 2)
            u = cone_function(body)
            prof = level_volume_profile(u)
            vb = volume(body)
            for t in (F(1, 2), F(1), F(7, 3)):
                assert prof.value(t) == vb * t ** 2

    def test_breakpoint_continuity_and_probes(self):
        u = sup(absn(2), indicator_function(Polyhedron.box([(-3, 3), (-3, 3)])))
        prof = level_volume_profile(u)
        # the profile polynomials agree with direct volumes at fresh points
        rng = random.Random(0)
        for _ in range(6):
            t = F(rng.randint(0, 40), 7)
            assert prof.value(t) == volume(u.sublevel(t))

    def test_noncoercive_rejected(self):
        u = make([((1, 0), 0)], n=2, coercive=False)
        with pytest.raises(NotCoercive):
            level_volume_profile(u)
        assert "profile" not in vars(u)

    def test_cached_on_the_function(self):
        u = absn(2)
        assert level_volume_profile(u) is level_volume_profile(u)


class TestIntegralValuation:
    def test_cone_closed_form(self):
        # Z_zeta(l_K) = vol(K) * n * integral t^{n-1} zeta(t) dt
        z = hat_pos()
        for seed, n in [(0, 2), (1, 2), (2, 3)]:
            body = random_body(seed, n)
            u = cone_function(body)
            assert integral_valuation(z, u) == volume(body) * n * moment(z, n - 1)

    def test_indicator_value(self):
        z = hat_pos()
        u = indicator_function(Polyhedron.box([(0, 2), (0, 1)]), t=F(1, 2))
        assert integral_valuation(z, u) == z.eval(F(1, 2)) * 2

    def test_translation_of_graph_shifts_argument(self):
        # Z(l_K + t0) = vol(K) * n * integral (t)^(n-1)... via psi: check both paths
        z = box01()
        body = random_body(3, 2)
        u = cone_function(body)
        psi = psi_from_zeta(z, 2)
        for t0 in (F(0), F(1, 4), F(1, 2)):
            shifted = u.translate_graph(t0)
            want = volume(body) * peval(psi.region_at(t0)[1], t0)
            assert integral_valuation(z, shifted) == want

    def test_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        # u(x) = |x| on [-1, 1] complement-free: integral of zeta(|x|) dx
        u = make([((1,), 0), ((-1,), 0)], n=1)
        z = hat_pos()
        t = sympy.Symbol("t")
        want = 2 * sympy.integrate(2 - t, (t, 0, 2))  # 2 sides, zeta linear
        assert integral_valuation(z, u) == F(int(want), 1)

    def test_min_and_combined(self):
        z0 = hat_pos()
        zn = box01()
        u = absn(2).translate_graph(F(1, 2))
        assert min_valuation(z0, u) == z0.eval(F(1, 2))
        assert combined_valuation(z0, zn, u) == (
            z0.eval(F(1, 2)) + integral_valuation(zn, u))

    def test_nonnegative_zeta_gives_nonnegative_valuation(self):
        z = hat_pos()
        for seed in range(5):
            pair = generate_pair_with_convex_min(seed, 2)
            assert integral_valuation(z, pair.u) >= 0


class TestTailMass:
    def test_splits_total(self):
        z = hat_pos()
        u = absn(2)
        total = integral_valuation(z, u)
        for t in (F(0), F(1, 2), F(1), F(3)):
            head = total - tail_mass(z, u, t)
            assert head >= 0
        assert tail_mass(z, u, F(2)) == 0  # past the support of zeta

    def test_truncation_level(self):
        z = hat_pos()
        u = absn(2)
        t0 = truncation_level(z, u, 1e-2)
        assert abs(float(tail_mass(z, u, t0))) < 1e-2
        t1 = truncation_level(z, u, 1e-4)
        assert abs(float(tail_mass(z, u, t1))) < 1e-4
        assert t1 >= t0


class TestExtractGrowth:
    def test_recovers_psi_pair(self):
        z0 = hat_pos()
        zn = box01()
        n = 2
        psi = psi_from_zeta(zn, n)
        zfn = lambda u: combined_valuation(z0, zn, u)
        grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(2)]
        psi0, psin = extract_growth(zfn, n, grid)
        for t, p0, pn in zip(grid, psi0, psin):
            # a point domain has no volume: only the minimum term survives
            assert p0 == z0.eval(t)
            # the cube has volume 1 and min l_cube = 0: difference is psi(t)
            assert pn == peval(psi.region_at(t)[1], t)


class TestMonteCarlo:
    def test_bounded_domain_estimate(self):
        z = hat_pos()
        u = sup(absn(2), indicator_function(Polyhedron.box([(-2, 2), (-2, 2)])))
        exact = float(integral_valuation(z, u))
        est, err = mc_oracle(z, u, samples=200000, seed=1)
        assert err > 0 and abs(est - exact) < 3 * err

    def test_truncated_estimate(self):
        z = hat_pos()
        u = absn(2)
        t = F(2)  # past the support: truncated mass equals the full value
        exact = float(integral_valuation(z, u))
        est, err = mc_oracle(z, u, samples=200000, seed=2, truncation=t)
        assert abs(est - exact) < 3 * err

    def test_deterministic_per_seed(self):
        z = hat_pos()
        u = sup(absn(2), indicator_function(Polyhedron.box([(-2, 2), (-2, 2)])))
        assert mc_oracle(z, u, samples=1000, seed=7) == mc_oracle(z, u, samples=1000, seed=7)

    def test_unbounded_needs_truncation(self):
        from convval.errors import UnboundedPolyhedron
        with pytest.raises(UnboundedPolyhedron):
            mc_oracle(hat_pos(), absn(2), samples=10)

    def test_truncation_below_the_minimum_is_empty(self):
        """{u <= t} is empty below min u = 1: no mass, no error."""
        u = absn(2).translate_graph(1)
        assert mc_oracle(hat_pos(), u, samples=10, truncation=F(1, 2)) == (0.0, 0.0)


def assert_profile_matches_fresh_volumes(u):
    """The profile equals a fresh sublevel volume at every breakpoint, every
    interval midpoint and three levels above the last breakpoint."""
    prof = level_volume_profile(u)
    bps = prof.breakpoints
    levels = list(bps) + [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    levels += [bps[-1] + F(1, 3), bps[-1] + 1, bps[-1] + F(7, 2)]
    for t in levels:
        assert prof.value(t) == volume(u.sublevel(t)), t
    return prof


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 5), st.sampled_from([1, 2, 3]))
def test_profile_matches_fresh_volumes(seed, n):
    assert_profile_matches_fresh_volumes(generate_pair_with_convex_min(seed, n).u)


class TestProfileFixedCases:
    def test_box_indicator_has_atom(self):
        for n in (1, 2, 3):
            u = indicator_function(Polyhedron.box([(0, 2)] * (n - 1) + [(-1, 2)]), t=F(1, 3))
            prof = assert_profile_matches_fresh_volumes(u)
            assert prof.atom == 3 * 2 ** (n - 1)

    def test_cone_functions(self):
        for seed, n in [(0, 1), (1, 2), (2, 2), (3, 3)]:
            assert_profile_matches_fresh_volumes(cone_function(random_body(seed, n)))

    def test_segment_indicator_is_zero(self):
        seg = Polyhedron.from_generators(2, [(0, 0), (1, 2)])
        prof = assert_profile_matches_fresh_volumes(indicator_function(seg, t=1))
        assert prof.atom == 0 and prof.final_poly == ()

    def test_truncation_lq_is_zero(self):
        for n in (2, 3):
            lqs = truncation_fixture(n, F(1, 2))[3]
            prof = assert_profile_matches_fresh_volumes(lqs)
            assert all(p == () for p in prof.interval_polys + (prof.final_poly,))

    def test_staircases(self):
        h = (F(1, 2), F(2, 3), F(3))
        for k in (1, 2, 3):
            for i in range(k + 1):
                assert_profile_matches_fresh_volumes(staircase_fixture(k, h[:k], i))


class TestProfileCertificate:
    def test_wrong_atom_raises(self, monkeypatch):
        import convval.valuation as valuation
        monkeypatch.setattr(valuation, "volume", lambda p: F(12345))
        with pytest.raises(CertificateFailed):
            level_volume_profile(absn(2))

    def test_wrong_atom_raises_under_optimize(self):
        code = (
            "from fractions import Fraction\n"
            "import convval.valuation as valuation\n"
            "from convval.errors import CertificateFailed\n"
            "from convval.functions import make\n"
            "assert False, 'asserts are live'\n"
            "valuation.volume = lambda p: Fraction(12345)\n"
            "u = make([((1,), 0), ((-1,), 0)], n=1)\n"
            "try:\n"
            "    valuation.level_volume_profile(u)\n"
            "except CertificateFailed:\n"
            "    print('raised')\n"
        )
        assert python_stdout(code, "-O").strip() == "raised"
