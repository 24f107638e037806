"""Fixture generators and executable identity checks."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from convval import functions, laws, polyhedra
from convval.errors import CertificateFailed
from convval.functions import (cone_function, inf_if_convex, make, pwa_equal,
                               sup)
from convval.growth import make_growth
from convval.laws import (SUITES, check_invariance, check_level_convergence,
                          check_min_lattice, check_valuation_identity,
                          generate_pair_with_convex_min, random_body,
                          smoothing_sequence, staircase_fixture,
                          staircase_limit_check, truncation_fixture,
                          valuation_suite)
from convval.polyhedra import Polyhedron, intersect, volume
from convval.valuation import combined_valuation, integral_valuation
from counting import counted
from oracles import oracle_generate_pair

Z0 = make_growth([0, 2], [[2, -1]], require_nonnegative=True)
ZN = make_growth([0, 1], [[1]], require_nonnegative=True)


def zfn(u):
    return combined_valuation(Z0, ZN, u)


class TestPairGenerator:
    def test_deterministic(self):
        a = generate_pair_with_convex_min(42, 2)
        b = generate_pair_with_convex_min(42, 2)
        assert pwa_equal(a.u, b.u) and pwa_equal(a.v, b.v)

    def test_wedge_is_the_base(self):
        pair = generate_pair_with_convex_min(7, 2)
        wedge, vee = pair.lattice()
        rng = random.Random(1)
        for _ in range(20):
            x = (F(rng.randint(-8, 8), 3), F(rng.randint(-8, 8), 3))
            assert wedge.eval(x) == min(pair.u.eval(x), pair.v.eval(x))
            assert vee.eval(x) == max(pair.u.eval(x), pair.v.eval(x))

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(laws, "pwa_equal", lambda a, b: False)
        with pytest.raises(CertificateFailed):
            generate_pair_with_convex_min(7, 2)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 3]))
    def test_certified_across_seeds(self, seed, n):
        pair = generate_pair_with_convex_min(seed, n)
        wedge, vee = pair.lattice()
        assert pwa_equal(wedge, inf_if_convex(pair.u, pair.v))
        assert pwa_equal(vee, sup(pair.u, pair.v))
        assert check_min_lattice(pair).passed


class TestFixturePair:
    """The pair hands out what the generator certified: the wedge is the
    base w and the vee is built on first read.  Every report is the one the
    eager generator (``oracle_generate_pair``) gives."""

    @pytest.mark.parametrize("name", list(SUITES))
    def test_reports_equal_the_eager_generators(self, monkeypatch, name):
        suite = SUITES[name][0]
        got = [suite(seed, 3, n) for n in (1, 2, 3) for seed in (0, 7)]
        monkeypatch.setattr(laws, "generate_pair_with_convex_min", oracle_generate_pair)
        assert got == [suite(seed, 3, n) for n in (1, 2, 3) for seed in (0, 7)]

    def test_valuation_reports_equal_the_eager_generators_at_n4(self, monkeypatch):
        got = valuation_suite(0, 2, 4)
        monkeypatch.setattr(laws, "generate_pair_with_convex_min", oracle_generate_pair)
        assert got == valuation_suite(0, 2, 4)

    def test_the_vee_is_built_once_on_first_read(self):
        with counted(functions, "sup") as calls:
            pair = generate_pair_with_convex_min(3, 2)
            assert calls == []
            _, vee = pair.lattice()
            assert len(calls) == 1
            assert pair.lattice()[1] is vee and len(calls) == 1
        assert pwa_equal(vee, sup(pair.u, pair.v))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_polar_double_description_fewer_per_pair(self, n):
        def polar_dds(generate):
            with counted(polyhedra, "vrep_to_hrep") as calls:
                for seed in range(3):
                    generate(seed, n).lattice()
            return len(calls)

        assert polar_dds(generate_pair_with_convex_min) == polar_dds(oracle_generate_pair) - 3

    def test_pwa_equal_builds_no_from_epigraph_result(self):
        pair = generate_pair_with_convex_min(1, 2)
        hull = inf_if_convex(pair.u, pair.v)
        assert pwa_equal(hull, pair.wedge) and pwa_equal(pair.wedge, hull)
        assert not pwa_equal(hull, pair.u)
        assert "pieces" not in vars(hull)


class TestValuationIdentity:
    def test_on_generated_pairs(self):
        for seed in range(8):
            pair = generate_pair_with_convex_min(seed, 2)
            rep = check_valuation_identity(zfn, pair)
            assert rep.passed and rep.tolerance == 0
            assert rep.left == rep.right

    def test_suite_at_n4(self):
        """An n = 4 slice of acceptance criterion 1: pairs 0 and 1, the three
        default weight pairs and the minima of the lattice, all exact."""
        reports = valuation_suite(0, 2, 4)
        assert len(reports) == 8
        assert all(rep.passed and rep.tolerance == 0 for rep in reports)

    def test_fails_for_a_broken_functional(self):
        # a non-valuation (squared sublevel volume) must be caught
        bad = lambda u: volume(u.sublevel(5)) ** 2
        failed = 0
        for seed in range(6):
            pair = generate_pair_with_convex_min(seed, 2)
            if not check_valuation_identity(bad, pair).passed:
                failed += 1
        assert failed > 0


class TestInvariance:
    def test_exact_invariance(self):
        pair = generate_pair_with_convex_min(3, 2)
        rep = check_invariance(zfn, pair.u, trials=5, seed=0, translations=3)
        assert rep.passed

    def test_catches_non_invariant_functional(self):
        # evaluation at a point is not translation invariant
        probe = lambda u: u.eval((F(1), F(1))) if u.eval((F(1), F(1))) != float("inf") else F(10 ** 6)
        pair = generate_pair_with_convex_min(3, 2)
        rep = check_invariance(probe, pair.u, trials=8, seed=0, translations=2)
        assert not rep.passed and rep.witness is not None
        assert rep.tolerance == 0
        rep = check_invariance(lambda u: float(probe(u)), pair.u, trials=8, seed=0,
                               translations=2)
        assert not rep.passed and rep.tolerance == 1e-9

    def test_reports_the_tolerance_it_compared_with(self):
        """A tailed weight gives a float valuation, compared to 1e-9; an
        exact one is compared with tolerance 0.  Either way
        |left - right| <= tolerance."""
        tailed = make_growth([0], [], tail=(1, [1]))
        u = generate_pair_with_convex_min(3, 2).u
        rep = check_invariance(lambda f: combined_valuation(tailed, ZN, f), u, trials=2, seed=0)
        assert rep.passed and isinstance(rep.left, float) and rep.tolerance == 1e-9
        assert abs(rep.left - rep.right) <= rep.tolerance
        rep = check_invariance(zfn, u, trials=2, seed=0)
        assert rep.passed and isinstance(rep.left, F) and rep.tolerance == 0


class TestTruncationFixture:
    @pytest.mark.parametrize("s", [F(1, 2), F(1), F(2)])
    def test_lattice_identities(self, s):
        u_s, lp, lps, lqs = truncation_fixture(2, s)
        assert pwa_equal(inf_if_convex(u_s, lps), lp)
        assert pwa_equal(sup(u_s, lps), lqs)

    def test_sublevel_inclusion_exclusion(self):
        s = F(1)
        u_s, lp, lps, lqs = truncation_fixture(2, s)
        for t in (F(1, 2), F(1), F(3, 2), F(3)):
            a, b = u_s.sublevel(t), lps.sublevel(t)
            lhs = volume(lp.sublevel(t))
            if b.is_empty:
                assert lhs == volume(a)
            else:
                assert lhs == volume(a) + volume(b) - volume(intersect(a, b))

    def test_n3(self):
        u_s, lp, lps, lqs = truncation_fixture(3, F(1))
        assert pwa_equal(inf_if_convex(u_s, lps), lp)
        assert pwa_equal(sup(u_s, lps), lqs)


class TestStaircase:
    def test_endpoints(self):
        h = (F(1), F(2))
        u0 = staircase_fixture(2, h, 0)
        uk = staircase_fixture(2, h, 2)
        # u0 is the cone function of conv{0, e1/h1, e2/h2}... actually of the
        # box scaled per-axis: check values directly
        assert u0.eval((F(1, 2), F(1, 4))) == F(1, 2) * 1 + F(1, 4) * 2
        assert uk.eval((F(1, 2), F(1, 2))) == 0
        assert uk.eval((2, 0)) == float("inf")

    def test_valuations_interpolate(self):
        h = (F(1), F(1))
        vals = [integral_valuation(Z0, staircase_fixture(2, h, i)) for i in range(3)]
        assert all(v >= 0 for v in vals)
        # the fully-truncated staircase is the cube indicator: Z = zeta(0) * 1
        assert vals[2] == Z0.eval(0)

    def test_limit_check(self):
        rep = staircase_limit_check(ZN, 1, F(1, 2), [F(1, 16), F(1, 64), F(1, 256)])
        assert rep.passed
        rep2 = staircase_limit_check(Z0, 2, F(1, 2), [F(1, 16), F(1, 64), F(1, 256)])
        assert rep2.passed
        assert rep2.details["order"] is None or rep2.details["order"] >= 0.9


class TestSmoothing:
    def test_sequence_below_and_converging(self):
        u = make([((2, 0), 0), ((-2, 0), 0), ((0, 2), 0), ((0, -2), 0)], n=2)
        body = Polyhedron.box([(-1, 1), (-1, 1)])
        seq = [smoothing_sequence(u, body, 2 ** j) for j in range(5)]
        x = (F(1), F(1))
        vals = [s.eval(x) for s in seq]
        assert all(v <= u.eval(x) for v in vals)
        assert vals == sorted(vals)

    def test_level_convergence_report(self):
        u = make([((2, 0), 0), ((-2, 0), 0), ((0, 2), 0), ((0, -2), 0)], n=2)
        body = Polyhedron.box([(-1, 1), (-1, 1)])
        seq = [smoothing_sequence(u, body, 2 ** j) for j in range(6)]
        rep = check_level_convergence(seq, u, [F(1), F(2)])
        assert rep.passed

    def test_failure_reported(self):
        u = make([((2, 0), 0), ((-2, 0), 0), ((0, 2), 0), ((0, -2), 0)], n=2)
        other = make([((1, 0), -5), ((-1, 0), -5), ((0, 1), -5), ((0, -1), -5)], n=2)
        rep = check_level_convergence([other], u, [F(1)])
        assert not rep.passed and rep.witness is not None


class TestLevelDistance:
    """Per-level Hausdorff distances reported by check_level_convergence."""

    def test_zero_for_equal_functions(self):
        u = make([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)], n=2)
        rep = check_level_convergence([u], u, [F(1, 2), 1, 2])
        assert rep.passed
        assert rep.details["distances"] == {F(1, 2): [0.0], F(1): [0.0], F(2): [0.0]}

    def test_shifted_functions(self):
        u = make([((1,), 0), ((-1,), 0)], n=1)
        v = make([((1,), -1), ((-1,), 1)], n=1)  # |x - 1|
        rep = check_level_convergence([v], u, [1, 2])
        assert not rep.passed
        for t in (F(1), F(2)):
            assert rep.details["distances"][t] == [pytest.approx(1.0)]

    def test_level_below_one_minimum_is_infinite(self):
        u = make([((1,), 0), ((-1,), 0)], n=1)
        v = u.translate_graph(1)  # empty sublevel set at level 1/2
        rep = check_level_convergence([v], u, [F(1, 2)])
        assert rep.details["distances"][F(1, 2)] == [math.inf]


class TestRandomBody:
    def test_origin_interior_and_bounded(self):
        for seed in range(6):
            for n in (2, 3):
                body = random_body(seed, n)
                assert body.is_bounded
                assert volume(body) > 0
                assert body.contains(tuple(F(0) for _ in range(n)))
                cone_function(body)  # must not raise
