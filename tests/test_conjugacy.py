"""Conjugation, infimal convolution, epi-scaling, Moreau envelopes, cone bounds."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from convval.conjugacy import (ConeBound, biconjugate_check, cone_bound,
                               conjugate, epi_scale, inf_convolution,
                               moreau_eval, uniform_cone_bound)
from convval.errors import CertificateFailed, DimensionMismatch, NotCoercive, UnboundedPolyhedron
from convval.functions import cone_function, indicator_function, make, pwa_equal
from convval.laws import generate_pair_with_convex_min
from convval.polyhedra import Polyhedron
from oracles import python_stdout


def l1_ball(n):
    pts = [tuple(F(s) if j == i else F(0) for j in range(n))
           for i in range(n) for s in (1, -1)]
    return Polyhedron.from_generators(n, pts)


class TestConjugate:
    def test_indicator_of_box_gives_l1_norm(self):
        u = indicator_function(Polyhedron.box([(-1, 1), (-1, 1)]))
        s = conjugate(u)
        for y in [(0, 0), (1, 2), (-3, F(1, 2)), (F(2, 3), F(-5, 7))]:
            assert s.eval(y) == abs(F(y[0])) + abs(F(y[1]))

    def test_support_function_duality(self):
        # conjugate of a cone function is the indicator of the polar-scaled body
        # check numerically: (l_K)*(y) = sup over K of <y, x> - gauge excess = 0
        # on the region where <y, x> <= l_K(x) for all x, i.e. exactly Ind of
        # the 1-sublevel body of the support machinery; verify by values.
        k = l1_ball(2)
        u = cone_function(k)
        s = conjugate(u)
        # y in the dual box [-1,1]^2 gives 0; outside gives +inf
        assert s.eval((1, 1)) == 0 and s.eval((F(-1), F(1, 2))) == 0
        assert s.eval((F(3, 2), 0)) == float("inf")

    def test_affine_minus(self):
        # u(x) = |x| + 1 => u*(y) = -1 on [-1, 1]
        u = make([((1,), 1), ((-1,), 1)], n=1)
        s = conjugate(u)
        assert s.eval((F(1, 2),)) == -1 and s.eval((2,)) == float("inf")

    def test_order_reversal(self):
        u = make([((1,), 0), ((-1,), 0)], n=1)          # |x|
        v = make([((1,), -1), ((-1,), -1)], n=1)        # |x| - 1 <= |x|
        su, sv = conjugate(u), conjugate(v)
        for y in (F(-1), F(0), F(1, 2), F(1)):
            assert sv.eval((y,)) >= su.eval((y,))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 5), st.sampled_from([1, 2, 3]))
    def test_biconjugation_on_generated_fixtures(self, seed, n):
        pair = generate_pair_with_convex_min(seed, n)
        assert biconjugate_check(pair.u)
        assert biconjugate_check(conjugate(pair.v))

    def test_fenchel_young(self):
        rng = random.Random(11)
        u = make([((1, 1), 0), ((-1, 1), 1), ((0, -2), F(-1, 2)), ((2, -1), 0)], n=2)
        s = conjugate(u)
        for _ in range(40):
            x = (F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2))
            y = (F(rng.randint(-6, 6), 3), F(rng.randint(-6, 6), 3))
            sy = s.eval(y)
            if sy != float("inf"):
                assert u.eval(x) + sy >= x[0] * y[0] + x[1] * y[1]


class TestInfConvolution:
    def test_conjugate_turns_infconv_into_sum(self):
        u = make([((1,), 0), ((-1,), 0)], n=1)
        v = make([((2,), 1), ((-2,), 1)], n=1)
        left = conjugate(inf_convolution(u, v))
        right_u, right_v = conjugate(u), conjugate(v)
        rng = random.Random(5)
        hits = 0
        for _ in range(100):
            y = (F(rng.randint(-12, 12), rng.randint(4, 10)),)
            lv = left.eval(y)
            rv = (right_u.eval(y), right_v.eval(y))
            if float("inf") in (lv,) or float("inf") in rv:
                assert lv == float("inf") or float("inf") in rv
            else:
                assert lv == rv[0] + rv[1]
                hits += 1
        assert hits >= 30

    def test_commutes_and_associates(self):
        a = make([((1,), 0), ((-1,), 0)], n=1)
        b = make([((3,), -1), ((-3,), 2)], n=1)
        c = indicator_function(Polyhedron.box([(0, 1)]))
        assert pwa_equal(inf_convolution(a, b), inf_convolution(b, a))
        assert pwa_equal(inf_convolution(inf_convolution(a, b), c),
                         inf_convolution(a, inf_convolution(b, c)))

    def test_indicator_convolution_is_set_sum(self):
        a = indicator_function(Polyhedron.box([(0, 1), (0, 1)]))
        b = indicator_function(Polyhedron.from_generators(2, [(0, 0), (1, 1)]))
        w = inf_convolution(a, b)
        from convval.polyhedra import minkowski_sum
        expected = indicator_function(minkowski_sum(
            Polyhedron.box([(0, 1), (0, 1)]),
            Polyhedron.from_generators(2, [(0, 0), (1, 1)])))
        assert pwa_equal(w, expected)

    def test_min_values_add(self):
        u = make([((1,), 2), ((-1,), 2)], n=1)
        v = make([((1,), -5), ((-1,), -5)], n=1)
        assert inf_convolution(u, v).min_value()[0] == 2 - 5

    def test_minus_infinity_somewhere_is_unbounded(self):
        """x inf-convolved with -x is -inf on R: the sum of the epigraphs is
        unbounded below, which is not the epigraph of a proper function."""
        u = make([((1,), 0)], coercive=False)
        v = make([((-1,), 0)], coercive=False)
        with pytest.raises(UnboundedPolyhedron, match="unbounded below"):
            inf_convolution(u, v)


class TestEpiScale:
    def test_scaling_values(self):
        u = make([((1,), 1), ((-1,), 1)], n=1)  # |x| + 1
        t = F(3, 2)
        ut = epi_scale(u, t)
        rng = random.Random(2)
        for _ in range(20):
            x = F(rng.randint(-9, 9), rng.randint(1, 4))
            assert ut.eval((x,)) == t * u.eval((x / t,))

    def test_conjugate_of_scaled(self):
        # (u_t)* = t * u* pointwise
        u = make([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)], n=2)
        t = F(5, 3)
        left = conjugate(epi_scale(u, t))
        right = conjugate(u)
        rng = random.Random(9)
        for _ in range(25):
            y = (F(rng.randint(-4, 4), 3), F(rng.randint(-4, 4), 3))
            lv, rv = left.eval(y), right.eval(y)
            assert (lv == float("inf")) == (rv == float("inf"))
            if lv != float("inf"):
                assert lv == t * rv

    def test_rejects_nonpositive(self):
        u = make([((1,), 0), ((-1,), 0)], n=1)
        with pytest.raises(ValueError):
            epi_scale(u, 0)


class TestMoreau:
    def test_quadratic_for_point_indicator(self):
        origin = Polyhedron.from_generators(2, [(0, 0)])
        u = indicator_function(origin)
        rng = random.Random(4)
        for _ in range(20):
            t = F(rng.randint(1, 8), rng.randint(1, 4))
            x = (F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2))
            assert moreau_eval(u, t, x) == (x[0] ** 2 + x[1] ** 2) / (2 * t)

    def test_huber(self):
        # e_t |.| is the Huber function: x^2/(2t) for |x| <= t, |x| - t/2 beyond
        u = make([((1,), 0), ((-1,), 0)], n=1)
        t = F(1, 2)
        assert moreau_eval(u, t, (F(1, 4),)) == F(1, 16) / (2 * t)
        assert moreau_eval(u, t, (F(3,),)) == 3 - t / 2
        assert moreau_eval(u, t, (F(-3),)) == 3 - t / 2

    def test_below_function_and_monotone_in_t(self):
        u = make([((1, 1), 0), ((-1, 1), 1), ((1, -1), 0), ((-1, -1), 0)], n=2)
        x = (F(1), F(-2))
        prev = None
        for t in (F(1, 2), F(1, 4), F(1, 8)):
            val = moreau_eval(u, t, x)
            assert val <= u.eval(x)
            if prev is not None:
                assert val >= prev  # smaller t => tighter envelope
            prev = val

    def test_point_coordinates_of_any_type(self):
        u = make([((1, 1), 0), ((-1, 1), 1), ((1, -1), 0), ((-1, -1), 0)], n=2)
        t = F(1, 3)
        want = moreau_eval(u, t, (F(1), F(-2)))
        assert want == moreau_eval(u, t, (1, -2)) == moreau_eval(u, t, (1.0, -2.0))
        assert want == moreau_eval(u, t, ("1", "-2"))
        want = moreau_eval(u, t, (F(1, 2), F(-3, 4)))
        assert want == moreau_eval(u, t, (0.5, -0.75)) == moreau_eval(u, t, ("1/2", "-3/4"))
        for point in ((1,), (1, 2, 3)):
            with pytest.raises(DimensionMismatch):
                moreau_eval(u, t, point)

    def test_against_dense_grid_oracle(self):
        u = make([((1,), -1), ((-1,), 0), ((3,), -4)], n=1)
        t = F(2, 3)
        for x in (F(-2), F(0), F(1, 2), F(3)):
            exact = moreau_eval(u, t, (x,))
            grid = min(float(u.eval((F(k, 512),)))
                       + float((x - F(k, 512)) ** 2) / (2 * float(t))
                       for k in range(-4 * 512, 4 * 512 + 1))
            assert abs(float(exact) - grid) < 1e-4
            assert float(exact) <= grid + 1e-12


class TestConeBounds:
    def test_holds_and_tight_checks(self):
        u = make([((1,), 0), ((-1,), 0)], n=1)  # |x|
        assert ConeBound(F(1, 2), F(-1)).holds_for(u)
        assert not ConeBound(F(2), F(-1)).holds_for(u)   # slope too steep
        assert not ConeBound(F(1, 2), F(1)).holds_for(u)  # offset too high

    def test_certified_bound(self):
        u = make([((1, 1), 0), ((-1, 1), 1), ((1, -1), 0), ((-1, -1), 0)], n=2)
        b = cone_bound(u)
        assert b.a > 0 and b.holds_for(u)

    def test_shift_moves_offset_only(self):
        u = make([((1,), 0), ((-1,), 0)], n=1)
        b = cone_bound(u)
        b10 = cone_bound(u.translate_graph(10))
        assert b10.a == b.a and b10.b == b.b + 10

    def test_noncoercive_rejected(self):
        u = make([((1, 0), 0)], n=2, coercive=False)
        with pytest.raises(NotCoercive):
            cone_bound(u)

    def test_uniform_bound(self):
        us = [make([((k,), 0), ((-k,), 0)], n=1) for k in (1, 2, 5)]
        b = uniform_cone_bound(us)
        assert all(b.holds_for(u) for u in us)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 5), st.sampled_from([1, 2]))
    def test_random_fixtures_certified(self, seed, n):
        pair = generate_pair_with_convex_min(seed, n)
        for u in (pair.u, pair.v):
            b = cone_bound(u)
            assert b.a > 0 and b.holds_for(u)

    def test_failed_certificates_raise(self, monkeypatch):
        import convval.conjugacy as conjugacy
        absx = make([((1,), 0), ((-1,), 0)], n=1)
        monkeypatch.setattr(ConeBound, "holds_for", lambda self, u: False)
        with pytest.raises(CertificateFailed):
            cone_bound(absx)
        monkeypatch.undo()
        # slope 2 is too steep for |x|, so the combined bound fails its re-check
        monkeypatch.setattr(conjugacy, "cone_bound", lambda u: ConeBound(F(2), F(-1)))
        with pytest.raises(CertificateFailed):
            uniform_cone_bound([absx])

    def test_failed_certificates_raise_under_optimize(self):
        code = (
            "from fractions import Fraction\n"
            "import convval.conjugacy as conjugacy\n"
            "from convval.errors import CertificateFailed\n"
            "from convval.functions import make\n"
            "assert False, 'asserts are live'\n"
            "absx = make([((1,), 0), ((-1,), 0)], n=1)\n"
            "holds_for = conjugacy.ConeBound.holds_for\n"
            "conjugacy.ConeBound.holds_for = lambda self, u: False\n"
            "try:\n"
            "    conjugacy.cone_bound(absx)\n"
            "except CertificateFailed:\n"
            "    print('cone_bound raised')\n"
            "conjugacy.ConeBound.holds_for = holds_for\n"
            "conjugacy.cone_bound = lambda u: conjugacy.ConeBound(Fraction(2), Fraction(-1))\n"
            "try:\n"
            "    conjugacy.uniform_cone_bound([absx])\n"
            "except CertificateFailed:\n"
            "    print('uniform_cone_bound raised')\n"
        )
        assert python_stdout(code, "-O").split("\n")[:2] == ["cone_bound raised",
                                                           "uniform_cone_bound raised"]
