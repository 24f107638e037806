"""Piecewise-affine convex functions: construction, lattice ops, transforms."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from convval.errors import EmptyDomain, NotCoercive, NotConvexMin, NotUnimodular
from convval.functions import (cone_function, indicator_function,
                               inf_if_convex, make, pwa_equal, sup, transform)
from convval.linalg import dot
from convval.polyhedra import HRep, Polyhedron, volume


def unit_square():
    return Polyhedron.box([(0, 1), (0, 1)])


def abs2():
    """|x|_inf-like max of +-x_i slopes: coercive on R^2."""
    return make([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0),
                 ((1, 1), 0), ((-1, -1), 0), ((1, -1), 0), ((-1, 1), 0)], n=2)


class TestConstruction:
    def test_eval_inside_and_outside(self):
        u = make([((1, 0), 0), ((0, 1), 0)], unit_square(), n=2)
        assert u.eval((F(1, 2), F(1, 4))) == F(1, 2)
        assert u.eval((2, 0)) == float("inf")

    def test_coercivity_rejected_for_unbounded_sublevels(self):
        with pytest.raises(NotCoercive):
            make([((1, 0), 0)], n=2)  # affine on R^2: sublevels unbounded

    def test_relaxed_class_allows_affine(self):
        u = make([((1, 0), 0)], n=2, coercive=False)
        assert not u.coercive and u.eval((3, 5)) == 3

    def test_empty_domain_rejected(self):
        dom = HRep(1, (((F(1),), F(0)), ((F(-1),), F(-1))))
        with pytest.raises(EmptyDomain):
            make([((1,), 0)], dom, n=1)

    def test_inactive_pieces_pruned(self):
        u = make([((1,), 0), ((-1,), 0), ((0,), -5)], n=1)
        assert len(u.pieces) == 2  # the constant -5 never attains the max

    def test_pieces_active_at_a_single_point_kept(self):
        # the 0 piece of max(x, -x, 0) is active at x = 0 only: the prune
        # rule is "nonempty active set", not "full-dimensional cell"
        u = make([((1,), 0), ((-1,), 0), ((0,), 0)], n=1)
        assert len(u.pieces) == 3
        assert [cell.dim for _, cell in u.cells] == [1, 1, 0]

    def test_min_value_and_argmin(self):
        u = make([((1,), -1), ((-1,), -1)], n=1)  # |x| - 1
        m, arg = u.min_value()
        assert m == -1
        assert arg.vrep.vertices == ((F(0),),)

    def test_flat_bottom_argmin(self):
        u = make([((1,), -1), ((-1,), 0)], n=1)  # max(x-1, -x): flat on [0,1]? no
        # max(x - 1, -x) has minimum at x = 1/2; use explicit flat example:
        v = make([((1,), -1), ((-1,), -1), ((0,), 0)], n=1)  # max(|x| - 1, 0)
        m, arg = v.min_value()
        assert m == 0 and volume(arg) == 2

    def test_no_writes_after_construction(self):
        u = make([((1,), -1), ((-1,), -1), ((0,), 0)], n=1)
        before = dict(vars(u))
        assert len(u.cells) == 3 and u.min_value()[0] == 0
        assert u.cells is u.cells and u.min_value() is u.min_value()
        assert vars(u) == before

    def test_sublevel(self):
        u = abs2()
        s = u.sublevel(1)
        assert s.is_bounded and s.contains((0, 0)) and not s.contains((2, 0))
        assert u.sublevel(-1).is_empty


class TestIndicatorAndCone:
    def test_indicator(self):
        u = indicator_function(unit_square(), t=F(3, 2))
        assert u.eval((F(1, 2), F(1, 2))) == F(3, 2)
        assert u.eval((2, 2)) == float("inf")
        assert u.coercive

    def test_indicator_of_unbounded_set_not_coercive(self):
        halfline = Polyhedron.from_halfspaces(1, [((F(-1),), F(0))])
        assert not indicator_function(halfline).coercive

    def test_cone_gauge_oracle(self):
        body = Polyhedron.from_generators(2, [(1, 1), (-1, 1), (-1, -1), (1, -1)])
        u = cone_function(body)
        rng = random.Random(7)
        rows = body.canonical_hrep.halfspaces
        for _ in range(30):
            x = (F(rng.randint(-9, 9), rng.randint(1, 4)),
                 F(rng.randint(-9, 9), rng.randint(1, 4)))
            gauge = max((dot(c, x) / d for c, d in rows), default=F(0))
            assert u.eval(x) == max(gauge, 0)

    def test_cone_sublevels_are_scaled_bodies(self):
        body = Polyhedron.from_generators(2, [(2, 0), (0, 1), (-1, -1)])
        u = cone_function(body)
        assert u.sublevel(1) == body
        from convval.polyhedra import scale
        assert u.sublevel(F(3, 2)) == scale(body, F(3, 2))
        assert u.min_value()[0] == 0

    def test_cone_needs_origin(self):
        from convval.errors import OriginNotInBody
        shifted = Polyhedron.box([(1, 2), (1, 2)])
        with pytest.raises(OriginNotInBody):
            cone_function(shifted)


class TestLattice:
    def test_sup_is_pointwise_max(self):
        u = make([((1,), 0), ((-1,), 0)], n=1)
        v = make([((0,), F(1, 2))], n=1, coercive=False)
        w = sup(u, v)
        assert w.eval((F(1, 4),)) == F(1, 2) and w.eval((2,)) == 2

    def test_inf_convex_case(self):
        # min(max(x, -x + 1), max(x - 1, -x)) wedge is not convex; convex case:
        u = make([((1,), 0), ((-1,), 0)], n=1)
        v = make([((2,), 0), ((-2,), 0)], n=1)
        w = inf_if_convex(u, v)  # min(|x|, 2|x|) = |x|
        assert pwa_equal(w, u)

    def test_inf_nonconvex_raises_with_witness(self):
        u = make([((1,), 0), ((-1,), 0)], n=1)            # |x|
        v = make([((1,), -2), ((-1,), 2)], n=1)           # |x - 2|
        with pytest.raises(NotConvexMin) as exc:
            inf_if_convex(u, v)
        (x,) = exc.value.witness
        # at the witness the min really exceeds the convex hull function
        assert 0 < x < 2

    def test_min_respects_lattice_minima(self):
        u = make([((1,), 0), ((-1,), 0)], n=1)
        v = make([((3,), 1), ((-3,), 1)], n=1)
        w = inf_if_convex(u, v)
        assert w.min_value()[0] == 0
        assert sup(u, v).min_value()[0] == 1

    def test_indicator_lattice(self):
        a = indicator_function(Polyhedron.box([(0, 2)]))
        b = indicator_function(Polyhedron.box([(1, 3)]))
        w = inf_if_convex(a, b)  # indicator of the union [0,3] (convex here)
        assert pwa_equal(w, indicator_function(Polyhedron.box([(0, 3)])))
        assert pwa_equal(sup(a, b), indicator_function(Polyhedron.box([(1, 2)])))


class TestTransform:
    def shear(self):
        return [[F(1), F(1)], [F(0), F(1)]]

    def test_values_move_with_the_graph(self):
        u = abs2()
        phi, tau = self.shear(), (F(1), F(-2))
        v = transform(u, phi, tau, shift=F(3))
        rng = random.Random(3)
        inv = [[F(1), F(-1)], [F(0), F(1)]]
        for _ in range(25):
            x = (F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2))
            y = tuple(sum(inv[i][j] * (x[j] - tau[j]) for j in range(2)) for i in range(2))
            assert v.eval(x) == u.eval(y) + 3

    def test_non_unimodular_rejected(self):
        with pytest.raises(NotUnimodular):
            transform(abs2(), [[2, 0], [0, 1]], (0, 0))

    def test_involution(self):
        u = make([((1, 2), 0), ((-1, 0), 1), ((0, -2), F(1, 2))],
                 unit_square(), n=2)
        phi = self.shear()
        inv = [[F(1), F(-1)], [F(0), F(1)]]
        v = transform(transform(u, phi, (1, 1), shift=2), inv,
                      tuple(-sum(inv[i][j] for j in range(2)) for i in range(2)),
                      shift=-2)
        assert pwa_equal(u, v)


class TestRefinement:
    """``u.cells`` subdivides the domain into the cells of the active pieces."""

    def test_cell_count_and_cover(self):
        # |x1| + |x2| + |x1 + 2 x2| on [-1, 2] x [-1, 1] as a max over the 8
        # sign choices: the line x1 + 2 x2 = 0 cuts two quadrants of the l1
        # norm into 6 full cells, and the two sign choices that contradict
        # each other, (+, +, -) and (-, -, +), are active at the origin only
        pieces = [((s1 + s3, s2 + 2 * s3), 0)
                  for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
        dom = Polyhedron.box([(-1, 2), (-1, 1)])
        u = make(pieces, dom, n=2)
        assert len(u.cells) == len(u.pieces) == 8
        assert sorted(cell.dim for _, cell in u.cells) == [0, 0, 2, 2, 2, 2, 2, 2]
        assert [p for p, _ in u.cells] == list(u.pieces)
        for (a, b), cell in u.cells:
            x = cell.relint_point()
            assert u.eval(x) == dot(a, x) + b
        assert sum(volume(cell) for _, cell in u.cells) == volume(dom) == 6

    def test_cells_are_cached(self):
        u = abs2()
        assert u.cells is u.cells


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sup_against_pointwise_oracle(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2])
    mk = lambda: make([(tuple(F(rng.randint(1, 3)) * s for s in signs), F(rng.randint(-2, 2)))
                       for signs in __import__("itertools").product((1, -1), repeat=n)], n=n)
    u, v = mk(), mk()
    w = sup(u, v)
    for _ in range(10):
        x = tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n))
        assert w.eval(x) == max(u.eval(x), v.eval(x))
