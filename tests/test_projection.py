"""``polyhedra.nearest_point``, the integer loop behind it and its two
callers, against the routes it replaced (``oracles.py``): the KKT loop of
``moreau_eval`` and the distance over every face projection, which both
examine every subset where the loop stops at the first KKT point,
``nearest_point`` itself as it was on ``Fraction`` rows, and
``hausdorff_distance`` as it was on ``Fraction`` points.  Every comparison
is an exact ``==``.
"""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from convval import linalg, polyhedra
from convval.conjugacy import moreau_eval
from convval.errors import BudgetExceeded, EmptyPolyhedron
from convval.functions import make
from convval.linalg import dot, vec_sub
from convval.polyhedra import Polyhedron, cut_by, hausdorff_distance, nearest_point
from counting import counted
from oracles import (function_cases, hull_point, oracle_dist2, oracle_hausdorff_distance,
                     oracle_moreau, oracle_nearest_point, outcome, rationals)

coords = rationals(3, 3, 4)
T_VALUES = [F(1, 4), F(1, 2), F(1), F(2), F(4)]


@st.composite
def bodies(draw):
    """Hulls of points in d = 1-4, some of them flat, some cut by a row."""
    d = draw(st.integers(1, 4))
    pts = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=6))
    if d > 1 and draw(st.booleans()):  # on the hyperplane x_d = x_1
        pts = [p[:-1] + [p[0]] for p in pts]
    body = Polyhedron.from_generators(d, pts)
    if draw(st.booleans()):
        row = (draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)), draw(coords))
        body, _ = next(cut_by(body, [[row]]))
    assume(not body.is_empty)
    return body


# ---------------------------------------------------------------------------
# Exact agreement with the oracles
# ---------------------------------------------------------------------------


class TestAgainstEveryFaceProjection:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_moreau_eval(self, data):
        n = data.draw(st.integers(1, 3))
        u = data.draw(st.sampled_from(function_cases(n)))
        t = data.draw(st.sampled_from(T_VALUES))
        x = tuple(data.draw(st.lists(coords, min_size=n, max_size=n)))
        assert moreau_eval(u, t, x) == oracle_moreau(u, t, x)

    @settings(max_examples=150, deadline=None)
    @given(bodies(), st.data())
    def test_nearest_point_distance(self, body, data):
        d = body.d
        if data.draw(st.booleans()):
            x = hull_point(data, body.vrep.vertices)
        else:
            x = tuple(F(c) for c in data.draw(st.lists(coords, min_size=d, max_size=d)))
        y = nearest_point(body, x)
        assert body.contains(y)
        assert dot(vec_sub(y, x), vec_sub(y, x)) == oracle_dist2(x, body)


@st.composite
def hausdorff_pairs(draw):
    """Two bodies in the same R^d: a body of ``bodies`` and a hull of drawn
    points, a single point or the empty set, in either order."""
    k = draw(bodies())
    d = k.d
    kind = draw(st.sampled_from(["hull", "point", "empty", "same"]))
    point = st.lists(coords, min_size=d, max_size=d)
    if kind == "hull":
        l = Polyhedron.from_generators(d, draw(st.lists(point, min_size=1, max_size=5)))
    elif kind == "point":
        l = Polyhedron.from_generators(d, [draw(point)])
    elif kind == "empty":
        l = Polyhedron.empty(d)
    else:
        l = Polyhedron(k.hrep)
    return (k, l) if draw(st.booleans()) else (l, k)


class TestAgainstTheFractionRoute:
    @settings(max_examples=150, deadline=None)
    @given(hausdorff_pairs())
    def test_hausdorff_distance(self, pair):
        k, l = pair
        got = hausdorff_distance(k, l)
        assert type(got) is float
        assert got == oracle_hausdorff_distance(k, l)


    @settings(max_examples=200, deadline=None)
    @given(bodies(), st.data())
    def test_same_point_and_same_budget_failures(self, body, data):
        d = body.d
        verts = body.vrep.vertices
        where = data.draw(st.sampled_from(["inside", "vertex", "outside", "fine"]))
        if where == "inside":
            x = hull_point(data, verts)
        elif where == "vertex":
            x = data.draw(st.sampled_from(verts))
        else:
            x = tuple(F(c) for c in data.draw(st.lists(coords, min_size=d, max_size=d)))
            if where == "fine":  # large, coprime denominators
                x = tuple(c + F(data.draw(st.integers(-10 ** 6, 10 ** 6)), 10 ** 9 + 7)
                          for c in x)
        budget = data.draw(st.sampled_from([1, 2, 3, 5, 8, 13, 10 ** 6]))
        got = outcome(nearest_point, body, x, budget)
        assert got == outcome(oracle_nearest_point, body, x, budget)
        if got != ("BudgetExceeded",):  # any other error fails here too
            assert all(type(c) is F for c in got)


# ---------------------------------------------------------------------------
# Budgets, failures and counts
# ---------------------------------------------------------------------------


def absx():
    return make([((1,), 0), ((-1,), 0)], n=1)


class TestBudgetAndCounts:
    def test_budget_caps_one_cells_subsets(self):
        # At x = 3, t = 1: x - t = 2 lies in the cell of x (one subset), and
        # x + t = 4 lies outside the cell of -x, whose projection needs a second.
        with pytest.raises(BudgetExceeded):
            moreau_eval(absx(), 1, (3,), budget=1)
        assert moreau_eval(absx(), 1, (3,), budget=2) == F(5, 2)

    def test_nearest_point_budget(self):
        square = Polyhedron.box([(0, 1), (0, 1)])
        with pytest.raises(BudgetExceeded):
            nearest_point(square, (5, 5), budget=3)
        assert nearest_point(square, (5, 5), budget=20) == (1, 1)

    def test_no_solve_for_a_point_inside(self):
        # Each subset beyond the empty one is one ``echelon`` of its Gram
        # system; a point of the body is its own answer, with none.
        square = Polyhedron.box([(0, 1), (0, 1)])
        square.canonical_hrep
        with counted(linalg, "echelon") as calls:
            assert nearest_point(square, (F(1, 2), F(1, 3))) == (F(1, 2), F(1, 3))
        assert calls == []
        with counted(linalg, "echelon") as calls:
            assert nearest_point(square, (2, F(1, 3))) == (1, F(1, 3))
        assert calls

    def test_one_projection_per_cell(self):
        for n in (1, 2, 3):
            for u in function_cases(n):
                with counted(polyhedra, "_projection") as calls:
                    moreau_eval(u, F(1, 2), (F(1, 3),) * n)
                assert len(calls) == len(u.cells)

    def test_empty_body(self):
        with pytest.raises(EmptyPolyhedron):
            nearest_point(Polyhedron.empty(2), (0, 0))


def test_every_corner_of_a_cube():
    cube = Polyhedron.box([(0, 1)] * 3)
    for signs in product((-1, 0, 1), repeat=3):
        x = tuple(F(1, 2) + F(3, 2) * s for s in signs)
        want = tuple(min(max(c, F(0)), F(1)) for c in x)
        assert nearest_point(cube, x) == want
