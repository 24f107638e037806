"""``polyhedra.nearest_point`` and its two callers, against the routes it
replaced.

The oracles below are copied from the routes before it: the KKT loop of
``moreau_eval``, which tried every independent subset of a cell's facet rows
and kept the least value, and ``_dist2_point_polytope``, which kept the least
squared distance over every face projection that lies in the body.  Both
examine every subset; ``nearest_point`` stops at the first KKT point.  The
third, ``oracle_nearest_point``, is ``nearest_point`` itself as it was on
``Fraction`` rows, with a ``rank`` and a ``solve`` per subset, before its
loop moved onto integers.  Every comparison is an exact ``==``.
"""

from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from convval import linalg, polyhedra
from convval.conjugacy import conjugate, moreau_eval
from convval.errors import BudgetExceeded, EmptyPolyhedron
from convval.functions import indicator_function, make
from convval.laws import generate_pair_with_convex_min
from convval.linalg import dot, rank, solve, vec_scale, vec_sub
from convval.polyhedra import Polyhedron, cut_by, nearest_point
from counting import counted

# ---------------------------------------------------------------------------
# Oracles: every subset of every cell, the least value
# ---------------------------------------------------------------------------


def oracle_moreau(u, t, x):
    t, x, n = F(t), tuple(F(c) for c in x), u.n
    best = None
    for (ai, bi), cell in u.cells:
        crows = cell.canonical_hrep.halfspaces
        y0 = vec_sub(x, tuple(t * a for a in ai))
        for k in range(0, min(n, len(crows)) + 1):
            for subset in combinations(range(len(crows)), k):
                gs = [crows[s][0] for s in subset]
                cs = [crows[s][1] for s in subset]
                if k and rank(gs) < k:
                    continue
                if k:
                    gram = [[t * dot(g1, g2) for g2 in gs] for g1 in gs]
                    rhs = [dot(g, y0) - c for g, c in zip(gs, cs)]
                    lam = solve(gram, rhs)
                    if lam is None or any(l < 0 for l in lam):
                        continue
                    y = tuple(y0[j] - t * sum(lam[m] * gs[m][j] for m in range(k))
                              for j in range(n))
                else:
                    y = y0
                if not all(dot(g, y) <= c for g, c in crows):
                    continue
                diff = vec_sub(x, y)
                val = dot(ai, y) + bi + dot(diff, diff) / (2 * t)
                if best is None or val < best:
                    best = val
    return best


def oracle_dist2(x, poly):
    if poly.contains(x):
        return F(0)
    rows = poly.canonical_hrep.halfspaces
    best = None
    for k in range(1, min(poly.d, len(rows)) + 1):
        for subset in combinations(rows, k):
            normals = [a for a, _ in subset]
            if rank(normals) < k:
                continue
            gram = [[dot(a, b) for b, _ in subset] for a in normals]
            lam = solve(gram, [dot(a, x) - b for a, b in subset])
            if lam is None:
                continue
            proj = x
            for coeff, a in zip(lam, normals):
                proj = vec_sub(proj, vec_scale(coeff, a))
            if poly.contains(proj):
                dist2 = dot(vec_sub(proj, x), vec_sub(proj, x))
                if best is None or dist2 < best:
                    best = dist2
    return best


def oracle_nearest_point(p, x, budget=10 ** 6):
    if p.is_empty:
        raise EmptyPolyhedron("nearest point in the empty set")
    x = tuple(F(c) for c in x)
    rows = p.canonical_hrep.halfspaces
    used = 0
    for k in range(min(p.d, len(rows)) + 1):
        for subset in combinations(rows, k):
            used += 1
            if used > budget:
                raise BudgetExceeded(f"nearest_point exceeded the {budget}-subset budget")
            normals = [a for a, _ in subset]
            y = x
            if k:
                if rank(normals) < k:
                    continue
                lam = solve([[dot(a, b) for b in normals] for a in normals],
                            [dot(a, x) - c for a, c in subset])
                if lam is None or any(l < 0 for l in lam):
                    continue
                for coeff, a in zip(lam, normals):
                    y = vec_sub(y, vec_scale(coeff, a))
            if all(dot(a, y) <= c for a, c in rows):
                return y
    raise AssertionError("no face projection of the point lies in the polyhedron")


def outcome(route, *args):
    """The route's point, or ``"BudgetExceeded"`` if it ran out of subsets."""
    try:
        return route(*args)
    except BudgetExceeded:
        return "BudgetExceeded"


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

coords = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                    max_denominator=4))
T_VALUES = [F(1, 4), F(1, 2), F(1), F(2), F(4)]


@lru_cache(maxsize=None)
def function_cases(n):
    """Pair functions, their conjugates (not coercive, unbounded cells), the
    max of +-x_i and 0 (its 0 piece has a point cell) and box indicators."""
    fns = []
    for seed in range(2):
        pair = generate_pair_with_convex_min(seed, n)
        fns += [pair.u, pair.v, conjugate(pair.u)]
    zero = (0,) * n
    fns.append(make([(tuple(s * int(i == j) for i in range(n)), 0)
                     for j in range(n) for s in (1, -1)] + [(zero, 0)], n=n))
    fns.append(indicator_function(Polyhedron.box([(-1, F(1, 2))] * n), F(1, 3)))
    return tuple(fns)


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
            verts = body.vrep.vertices
            weights = data.draw(st.lists(st.integers(0, 3), min_size=len(verts),
                                         max_size=len(verts)).filter(any))
            x = tuple(sum(w * v[i] for w, v in zip(weights, verts)) / sum(weights)
                      for i in range(d))
        else:
            x = tuple(F(c) for c in data.draw(st.lists(coords, min_size=d, max_size=d)))
        y = nearest_point(body, x)
        assert body.contains(y)
        assert dot(vec_sub(y, x), vec_sub(y, x)) == oracle_dist2(x, body)


class TestAgainstTheFractionRoute:
    @settings(max_examples=200, deadline=None)
    @given(bodies(), st.data())
    def test_same_point_and_same_budget_failures(self, body, data):
        d = body.d
        verts = body.vrep.vertices
        where = data.draw(st.sampled_from(["inside", "vertex", "outside", "fine"]))
        if where == "inside":
            weights = data.draw(st.lists(st.integers(0, 3), min_size=len(verts),
                                         max_size=len(verts)).filter(any))
            x = tuple(sum(w * v[i] for w, v in zip(weights, verts)) / sum(weights)
                      for i in range(d))
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
        if got != "BudgetExceeded":
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
                with counted(polyhedra, "nearest_point") as calls:
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
