"""Polyhedral kernel: representation conversions, volume, distances."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from convval import polyhedra
from convval.errors import CertificateFailed, UnboundedPolyhedron
from convval.linalg import determinant, dot
from convval.polyhedra import (HRep, Polyhedron, VRep, apply_linear,
                               hausdorff_distance, intersect, minkowski_sum,
                               random_unimodular, translate, triangulate, volume)


def box(*bounds):
    return Polyhedron.box(list(bounds))


class TestConversions:
    def test_square_hrep_to_vrep(self):
        p = box((-1, 1), (-1, 1))
        assert set(p.vrep.vertices) == {(F(s1), F(s2)) for s1 in (-1, 1) for s2 in (-1, 1)}
        assert not p.vrep.rays and not p.vrep.lines

    def test_orthant_rays(self):
        p = Polyhedron.from_halfspaces(2, [((-1, 0), 0), ((0, -1), 0)])
        v = p.vrep
        assert v.vertices == ((F(0), F(0)),)
        assert {tuple(r) for r in v.rays} == {(F(1), F(0)), (F(0), F(1))}

    def test_halfplane_has_lineality(self):
        p = Polyhedron.from_halfspaces(2, [((0, 1), 0)])
        v = p.vrep
        assert len(v.lines) == 1 and v.lines[0][1] == 0

    def test_empty(self):
        p = Polyhedron.from_halfspaces(1, [((F(1),), F(0)), ((F(-1),), F(-1))])
        assert p.is_empty

    def test_empty_hull_with_rays(self):
        p = Polyhedron.from_generators(2, [], rays=[(1, 0)])
        assert p.is_empty and p.dim == -1
        assert p.vrep == VRep.empty(2)

    def test_built_from_halfspaces_only(self):
        """Generators come from the polyhedron's own double description, so
        a redundant point cannot be handed in beside the halfspaces."""
        p = Polyhedron.from_generators(2, [(-3, -3), (-1, -4), (1, -2), (-2, 2), (2, 4)])
        assert volume(p) == F(47, 2)
        with pytest.raises(TypeError):
            Polyhedron(hrep=p.hrep, vrep=VRep.make(2, p.vrep.vertices + ((F(-1, 2), 0),)))

    def test_point_roundtrip_is_minimal(self):
        p = Polyhedron.from_generators(2, [(2, 3)])
        # two equality pairs, nothing else
        assert len(p.canonical_hrep.halfspaces) == 4
        assert Polyhedron(hrep=p.canonical_hrep).vrep.vertices == ((F(2), F(3)),)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_roundtrip(self, seed):
        rng = random.Random(seed)
        d = rng.choice([2, 2, 3])
        pts = [tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(d))
               for _ in range(rng.randint(1, 7))]
        p = Polyhedron.from_generators(d, pts)
        q = Polyhedron(hrep=p.canonical_hrep)
        assert p == q
        # every canonical halfspace is tight somewhere
        for a, b in p.canonical_hrep.halfspaces:
            assert any(dot(a, v) == b for v in p.vrep.vertices)


class TestPredicates:
    def test_contains_and_dim(self):
        p = box((0, 1), (0, 1))
        assert p.contains((F(1, 2), F(1, 2))) and not p.contains((2, 0))
        assert p.dim == 2 and p.is_bounded

    def test_relative_interior(self):
        from convval.polyhedra import relative_interior_contains
        seg = Polyhedron.from_generators(2, [(0, 0), (1, 0)])
        assert relative_interior_contains(seg, (F(1, 2), F(0)))
        assert not relative_interior_contains(seg, (F(0), F(0)))
        assert not relative_interior_contains(seg, (F(1, 2), F(1, 100)))

    def test_intersect(self):
        p = box((0, 2), (0, 2))
        q = translate(p, (1, 1))
        r = intersect(p, q)
        assert r == box((1, 2), (1, 2))


class TestMinkowski:
    def brute_force(self, p, q):
        sums = [tuple(x + y for x, y in zip(u, v))
                for u in p.vrep.vertices for v in q.vrep.vertices]
        return Polyhedron.from_generators(p.d, sums)

    def test_triangle_plus_segment(self):
        # flagged: the nominal "pentagon" here has (1,0) on the segment from
        # (0,0) to (2,0), so the sum has only 4 extreme points; we check set
        # equality with the brute-force hull and containment of all 5 points.
        t = Polyhedron.from_generators(2, [(0, 0), (1, 0), (0, 1)])
        s = Polyhedron.from_generators(2, [(0, 0), (1, 0)])
        m = minkowski_sum(t, s)
        assert m == self.brute_force(t, s)
        for pt in [(0, 0), (1, 0), (2, 0), (1, 1), (0, 1)]:
            assert m.contains(pt)
        assert volume(m) == F(3, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_against_brute_force(self, seed):
        rng = random.Random(seed)
        d = rng.choice([2, 3])
        mk = lambda: Polyhedron.from_generators(
            d, [tuple(F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(d))
                for _ in range(rng.randint(1, 5))])
        p, q = mk(), mk()
        assert minkowski_sum(p, q) == self.brute_force(p, q)


class TestVolume:
    def test_known_volumes(self):
        assert volume(box((0, 1), (0, 1))) == 1
        assert volume(Polyhedron.from_generators(2, [(0, 0), (1, 0), (0, 1)])) == F(1, 2)
        assert volume(Polyhedron.from_generators(
            3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])) == F(1, 6)
        assert volume(box((0, 1), (0, 1), (0, 1), (0, 1))) == 1

    def test_cross_polytopes(self):
        for d in (2, 3, 4):
            pts = [tuple(s if j == i else 0 for j in range(d))
                   for i in range(d) for s in (1, -1)]
            assert volume(Polyhedron.from_generators(d, pts)) == F(2 ** d, math.factorial(d))

    def test_lower_dimensional_is_zero(self):
        assert volume(Polyhedron.from_generators(2, [(0, 0), (1, 0)])) == 0
        assert volume(Polyhedron.from_generators(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])) == 0

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedPolyhedron):
            volume(Polyhedron.from_halfspaces(2, [((-1, 0), 0), ((0, -1), 0)]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_unimodular_invariance(self, seed):
        rng = random.Random(seed)
        d = rng.choice([2, 3])
        p = Polyhedron.from_generators(
            d, [tuple(F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(d))
                for _ in range(d + 2)])
        phi = random_unimodular(seed, d, 5)
        assert determinant(phi) == 1
        assert volume(apply_linear(p, phi)) == volume(p)

    def test_monte_carlo_oracle(self):
        import numpy as np
        rng = np.random.default_rng(0)
        p = Polyhedron.from_generators(
            2, [(0, 0), (3, 0), (2, 2), (0, 1), (F(7, 2), F(1, 2))])
        exact = float(volume(p))
        pts = rng.uniform([0, 0], [3.5, 2.0], size=(200000, 2))
        rows = p.canonical_hrep.halfspaces
        inside = np.ones(len(pts), dtype=bool)
        for a, b in rows:
            inside &= pts @ np.array([float(x) for x in a]) <= float(b)
        est = 3.5 * 2.0 * inside.mean()
        assert abs(est - exact) < 0.05


class TestHausdorff:
    def test_point_distance(self):
        p = box((0, 1), (0, 1))
        q = Polyhedron.from_generators(2, [(2, 2)])
        assert hausdorff_distance(p, q) == pytest.approx(math.sqrt(8))

    def test_identical_is_zero(self):
        p = box((0, 1), (0, 1))
        assert hausdorff_distance(p, p) == 0.0

    def test_square_vs_diamond(self):
        sq = box((-1, 1), (-1, 1))
        dia = Polyhedron.from_generators(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert hausdorff_distance(sq, dia) == pytest.approx(math.sqrt(2) / 2)


class TestRandomUnimodular:
    def test_deterministic_and_det_one(self):
        for seed in range(5):
            a = random_unimodular(seed, 3, 8)
            b = random_unimodular(seed, 3, 8)
            assert a == b and determinant(a) == 1

    def test_sl1_is_the_identity(self):
        assert random_unimodular(0, 1, 6) == ((F(1),),)


class TestCertificates:
    """Broken invariants raise CertificateFailed, also under ``python -O``."""

    def test_dd_basis(self, monkeypatch):
        real = polyhedra.echelon

        def reversed_pivots(rows):
            red, pivots, d = real(rows)
            return red, pivots[::-1], d

        monkeypatch.setattr(polyhedra, "echelon", reversed_pivots)
        with pytest.raises(CertificateFailed):
            polyhedra.hrep_to_vrep(HRep.make(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]))

    def test_homogenizing_line(self, monkeypatch):
        monkeypatch.setattr(polyhedra, "cone_generators", lambda rows, dim: ([], [(F(0), F(1))]))
        with pytest.raises(CertificateFailed):
            polyhedra.hrep_to_vrep(HRep.make(1, [((1,), 1)]))

    def test_polygon_plane(self, monkeypatch):
        # A square is triangulated by the polygon fan alone; its rank check
        # reads the pivots of ``echelon``, here cut down to a line.
        square = box((0, 1), (0, 1))
        square.vrep
        real = polyhedra.echelon
        monkeypatch.setattr(polyhedra, "echelon", lambda rows: real(rows[:1]))
        with pytest.raises(CertificateFailed, match="polygon face spans 1 dimensions"):
            volume(square)

    def test_edge_vertex_count(self):
        with pytest.raises(CertificateFailed):
            triangulate(Polyhedron.from_generators(1, [(0,)]))

    def test_projection(self, monkeypatch):
        monkeypatch.setattr(polyhedra, "solve", lambda a, b: None)
        with pytest.raises(CertificateFailed):
            hausdorff_distance(box((0, 1), (0, 1)), box((3, 4), (0, 1)))

    def test_polygon_plane_under_optimize(self):
        code = (
            "import convval.polyhedra as polyhedra\n"
            "from convval.errors import CertificateFailed\n"
            "assert False, 'asserts are live'\n"
            "square = polyhedra.Polyhedron.box([(0, 1)] * 2)\n"
            "square.vrep\n"
            "real = polyhedra.echelon\n"
            "polyhedra.echelon = lambda rows: real(rows[:1])\n"
            "try:\n"
            "    polyhedra.volume(square)\n"
            "except CertificateFailed:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(polyhedra.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"
