import math

import mpmath
import numpy as np
import pytest

from kazvol import AnglePass, FaceNotFound, RandomStream, hull, minkowski_sum, outer_angle
from kazvol import cone_geometry
from kazvol.cone_geometry import _classify, _exact_angles, _normal_space
from kazvol.numerics import weighted_sum

from conftest import SAMPLES, random_polytope


class TestExactAngles:
    def test_improper_face(self, square_c1, stream):
        est = outer_angle(square_c1, square_c1.improper_face.vertex_ids, SAMPLES, stream)
        assert est.value == 1.0
        assert est.method == "exact"

    def test_facets_are_half(self, cube4, stream):
        for f in cube4.faces[3]:
            if f.vertex_ids == cube4.improper_face.vertex_ids:
                continue
            est = outer_angle(cube4, f.vertex_ids, SAMPLES, stream)
            assert est.value == 0.5
            assert est.method == "exact"

    def test_lower_dimensional_facets(self, theta3, stream):
        # Facets of the 3-dimensional body Theta3 measured inside its span.
        for f in theta3.faces[2]:
            if f.vertex_ids == theta3.improper_face.vertex_ids:
                continue
            est = outer_angle(theta3, f.vertex_ids, SAMPLES, stream)
            assert est.value == 0.5


class TestClosedFormCones:
    """Normal cones of dimension 2 and 3 are measured without sampling."""

    # Hull seeds and the sample count were fixed before the first run.
    SEEDS = (2019, 2020)
    MC_SAMPLES = 200_000

    @staticmethod
    def assert_all(P, k, expected):
        for f in P.faces[k]:
            est = outer_angle(P, f.vertex_ids)
            assert est.method == "exact" and est.std_error == 0.0
            assert 0.0 < est.bound < 1e-12
            assert abs(est.value - expected) <= 4 * est.std_error + est.bound

    def test_theta4_two_faces(self, theta4):
        self.assert_all(theta4, 2, 1 / 6)

    def test_cube4_two_faces(self, cube4):
        self.assert_all(cube4, 2, 1 / 4)

    def test_cube4_edges(self, cube4):
        self.assert_all(cube4, 1, 1 / 8)

    def test_theta3_vertices(self, theta3):
        # The six vertex cones of the octahedron tile R^3.
        self.assert_all(theta3, 0, 1 / 6)

    def test_square_vertices(self, square_c1):
        self.assert_all(square_c1, 0, 1 / 4)

    def test_agrees_with_sampling_on_random_hulls(self, stream):
        checked = 0
        for seed in self.SEEDS:
            P = random_polytope(np.random.default_rng(seed), 6)
            for k in (1, 2):
                for i, f in enumerate(P.faces[k]):
                    exact = outer_angle(P, f.vertex_ids)
                    assert exact.method == "exact"
                    mc = _classify(P, f, _normal_space(P, f), self.MC_SAMPLES,
                                   stream.substream(seed).substream(100 * k + i))
                    assert abs(exact.value - mc.value) <= 4 * mc.std_error, (seed, f.vertex_ids)
                    checked += 1
        assert checked >= 50


class TestMonteCarloAngles:
    def test_square_vertices(self, square_c1, stream):
        for f in square_c1.faces[0]:
            est = outer_angle(square_c1, f.vertex_ids, SAMPLES, stream)
            assert est.value == pytest.approx(0.25, abs=4 * est.std_error + est.bound + 1e-12)

    def test_cube4_vertices(self, cube4, stream):
        f = cube4.faces[0][0]
        est = outer_angle(cube4, f.vertex_ids, SAMPLES, stream)
        assert est.value == pytest.approx(1 / 16, abs=4 * est.std_error + est.bound)

    def test_cube4_edges(self, cube4, stream):
        f = cube4.faces[1][0]
        est = outer_angle(cube4, f.vertex_ids, SAMPLES, stream)
        assert est.value == pytest.approx(1 / 8, abs=4 * est.std_error + est.bound)

    def test_theta4_two_faces(self, theta4, stream):
        # Each 2-face of the crosspolytope has outer angle 1/6.
        for f in theta4.faces[2][:4]:
            est = outer_angle(theta4, f.vertex_ids, SAMPLES, stream)
            assert est.value == pytest.approx(1 / 6, abs=4 * est.std_error + est.bound)

    def test_right_triangle_vertex(self, stream):
        # Right-angle vertex of a right triangle: outer angle 1/4.
        tri = hull(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
        corner = next(f for f in tri.faces[0]
                      if np.allclose(tri.vertices[f.vertex_ids[0]], [0, 0]))
        est = outer_angle(tri, corner.vertex_ids, SAMPLES, stream)
        assert est.value == pytest.approx(0.25, abs=4 * est.std_error + est.bound)


class TestPartition:
    """The vertex normal cones tile E_Gamma, so the vertex angles sum to 1."""

    def test_vertex_angles_sum_to_one(self, stream):
        rng = np.random.default_rng(12)
        for i in range(3):
            P = random_polytope(rng, 6)
            ap = AnglePass(P, SAMPLES, stream.substream(i))
            angles = [ap.angle(f) for f in P.faces[0]]
            assert all(a.method == "monte_carlo" for a in angles)
            total = weighted_sum((1, a) for a in angles)
            assert total.value == pytest.approx(1.0, abs=4 * total.std_error + 1e-9)

    def test_point_polytope(self, stream):
        P = hull(np.array([[1.0, 2.0]]))
        est = outer_angle(P, P.faces[0][0].vertex_ids, SAMPLES, stream)
        assert (est.value, est.std_error, est.method) == (1.0, 0.0, "exact")


class TestDualCone:
    def test_facet_normal(self, cube4):
        f = next(f for f in cube4.faces[3] if f.vertex_ids != cube4.improper_face.vertex_ids)
        assert len(cube4.facets_containing(f)) >= 1
        # The witness direction supports the polytope exactly on the face.
        vals = cube4.vertices @ cube4.witness_direction(f)
        top = np.isclose(vals, vals.max(), atol=1e-9)
        assert set(np.flatnonzero(top)) == set(f.vertex_ids)

    def test_vertex_cone(self, square_c1):
        f = square_c1.faces[0][0]
        vals = square_c1.vertices @ square_c1.witness_direction(f)
        assert np.argmax(vals) == f.vertex_ids[0]

    def test_improper_cone_orthogonal(self, theta3):
        # For the improper face the witness is 0 and the cone is the
        # orthocomplement of the span, a line along which theta3 is constant.
        np.testing.assert_array_equal(theta3.witness_direction(theta3.improper_face), 0.0)
        assert theta3.facets_containing(theta3.improper_face) == []
        assert theta3.improper_face.frame.shape[0] == 3
        g = np.linalg.svd(theta3.improper_face.frame)[2][-1]
        np.testing.assert_allclose(theta3.vertices @ g, (theta3.vertices @ g)[0], atol=1e-9)


class TestAnglePass:
    def test_cache_consistency(self, theta4, stream):
        ap = AnglePass(theta4, SAMPLES, stream)
        f = theta4.faces[2][0]
        a1 = ap.angle(f)
        a2 = ap.angle(f)
        assert a1 is a2

    def test_face_of_another_lattice_raises(self, theta4, cube4, stream):
        ap = AnglePass(cube4, SAMPLES, stream)
        face = next(f for f in theta4.faces[2] if cube4._locate(f.vertex_ids) is None)
        with pytest.raises(FaceNotFound):
            ap.angle(face)
        # A face whose ids are a face of the cube reads the cube's angle there.
        edge = next(f for f in theta4.faces[1] if cube4._locate(f.vertex_ids) is not None)
        assert ap.angle(edge) is ap.at(*cube4._locate(edge.vertex_ids))

    def test_deterministic(self, theta4):
        a = AnglePass(theta4, SAMPLES, RandomStream(5)).angle(theta4.faces[2][0])
        b = AnglePass(theta4, SAMPLES, RandomStream(5)).angle(theta4.faces[2][0])
        assert a.value == b.value

    def test_total_measure(self, cube4, stream):
        # Sum of angle * count over each dimension follows the k-star covering:
        # vertices partition the sphere, so their angles sum to 1.
        ap = AnglePass(cube4, SAMPLES, stream)
        total = weighted_sum((1, ap.angle(f)) for f in cube4.faces[0])
        assert total.value == pytest.approx(1.0, abs=4 * total.std_error + 1e-9)

    def test_vertex_samples_on_its_lattice_substream(self, cube4, stream, monkeypatch):
        # A vertex is sampled like any other face: SAMPLES draws on the
        # substream of its position in the lattice.
        calls = []
        sample = cone_geometry.sphere_sample

        def counted(dim, sub, count):
            calls.append(count)
            return sample(dim, sub, count)

        monkeypatch.setattr(cone_geometry, "sphere_sample", counted)
        ap = AnglePass(cube4, SAMPLES, stream)
        order = [f.vertex_ids for f in cube4.all_faces()]
        for f in cube4.faces[0][:3]:
            got = ap.angle(f)
            want = outer_angle(cube4, f.vertex_ids, SAMPLES,
                               stream.substream(order.index(f.vertex_ids)))
            assert (got.value, got.std_error, got.method) == (
                want.value, want.std_error, "monte_carlo")
            assert got.value == pytest.approx(1 / 16, abs=4 * got.std_error)
        assert sum(calls) == 6 * SAMPLES
        # Lower-dimensional cones are exact and sample nothing more.
        ap.angle(cube4.faces[1][0])
        assert sum(calls) == 6 * SAMPLES


class TestBatchedAngles:
    """``AnglePass`` takes the closed forms of a whole dimension in one batch."""

    # Hull seeds and the sample count were fixed before the first run.
    SEED_C2, SEED_C3, SEED_MIXED = 2031, 2032, 2033
    MC_SAMPLES = 100_000

    @staticmethod
    def closed_form_faces(P):
        return [f for f in P.all_faces() if P.dim_real - f.k <= 3]

    def test_pass_equals_one_face_bit_for_bit(self, theta4, cube4, theta3):
        polytopes = [theta4, cube4, theta3, minkowski_sum([theta4, cube4]),
                     random_polytope(np.random.default_rng(self.SEED_C2), 10),
                     random_polytope(np.random.default_rng(self.SEED_C3), 12, ambient=3)]
        checked = 0
        for P in polytopes:
            ap = AnglePass(P, SAMPLES)
            for f in self.closed_form_faces(P):
                got, want = ap.angle(f), outer_angle(P, f.vertex_ids, SAMPLES)
                assert got.method == "exact"
                assert (got.value, got.std_error, got.bound) == (
                    want.value, want.std_error, want.bound), f.vertex_ids
                checked += 1
        assert checked > 1000

    def test_mixed_ray_counts_match_sampling(self, theta4, cube4, stream):
        # Edges of a 4-polytope have 3-dimensional normal cones; Theta_4's have
        # 4 rays, the cube's 3, and a random hull's edges mix counts in one batch.
        assert {len(theta4.facets_containing(f)) for f in theta4.faces[1]} == {4}
        assert {len(cube4.facets_containing(f)) for f in cube4.faces[1]} == {3}
        P = random_polytope(np.random.default_rng(self.SEED_MIXED), 10)
        edges = P.faces[1]
        assert len({len(P.facets_containing(f)) for f in edges}) >= 2
        for i, (f, est) in enumerate(zip(edges, _exact_angles(P, 1, P.faces.ids[1]))):
            assert est.method == "exact"
            mc = _classify(P, f, _normal_space(P, f), self.MC_SAMPLES, stream.substream(i))
            assert abs(est.value - mc.value) <= 4 * mc.std_error, f.vertex_ids

    def test_sampled_angle_keeps_its_draws(self, cube4, stream):
        order = [f.vertex_ids for f in cube4.all_faces()]
        for v in cube4.faces[0][:2]:
            got = AnglePass(cube4, SAMPLES, stream).angle(v)
            want = outer_angle(cube4, v.vertex_ids, SAMPLES,
                               stream.substream(order.index(v.vertex_ids)))
            assert got.method == "monte_carlo"
            assert (got.value, got.std_error, got.samples) == (
                want.value, want.std_error, want.samples)

    def test_nearly_parallel_normals(self):
        # The vertex (0, 1) turns by delta.  The hexagon is symmetric in both
        # axes, so the frame of E_Gamma is a signed permutation and the two
        # normals carry Qhull's rounding only; atan2(sqrt(1 - (a.b)^2), a.b)
        # would keep about half the digits of the angle.
        delta = 1e-6
        e = math.tan(delta / 2)
        pts = np.array([[-1, 1 - e], [0, 1], [1, 1 - e], [1, e - 1], [0, -1], [-1, e - 1]])
        P = hull(pts)
        vertex = next(i for i, v in enumerate(P.vertices) if (v == pts[1]).all())
        a, b, c = (mpmath.matrix([mpmath.mpf(float(x)) for x in p]) for p in pts[:3])
        u, w = b - a, c - b
        with mpmath.workdps(40):
            turn = mpmath.atan2(abs(u[0] * w[1] - u[1] * w[0]), u[0] * w[0] + u[1] * w[1])
            want = turn / (2 * mpmath.pi)
        est = outer_angle(P, [vertex])
        assert est.method == "exact"
        assert abs(est.value - want) <= 1e-12 * want
