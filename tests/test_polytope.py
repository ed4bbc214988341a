import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kazvol import (
    DimensionCapExceeded,
    EmptyInput,
    FaceNotFound,
    hull,
    load_polytope,
    minkowski_sum,
    polytope_to_dict,
    save_polytope,
    scale,
    split,
    summand_faces,
    support,
    translate,
)
from kazvol.polytope import convex_volume

from conftest import random_polytope


class TestConvexVolume:
    def test_point(self):
        assert convex_volume(np.zeros((1, 0))) == 1.0

    def test_segment(self):
        assert convex_volume(np.array([[0.0], [3.0]])) == pytest.approx(3.0)

    def test_square(self):
        pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        assert convex_volume(pts) == pytest.approx(1.0)

    def test_degenerate(self):
        pts = np.array([[0, 0], [1, 1], [2, 2]], dtype=float)
        assert convex_volume(pts) == 0.0


class TestHull:
    def test_square_face_vector(self, square_c1):
        assert square_c1.face_vector() == [4, 4, 1]

    def test_cube4_face_vector(self, cube4):
        assert cube4.face_vector() == [16, 32, 24, 8, 1]

    def test_theta4_face_vector(self, theta4):
        assert theta4.face_vector() == [8, 24, 32, 16, 1]

    def test_theta3_face_vector(self, theta3):
        # Octahedron embedded with d = 3 < 4 ambient real dimensions.
        assert theta3.dim_real == 3
        assert theta3.face_vector() == [6, 12, 8, 1]

    def test_simplex_volumes(self):
        # Standard simplex conv{0, e_1, ..., e_4} in R^4: vol = 1/4!.
        pts = np.vstack([np.zeros(4), np.eye(4)])
        P = hull(pts)
        assert P.improper_face.volume_k == pytest.approx(1 / math.factorial(4))

    def test_regular_simplex_face_volume(self):
        # conv{e_1, ..., e_{k+1}} has k-volume sqrt(k+1)/k!.
        for k in (1, 2, 3):
            pts = np.eye(k + 1)
            if pts.shape[1] % 2:
                pts = np.hstack([pts, np.zeros((k + 1, 1))])
            P = hull(pts)
            expected = math.sqrt(k + 1) / math.factorial(k)
            assert P.improper_face.volume_k == pytest.approx(expected, rel=1e-9)

    def test_euler_relation(self, cube4, theta4, theta3):
        for P in (cube4, theta4, theta3):
            fv = P.face_vector()
            alt = sum((-1) ** k * c for k, c in enumerate(fv[:-1]))
            assert alt == 1 - (-1) ** P.dim_real

    def test_dedupe(self):
        P = hull(np.array([[0, 0], [0, 0], [1, 0], [0, 1], [1, 1]], dtype=float))
        assert P.n_vertices == 4

    def test_point_polytope(self):
        P = hull(np.array([[0.5, 0.5]]))
        assert P.dim_real == 0
        assert P.improper_face.volume_k == 1.0

    def test_segment(self):
        P = hull(np.array([[0, 0], [2, 0]], dtype=float))
        assert P.dim_real == 1
        assert P.improper_face.volume_k == pytest.approx(2.0)
        assert P.face_vector() == [2, 1]

    def test_idempotent(self, theta4):
        again = hull(theta4.vertices)
        assert again.face_vector() == theta4.face_vector()

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapExceeded):
            hull(np.eye(10))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            hull(np.zeros((0, 4)))

    def test_odd_columns_rejected(self):
        with pytest.raises(ValueError):
            hull(np.zeros((3, 3)))


class TestSupport:
    def test_vertex(self, square_c1):
        h, f = support(square_c1, np.array([1.0, 0.0]))
        assert h == pytest.approx(1.0)
        assert f.k == 0

    def test_edge(self, square_c1):
        u = np.array([1.0, 1.0]) / math.sqrt(2)
        h, f = support(square_c1, u)
        assert h == pytest.approx(1 / math.sqrt(2), rel=1e-9)
        assert f.k == 1

    def test_homogeneous(self, cube4):
        u = np.array([1.0, 2.0, -1.0, 0.5])
        h1, _ = support(cube4, u)
        h2, _ = support(cube4, 3 * u)
        assert h2 == pytest.approx(3 * h1)

    def test_face_maximizes(self, theta4):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.normal(size=4)
            h, f = support(theta4, u)
            vals = theta4.vertices @ u
            assert h == pytest.approx(vals.max(), rel=1e-12)
            for vid in f.vertex_ids:
                assert vals[vid] == pytest.approx(h, abs=1e-9)


class TestMinkowskiSum:
    def test_square_sum(self):
        a = hull(np.array([[0, 0], [1, 0]], dtype=float))
        b = hull(np.array([[0, 0], [0, 1]], dtype=float))
        s = minkowski_sum([a, b])
        assert s.dim_real == 2
        assert s.improper_face.volume_k == pytest.approx(1.0)

    def test_summand_spans(self):
        rng = np.random.default_rng(3)
        a = random_polytope(rng, 5)
        b = random_polytope(rng, 5)
        s = minkowski_sum([a, b])
        for f in s.all_faces():
            fa, fb = summand_faces(s, [a, b], f)
            # Face of the sum decomposes as the sum of its summand faces.
            va = a.vertices[sorted(fa.id)]
            vb = b.vertices[sorted(fb.id)]
            pts = (va[:, None, :] + vb[None, :, :]).reshape(-1, 4)
            got = s.vertices[sorted(f.id)]
            for g in got:
                assert min(np.linalg.norm(pts - g, axis=1)) < 1e-8

    def test_volume_superadditive(self):
        rng = np.random.default_rng(4)
        a = random_polytope(rng, 6)
        b = random_polytope(rng, 6)
        s = minkowski_sum([a, b])
        assert s.improper_face.volume_k >= (
            a.improper_face.volume_k + b.improper_face.volume_k - 1e-12)


class TestTransforms:
    def test_scale_volume(self, cube4):
        assert scale(cube4, 0.5).improper_face.volume_k == pytest.approx(1.0)

    def test_translate_invariance(self, theta4):
        t = translate(theta4, np.array([1.0, -2.0, 0.5, 3.0]))
        assert t.face_vector() == theta4.face_vector()
        assert t.improper_face.volume_k == pytest.approx(
            theta4.improper_face.volume_k)

    def test_split_volume_additive(self):
        rng = np.random.default_rng(6)
        for i in range(5):
            P = random_polytope(rng, 7)
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            c = float(P.centroid @ u)
            plus, minus, zero = split(P, u, c)
            vol = sum(p.improper_face.volume_k for p in (plus, minus) if p is not None)
            assert vol == pytest.approx(P.improper_face.volume_k, rel=1e-7)
            if zero is not None:
                assert zero.dim_real < P.dim_real

    def test_split_miss(self, square_c1):
        plus, minus, zero = split(square_c1, np.array([1.0, 0.0]), 5.0)
        assert plus is None
        assert minus.face_vector() == square_c1.face_vector()


class TestSerialization:
    def test_round_trip(self, theta4, tmp_path):
        path = tmp_path / "theta4.json"
        save_polytope(theta4, path)
        again = load_polytope(path)
        assert again.face_vector() == theta4.face_vector()
        np.testing.assert_allclose(
            np.sort(again.vertices, axis=0), np.sort(theta4.vertices, axis=0))

    def test_rational_parsing(self):
        P = load_polytope({"n": 1, "vertices": [["1/2", 0], ["-1/2", 0], [0, "1/3"]]})
        assert P.n_vertices == 3

    def test_exact_dedup(self):
        data = {"n": 1, "vertices": [["1/3", 0], ["2/6", 0], [1, 0], [0, 1]]}
        P = load_polytope(data, exact=True)
        assert P.n_vertices == 3

    def test_inline_json(self):
        P = load_polytope(json.dumps({"n": 1, "vertices": [[0, 0], [1, 0]]}))
        assert P.dim_real == 1

    def test_dict_shape(self, square_c1):
        d = polytope_to_dict(square_c1)
        assert d["n"] == 1
        assert len(d["vertices"]) == 4


class TestFaceLookup:
    def test_missing_face(self, square_c1):
        with pytest.raises(FaceNotFound):
            square_c1.face_by_ids([0, 2])


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_hull_euler_property(seed):
    """Alternating face count including the improper face is 1."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(3, 9)), 4))
    P = hull(pts)
    fv = P.face_vector()
    total = sum((-1) ** k * c for k, c in enumerate(fv))
    assert total == 1
