import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kazvol import (
    AnglePass,
    DimensionCapExceeded,
    RandomStream,
    SizeMismatch,
    alexandroff_gap,
    batch_mixed_discriminant,
    hull,
    intrinsic_volume,
    minkowski_sum,
    mixed_discriminant,
    mixed_volume,
)
from kazvol.volumes import facet_normal_sum, volume_via_facets

from conftest import SAMPLES, random_polygon_real, random_polytope


def segment(direction, ambient=2):
    v = np.zeros((2, 2 * ambient))
    v[1, : len(direction)] = direction
    return hull(v)


def random_hermitian(rng, n, positive=False):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = (a + a.conj().T) / 2
    if positive:
        m = a @ a.conj().T
    return m


class TestMixedVolume:
    def test_diagonal_is_area(self):
        sq = hull(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float))
        assert mixed_volume([sq.vertices, sq.vertices]) == pytest.approx(1.0, rel=1e-10)

    def test_orthogonal_segments(self):
        a = segment([1, 0, 0, 0])
        b = segment([0, 0, 1, 0])
        # V_2(seg_u, seg_v) = |det[u v]| / 2! in the spanned plane.
        assert mixed_volume([a.vertices, b.vertices]) == pytest.approx(0.5, rel=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = random_polygon_real(rng)
        b = random_polygon_real(rng)
        assert mixed_volume([a.vertices, b.vertices]) == pytest.approx(
            mixed_volume([b.vertices, a.vertices]), rel=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        a = random_polygon_real(rng)
        b = random_polygon_real(rng)
        shifted = hull(a.vertices + np.array([2.0, 0.0, -1.0, 0.0]))
        assert mixed_volume([shifted.vertices, b.vertices]) == pytest.approx(
            mixed_volume([a.vertices, b.vertices]), rel=1e-9)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(2)
        a = random_polygon_real(rng)
        b = random_polygon_real(rng)
        assert mixed_volume([hull(a.vertices * 3.0).vertices, b.vertices]) == pytest.approx(
            3.0 * mixed_volume([a.vertices, b.vertices]), rel=1e-9)

    def test_monotone_in_summand(self):
        rng = np.random.default_rng(3)
        a = random_polygon_real(rng)
        b = random_polygon_real(rng)
        c = random_polygon_real(rng)
        bigger = minkowski_sum([a, c])
        assert mixed_volume([bigger.vertices, b.vertices]) >= (
            mixed_volume([a.vertices, b.vertices]) - 1e-9)

    def test_polarization_of_area(self):
        rng = np.random.default_rng(4)
        a = random_polygon_real(rng)
        b = random_polygon_real(rng)
        s = minkowski_sum([a, b])
        expected = 0.5 * (s.improper_face.volume_k
                          - a.improper_face.volume_k - b.improper_face.volume_k)
        assert mixed_volume([a.vertices, b.vertices]) == pytest.approx(expected, rel=1e-8)

    def test_point_summand_is_zero_without_qhull(self, monkeypatch):
        import kazvol.volumes as vol
        calls = []
        monkeypatch.setattr(vol, "convex_volume", lambda pts: calls.append(pts) or 1.0)
        point = np.array([[0.3, 0.0, -1.0, 0.0]])
        triangle = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]], dtype=float)
        assert mixed_volume([point, triangle]) == 0.0
        assert mixed_volume([triangle, point]) == 0.0
        assert calls == []

    def test_dimension_mismatch(self):
        a = segment([1, 0, 0, 0])
        with pytest.raises(SizeMismatch):
            from kazvol import SubspaceBasis
            basis = SubspaceBasis(2, np.eye(4)[:3])
            mixed_volume([a.vertices, a.vertices], basis=basis)


class TestIntrinsicVolume:
    def test_square_values(self, square_c1, stream):
        ap = AnglePass(square_c1, SAMPLES, stream)
        assert intrinsic_volume(square_c1, 2, ap.angle) == pytest.approx(2.0, rel=1e-9)
        # v_1 = half the perimeter = 2 sqrt 2.
        assert intrinsic_volume(square_c1, 1, ap.angle) == pytest.approx(
            2 * math.sqrt(2), rel=1e-9)
        v0 = intrinsic_volume(square_c1, 0, ap.angle)
        assert v0 == pytest.approx(1.0, abs=0.02)

    def test_v0_exact_without_sampling(self, cube4, stream, monkeypatch):
        # The vertex normal cones tile E_Gamma, so v_0 = 1 with no angle drawn.
        from kazvol import cone_geometry

        def no_sampling(*args):
            raise AssertionError("sphere_sample called")

        monkeypatch.setattr(cone_geometry, "sphere_sample", no_sampling)
        assert intrinsic_volume(cube4, 0, AnglePass(cube4, SAMPLES, stream).angle) == 1.0

    def test_out_of_range(self, square_c1, stream):
        ap = AnglePass(square_c1, SAMPLES, stream)
        assert intrinsic_volume(square_c1, 3, ap.angle) == 0.0
        assert intrinsic_volume(square_c1, -1, ap.angle) == 0.0

    def test_face_volume_lookup(self, cube4):
        f = cube4.faces[1][0]
        assert cube4.face_by_ids(f.vertex_ids).volume_k == pytest.approx(2.0, rel=1e-12)


class TestMixedDiscriminant:
    def test_diagonal(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            m = random_hermitian(rng, n)
            d = mixed_discriminant([m] * n)
            assert d.real == pytest.approx(np.linalg.det(m).real, rel=1e-9)

    def test_identity(self):
        for n in (2, 3, 4, 5):
            assert mixed_discriminant([np.eye(n)] * n).real == pytest.approx(1.0)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(6)
        mats = [random_hermitian(rng, 3) for _ in range(3)]
        base = mixed_discriminant(mats)
        for perm in itertools.permutations(range(3)):
            assert mixed_discriminant([mats[i] for i in perm]) == pytest.approx(
                base, rel=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        a, b, c = (random_hermitian(rng, 3) for _ in range(3))
        lhs = mixed_discriminant([2 * a + 3 * b, c, c])
        rhs = 2 * mixed_discriminant([a, c, c]) + 3 * mixed_discriminant([b, c, c])
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_left_multiplication(self):
        # D(N M_1, ..., N M_n) = det(N) D(M_1, ..., M_n).
        rng = np.random.default_rng(8)
        mats = [random_hermitian(rng, 3) for _ in range(3)]
        n_mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = mixed_discriminant([n_mat @ m for m in mats])
        rhs = np.linalg.det(n_mat) * mixed_discriminant(mats)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_methods_agree(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            mats = [random_hermitian(rng, n) for _ in range(n)]
            perm = mixed_discriminant(mats, method="permutation")
            sub = mixed_discriminant(mats, method="subset")
            lap = mixed_discriminant(mats, method="laplace")
            assert sub == pytest.approx(perm, rel=1e-10)
            assert lap == pytest.approx(perm, rel=1e-10)

    def test_permutation_cap(self):
        mats = [np.eye(7)] * 7
        with pytest.raises(DimensionCapExceeded):
            mixed_discriminant(mats, method="permutation")
        assert mixed_discriminant(mats, method="subset").real == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            mixed_discriminant([np.eye(2), np.eye(3)])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        stacks = [np.stack([random_hermitian(rng, 3) for _ in range(5)])
                  for _ in range(3)]
        batched = batch_mixed_discriminant(stacks)
        for i in range(5):
            single = mixed_discriminant([s[i] for s in stacks])
            assert batched[i] == pytest.approx(single, rel=1e-10)

    def test_alexandroff_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = random_hermitian(rng, 3, positive=True)
            n_ = random_hermitian(rng, 3, positive=True)
            rest = [random_hermitian(rng, 3, positive=True)]
            assert alexandroff_gap(m, n_, rest) >= -1e-9

    def test_alexandroff_equality(self):
        rng = np.random.default_rng(12)
        m = random_hermitian(rng, 3, positive=True)
        rest = [random_hermitian(rng, 3, positive=True)]
        gap = alexandroff_gap(m, 2.5 * m, rest)
        assert abs(gap) < 1e-9 * abs(mixed_discriminant([m, m, *rest])) ** 2 + 1e-9


class TestFacetIdentities:
    def test_normal_sum_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            P = random_polytope(rng, 7)
            np.testing.assert_allclose(facet_normal_sum(P), 0.0, atol=1e-9)

    def test_volume_via_facets(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            P = random_polytope(rng, 7)
            assert volume_via_facets(P) == pytest.approx(
                P.improper_face.volume_k, rel=1e-9)

    def test_volume_via_facets_lower_dim(self, theta3):
        assert volume_via_facets(theta3) == pytest.approx(
            theta3.improper_face.volume_k, rel=1e-9)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_mixed_discriminant_positive_property(seed):
    """Positive semidefinite Hermitian arguments give a non-negative value."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    mats = []
    for _ in range(n):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mats.append(a @ a.conj().T)
    assert mixed_discriminant(mats).real >= -1e-9
