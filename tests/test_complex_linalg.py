import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kazvol import (
    NonOrthonormalBasis,
    RandomStream,
    SubspaceBasis,
    cr_decomposition,
    hull,
    random_unitary,
    realify,
    rho,
)
from kazvol.complex_linalg import (_t_vectors, batch_rho, complex_to_real, gram_schmidt,
                                   multiply_i, real_to_complex)
from kazvol.numerics import DEFAULT_TOLERANCE, kappa

GS_SEED = 1905  # random rows and frames for the Gram-Schmidt kernel tests
SLIVER_SEED = 1910  # the sliver simplices


def basis_of(n, rows):
    return SubspaceBasis.from_span(n, np.asarray(rows, dtype=float))


class TestCoordinates:
    def test_round_trip(self):
        v = np.arange(8.0)
        np.testing.assert_allclose(complex_to_real(real_to_complex(v)), v)

    def test_multiply_i(self):
        # i * (1 + 2i) = -2 + i in the first coordinate.
        v = np.array([1.0, 2.0, 0.0, 0.0])
        np.testing.assert_allclose(multiply_i(v), [-2.0, 1.0, 0.0, 0.0])

    def test_multiply_i_squares_to_minus_one(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(5, 6))
        np.testing.assert_allclose(multiply_i(multiply_i(v)), -v)


class TestSubspaceBasis:
    def test_orthonormal_check(self):
        good = SubspaceBasis(2, np.eye(4)[:2])
        good.check()
        with pytest.raises(NonOrthonormalBasis):
            SubspaceBasis(2, np.array([[1.0, 1.0, 0.0, 0.0]])).check()

    def test_from_span_dedupes_rank(self):
        b = basis_of(2, [[1, 0, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0]])
        assert b.d == 2
        b.check()

    def test_empty(self):
        b = basis_of(2, np.zeros((0, 4)))
        assert b.d == 0


class TestRho:
    def test_zero_dimension(self):
        assert rho(basis_of(2, np.zeros((0, 4)))).rho == 1.0

    def test_real_line(self):
        r = rho(basis_of(1, [[1, 0]]))
        assert r.rho == pytest.approx(1.0, abs=1e-12)
        assert r.equidimensional

    def test_complex_line_degenerate(self):
        # span{1, i} in C^1 is a complex line: E cap iE != {0}.
        r = rho(basis_of(1, [[1, 0], [0, 1]]))
        assert r.rho == 0.0
        assert not r.equidimensional

    def test_over_dimension(self):
        r = rho(basis_of(1, [[1, 0], [0, 1]]))
        assert r.complex_dim == 1

    def test_over_dimension_keeps_complex_rank(self):
        # span{e1, ie1, e2, ie2} in C^3: four real directions of complex rank 2.
        r = rho(basis_of(3, np.eye(6)[:4]))
        assert (r.rho, r.complex_dim, r.cr_dim, r.equidimensional) == (0.0, 2, 4, False)

    def test_halfway_plane(self):
        # span{e1, (ie1 + e2)/sqrt2}: Hermitian Gram det = 1 - 1/2.
        b = SubspaceBasis(2, np.array(
            [[1, 0, 0, 0], [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0]]))
        assert rho(b).rho == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_low_dim(self):
        # For d <= 3, rho = 1 - sum_{l<j} Im<v_l, v_j>^2.
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = SubspaceBasis.from_span(3, rng.normal(size=(3, 6)))
            if b.d != 3:
                continue
            z = real_to_complex(b.vectors)
            g = z.conj() @ z.T
            expected = 1.0 - sum(
                g[l, j].imag ** 2 for l in range(3) for j in range(l + 1, 3))
            assert rho(b).rho == pytest.approx(max(expected, 0.0), abs=1e-9)

    def test_cylinder_oracle(self):
        # rho(E) = kappa_d^{-2} * vol_{2d}(B_E + i B_E), estimated by
        # rejection sampling in the 2d-dimensional span E + iE.
        rng = np.random.default_rng(7)
        b = SubspaceBasis.from_span(2, rng.normal(size=(2, 4)))
        assert b.d == 2
        frame = SubspaceBasis.from_span(
            2, np.vstack([b.vectors, multiply_i(b.vectors)])).vectors
        assert frame.shape[0] == 4
        m = 200_000
        pts = rng.uniform(-2, 2, size=(m, 4)) @ frame
        # Decompose each point as u + iv with u, v in E (E and iE are not
        # orthogonal in general, so solve rather than project).
        mix = np.vstack([b.vectors, multiply_i(b.vectors)])
        coeff = pts @ np.linalg.inv(mix)
        a, c = coeff[:, :2], coeff[:, 2:]
        inside = (np.linalg.norm(a, axis=1) <= 1) & (np.linalg.norm(c, axis=1) <= 1)
        vol = inside.mean() * 4.0**4
        est = vol / kappa(2) ** 2
        r = rho(b).rho
        assert abs(est - r) < 0.05

    def test_theta4_face_value(self):
        # Two-face span of conv{e1, ie1, e2}: all such faces have rho = 2/3.
        b = basis_of(2, [[-1, 1, 0, 0], [-1, 0, 0, 1]])
        assert rho(b).rho == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_small_rho_matches_40_digits(self):
        # Face (0, 1, 9, 10) of the hull of 12 Gaussian points in C^3 (default_rng(104)):
        # rho is about 6.4e-6, where an LU determinant of the Gram matrix was 5.9e-11 off.
        from test_polytope import _exact_rho

        P = hull(np.random.default_rng(104).normal(size=(12, 6)))
        ids = (0, 1, 9, 10)
        b = basis_of(3, P.vertices[list(ids[1:])] - P.vertices[ids[0]])
        assert rho(b).rho == pytest.approx(_exact_rho(P.vertices, ids), rel=1e-12, abs=0)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        stream = RandomStream(3)
        for i in range(10):
            b = SubspaceBasis.from_span(3, rng.normal(size=(3, 6)))
            u = realify(random_unitary(3, stream.substream(i)))
            rotated = SubspaceBasis.from_span(3, b.vectors @ u.T)
            assert rho(rotated).rho == pytest.approx(rho(b).rho, abs=1e-9)

    def test_orthogonal_not_invariant(self):
        # Swapping Im z1 and Re z2 is orthogonal but not unitary: it maps the
        # equidimensional plane span{e1, ie1}^perp-partner below to a complex
        # line and rho drops from 1 to 0.
        b = basis_of(2, [[1, 0, 0, 0], [0, 0, 1, 0]])
        assert rho(b).rho == pytest.approx(1.0, abs=1e-12)
        swapped = b.vectors[:, [0, 2, 1, 3]]
        assert rho(SubspaceBasis.from_span(2, swapped)).rho == pytest.approx(0.0, abs=1e-12)


class TestGramSchmidt:
    """``gram_schmidt`` against LAPACK's QR and ``batch_rho`` against the SVD (test oracles
    only), and both against 40-digit arithmetic on slivers."""

    @pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("k, m", [(1, 4), (3, 6), (4, 8), (3, 3)])
    def test_against_qr(self, k, m, complex_rows):
        rng = np.random.default_rng(GS_SEED)
        a = rng.normal(size=(50, k, m))
        if complex_rows:
            a = a + 1j * rng.normal(size=(50, k, m))
        r, q = gram_schmidt(a)
        qr_q, qr_r = np.linalg.qr(np.swapaxes(a, 1, 2))
        np.testing.assert_allclose(r, np.abs(np.diagonal(qr_r, axis1=1, axis2=2)), rtol=1e-12)
        # The same rows up to a phase each, orthonormal in the Hermitian product.
        overlap = np.abs((q.conj() * np.swapaxes(qr_q, 1, 2)).sum(axis=2))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-12)
        np.testing.assert_allclose(q @ np.swapaxes(q.conj(), 1, 2),
                                   np.broadcast_to(np.eye(k), (50, k, k)), atol=1e-14)

    @pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
    def test_dependent_row_gets_a_zero_row(self, complex_rows):
        rng = np.random.default_rng(GS_SEED)
        a = rng.normal(size=(20, 4, 8))
        if complex_rows:
            a = a + 1j * rng.normal(size=(20, 4, 8))
        a[:, 1] = (2 - 3j if complex_rows else 2.0) * a[:, 0]  # inside the span of row 0
        r, q = gram_schmidt(a, cutoff=1e-9)
        assert np.all(r[:, 1] <= 1e-14 * r[:, 0])
        assert np.all(q[:, 1] == 0)
        assert np.all((r > 1e-9).sum(axis=1) == 3)
        # The rows after it are projected on rows 0, 2 and 3 only, and stay orthonormal.
        kept = q[:, [0, 2, 3]]
        np.testing.assert_allclose(kept @ np.swapaxes(kept.conj(), 1, 2),
                                   np.broadcast_to(np.eye(3), (20, 3, 3)), atol=1e-14)
        want = gram_schmidt(a[:, [0, 2, 3]])[0]
        np.testing.assert_allclose(r[:, [0, 2, 3]], want, rtol=1e-12)

    @pytest.mark.parametrize("k, n", [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_batch_rho_against_svd(self, k, n):
        rng = np.random.default_rng(GS_SEED)
        frames = np.linalg.qr(rng.normal(size=(40, 2 * n, k)))[0].swapaxes(1, 2)
        value, rank = batch_rho(frames, DEFAULT_TOLERANCE)
        s = np.linalg.svd(frames[:, :, 0::2] + 1j * frames[:, :, 1::2], compute_uv=False)
        np.testing.assert_allclose(value, (s * s).prod(axis=1), rtol=1e-12, atol=1e-15)
        assert np.all(rank == k)

    @pytest.mark.parametrize("k, n", [(2, 2), (3, 3), (4, 3), (4, 4)])
    def test_batch_rho_zero_on_a_complex_line(self, k, n):
        """Frames whose span holds v and iv: rho exactly 0 and complex rank k - 1."""
        rng = np.random.default_rng(GS_SEED)
        rows = rng.normal(size=(30, k, 2 * n))
        rows[:, 1] = multiply_i(rows[:, 0])
        frames = np.stack([SubspaceBasis.from_span(n, r).vectors for r in rows])
        value, rank = batch_rho(frames, DEFAULT_TOLERANCE)
        assert np.all(value == 0.0)
        assert np.all(rank == k - 1)

    @pytest.mark.parametrize("offset", [1e-3, 1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize("k, n", [(2, 2), (3, 3), (4, 4)])
    def test_sliver_simplices_against_40_digits(self, k, n, offset):
        """One edge ``offset`` off the span of the others, condition number kappa: vol_k =
        prod r / k! of ``gram_schmidt`` (bit for bit the face data of a simplex) within
        kappa * 1e-15 relative and ``batch_rho`` of its frame within kappa * 1e-15 of 40
        digits."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng([SLIVER_SEED, k])
        edges = rng.normal(size=(k, 2 * n))
        off = rng.normal(size=2 * n)
        off -= np.linalg.lstsq(edges[:-1].T, off, rcond=None)[0] @ edges[:-1]
        edges[-1] = rng.normal(size=k - 1) @ edges[:-1] + offset * off / np.linalg.norm(off)
        bound = np.linalg.cond(edges) * 1e-15
        r, frames = gram_schmidt(edges[None])
        vol = r.prod(axis=1) / math.factorial(k)
        rho_ = batch_rho(frames, DEFAULT_TOLERANCE)[0]
        with mpmath.workdps(40):
            w = mpmath.matrix(edges.tolist())
            z = mpmath.matrix([[mpmath.mpc(row[2 * j], row[2 * j + 1]) for j in range(n)]
                               for row in edges.tolist()])
            gram = mpmath.det(w * w.T)
            exact_vol = float(mpmath.sqrt(gram) / math.factorial(k))
            exact_rho = float(mpmath.re(mpmath.det(z * z.H)) / gram)
        assert abs(vol[0] - exact_vol) <= bound * exact_vol
        assert abs(rho_[0] - exact_rho) <= bound


class TestCrDecomposition:
    def test_complex_line(self):
        ec, prime = cr_decomposition(basis_of(1, [[1, 0], [0, 1]]))
        assert ec.d == 2
        assert prime.shape[0] == 0

    def test_totally_real(self):
        ec, prime = cr_decomposition(basis_of(2, [[1, 0, 0, 0], [0, 0, 1, 0]]))
        assert ec.d == 0
        assert prime.shape[0] == 2

    def test_dimension_count(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            b = SubspaceBasis.from_span(3, rng.normal(size=(4, 6)))
            ec, prime = cr_decomposition(b)
            assert ec.d + prime.shape[0] == b.d
            assert ec.d % 2 == 0


class TestRealify:
    def test_orthogonal_image(self):
        u = random_unitary(3, RandomStream(9))
        m = realify(u)
        np.testing.assert_allclose(m @ m.T, np.eye(6), atol=1e-12)

    def test_commutes_with_i(self):
        u = random_unitary(2, RandomStream(10))
        m = realify(u)
        v = np.random.default_rng(0).normal(size=4)
        np.testing.assert_allclose(multiply_i(m @ v), m @ multiply_i(v), atol=1e-12)

    def test_multiplicative(self):
        a = random_unitary(2, RandomStream(11))
        b = random_unitary(2, RandomStream(12))
        np.testing.assert_allclose(realify(a @ b), realify(a) @ realify(b), atol=1e-12)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_rho_bounds_property(seed):
    """0 <= rho <= 1, the t-vector route agrees, and rho is invariant under
    basis change of the span."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    b = SubspaceBasis.from_span(3, rng.normal(size=(d, 6)))
    r = rho(b).rho
    assert 0.0 <= r <= 1.0 + 1e-12
    if b.d <= 3:
        # rho = det of the Hermitian Gram matrix = sqrt(Gram det of the t-vectors).
        t = _t_vectors(b)
        assert abs(r - math.sqrt(max(np.linalg.det(t @ t.T), 0.0))) <= 1e-8
    mix = rng.normal(size=(b.d, b.d)) + np.eye(b.d)
    again = SubspaceBasis.from_span(3, mix @ b.vectors)
    if again.d == b.d:
        assert rho(again).rho == pytest.approx(r, abs=1e-8)
