"""Real-linear algebra inside C^n.

Points of C^n are stored as real 2n-vectors with interleaved coordinates
(x1, y1, ..., xn, yn), so z_l = xi[2l-2] + i*xi[2l-1].  The module provides
orthonormal subspace bases, the maximal complex subspace E^C = E ∩ iE, the
volume-distortion coefficient rho(E), and the realification of complex
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOLERANCE, RandomStream, Tolerance

__all__ = [
    "NonOrthonormalBasis",
    "SubspaceBasis",
    "DistortionReport",
    "real_to_complex",
    "complex_to_real",
    "multiply_i",
    "rho",
    "batch_rho",
    "gram_schmidt",
    "cr_decomposition",
    "realify",
    "random_unitary",
]


class NonOrthonormalBasis(ValueError):
    """Raised when a basis fails the orthonormality check."""


def real_to_complex(v: np.ndarray) -> np.ndarray:
    """Interleaved real 2n-vector(s) -> complex n-vector(s); works on batches."""
    v = np.asarray(v, dtype=float)
    return v[..., 0::2] + 1j * v[..., 1::2]


def complex_to_real(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def multiply_i(v: np.ndarray) -> np.ndarray:
    """Real representation of multiplication by i."""
    return complex_to_real(1j * real_to_complex(v))


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Ordered orthonormal real basis of an R-linear subspace of C^n.

    ``vectors`` has shape (d, 2n); rows are orthonormal with respect to the
    real scalar product Re<.,.> (the standard dot product in R^{2n}).
    """

    ambient_n: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 * self.ambient_n:
            raise ValueError(f"expected shape (d, {2 * self.ambient_n}), got {v.shape}")
        object.__setattr__(self, "vectors", v)

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    def check(self, tol: Tolerance = DEFAULT_TOLERANCE) -> None:
        if self.d == 0:
            return
        gram = self.vectors @ self.vectors.T
        if np.max(np.abs(gram - np.eye(self.d))) > tol.eps * 10:
            raise NonOrthonormalBasis("Gram matrix differs from identity")

    @classmethod
    def from_span(
        cls,
        ambient_n: int,
        vectors: np.ndarray,
        tol: Tolerance = DEFAULT_TOLERANCE,
    ) -> "SubspaceBasis":
        """Orthonormal basis of the span of the given (possibly dependent) rows."""
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        if v.size == 0:
            return cls(ambient_n, np.zeros((0, 2 * ambient_n)))
        u, s, vt = np.linalg.svd(v, full_matrices=False)
        cutoff = max(s[0], 1.0) * tol.eps if s.size else 0.0
        rank = int(np.sum(s > cutoff))
        return cls(ambient_n, vt[:rank])


@dataclass(frozen=True)
class DistortionReport:
    rho: float
    cr_dim: int
    complex_dim: int
    equidimensional: bool


def _t_vectors(basis: SubspaceBasis) -> np.ndarray:
    """Rows t_l = i v_l - sum_s Re<i v_l, v_s> v_s, the components of iE off E."""
    v = basis.vectors
    iv = multiply_i(v)
    return iv - (iv @ v.T) @ v


def cr_decomposition(
    basis: SubspaceBasis, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[SubspaceBasis, np.ndarray]:
    """Split E into its maximal complex subspace and a spanning set of E'.

    Returns (basis of E^C = E ∩ iE, independent t-vectors spanning
    E' = E^perp ∩ lin_C E).  The number of returned t-vectors equals
    d - dim_R(E^C).
    """
    basis.check(tol)
    d = basis.d
    n2 = 2 * basis.ambient_n
    if d == 0:
        return SubspaceBasis(basis.ambient_n, np.zeros((0, n2))), np.zeros((0, n2))
    t = _t_vectors(basis)
    # Kernel of a -> sum_l a_l t_l corresponds to E^C via sum_l a_l v_l.
    u, s, vt = np.linalg.svd(t, full_matrices=True)
    smax = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > smax * tol.eps))
    kernel = u[:, rank:].T  # rows are coefficient vectors a with a @ t = 0
    ec_vectors = kernel @ basis.vectors
    ec_basis = SubspaceBasis.from_span(basis.ambient_n, ec_vectors, tol)
    # Independent t-vectors: pick rows matching the row space of t.
    if rank == 0:
        prime = np.zeros((0, n2))
    else:
        coeffs = u[:, :rank].T  # row combinations with nonzero image
        prime = coeffs @ t
        # Prefer original t-vectors where they are independent, for the
        # orthogonality statements about the d = 2 case.
        norms = np.linalg.norm(t, axis=1)
        keep = [i for i in range(d) if norms[i] > tol.eps]
        if len(keep) == rank and np.linalg.matrix_rank(t[keep]) == rank:
            prime = t[keep]
    return ec_basis, prime


def gram_schmidt(a: np.ndarray, cutoff: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Residual norms r (F, k) and orthonormal rows q (F, k, m) of F sets of k rows a (F, k, m).

    Classical Gram-Schmidt, batched over the F sets by ``matmul``: row j is projected
    off the rows of q before it twice, which keeps q orthonormal to rounding ("twice
    is enough", Giraud, Langou and Rozloznik, Comput. Math. Appl. 2005), and r_j is
    the norm of what is left, so prod r is the k-volume of the rows (|det R| of their
    QR).  Real or complex a; a complex q is orthonormal in the Hermitian product.  A
    row whose r is at most ``cutoff`` gets a zero row in q, so the rows after it are
    not projected on noise.  Each row is one ``gram_schmidt_step``.
    """
    q, r = np.array(a), np.empty(np.shape(a)[:2])
    for j in range(q.shape[1]):
        r[:, j] = gram_schmidt_step(q[:, :j], q[:, j:j + 1], cutoff)
    return r, q


def gram_schmidt_step(done: np.ndarray, v: np.ndarray, cutoff: float = 0.0) -> np.ndarray:
    """One row of ``gram_schmidt``, in place: v (F, 1, m) projected twice off the orthonormal
    (or zero) rows done (F, j, m), then scaled to unit length, or to zero where the norm r
    of what was left is at most ``cutoff``; returns r (F,), the norms before the scaling."""
    done_h = np.swapaxes(done.conj() if np.iscomplexobj(done) else done, 1, 2)
    for _ in range(2 if done.shape[1] else 0):
        v -= (v @ done_h) @ done
    r = np.linalg.norm(v[:, 0], axis=1)
    v *= np.divide(1.0, r, out=np.zeros(len(r)), where=r > cutoff)[:, None, None]
    return r


def batch_rho(frames: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """rho and complex rank of the spans of F orthonormal frames of k rows (F, k, 2n).

    rho is the Hermitian Gram determinant of the complexified frame z, the
    product of the squared residual norms r of its ``gram_schmidt``; the complex
    rank counts the r above ``tol.eps`` (``eps * max(1, max|z|)``, as |z| <= 1),
    and rho is exactly 0 where it falls short of k.
    """
    count, k, _ = frames.shape
    if k == 0:
        return np.ones(count), np.zeros(count, dtype=int)
    r, _ = gram_schmidt(real_to_complex(frames), tol.eps)
    rank = (r > tol.eps).sum(axis=1)
    return np.where(rank == k, np.minimum((r * r).prod(axis=1), 1.0), 0.0), rank


def rho(basis: SubspaceBasis, tol: Tolerance = DEFAULT_TOLERANCE) -> DistortionReport:
    """Volume-distortion coefficient of the subspace spanned by the basis, by ``batch_rho``.

    The t-vector route, the Gram determinant of the t-vectors spanning E',
    gives the same value and is checked against it in the tests rather than
    on every call.
    """
    basis.check(tol)
    value, rank = batch_rho(basis.vectors[None], tol)
    cr_dim = 2 * (basis.d - int(rank[0]))
    return DistortionReport(rho=float(value[0]), cr_dim=cr_dim, complex_dim=int(rank[0]),
                            equidimensional=cr_dim == 0)


def realify(m: np.ndarray) -> np.ndarray:
    """2n x 2n real matrix acting on interleaved coordinates as the complex matrix m.

    Satisfies realify(M M') = realify(M) realify(M'), det = |det M|^2, and
    transpose(realify(M)) = realify(conj-transpose(M)).
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("square matrix required")
    out = np.zeros((2 * n, 2 * n))
    out[0::2, 0::2] = m.real
    out[0::2, 1::2] = -m.imag
    out[1::2, 0::2] = m.imag
    out[1::2, 1::2] = m.real
    return out


def random_unitary(n: int, stream: RandomStream) -> np.ndarray:
    """Haar-distributed unitary matrix via QR of a complex Gaussian with phase fix."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = stream.generator()
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[None, :]
