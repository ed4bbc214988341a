"""Volumes, mixed volumes, and mixed discriminants.

Mixed volumes of point sets (vertex arrays) are computed by the
inclusion-exclusion polarization of the volume over Minkowski subset sums.
Mixed discriminants come with three independent evaluation paths
(permutation definition, subset inclusion-exclusion, Laplace-style
expansion); the subset path is the batched formula used by the Monte Carlo
integrands, applied to a batch of one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import complex_linalg as cl
from .numerics import DEFAULT_TOLERANCE, Tolerance
from .polytope import DimensionCapExceeded, Polytope, convex_volume

__all__ = [
    "SizeMismatch",
    "SubspaceMismatch",
    "MIXED_DISCRIMINANT_PERMUTATION_CAP",
    "mixed_volume",
    "intrinsic_volume",
    "mixed_discriminant",
    "batch_mixed_discriminant",
    "alexandroff_gap",
    "facet_normal_sum",
    "volume_via_facets",
]

MIXED_DISCRIMINANT_PERMUTATION_CAP = 6


class SizeMismatch(ValueError):
    pass


class SubspaceMismatch(ValueError):
    pass


def _body_coords(vertices: np.ndarray, basis: cl.SubspaceBasis, tol: Tolerance) -> np.ndarray:
    """Coordinates of the vertices in the subspace frame, after translating to v0."""
    diffs = vertices - vertices[0]
    coords = diffs @ basis.vectors.T
    residual = diffs - coords @ basis.vectors
    scale_ = max(1.0, float(np.abs(vertices).max()))
    if residual.size and np.max(np.abs(residual)) > tol.eps * scale_ * 100:
        raise SubspaceMismatch("body does not lie in a translate of the given subspace")
    return coords


def mixed_volume(
    bodies: list[np.ndarray],
    basis: cl.SubspaceBasis | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Mixed volume V_k(A_1, ..., A_k) of k bodies in a common k-dim subspace.

    Each body A_l is given by its points, an array of shape (N_l, 2n); only
    their convex hull matters.  V_k is the polarization of the k-volume:
    V_k = (1/k!) sum_{I nonempty} (-1)^{k-|I|} vol_k(sum_{l in I} A_l).
    Each body may live in its own translate of the subspace.
    """
    k = len(bodies)
    if k == 0:
        raise SizeMismatch("need at least one body")
    bodies = [np.atleast_2d(np.asarray(b, dtype=float)) for b in bodies]
    if basis is None:
        stacked = np.vstack([b - b[0] for b in bodies])
        basis = cl.SubspaceBasis.from_span(bodies[0].shape[1] // 2, stacked, tol)
    if basis.d != k:
        raise SizeMismatch(f"{k} bodies require a {k}-dimensional subspace, got {basis.d}")
    coords = [_body_coords(b, basis, tol) for b in bodies]
    if any(len(c) == 1 for c in coords):
        return 0.0  # V_k is translation invariant in each body and vanishes on a point
    total = 0.0
    for mask in range(1, 1 << k):
        members = [coords[i] for i in range(k) if mask >> i & 1]
        acc = members[0]
        for c in members[1:]:
            acc = (acc[:, None, :] + c[None, :, :]).reshape(-1, k)
        sign = (-1) ** (k - len(members))
        total += sign * convex_volume(acc)
    return total / math.factorial(k)


def intrinsic_volume(P: Polytope, k: int, angles) -> float:
    """v_k(Gamma) = sum over k-faces of vol_k * outer angle.

    ``angles`` is a callable Face -> Estimate (e.g. AnglePass.angle).
    v_0 = 1 exactly, without angles: the vertex normal cones tile E_Gamma.
    """
    if k < 0 or k > P.dim_real:
        return 0.0
    if k == 0:
        return 1.0
    return float(sum(f.volume_k * angles(f).value for f in P.faces.get(k, [])))


# ---------------------------------------------------------------------------
# Mixed discriminants


def _check_square(mats: list[np.ndarray]) -> tuple[int, list[np.ndarray]]:
    if not mats:
        raise SizeMismatch("need at least one matrix")
    out = [np.asarray(m, dtype=complex) for m in mats]
    n = out[0].shape[0]
    for m in out:
        if m.shape != (n, n):
            raise SizeMismatch("all matrices must be square of equal size")
    if len(out) != n:
        raise SizeMismatch(f"need exactly {n} matrices of size {n}, got {len(out)}")
    return n, out


def _mixed_discriminant_permutation(mats: list[np.ndarray]) -> complex:
    n = len(mats)
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        mixed = np.empty((n, n), dtype=complex)
        for ell in range(n):
            mixed[:, ell] = mats[sigma[ell]][:, ell]
        total += np.linalg.det(mixed)
    return total / math.factorial(n)


def _mixed_discriminant_laplace(mats: list[np.ndarray], ell: int = 0) -> complex:
    """Expansion along the ell-th matrix:
    D_n = (1/n) sum_{j,k} m^(ell)_{jk} (-1)^{j+k} D_{n-1}(others with row j, col k removed).
    """
    n = len(mats)
    if n == 1:
        return complex(mats[0][0, 0])
    m = mats[ell]
    others = [mats[i] for i in range(n) if i != ell]
    total = 0.0 + 0.0j
    for j in range(n):
        for k in range(n):
            if m[j, k] == 0:
                continue
            minors = [np.delete(np.delete(o, j, axis=0), k, axis=1) for o in others]
            total += m[j, k] * (-1) ** (j + k) * _mixed_discriminant_laplace(minors)
    return total / n


def mixed_discriminant(mats: list[np.ndarray], method: str = "auto") -> complex:
    """Mixed discriminant D_n(M_1, ..., M_n).

    Normalized so that D_n(M, ..., M) = det M.  Methods: "permutation"
    (n <= 6; DimensionCapExceeded above), "subset", "laplace", or "auto"
    (permutation when allowed, subset otherwise).
    """
    n, arrs = _check_square(mats)
    if method == "auto":
        method = "permutation" if n <= MIXED_DISCRIMINANT_PERMUTATION_CAP else "subset"
    if method == "permutation":
        if n > MIXED_DISCRIMINANT_PERMUTATION_CAP:
            raise DimensionCapExceeded(
                f"permutation path limited to n <= {MIXED_DISCRIMINANT_PERMUTATION_CAP}"
            )
        return _mixed_discriminant_permutation(arrs)
    if method == "subset":
        return batch_mixed_discriminant([m[None] for m in arrs])[0]
    if method == "laplace":
        return _mixed_discriminant_laplace(arrs)
    raise ValueError(f"unknown method {method!r}")


def batch_mixed_discriminant(mats: list[np.ndarray]) -> np.ndarray:
    """Mixed discriminants of n stacks of matrices, shape (N, n, n) each -> (N,).

    Uses the subset inclusion-exclusion formula with numpy's batched det.
    """
    if not mats:
        raise SizeMismatch("need at least one stack")
    n = mats[0].shape[-1]
    if len(mats) != n:
        raise SizeMismatch(f"need exactly {n} stacks of {n}x{n} matrices")
    total = np.zeros(mats[0].shape[0], dtype=complex)
    for mask in range(1, 1 << n):
        members = [mats[i] for i in range(n) if mask >> i & 1]
        sign = (-1) ** (n - len(members))
        total += sign * np.linalg.det(sum(members))
    return total / math.factorial(n)


def alexandroff_gap(m: np.ndarray, other: np.ndarray, rest: list[np.ndarray] = ()) -> float:
    """D(M, N, rest)^2 - D(M, M, rest) * D(N, N, rest); non-negative for
    non-negative Hermitian arguments."""
    rest = list(rest)
    lhs = mixed_discriminant([m, other, *rest])
    rhs = mixed_discriminant([m, m, *rest]) * mixed_discriminant([other, other, *rest])
    return float(lhs.real**2 - rhs.real)


# ---------------------------------------------------------------------------
# Facet identities


def facet_normal_sum(P: Polytope) -> np.ndarray:
    """sum over facets of vol_{d-1}(facet) * outer unit normal; zero for a polytope."""
    volumes = P.faces.data(P.dim_real - 1)[0] if P.dim_real else []
    return sum(map(np.multiply, volumes, P.facet_normals), np.zeros(2 * P.ambient_n))


def volume_via_facets(P: Polytope) -> float:
    """vol_d(Gamma) = (1/d) sum over facets of h(u) * vol_{d-1}, with h taken
    relative to the centroid (the identity is translation invariant)."""
    d = P.dim_real
    if d == 0:
        return 1.0
    return sum(float(np.max((P.vertices - P.centroid) @ normal)) * volume
               for normal, volume in zip(P.facet_normals, P.faces.data(d - 1)[0])) / d
