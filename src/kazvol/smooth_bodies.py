"""Pseudovolume of smooth convex bodies from their support functions.

A 1-homogeneous support function h has a complex Hessian
(d^2 h / dz_l dz_bar_k) of homogeneity degree -n in ||z||, so the
Monge-Ampere integral over the unit ball reduces to a sphere average:

    P_n(A) = (4^n * 2 * kappa_{2n} / kappa_n) * E_{theta ~ S^{2n-1}}
             [det Hess_C h_A(theta)].

Mixed pseudovolumes replace the determinant with the mixed discriminant of
the bodies' Hessians; the boundary-sphere formula provides an independent
second path through the gradient matrix M_{jk} = z_j * dh/dz_k.  Every
quadrature, and the solid-ball cross-check of the sphere reduction, runs
through the one chunked estimator ``_sphere_mc``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import complex_linalg as cl
from .numerics import RandomStream, chunks, kappa, sphere_sample
from .volumes import batch_mixed_discriminant

__all__ = [
    "SingularPoint",
    "NonFiniteIntegrand",
    "SupportBody",
    "QuadratureResult",
    "ball",
    "lower_ball",
    "ellipsoid",
    "custom_body",
    "ball_pseudovolume",
    "lower_ball_pseudovolume",
    "complex_hessian",
    "complex_gradient",
    "mc_pseudovolume",
    "mc_mixed_pseudovolume",
    "boundary_mixed_pseudovolume",
    "levi_ball_identity",
    "load_body",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = 2_000_000
_CHUNK = 100_000
_FD_STEP = 1e-5


class SingularPoint(ValueError):
    pass


class NonFiniteIntegrand(ArithmeticError):
    pass


@dataclass(frozen=True, eq=False)
class SupportBody:
    """Smooth convex body given by its support function.

    ``h`` maps complex points of shape (N, n) to values of shape (N,);
    ``hessian``/``gradient`` are optional analytic maps (finite differences
    are used when absent).
    """

    ambient_n: int
    kind: str  # "ball_2n", "ball_2n_minus_1", "ellipsoid", "custom"
    h: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    gradient: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    std_error: float
    samples: int


def _as_points(z: np.ndarray, n: int) -> np.ndarray:
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.shape[-1] != n:
        raise ValueError(f"points must have {n} complex coordinates")
    norms = np.linalg.norm(z, axis=-1)
    if np.any(norms < 1e-8):
        raise SingularPoint("support-function Hessian is singular at the origin")
    return z


# ---------------------------------------------------------------------------
# Built-in bodies


def ball(n: int) -> SupportBody:
    """Full-dimensional unit ball B_2n of C^n; h(z) = ||z||."""

    def h(z):
        return np.linalg.norm(z, axis=-1)

    def hessian(z):
        norm = np.linalg.norm(z, axis=-1)[:, None, None]
        outer = np.conj(z)[:, :, None] * z[:, None, :]
        eye = np.eye(n)[None, :, :]
        return eye / (2 * norm) - outer / (4 * norm**3)

    def gradient(z):
        return np.conj(z) / (2 * np.linalg.norm(z, axis=-1)[:, None])

    return SupportBody(n, "ball_2n", h, hessian, gradient)


def lower_ball(n: int) -> SupportBody:
    """Unit ball B_{2n-1} of the hyperplane {Re z_1 = 0} in C^n.

    h(z) = sqrt((Im z_1)^2 + sum_{l>=2} |z_l|^2).
    """

    def hval(z):
        y1 = z[..., 0].imag
        tail = np.sum(np.abs(z[..., 1:]) ** 2, axis=-1)
        return np.sqrt(y1**2 + tail)

    def hessian(z):
        m = z.shape[0]
        y1 = z[:, 0].imag
        hv = hval(z)
        if np.any(hv < 1e-12):
            raise SingularPoint("support value underflows on the singular line")
        out = np.empty((m, n, n), dtype=complex)
        h3 = 4 * hv**3
        out[:, 0, 0] = 1 / (4 * hv) - y1**2 / h3
        if n > 1:
            tail = z[:, 1:]
            out[:, 0, 1:] = 1j * y1[:, None] * tail / h3[:, None]
            out[:, 1:, 0] = -1j * y1[:, None] * np.conj(tail) / h3[:, None]
            outer = np.conj(tail)[:, :, None] * tail[:, None, :]
            eye = np.eye(n - 1)[None, :, :]
            out[:, 1:, 1:] = eye / (2 * hv[:, None, None]) - outer / h3[:, None, None]
        return out

    def gradient(z):
        y1 = z[:, 0].imag
        hv = hval(z)
        out = np.empty_like(z)
        out[:, 0] = -1j * y1 / (2 * hv)
        out[:, 1:] = np.conj(z[:, 1:]) / (2 * hv[:, None])
        return out

    return SupportBody(n, "ball_2n_minus_1", hval, hessian, gradient)


def ellipsoid(n: int, q: np.ndarray) -> SupportBody:
    """Body with support function h(x) = sqrt(x^T Q x), Q a 2n x 2n SPD matrix."""
    q = np.asarray(q, dtype=float)
    if q.shape != (2 * n, 2 * n):
        raise ValueError(f"Q must be {2 * n}x{2 * n}")
    if np.max(np.abs(q - q.T)) > 1e-12:
        raise ValueError("Q must be symmetric")

    def h(z):
        x = cl.complex_to_real(z)
        return np.sqrt(np.einsum("ij,...i,...j->...", q, x, x))

    return SupportBody(n, "ellipsoid", h)


def custom_body(n: int, h: Callable[[np.ndarray], np.ndarray]) -> SupportBody:
    return SupportBody(n, "custom", h)


# ---------------------------------------------------------------------------
# Hessians and gradients


def _fd_real_hessian(body: SupportBody, z: np.ndarray) -> np.ndarray:
    """Real 2n x 2n Hessians of h by central differences, shape (N, 2n, 2n)."""
    x = cl.complex_to_real(z)
    m, dim = x.shape
    steps = _FD_STEP * np.linalg.norm(x, axis=-1)
    out = np.empty((m, dim, dim))
    f0 = body.h(z)
    for a in range(dim):
        ea = np.zeros(dim)
        ea[a] = 1.0
        da = steps[:, None] * ea[None, :]
        out[:, a, a] = (
            body.h(cl.real_to_complex(x + da)) - 2 * f0 + body.h(cl.real_to_complex(x - da))
        ) / steps**2
        for b in range(a + 1, dim):
            eb = np.zeros(dim)
            eb[b] = 1.0
            db = steps[:, None] * eb[None, :]
            mixed = (
                body.h(cl.real_to_complex(x + da + db))
                - body.h(cl.real_to_complex(x + da - db))
                - body.h(cl.real_to_complex(x - da + db))
                + body.h(cl.real_to_complex(x - da - db))
            ) / (4 * steps**2)
            out[:, a, b] = mixed
            out[:, b, a] = mixed
    return out


def complex_hessian(body: SupportBody, z: np.ndarray) -> np.ndarray:
    """Complex Hessians (d^2 h / dz_l dz_bar_k), shape (N, n, n).

    Analytic when the body provides one; otherwise assembled from real central
    finite differences via d/dz = (d/dx - i d/dy)/2.
    """
    n = body.ambient_n
    z = _as_points(z, n)
    if body.hessian is not None:
        return body.hessian(z)
    hr = _fd_real_hessian(body, z)
    xx = hr[:, 0::2, 0::2]
    yy = hr[:, 1::2, 1::2]
    xy = hr[:, 0::2, 1::2]
    yx = hr[:, 1::2, 0::2]
    return 0.25 * ((xx + yy) + 1j * (xy - yx))


def complex_gradient(body: SupportBody, z: np.ndarray) -> np.ndarray:
    """Gradients (dh/dz_l), shape (N, n); finite differences when not analytic."""
    n = body.ambient_n
    z = _as_points(z, n)
    if body.gradient is not None:
        return body.gradient(z)
    x = cl.complex_to_real(z)
    dim = 2 * n
    steps = _FD_STEP * np.linalg.norm(x, axis=-1)
    partials = np.empty((z.shape[0], dim))
    for a in range(dim):
        ea = np.zeros(dim)
        ea[a] = 1.0
        da = steps[:, None] * ea[None, :]
        partials[:, a] = (
            body.h(cl.real_to_complex(x + da)) - body.h(cl.real_to_complex(x - da))
        ) / (2 * steps)
    return 0.5 * (partials[:, 0::2] - 1j * partials[:, 1::2])


# ---------------------------------------------------------------------------
# Closed forms


def ball_pseudovolume(n: int) -> float:
    """P_n(B_2n) = 2^n * kappa_2n / kappa_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2**n * kappa(2 * n) / kappa(n)


def lower_ball_pseudovolume(n: int) -> float:
    """P_n(B_{2n-1}); equals 2 for n = 1 (a segment of length 2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 2.0
    return (
        2 ** (n - 2)
        * math.pi ** (n / 2)
        * math.gamma((n - 1) / 2)
        * (n - 1)
        / math.gamma(n + 0.5)
    )


def levi_ball_identity(n: int) -> tuple[float, float]:
    """Both sides of the boundary Levi-form identity for the unit ball."""
    lhs = (2 ** (n - 1) * math.gamma(n) / (math.gamma(n + 1) * kappa(n))) * 2 * n * kappa(2 * n)
    rhs = ball_pseudovolume(n)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Quadrature


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteIntegrand("non-finite integrand sample")


def _sphere_mc(
    integrand, dim: int, samples: int, stream: RandomStream, ball: bool = False
) -> tuple[float, float]:
    """Mean and standard error of a function of uniform sphere directions.

    With ``ball`` the points fill the unit ball instead: each chunk's
    directions are scaled by radii U^{1/dim} drawn from its substream 0.
    """
    total = 0.0
    total_sq = 0.0
    for sub, m in chunks(samples, stream, _CHUNK):
        theta = sphere_sample(dim, sub, m)
        if ball:
            theta = theta * (sub.substream(0).generator().random(m) ** (1.0 / dim))[:, None]
        vals = integrand(cl.real_to_complex(theta))
        _check_finite(vals)
        if np.iscomplexobj(vals):
            vals = vals.real
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals**2))
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return mean, math.sqrt(var / samples)


def mc_pseudovolume(
    body: SupportBody,
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
    reduction: str = "sphere",
) -> QuadratureResult:
    """P_n(A) = (4^n / kappa_n) * integral of det Hess_C h_A over B_2n.

    ``reduction="sphere"`` uses the (-n)-homogeneity of the determinant to
    integrate over the unit sphere; ``reduction="ball"`` samples the solid
    ball directly (slower, kept as a cross-check of the reduction).  The ball
    average carries half the sphere constant: (4^n / kappa_n) * vol(B_2n).
    """
    if reduction not in ("sphere", "ball"):
        raise ValueError(f"unknown reduction {reduction!r}")
    n = body.ambient_n
    constant = 4**n * 2 * kappa(2 * n) / kappa(n)
    if reduction == "ball":
        constant /= 2

    def integrand(z):
        return np.linalg.det(complex_hessian(body, z))

    mean, err = _sphere_mc(integrand, 2 * n, samples, stream, ball=reduction == "ball")
    return QuadratureResult(constant * mean, constant * err, samples)


def mc_mixed_pseudovolume(
    bodies: list[SupportBody],
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
) -> QuadratureResult:
    """Q_n via the mixed discriminant of the bodies' complex Hessians."""
    n = bodies[0].ambient_n
    if len(bodies) != n:
        raise ValueError(f"need exactly {n} bodies in C^{n}")
    constant = 4**n * 2 * kappa(2 * n) / kappa(n)

    def integrand(z):
        mats = [complex_hessian(b, z) for b in bodies]
        return batch_mixed_discriminant(mats)

    mean, err = _sphere_mc(integrand, 2 * n, samples, stream)
    return QuadratureResult(constant * mean, constant * err, samples)


def boundary_mixed_pseudovolume(
    bodies: list[SupportBody],
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
) -> QuadratureResult:
    """Q_n via the boundary-sphere formula.

    The first body enters through M_{jk} = z_j * dh/dz_k as the Hermitian
    matrix conj(M) + transpose(M); the others through their complex Hessians:

        Q_n = (4^{n-1} / kappa_n) * integral over the unit sphere of
              D_n(conj(M) + M^T, Hess_C h_{A_2}, ...).
    """
    n = bodies[0].ambient_n
    if len(bodies) != n:
        raise ValueError(f"need exactly {n} bodies in C^{n}")
    constant = 4 ** (n - 1) * 2 * n * kappa(2 * n) / kappa(n)

    def integrand(z):
        grad = complex_gradient(bodies[0], z)
        m = z[:, :, None] * grad[:, None, :]
        first = np.conj(m) + np.swapaxes(m, 1, 2)
        mats = [first] + [complex_hessian(b, z) for b in bodies[1:]]
        return batch_mixed_discriminant(mats)

    mean, err = _sphere_mc(integrand, 2 * n, samples, stream)
    return QuadratureResult(constant * mean, constant * err, samples)


# ---------------------------------------------------------------------------
# File format


def load_body(source) -> SupportBody:
    """Load a smooth body descriptor: {"kind": "ball"|"lower_ball"|"ellipsoid",
    "n": int, "Q": [[...]] (ellipsoid only)}."""
    if isinstance(source, (str, Path)) and Path(str(source)).exists():
        data = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        data = json.loads(source)
    else:
        data = source
    kind = data["kind"]
    n = int(data["n"])
    if kind == "ball":
        return ball(n)
    if kind == "lower_ball":
        return lower_ball(n)
    if kind == "ellipsoid":
        return ellipsoid(n, np.asarray(data["Q"], dtype=float))
    raise ValueError(f"unknown body kind {kind!r}")
