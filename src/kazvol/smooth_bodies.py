"""Pseudovolume of smooth convex bodies from their support functions.

A 1-homogeneous support function h has a complex Hessian
(d^2 h / dz_l dz_bar_k) of homogeneity degree -n in ||z||, so the
Monge-Ampere integral over the unit ball reduces to a sphere average:

    P_n(A) = (4^n * 2 * kappa_{2n} / kappa_n) * E_{theta ~ S^{2n-1}}
             [det Hess_C h_A(theta)].

Mixed pseudovolumes replace the determinant with the mixed discriminant of
the bodies' Hessians; the boundary-sphere formula provides an independent
second path through the gradient matrix M_{jk} = z_j * dh/dz_k.  ``_density``
writes each of the three integrands once.

The built-in bodies -- ``ball`` (Q = I), ``lower_ball`` (Q = diag(0, 1, ...,
1)) and ``ellipsoid`` (any positive semidefinite Q) -- share the support
function h(x) = sqrt(x^T Q x) and its one closed-form complex Hessian,
gradient and Hessian determinant (``_quadratic_body``): the Hessian is a
rank-one update of one constant matrix, so the determinant lemma gives
det Hess_C h without a per-point matrix or factorization.  A ``custom_body``
is differentiated by finite differences, and its determinant is taken by LU.

``smooth_quadrature`` takes P_n of one built-in body in any C^n from one
integral in one variable (``_schwinger_mean``): det Hess_C h is rational in
x^T Q x and one more quadratic form, and the Gamma-function identity
a^{-s} = Gamma(s)^{-1} * integral_0^inf t^{s-1} e^{-ta} dt turns its sphere
mean into Gaussian means.  Other integrands it averages with a deterministic
product rule (:class:`SphereRule`) for n <= 3 and analytic derivatives, and
otherwise by Monte Carlo.  ``_sphere_mc`` is the one Monte Carlo path: it
feeds the integrand at uniform sphere directions (or, for the solid-ball
cross-check of the sphere reduction, uniform ball points) to
:func:`numerics.sampled_mean`, and serves the fallback and the ``mc_*``
functions (the oracle) alike.  All return an :class:`numerics.Estimate`: the
integral and cubature put their ladder and rounding error into ``bound`` and
count the nodes they evaluated, Monte Carlo reports a standard error and
counts the draws it kept.  The one-body cubature, ``det_hessian`` and
``mc_pseudovolume`` stay as the integral's oracles, reached through a body
whose ``q`` is None.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from . import complex_linalg as cl
from .numerics import (DEFAULT_SAMPLES, Estimate, RandomStream, kappa, read_field, read_json,
                       sampled_mean, sphere_sample)
from .volumes import batch_mixed_discriminant

__all__ = [
    "SingularPoint",
    "NonFiniteIntegrand",
    "SupportBody",
    "SphereRule",
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
    "smooth_quadrature",
    "levi_ball_identity",
    "load_body",
    "DEFAULT_SAMPLES",
]

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
    are used when absent; the built-in bodies take both from their Q).
    ``det_hessian`` is an optional analytic map to det Hess_C h, shape (N,),
    which the one-body density then reads instead of a determinant of
    ``hessian``.  It must describe the same h as ``hessian``: a
    ``dataclasses.replace`` that swaps ``h`` or ``hessian`` must also pass
    ``det_hessian=None``.
    ``singular_axis`` is a unit vector (in the interleaved real layout) along
    a line on which the support function has a kink, or None: cubature puts its
    polar axis there.  A built-in body has one when ker Q is one line.
    ``q`` is the matrix Q of h = sqrt(x^T Q x) for a built-in body, or None;
    ``smooth_quadrature`` then takes P_n from Q alone.  It must describe the
    same h: a ``dataclasses.replace`` that swaps ``h`` or ``hessian`` must
    also pass ``q=None``.
    """

    ambient_n: int
    kind: str  # "ball_2n", "ball_2n_minus_1", "ellipsoid", "custom"
    h: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    det_hessian: Callable[[np.ndarray], np.ndarray] | None = None
    singular_axis: np.ndarray | None = None
    q: np.ndarray | None = None


def _as_points(z: np.ndarray, n: int) -> np.ndarray:
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.shape[-1] != n:
        raise ValueError(f"points must have {n} complex coordinates")
    norms = np.linalg.norm(z, axis=-1)
    if np.any(norms < 1e-8):
        raise SingularPoint("support-function Hessian is singular at the origin")
    return z


# ---------------------------------------------------------------------------
# Built-in bodies: h(x) = sqrt(x^T Q x) in the interleaved real coordinates


def _quadratic_body(n: int, q: np.ndarray, kind: str) -> SupportBody:
    """The body with support function h(x) = sqrt(x^T Q x), Q positive semidefinite.

    With u = (g_x + i g_y) / 2 half the complex form of the real gradient
    g = Qx / h, dh/dz = conj(u), and the real Hessian (Q - g g^T) / h has the
    complex Hessian (A - conj(u) u^T) / h with A = ``_complex_hessian_of(Q)``.
    Its determinant is (det A - u^T adj(A) conj(u)) / h^n by the matrix
    determinant lemma (Harville 1997, 18.1), with the adjugate taken by
    cofactors, since A may be singular.
    The callables work on Q / max|Q| and scale h, its gradient and Hessian back
    by sqrt(max|Q|), so det A and adj(A) never under- or overflow.
    When ker Q is one line, h has its kink there, and the singular axis is
    its unit null vector, signed so that its largest entry is positive.  A
    kernel of dimension 2 or more is rejected: the body then lies in a
    subspace of codimension >= 2, and its Monge-Ampere mass sits on the
    kernel, which no sphere average of det Hess_C h sees.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eigenvalues, eigenvectors = _eigh_with_kernel(q)
    null = eigenvectors[:, eigenvalues == 0]
    if null.shape[1] >= 2:
        raise ValueError(f"ker Q has dimension {null.shape[1]}; a support body sqrt(x^T Q x) "
                         "needs a kernel of dimension 0 or 1, since the sphere average of "
                         "det Hess_C h misses the mass on a larger kernel")
    scale = float(np.max(np.abs(q)))
    root, unit = math.sqrt(scale), q / scale
    a = _complex_hessian_of(unit)
    det_a, adj = np.linalg.det(a), _adjugate(a)

    def h_and_qx(z):
        x = cl.complex_to_real(z)
        qx = x @ unit
        return np.sqrt(np.einsum("...i,...i->...", qx, x)), qx

    def h_and_u(z):
        hv, qx = h_and_qx(z)
        if not np.all(hv > 1e-12):
            raise SingularPoint("support value underflows on the singular line")
        return hv, cl.real_to_complex(qx / (2 * hv)[:, None])

    def hessian(z):
        hv, u = h_and_u(z)
        out = np.conj(u)[:, :, None] * u[:, None, :]
        np.subtract(a, out, out=out)
        out /= (hv / root)[:, None, None]
        return out

    def gradient(z):
        return root * np.conj(h_and_u(z)[1])

    def det_hessian(z):
        hv, u = h_and_u(z)
        return (det_a - ((u @ adj) * np.conj(u)).sum(1)) / (hv / root)**n

    axis = None
    if null.shape[1]:
        axis = null[:, 0] * np.sign(null[np.argmax(np.abs(null[:, 0])), 0])
    return SupportBody(n, kind, lambda z: root * h_and_qx(z)[0], hessian, gradient, det_hessian,
                       singular_axis=axis, q=q)


def _eigh_with_kernel(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh(Q)`` with the eigenvalues below 1e-12 of the largest set to exactly 0 (ker Q)."""
    eigenvalues, eigenvectors = np.linalg.eigh(q)
    eigenvalues[eigenvalues <= 1e-12 * eigenvalues[-1]] = 0.0
    return eigenvalues, eigenvectors


def _adjugate(a: np.ndarray) -> np.ndarray:
    """adj(A)_{jk} = (-1)^{j+k} det(A without row k and column j), for singular A too.

    A 1 x 1 A has the empty minor, whose determinant is 1.
    """
    adj = np.empty_like(a)
    for j, k in itertools.product(range(a.shape[0]), repeat=2):
        minor = np.delete(np.delete(a, k, axis=0), j, axis=1)
        adj[j, k] = (-1) ** (j + k) * np.linalg.det(minor)
    return adj


def ball(n: int) -> SupportBody:
    """Full-dimensional unit ball B_2n of C^n; h(z) = ||z||, Q = I."""
    return _quadratic_body(n, np.eye(2 * n), "ball_2n")


def lower_ball(n: int) -> SupportBody:
    """Unit ball B_{2n-1} of the hyperplane {Re z_1 = 0} in C^n.

    h(z) = sqrt((Im z_1)^2 + sum_{l>=2} |z_l|^2): Q = diag(0, 1, ..., 1).
    """
    return _quadratic_body(n, np.diag([0.0] + [1.0] * (2 * n - 1)), "ball_2n_minus_1")


def ellipsoid(n: int, q: np.ndarray) -> SupportBody:
    """Body with support function h(x) = sqrt(x^T Q x), Q a 2n x 2n PSD matrix."""
    q = np.asarray(q, dtype=float)
    if q.shape != (2 * n, 2 * n):
        raise ValueError(f"Q must be {2 * n}x{2 * n}")
    if not np.all(np.isfinite(q)):
        raise ValueError("Q must be finite")
    if np.max(np.abs(q - q.T)) > 1e-12 * np.max(np.abs(q)):
        raise ValueError("Q must be symmetric")
    if np.linalg.eigvalsh(q)[0] < -1e-12 * np.max(np.abs(q)):
        raise ValueError("Q must be positive semidefinite")
    return _quadratic_body(n, q, "ellipsoid")


def custom_body(n: int, h: Callable[[np.ndarray], np.ndarray]) -> SupportBody:
    return SupportBody(n, "custom", h)


# ---------------------------------------------------------------------------
# Hessians and gradients


def _complex_hessian_of(hr: np.ndarray) -> np.ndarray:
    """(d^2 h / dz_l dz_bar_k) from real Hessians (..., 2n, 2n), via d/dz = (d/dx - i d/dy)/2."""
    xx = hr[..., 0::2, 0::2]
    yy = hr[..., 1::2, 1::2]
    xy = hr[..., 0::2, 1::2]
    yx = hr[..., 1::2, 0::2]
    return 0.25 * ((xx + yy) + 1j * (xy - yx))


def _h_at(body: SupportBody, x: np.ndarray, *shifts: np.ndarray) -> np.ndarray:
    """h at the real points x + shifts[0] + shifts[1] + ..., added in that order."""
    return body.h(cl.real_to_complex(sum(shifts, x)))


def _fd_real_hessian(body: SupportBody, z: np.ndarray) -> np.ndarray:
    """Real 2n x 2n Hessians of h by central differences, shape (N, 2n, 2n)."""
    x = cl.complex_to_real(z)
    m, dim = x.shape
    steps = _FD_STEP * np.linalg.norm(x, axis=-1)
    shift = steps[:, None, None] * np.eye(dim)  # row a of point i: steps_i e_a
    out = np.empty((m, dim, dim))
    f0 = body.h(z)
    for a in range(dim):
        da = shift[:, a]
        out[:, a, a] = (_h_at(body, x, da) - 2 * f0 + _h_at(body, x, -da)) / steps**2
        for b in range(a + 1, dim):
            db = shift[:, b]
            mixed = (_h_at(body, x, da, db) - _h_at(body, x, da, -db)
                     - _h_at(body, x, -da, db) + _h_at(body, x, -da, -db)) / (4 * steps**2)
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
    return _complex_hessian_of(_fd_real_hessian(body, z))


def complex_gradient(body: SupportBody, z: np.ndarray) -> np.ndarray:
    """Gradients (dh/dz_l), shape (N, n); finite differences when not analytic."""
    n = body.ambient_n
    z = _as_points(z, n)
    if body.gradient is not None:
        return body.gradient(z)
    x = cl.complex_to_real(z)
    steps = _FD_STEP * np.linalg.norm(x, axis=-1)
    shift = steps[:, None, None] * np.eye(2 * n)
    partials = np.empty(x.shape)
    for a in range(2 * n):
        da = shift[:, a]
        partials[:, a] = (_h_at(body, x, da) - _h_at(body, x, -da)) / (2 * steps)
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


def _real_values(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NonFiniteIntegrand("non-finite integrand sample")
    return values.real if np.iscomplexobj(values) else values


def _density(bodies: list[SupportBody], boundary: bool = False):
    """(constant, integrand): P_n or Q_n is constant times the sphere average of the integrand.

    One body gives det Hess_C h, read from the body's closed-form
    ``det_hessian`` when it has one (the built-in bodies do) and otherwise
    the determinant of its complex Hessian; n bodies give the mixed
    discriminant of their Hessians.  With ``boundary`` the first body enters
    through M_{jk} = z_j * dh/dz_k as the Hermitian matrix conj(M) + transpose(M):

        Q_n = (4^{n-1} / kappa_n) * integral over the unit sphere of
              D_n(conj(M) + M^T, Hess_C h_{A_2}, ...).

    Q_n is 1-homogeneous in each body, and h = sqrt(x^T Q x) scales as sqrt(s)
    with Q: each built-in body enters at max|Q| = 1 and its sqrt(s) goes into
    the constant (sqrt(s)^n for one body), so no scale of Q under- or overflows.
    """
    n = bodies[0].ambient_n
    if any(b.ambient_n != n for b in bodies):
        raise ValueError("bodies must share the ambient space")
    if (boundary or len(bodies) > 1) and len(bodies) != n:
        raise ValueError(f"need exactly {n} bodies in C^{n}")
    scales = [1.0 if b.q is None else float(np.max(np.abs(b.q))) for b in bodies]
    with np.errstate(over="ignore"):
        scale = float(np.prod(np.sqrt(scales)) ** (n if len(bodies) == 1 else 1))
    if not math.isfinite(scale):
        raise ValueError(f"P_{n} or Q_{n} of these bodies overflows a float")

    @functools.cache
    def unit() -> list[SupportBody]:  # on the first integrand call: the 1-D integral needs none
        return [b if s == 1.0 else _quadratic_body(n, b.q / s, b.kind)
                for b, s in zip(bodies, scales)]

    if boundary:

        def integrand(z):
            grad = complex_gradient(unit()[0], z)
            m = z[:, :, None] * grad[:, None, :]
            first = np.conj(m) + np.swapaxes(m, 1, 2)
            mats = [first] + [complex_hessian(b, z) for b in unit()[1:]]
            return batch_mixed_discriminant(mats)

        return scale * 4 ** (n - 1) * 2 * n * kappa(2 * n) / kappa(n), integrand
    constant = scale * 4**n * 2 * kappa(2 * n) / kappa(n)
    if len(bodies) == 1 and bodies[0].det_hessian is not None:
        return constant, lambda z: unit()[0].det_hessian(_as_points(z, n))
    if len(bodies) == 1:  # the det of a NaN Hessian is NaN, which ``_real_values`` rejects
        return constant, np.errstate(invalid="ignore")(
            lambda z: np.linalg.det(complex_hessian(unit()[0], z)))
    return constant, lambda z: batch_mixed_discriminant([complex_hessian(b, z) for b in unit()])


def _sphere_mc(bodies: list[SupportBody], samples: int, stream: RandomStream,
               boundary: bool = False, ball: bool = False) -> Estimate:
    """``_density``'s constant times the Monte Carlo mean of its integrand on the sphere.

    With ``ball`` the points fill the unit ball instead, at half the constant:
    each chunk's directions are scaled by radii U^{1/dim} from its substream 0.
    """
    constant, integrand = _density(bodies, boundary)
    dim = 2 * bodies[0].ambient_n

    def values_of(sub: RandomStream, m: int) -> np.ndarray:
        theta = sphere_sample(dim, sub, m)
        if ball:
            theta = theta * (sub.substream(0).generator().random(m) ** (1.0 / dim))[:, None]
        return _real_values(integrand(cl.real_to_complex(theta)))

    if ball:
        constant /= 2
    mean, err, used = sampled_mean(values_of, samples, stream, _CHUNK)
    return Estimate(constant * mean, constant * err, method="monte_carlo", samples=used)


def _polynomial_rule(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N, k) and weights of a product rule on S^{k-1}, exact up to degree 2m - 1.

    S^0 is its two points; the circle takes the 2m-point trapezoid rule;
    S^{k-1} for k >= 3 takes m Gauss-Jacobi nodes in u = cos s with
    alpha = beta = (k - 3) / 2, each carrying a copy of the rule on S^{k-2}.
    """
    if k == 1:
        return np.array([[1.0], [-1.0]]), np.ones(2)
    if k == 2:
        s = np.pi * np.arange(2 * m) / m
        return np.column_stack([np.cos(s), np.sin(s)]), np.full(2 * m, np.pi / m)
    u, w = roots_jacobi(m, (k - 3) / 2, (k - 3) / 2)
    sub, sub_w = _polynomial_rule(k - 1, m)
    r = np.sqrt(1.0 - u**2)
    points = np.column_stack([np.repeat(u, len(sub_w)), (r[:, None, None] * sub).reshape(-1, k - 1)])
    return points, np.outer(w, sub_w).ravel()


def _polar_count(dim: int, degree: int) -> int:
    # Gauss-Legendre in t integrates trigonometric polynomials of degree
    # degree + dim - 2 (a monomial times sin^{dim-2} t) to rounding with
    # pi/4 nodes per unit of degree plus a margin; checked by the tests.
    return math.ceil(math.pi * (degree + dim - 2) / 4) + 12


class SphereRule:
    """Product cubature on the unit sphere S^{dim-1} of R^dim (Stroud 1971, 2.6 and 3).

    The polar angle t from e_0 takes Gauss-Legendre nodes on [0, pi], with
    sin^{dim-2} t folded into the weights; the sub-sphere S^{dim-2} takes
    ``_polynomial_rule``.  A unit vector ``axis`` moves the nodes by the
    Householder reflection that takes e_0 to it, which leaves the sphere
    measure alone.  Monomials up to ``degree`` integrate exactly up to
    rounding.  A support function with a kink along the axis reads h = sin t
    on the rule, smooth in t, so the integrand times the weight stays smooth.
    """

    def __init__(self, dim: int, degree: int, axis: np.ndarray | None = None) -> None:
        if dim < 2 or degree < 1:
            raise ValueError("need dim >= 2 and degree >= 1")
        e0 = np.eye(dim)[0]
        axis = e0 if axis is None else np.asarray(axis, dtype=float)
        if axis.shape != (dim,) or abs(np.linalg.norm(axis) - 1) > 1e-12:
            raise ValueError("axis must be a unit vector of R^dim")
        v = e0 - axis
        self._reflection = np.eye(dim) - 2 * np.outer(v, v) / (v @ v) if v.any() else None
        x, w = roots_legendre(_polar_count(dim, degree))
        t = np.pi * (x + 1) / 2
        self.dim = dim
        self._cos, self._sin = np.cos(t), np.sin(t)
        self._polar_w = np.pi / 2 * w * self._sin ** (dim - 2)
        self._sub, self._sub_w = _polynomial_rule(dim - 1, (degree + 1) // 2)
        self.size = len(t) * len(self._sub_w)

    def nodes(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Points (stop - start, dim) and weights of the nodes with flat indices [start, stop)."""
        i, j = np.divmod(np.arange(start, stop), len(self._sub_w))
        points = np.empty((stop - start, self.dim))
        points[:, 0] = self._cos[i]
        points[:, 1:] = self._sin[i, None] * self._sub[j]
        if self._reflection is not None:
            points = points @ self._reflection
        return points, self._polar_w[i] * self._sub_w[j]


def _ladder_sum(rungs, total_of, rel: float) -> tuple[float, float, int] | None:
    """Sum of the finest rule a quadrature ladder needs, and its bound.

    ``total_of(rung)`` evaluates one rule, coarsest first, to (sum of its
    terms, sum of their absolute values, N terms).  The ladder stops when two
    successive sums agree to ``rel`` of the finer one's sum |terms|, or when
    ``rungs`` runs out; None when it has fewer than two rules, before any is
    evaluated.  Returns (sum, bound, nodes evaluated): the last rule's sum,
    and the last difference plus the rounding bound N * eps * sum |terms| of
    that rule's N terms.
    """
    rungs = iter(rungs)
    first = list(itertools.islice(rungs, 2))
    if len(first) < 2:
        return None
    values, nodes = [], 0
    for rung in itertools.chain(first, rungs):
        total, total_abs, size = total_of(rung)
        nodes += size
        values.append(total)
        if len(values) > 1 and abs(total - values[-2]) <= rel * total_abs:
            break
    return values[-1], abs(values[-1] - values[-2]) + size * math.ulp(1.0) * total_abs, nodes


def _cubature(integrand, dim: int, samples: int,
              axis: np.ndarray | None) -> tuple[float, float, int] | None:
    """Sphere average of the integrand over a ladder of ``SphereRule``s.

    The rules run from degree 7 upward, with no more than ``samples`` nodes
    each, through ``_ladder_sum`` at 1e-12; None when fewer than two fit.
    Returns (mean, bound, nodes evaluated).
    """
    def rules():
        m = 4
        while True:
            yield SphereRule(dim, 2 * m - 1, axis)
            m += max(2, m // 3)

    def total_of(rule: SphereRule) -> tuple[float, float, int]:
        total = total_abs = 0.0
        for start in range(0, rule.size, _CHUNK):
            points, weights = rule.nodes(start, min(start + _CHUNK, rule.size))
            wf = weights * _real_values(integrand(cl.real_to_complex(points)))
            total += float(np.sum(wf))
            total_abs += float(np.sum(np.abs(wf)))
        return total, total_abs, rule.size

    res = _ladder_sum(itertools.takewhile(lambda rule: rule.size <= samples, rules()),
                      total_of, 1e-12)
    if res is None:
        return None
    area = 2 * math.pi ** (dim / 2) / math.gamma(dim / 2)
    return res[0] / area, res[1] / area, res[2]


_INTEGRAL_RULES = tuple(64 << j for j in range(6))  # 64, 128, ..., 2048 nodes


@functools.cache
def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of m points on [-1, 1].

    scipy's nodes take one Newton step on the three-term recurrence, whose
    P_m' gives the weights 2 / ((1 - x^2) P_m'(x)^2): scipy's own weights
    carry a common bias of about 2e-14 relative at m = 128.
    """
    x = roots_legendre(m)[0]
    p_prev, p = np.ones_like(x), x
    for k in range(2, m + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = m * (x * p - p_prev) / (x**2 - 1)
    x = x - p / dp
    weights = 2 / ((1 - x**2) * dp**2)
    x.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return x, weights


def _schwinger_mean(q: np.ndarray) -> tuple[float, float, int]:
    """Sphere mean of det Hess_C h for h = sqrt(x^T Q x), Q scaled to max|Q| = 1 as in
    ``_density``, by one integral in t.

    With A, u and adj(A) as in ``_quadratic_body`` and M the real form of
    w^T adj(A) conj(w) (w the complex form of x), the density is
    det A / h^n - x^T B x / h^{n+2} with B = Q M Q / 4, homogeneous of degree
    -n.  So its sphere mean is E[f(x)] / E[|x|^{-n}] for x ~ N(0, I_2n), with
    E[|x|^{-n}] = 2^{-n/2} Gamma(n/2) / Gamma(n), and the Gamma-function
    identity turns E[f] into det A * I_0 - I_1, where, in the eigenbasis of Q
    (eigenvalues lambda_i, b_i the diagonal of B there),

        I_0 = Gamma(n/2)^{-1} int_0^inf t^{n/2-1} prod_i (1 + 2 t lambda_i)^{-1/2} dt,
        I_1 = Gamma(n/2+1)^{-1} int_0^inf t^{n/2} prod_i (1 + 2 t lambda_i)^{-1/2}
              sum_i b_i / (1 + 2 t lambda_i) dt.

    Both converge unless n = 1 and ker Q is a line.  The substitution
    t = c (s / (1 - s))^2, with c = 1 / sqrt(lambda_min lambda_max) over the
    nonzero eigenvalues so that both ends see the spread alike, makes the
    I_0 integrand c^{n/2} (s (1-s))^{n-1} / prod_i sqrt(D_i) ds with
    D_i = (1-s)^2 + 2 c lambda_i s^2, and the I_1 integrand that times
    c s^2 sum_i b_i / D_i: smooth on [0, 1] and free of large powers of t.
    Gauss-Legendre rules in s (1 - s taken as (1 - x) / 2, not 1 - s) double
    from 64 nodes up to 2048, through ``_ladder_sum`` at 1e-13.
    Returns (mean, bound, nodes evaluated).
    """
    n = q.shape[0] // 2
    q = q / np.max(np.abs(q))
    a = _complex_hessian_of(q)
    w = cl.real_to_complex(np.eye(2 * n))
    m = (w @ _adjugate(a) @ w.conj().T).real  # x^T M x = w^T adj(A) conj(w)
    lam, v = _eigh_with_kernel(q)
    b = lam**2 * np.einsum("ij,ik,kj->j", v, m, v) / 4  # diag(V^T Q M Q V) / 4
    c = 1 / math.sqrt(lam[lam > 0][0] * lam[-1])
    scale0 = np.linalg.det(a).real * c ** (n / 2) / math.gamma(n / 2)
    scale1 = c ** (n / 2 + 1) / math.gamma(n / 2 + 1)

    def total_of(size: int) -> tuple[float, float, int]:
        x, weights = _legendre_rule(size)
        s, r = (1 + x) / 2, (1 - x) / 2
        d = r[:, None] ** 2 + 2 * c * lam * (s**2)[:, None]
        base = weights * (s * r) ** (n - 1) / np.prod(np.sqrt(d), axis=1)
        terms0, terms1 = scale0 * base, scale1 * s**2 * base * (b / d).sum(axis=1)
        return (float(terms0.sum() - terms1.sum()),
                float(np.abs(terms0).sum() + np.abs(terms1).sum()), size)

    mean, err, nodes = _ladder_sum(_INTEGRAL_RULES, total_of, 1e-13)
    gauss = 2 ** (-n / 2) * math.gamma(n / 2) / math.gamma(n)
    return mean / gauss, err / gauss, nodes


def smooth_quadrature(
    bodies: list[SupportBody],
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
    boundary: bool = False,
) -> Estimate:
    """P_n of one body, or Q_n of n bodies (by the boundary formula with ``boundary``).

    One body with a ``q`` takes ``_schwinger_mean`` in any n.  Otherwise
    cubature runs when n <= 3, every body has an analytic Hessian (with
    ``boundary``, the first body an analytic gradient too), the bodies'
    singular axes lie on one line and two rules of the ladder fit in ``samples``
    nodes.  Otherwise ``_sphere_mc`` runs at ``samples`` draws from
    ``stream``: the draws of ``mc_pseudovolume``, ``mc_mixed_pseudovolume``
    and ``boundary_mixed_pseudovolume``.
    """
    n = bodies[0].ambient_n
    constant, integrand = _density(bodies, boundary)
    axes = [b.singular_axis for b in bodies if b.singular_axis is not None]
    if n == 1 and axes:
        raise ValueError(
            "in C^1 a body with a singular line carries all of its density on that line, "
            "which no sphere quadrature sees (the segment lower_ball(1) has P_1 = 2)")
    if len(bodies) == 1 and bodies[0].q is not None and not boundary:
        mean, err, nodes = _schwinger_mean(bodies[0].q)
        return Estimate(constant * mean, bound=constant * err, method="integral", samples=nodes)
    analytic = all(b.hessian is not None for b in bodies) and (
        not boundary or bodies[0].gradient is not None)
    if n <= 3 and analytic and all(abs(a @ axes[0]) >= 1 - 1e-12 for a in axes):
        res = _cubature(integrand, 2 * n, samples, axes[0] if axes else None)
        if res is not None:
            mean, err, nodes = res
            return Estimate(constant * mean, bound=constant * err, method="cubature", samples=nodes)
    return _sphere_mc(bodies, samples, stream, boundary)


def mc_pseudovolume(
    body: SupportBody,
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
    reduction: str = "sphere",
) -> Estimate:
    """P_n(A) = (4^n / kappa_n) * integral of det Hess_C h_A over B_2n, by Monte Carlo.

    ``reduction="sphere"`` uses the (-n)-homogeneity of the determinant to
    integrate over the unit sphere; ``reduction="ball"`` samples the solid
    ball directly (slower, kept as a cross-check of the reduction).  The ball
    average carries half the sphere constant: (4^n / kappa_n) * vol(B_2n).
    """
    if reduction not in ("sphere", "ball"):
        raise ValueError(f"unknown reduction {reduction!r}")
    return _sphere_mc([body], samples, stream, ball=reduction == "ball")


def mc_mixed_pseudovolume(
    bodies: list[SupportBody],
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
) -> Estimate:
    """Q_n via the mixed discriminant of the bodies' complex Hessians, by Monte Carlo."""
    n = bodies[0].ambient_n
    if len(bodies) != n:
        raise ValueError(f"need exactly {n} bodies in C^{n}")
    return _sphere_mc(bodies, samples, stream)


def boundary_mixed_pseudovolume(
    bodies: list[SupportBody],
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
) -> Estimate:
    """Q_n via the boundary-sphere formula (see ``_density``), by Monte Carlo."""
    return _sphere_mc(bodies, samples, stream, boundary=True)


# ---------------------------------------------------------------------------
# File format


def load_body(source) -> SupportBody:
    """Load a smooth body descriptor: {"kind": "ball"|"lower_ball"|"ellipsoid",
    "n": int, "Q": [[...]] (ellipsoid only)}, as a path, inline JSON or a dict."""
    data = read_json(source)
    kind = data["kind"]
    n = read_field(data, "n", int)
    if kind == "ball":
        return ball(n)
    if kind == "lower_ball":
        return lower_ball(n)
    if kind == "ellipsoid":
        return ellipsoid(n, read_field(data, "Q", lambda q: np.asarray(q, dtype=float)))
    raise ValueError(f"unknown body kind {kind!r}")
