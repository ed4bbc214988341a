"""Intrinsic and mixed phi-volumes, Kazarnovskii pseudovolume P_n and mixed
pseudovolume Q_n for polytopes.

For a polytope Gamma in C^n,

    P_n(Gamma) = sum over equidimensional n-faces of rho(Delta) * vol_n(Delta)
                 * psi_Gamma(Delta),

the rho-weighted n-th intrinsic volume.  Q_n is its polarization; the primary
computation runs combinatorially over the faces of the Minkowski sum with
summand mixed volumes, with the polarization of P_n retained as an independent
cross-check path.

Every sum of phi(E_Delta) * vol_k(Delta) * psi_Gamma(Delta) over the k-faces
of one polytope (P_n, v_k^phi, the eps-expansion coefficients and each term of
the polarization) goes through the single face sum ``_face_sum``, which
returns the value, its Monte Carlo error and the per-face rows in one pass.
The direct path to Q_n is that sum over the Minkowski sum with the mixed
volume of the summand faces, read from their vertices, in place of vol_k.
Weights evaluate a :class:`Face`; ``RHO`` reads the ``Face.rho`` that ``hull``
computed under the caller's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cone_geometry import DEFAULT_ANGLE_SAMPLES, AnglePass
from .numerics import DEFAULT_TOLERANCE, RandomStream, Tolerance, kappa
# `hull` is unused here but stays bound for the perfbench tracer's rebind check.
from .polytope import Face, Polytope, hull, minkowski_sum, split, summand_faces  # noqa: F401
from .volumes import mixed_volume

__all__ = [
    "WeightFunction",
    "RHO",
    "UNIT",
    "Estimate",
    "PseudovolumeReport",
    "EpsExpansion",
    "intrinsic_phi_volume",
    "mixed_phi_volume",
    "pseudovolume",
    "mixed_pseudovolume",
    "mixed_with_ball",
    "eps_neighborhood_pseudovolume",
    "valuation_check",
]


@dataclass(frozen=True)
class WeightFunction:
    """A weight phi on real subspaces of C^n, evaluated on a face's affine hull.

    ``evaluate`` receives the :class:`Face`; ``face.hull_basis`` is an
    orthonormal basis of the subspace E_Delta.
    """

    evaluate: Callable[[Face], float]
    name: str = "phi"


RHO = WeightFunction(lambda face: face.rho, "rho")
UNIT = WeightFunction(lambda face: 1.0, "one")


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float


@dataclass(frozen=True)
class PseudovolumeReport:
    value: float
    per_face_terms: tuple[tuple[tuple[int, ...], float, float, float, float], ...]
    mc_std_error: float


@dataclass(frozen=True)
class EpsExpansion:
    """Coefficients of P_n((Gamma)_eps) as a polynomial in eps.

    ``coefficients[k]`` multiplies eps**(n-k) and equals
    2^{n-k} * kappa_{2n-k} / kappa_n * v_k^rho(Gamma).
    """

    coefficients: tuple[float, ...]
    value: float
    std_error: float


def _angle_pass(P: Polytope, angles, samples, stream, tol) -> AnglePass:
    if angles is not None:
        return angles
    return AnglePass(P, samples, stream, tol)


def _face_sum(
    P: Polytope,
    k: int,
    phi: WeightFunction,
    angles: AnglePass,
    measure: Callable[[Face], float] = lambda f: f.volume_k,
) -> tuple[float, float, tuple]:
    """Sum of phi * measure * psi over the k-faces where phi and the measure are nonzero.

    The measure defaults to vol_k.  Returns (value, error, rows): the error sums
    |phi * measure| times each angle's standard error, and each row is
    (vertex ids, phi, measure, angle, term).
    """
    total = 0.0
    err = 0.0
    rows = []
    for f in P.faces.get(k, []):
        w = phi.evaluate(f)
        if w == 0.0:
            continue
        m = measure(f)
        if m == 0.0:
            continue
        a = angles.angle(f)
        term = w * m * a.value
        rows.append((f.vertex_ids, w, m, a.value, term))
        total += term
        err += abs(w * m) * a.std_error
    return float(total), float(err), tuple(rows)


def intrinsic_phi_volume(P: Polytope, k: int, phi: WeightFunction, angles: AnglePass) -> float:
    """v_k^phi(Gamma) = sum over k-faces of phi(E_Delta) * vol_k * psi_Gamma."""
    return _face_sum(P, k, phi, angles)[0]


def pseudovolume(
    P: Polytope,
    angles: AnglePass | None = None,
    samples: int = DEFAULT_ANGLE_SAMPLES,
    stream: RandomStream = RandomStream(),
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> PseudovolumeReport:
    """P_n(Gamma) = v_n^rho(Gamma) over the equidimensional n-faces, with per-face terms."""
    ap = _angle_pass(P, angles, samples, stream, tol)
    value, err, rows = _face_sum(P, P.ambient_n, RHO, ap)
    return PseudovolumeReport(value, rows, err)


def mixed_phi_volume(
    parts: list[Polytope],
    phi: WeightFunction,
    samples: int = DEFAULT_ANGLE_SAMPLES,
    stream: RandomStream = RandomStream(),
    tol: Tolerance = DEFAULT_TOLERANCE,
    method: str = "direct",
) -> Estimate:
    """Mixed phi-volume V_k^phi(Gamma_1, ..., Gamma_k).

    Direct path: sum over k-faces Delta of the Minkowski sum of
    phi(E_Delta) * V_k(Delta_1, ..., Delta_k) * psi(Delta) with the unique
    summand faces Delta_l.  Polarization path:
    (1/k!) sum_{I nonempty} (-1)^{k-|I|} v_k^phi(sum_I Gamma_l).
    """
    k = len(parts)
    if method == "direct":
        S = minkowski_sum(parts, tol)

        def mixed(f: Face) -> float:
            faces = summand_faces(S, parts, f, tol)
            return mixed_volume([p.vertices[list(s.vertex_ids)] for p, s in zip(parts, faces)],
                                f.hull_basis, tol)

        value, err, _ = _face_sum(S, k, phi, AnglePass(S, samples, stream, tol), mixed)
        return Estimate(value, err)
    if method == "polarization":
        total = 0.0
        err = 0.0
        for mask in range(1, 1 << k):
            members = [parts[i] for i in range(k) if mask >> i & 1]
            s = minkowski_sum(members, tol)
            ap = AnglePass(s, samples, stream.substream(mask), tol)
            value, e, _ = _face_sum(s, k, phi, ap)
            total += (-1) ** (k - len(members)) * value
            err += e
        fact = math.factorial(k)
        return Estimate(float(total / fact), float(err / fact))
    raise ValueError(f"unknown method {method!r}")


def mixed_pseudovolume(
    parts: list[Polytope],
    samples: int = DEFAULT_ANGLE_SAMPLES,
    stream: RandomStream = RandomStream(),
    tol: Tolerance = DEFAULT_TOLERANCE,
    method: str = "direct",
) -> Estimate:
    """Q_n(Gamma_1, ..., Gamma_n), the polarization of P_n.

    ``method="direct"`` runs the combinatorial face formula on the Minkowski
    sum; ``method="polarization"`` polarizes P_n = v_n^rho itself over the
    subset sums (independent oracle, costlier).  Both are
    :func:`mixed_phi_volume` with the weight ``RHO``.
    """
    n = parts[0].ambient_n
    if len(parts) != n:
        raise ValueError(f"need exactly {n} bodies in C^{n}")
    return mixed_phi_volume(parts, RHO, samples, stream, tol, method)


def mixed_with_ball(
    parts: list[Polytope],
    samples: int = DEFAULT_ANGLE_SAMPLES,
    stream: RandomStream = RandomStream(),
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Estimate:
    """Q_n(A_1, ..., A_k, B_2n[n-k]) = 2^{n-k} kappa_{2n-k} V_k^rho / (kappa_n C(n,k))."""
    k = len(parts)
    n = parts[0].ambient_n
    if not 1 <= k <= n:
        raise ValueError(f"need between 1 and {n} polytope arguments")
    if k == n:
        return mixed_pseudovolume(parts, samples, stream, tol)
    vk = mixed_phi_volume(parts, RHO, samples, stream, tol)
    factor = 2 ** (n - k) * kappa(2 * n - k) / (kappa(n) * math.comb(n, k))
    return Estimate(factor * vk.value, factor * vk.std_error)


def eps_neighborhood_pseudovolume(
    P: Polytope,
    eps: float,
    angles: AnglePass | None = None,
    samples: int = DEFAULT_ANGLE_SAMPLES,
    stream: RandomStream = RandomStream(),
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> EpsExpansion:
    """P_n of the eps-neighborhood (Gamma)_eps = Gamma + eps*B_2n.

    P_n((Gamma)_eps) = sum_{k=0}^{n} 2^{n-k} kappa_{2n-k}/kappa_n
                       * v_k^rho(Gamma) * eps^{n-k}.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    n = P.ambient_n
    ap = _angle_pass(P, angles, samples, stream, tol)
    coeffs = []
    errs = []
    for k in range(n + 1):
        factor = 2 ** (n - k) * kappa(2 * n - k) / kappa(n)
        vk, ek, _ = _face_sum(P, k, RHO, ap)
        coeffs.append(factor * vk)
        errs.append(factor * ek)
    value = sum(c * eps ** (n - k) for k, c in enumerate(coeffs))
    err = sum(e * eps ** (n - k) for k, e in enumerate(errs))
    return EpsExpansion(tuple(coeffs), float(value), float(err))


def valuation_check(
    P: Polytope,
    normal: np.ndarray,
    offset: float,
    samples: int = DEFAULT_ANGLE_SAMPLES,
    stream: RandomStream = RandomStream(),
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Estimate:
    """|P_n(P+) + P_n(P-) - P_n(P) - P_n(P0)| for the split along <u,.> = c."""
    plus, minus, on_plane = split(P, normal, offset, tol)
    total = 0.0
    err = 0.0
    for piece, sign, idx in ((plus, 1, 1), (minus, 1, 2), (P, -1, 3), (on_plane, -1, 4)):
        if piece is None:
            continue
        rep = pseudovolume(piece, None, samples, stream.substream(idx), tol)
        total += sign * rep.value
        err += rep.mc_std_error
    return Estimate(abs(total), err)
