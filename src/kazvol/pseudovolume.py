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
returns an :class:`numerics.Estimate` with the per-face rows as its terms.
The direct path to Q_n is that sum over the Minkowski sum with the mixed
volume of the summand faces in place of vol_k.  The summand faces are read
from the sum's vertex labels (each vertex of a sum is the sum of exactly one
vertex of each summand) in one array pass, with no summand ``Face`` built; the
mixed volume is 0 where one of them is a vertex and |det(e_1, ..., e_k)| / k!
where all are edges, so ``mixed_volume`` runs only on the other faces.
The outer angles come from independent substreams, so every sum of them, and
every sum of such sums, is a :func:`numerics.weighted_sum`.
A weight phi is any callable from a :class:`Face` to a float (``face.hull_basis``
is an orthonormal basis of E_Delta); ``RHO`` reads ``Face.rho``, which the batch
of the face's dimension computed under the polytope's tolerance ``P.tol``, under
which its angles, sums and splits are decided too.
"""

from __future__ import annotations

import math
from dataclasses import replace
from operator import attrgetter
from typing import Callable

import numpy as np

from .cone_geometry import AnglePass
from .numerics import DEFAULT_SAMPLES, Estimate, RandomStream, kappa, weighted_sum
# `hull` is unused here but stays bound for the perfbench tracer's rebind check.
from .polytope import (Face, Polytope, _simplex_data, _summand_label_sets,  # noqa: F401
                       hull, minkowski_sum, split, summand_faces)
from .volumes import mixed_volume

__all__ = [
    "RHO",
    "UNIT",
    "intrinsic_phi_volume",
    "mixed_phi_volume",
    "pseudovolume",
    "mixed_pseudovolume",
    "mixed_with_ball",
    "eps_neighborhood_pseudovolume",
    "valuation_check",
]


RHO: Callable[[Face], float] = attrgetter("rho")
UNIT: Callable[[Face], float] = lambda face: 1.0  # noqa: E731


def _face_sum(
    P: Polytope,
    k: int,
    phi: Callable[[Face], float],
    angles: AnglePass,
    measure: Callable[[Face], float] = lambda f: f.volume_k,
) -> Estimate:
    """Sum of phi * measure * psi over the k-faces where phi and the measure are nonzero.

    The measure defaults to vol_k.  The weighted sum of the angles with weights
    phi * measure, and the per-face rows (vertex ids, phi, measure, angle, term)
    as its terms.  For k = 0 the vertex normal cones tile E_Gamma and every
    vertex spans {0}, so the sum is phi({0}) * measure of a vertex, exact and
    without angles or rows.
    """
    if k == 0:
        f = P.faces[0][0]
        return Estimate(float(phi(f) * measure(f)))
    pairs = []
    rows = []
    for f in P.faces.get(k, []):
        if (m := measure(f)) == 0.0 or (w := phi(f)) == 0.0:
            continue
        a = angles.angle(f)
        pairs.append((w * m, a))
        rows.append((f.vertex_ids, w, m, a.value, w * m * a.value))
    return weighted_sum(pairs, rows)


def intrinsic_phi_volume(P: Polytope, k: int, phi: Callable[[Face], float],
                         angles: AnglePass) -> Estimate:
    """v_k^phi(Gamma) = sum over k-faces of phi(E_Delta) * vol_k * psi_Gamma, with per-face
    terms."""
    return _face_sum(P, k, phi, angles)


def pseudovolume(
    P: Polytope,
    angles: AnglePass | None = None,
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
) -> Estimate:
    """P_n(Gamma) = v_n^rho(Gamma) over the equidimensional n-faces, with per-face terms."""
    return _face_sum(P, P.ambient_n, RHO, angles or AnglePass(P, samples, stream))


def _summand_mixed_volume(S: Polytope, parts: list[Polytope], k: int) -> Callable[[Face], float]:
    """V_k(Delta_1, ..., Delta_k) of the summand faces of each k-face Delta of S.

    The summand faces are the label sets of ``_summand_label_sets``, classified in one
    array pass (``summand_faces``, the support-function route, only for a face with a
    set that is not a face).  If one has one vertex, V_k = 0.  If all have two, Delta
    is a parallelotope: V_k = |det(e_1, ..., e_k)| / k!, from one batched Gram-Schmidt
    pass over the edges (``_simplex_data``).  Every other face gets ``mixed_volume`` in
    Delta's ``hull_basis`` on first read.
    """
    faces = S.faces.get(k, [])
    members, found = _summand_label_sets(S, parts, k)
    for i in np.flatnonzero(~found).tolist():
        for member, s in zip(members, summand_faces(S, parts, faces[i])):
            member[i] = False
            member[i, list(s.vertex_ids)] = True
    counts = np.stack([member.sum(axis=1) for member in members], axis=1)
    known = dict.fromkeys(np.flatnonzero((counts == 1).any(axis=1)).tolist(), 0.0)
    edges = np.flatnonzero((counts == 2).all(axis=1))
    if len(edges):
        ends = [p.vertices[np.nonzero(member[edges])[1].reshape(-1, 2)]
                for p, member in zip(parts, members)]
        vol, _ = _simplex_data(np.concatenate(np.diff(ends, axis=2), axis=1))
        known.update(zip(edges.tolist(), vol.tolist()))
    index = {f: i for i, f in enumerate(faces)}

    def mixed(f: Face) -> float:
        i = index[f]
        return known[i] if i in known else mixed_volume(
            [p.vertices[member[i]] for p, member in zip(parts, members)], f.hull_basis, S.tol)

    return mixed


def mixed_phi_volume(
    parts: list[Polytope],
    phi: Callable[[Face], float],
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
    method: str = "direct",
) -> Estimate:
    """Mixed phi-volume V_k^phi(Gamma_1, ..., Gamma_k).

    Direct path: sum over k-faces Delta of the Minkowski sum of
    phi(E_Delta) * V_k(Delta_1, ..., Delta_k) * psi(Delta) with the unique
    summand faces Delta_l (``_summand_mixed_volume``).  Polarization path:
    (1/k!) sum_{I nonempty} (-1)^{k-|I|} v_k^phi(sum_I Gamma_l).
    """
    k = len(parts)
    if method == "direct":
        S = minkowski_sum(parts)
        return _face_sum(S, k, phi, AnglePass(S, samples, stream),
                         _summand_mixed_volume(S, parts, k))
    if method == "polarization":
        pairs = []
        for mask in range(1, 1 << k):
            members = [parts[i] for i in range(k) if mask >> i & 1]
            s = minkowski_sum(members)
            ap = AnglePass(s, samples, stream.substream(mask))
            pairs.append(((-1) ** (k - len(members)) / math.factorial(k), _face_sum(s, k, phi, ap)))
        return weighted_sum(pairs)
    raise ValueError(f"unknown method {method!r}")


def mixed_pseudovolume(
    parts: list[Polytope],
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
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
    return mixed_phi_volume(parts, RHO, samples, stream, method)


def mixed_with_ball(
    parts: list[Polytope],
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
) -> Estimate:
    """Q_n(A_1, ..., A_k, B_2n[n-k]) = 2^{n-k} kappa_{2n-k} V_k^rho / (kappa_n C(n,k))."""
    k = len(parts)
    n = parts[0].ambient_n
    if not 1 <= k <= n:
        raise ValueError(f"need between 1 and {n} polytope arguments")
    if k == n:
        return mixed_pseudovolume(parts, samples, stream)
    vk = mixed_phi_volume(parts, RHO, samples, stream)
    return weighted_sum([(2 ** (n - k) * kappa(2 * n - k) / (kappa(n) * math.comb(n, k)), vk)])


def eps_neighborhood_pseudovolume(
    P: Polytope,
    eps: float,
    angles: AnglePass | None = None,
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
) -> Estimate:
    """P_n of the eps-neighborhood (Gamma)_eps = Gamma + eps*B_2n.

    P_n((Gamma)_eps) = sum_{k=0}^{n} 2^{n-k} kappa_{2n-k}/kappa_n
                       * v_k^rho(Gamma) * eps^{n-k}.

    The terms are the coefficients, one Estimate per k: ``terms[k]``
    multiplies eps**(n-k).
    """
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps}")
    n = P.ambient_n
    ap = angles or AnglePass(P, samples, stream)
    coeffs = [weighted_sum([(2 ** (n - k) * kappa(2 * n - k) / kappa(n), _face_sum(P, k, RHO, ap))])
              for k in range(n + 1)]
    return weighted_sum([(eps ** (n - k), c) for k, c in enumerate(coeffs)], coeffs)


def valuation_check(
    P: Polytope,
    normal: np.ndarray,
    offset: float,
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
) -> Estimate:
    """|P_n(P+) + P_n(P-) - P_n(P) - P_n(P0)| for the split along <u,.> = c."""
    plus, minus, on_plane = split(P, normal, offset)
    residual = weighted_sum(
        (sign, pseudovolume(piece, None, samples, stream.substream(idx)))
        for piece, sign, idx in ((plus, 1, 1), (minus, 1, 2), (P, -1, 3), (on_plane, -1, 4))
        if piece is not None)
    return replace(residual, value=abs(residual.value))
