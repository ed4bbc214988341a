"""Outer angles of polytope faces.

The outer angle of a k-face of a d-polytope is the solid-angle fraction of
its dual cone inside the (d-k)-dimensional space E_Delta^perp ∩ E_Gamma.
Improper faces and facets have exact angles (1 and 1/2).  Cones of dimension
2 and 3 are spanned by the outer normals of the facets through the face (one
product with the facet incidence finds them for a batch): two rays make the
angle 2 atan2(|a - b|, |a + b|) (Kahan), m rays in a Gram-Schmidt 3-frame a
fan of spherical triangles (Van Oosterom & Strackee, IEEE TBME 1983).  Cones
of dimension 4 and up, a vertex's too, are estimated one face at a time by
Monte Carlo classification of uniform directions in the normal space with
the package's one estimator :func:`numerics.sampled_mean`.  Every angle is a
:class:`numerics.Estimate`: a closed form carries its rounding in ``bound``
and method "exact", a sampled angle its standard error, the number of
unambiguous draws it kept and method "monte_carlo".  :class:`AnglePass` keeps
the angles of a polytope by lattice position (k, i) in ``P.faces.ids[k]``.
"""

from __future__ import annotations

import numpy as np

from . import complex_linalg as cl
from .numerics import DEFAULT_SAMPLES, Estimate, RandomStream, sampled_mean, sphere_sample
from .polytope import Face, FaceNotFound, Polytope

__all__ = [
    "outer_angle",
    "AnglePass",
]

_CHUNK = 250_000
_EPS = float(np.finfo(float).eps)


def _normal_space(P: Polytope, face: Face) -> cl.SubspaceBasis:
    """Orthonormal basis of E_Delta^perp ∩ E_Gamma (the improper face's frame)."""
    if face.k == 0:
        return P.improper_face.hull_basis
    span, fb = P.improper_face.frame, face.frame
    residual = span - (span @ fb.T) @ fb
    return cl.SubspaceBasis.from_span(P.ambient_n, residual, P.tol)


def _classify(P: Polytope, face: Face, basis: cl.SubspaceBasis, samples: int,
              stream: RandomStream) -> Estimate:
    """Fraction of directions in the cone's span whose support face equals the face.

    Directions whose gap between the face and the best other vertex is within
    the tolerance are ambiguous and dropped.
    """
    member = np.array(face.vertex_ids)
    other = np.setdiff1d(np.arange(P.n_vertices), face.vertex_ids)
    scale_ = max(1.0, float(np.abs(P.vertices).max()))
    delta = P.tol.eps * scale_ * 10

    def hits(sub: RandomStream, m: int) -> np.ndarray:
        dirs = sphere_sample(basis.d, sub, m) @ basis.vectors
        vals = dirs @ P.vertices.T
        gap = vals[:, member[0]] - vals[:, other].max(axis=1)
        return gap[np.abs(gap) > delta] > 0

    value, err, used = sampled_mean(hits, samples, stream, _CHUNK)
    return Estimate(value, err, method="monte_carlo", samples=used)


def _exact_angles(P: Polytope, k: int, ids: list[tuple[int, ...]]) -> list[Estimate | None]:
    """Closed-form angles of the k-faces with these vertex-id tuples: 1 for the improper
    face, 1/2 for a facet, and those of normal cones of dimension 2 or 3.

    ``bound`` is a rounding bound, so that gates on exact values tolerate the
    last ulp.  Any other face, or one whose rays do not span its cone, gets None.
    """
    c = P.dim_real - k
    out: list[Estimate | None] = [Estimate(0.5 if c else 1.0) if c < 2 else None] * len(ids)
    if c not in (2, 3):
        return out
    face_idx, facet_idx = P._facet_pairs(ids)
    count = np.bincount(face_idx, minlength=len(ids))
    for m in [2] if c == 2 else np.unique(count[count >= 3]).tolist():
        group = np.flatnonzero(count == m)
        rays = P.facet_normals[facet_idx[np.searchsorted(face_idx, group)[:, None] + np.arange(m)]]
        if c == 2:
            a, b = rays[:, 0], rays[:, 1]
            value = np.arctan2(np.linalg.norm(a - b, axis=1), np.linalg.norm(a + b, axis=1)) / np.pi
        else:
            r, q = cl.gram_schmidt(rays, P.tol.eps)
            spans = (r > P.tol.eps).sum(axis=1) == 3
            frame = np.argsort(r <= P.tol.eps, axis=1, kind="stable")[:, None, :3]
            rays = np.take_along_axis(rays @ np.swapaxes(q, 1, 2), frame, axis=2)
            rays /= np.linalg.norm(rays, axis=2)[..., None]
            # Cyclic order around the interior direction, then a fan from the first ray.
            w = rays.sum(axis=1)
            e1 = np.cross(w, rays[:, 0])[:, None]
            turn = np.arctan2(np.sum(rays * np.cross(w[:, None], e1), axis=2),
                              np.sum(rays * e1, axis=2))
            rays = np.take_along_axis(rays, np.argsort(turn, axis=1)[..., None], axis=1)
            a, b, b2 = rays[:, :1], rays[:, 1:-1], rays[:, 2:]
            omega = 2 * np.arctan2(np.abs(np.sum(np.cross(b, b2) * a, axis=2)),
                                   1 + np.sum(b * a + b * b2 + b2 * a, axis=2))
            group, value = group[spans], omega.sum(axis=1)[spans] / (4 * np.pi)
        for i, v in zip(group.tolist(), value.tolist()):
            out[i] = Estimate(v, bound=16 * _EPS * (m if c == 3 else 1))
    return out


def outer_angle(
    P: Polytope,
    face_id,
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
) -> Estimate:
    face = P.face_by_ids(face_id)
    return (_exact_angles(P, face.k, [face.vertex_ids])[0]
            or _classify(P, face, _normal_space(P, face), samples, stream))


class AnglePass:
    """Shared, cached angle computation for all faces of one polytope, read by lattice
    position: ``at(k, i)`` is the angle of ``P.faces.ids[k][i]``.

    The first read of a dimension brings the closed forms of all its faces in one
    batch.  A sampled face draws on the substream of its position in ``all_faces()``,
    so results are deterministic in (seed, stream_id, samples).
    """

    def __init__(self, P: Polytope, samples: int = DEFAULT_SAMPLES,
                 stream: RandomStream = RandomStream()) -> None:
        self.polytope = P
        self.samples = samples
        self.stream = stream
        self._levels: dict[int, list[Estimate | None]] = {}

    def at(self, k: int, i: int) -> Estimate:
        P = self.polytope
        if (level := self._levels.get(k)) is None:
            level = self._levels[k] = _exact_angles(P, k, P.faces.ids[k])
        if level[i] is None:
            sub = self.stream.substream(sum(P.face_vector()[:k]) + i)
            level[i] = outer_angle(P, P.faces.ids[k][i], self.samples, sub)
        return level[i]

    def angle(self, face: Face) -> Estimate:
        if (at := self.polytope._locate(face.vertex_ids)) is None:
            raise FaceNotFound(list(face.vertex_ids))
        return self.at(*at)
