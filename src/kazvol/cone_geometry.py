"""Outer angles of polytope faces.

The outer angle of a k-face of a d-polytope is the solid-angle fraction of
its dual cone inside the (d-k)-dimensional space E_Delta^perp ∩ E_Gamma.
Improper faces and facets have exact angles (1 and 1/2).  Normal cones of
dimension 2 and 3 are measured in closed form from the facet normals that
span them: the angle between the two rays, or a fan of spherical triangles
(Van Oosterom & Strackee, IEEE TBME 1983).  Only cones of dimension 4 and up
are estimated by Monte Carlo classification of uniform directions sampled in
the normal space, a vertex like any other face; the hit fraction is the
package's one estimator :func:`numerics.sampled_mean`.  Every angle is a
:class:`numerics.Estimate`: a closed form carries its rounding in ``bound``
and method "exact", a sampled angle its standard error, the number of
unambiguous draws it kept and method "monte_carlo".
"""

from __future__ import annotations

import numpy as np

from . import complex_linalg as cl
from .numerics import DEFAULT_SAMPLES, Estimate, RandomStream, sampled_mean, sphere_sample
from .polytope import Face, Polytope

__all__ = [
    "outer_angle",
    "AnglePass",
]

_CHUNK = 250_000
_EPS = float(np.finfo(float).eps)


def _normal_space(P: Polytope, face: Face) -> cl.SubspaceBasis:
    """Orthonormal basis of E_Delta^perp ∩ E_Gamma."""
    span = P.span_basis.vectors
    if face.k == 0:
        return cl.SubspaceBasis(P.ambient_n, span)
    fb = face.hull_basis.vectors
    residual = span - (span @ fb.T) @ fb
    return cl.SubspaceBasis.from_span(P.ambient_n, residual, P.tol)


def _classify(P: Polytope, face: Face, basis: cl.SubspaceBasis, samples: int,
              stream: RandomStream) -> Estimate:
    """Fraction of directions in the cone's span whose support face equals the face.

    Directions whose gap between the face and the best other vertex is within
    the tolerance are ambiguous and dropped.
    """
    member = np.array(sorted(face.id))
    other = np.array(sorted(frozenset(range(P.n_vertices)) - face.id))
    scale_ = max(1.0, float(np.abs(P.vertices).max()))
    delta = P.tol.eps * scale_ * 10

    def hits(sub: RandomStream, m: int) -> np.ndarray:
        dirs = sphere_sample(basis.d, sub, m) @ basis.vectors
        vals = dirs @ P.vertices.T
        gap = vals[:, member[0]] - vals[:, other].max(axis=1)
        return gap[np.abs(gap) > delta] > 0

    value, err, used = sampled_mean(hits, samples, stream, _CHUNK)
    return Estimate(value, err, method="monte_carlo", samples=used)


def _exact_angle(P: Polytope, face: Face, basis: cl.SubspaceBasis) -> Estimate | None:
    """Closed-form angle of a normal cone of dimension 2 or 3, else None.

    Each facet through the face contributes its outer normal, an extreme ray
    of the cone.  Its ``bound`` is a floating-point error bound, so that gates
    on exact values still tolerate the last-ulp rounding.
    """
    if basis.d > 3:
        return None
    rays = np.array(P.facets_containing(face)) @ basis.vectors.T
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    if basis.d == 2 and len(rays) == 2:
        a, b = rays
        theta = np.arctan2(abs(a[0] * b[1] - a[1] * b[0]), a @ b)
        return Estimate(float(theta / (2 * np.pi)), bound=16 * _EPS)
    if basis.d == 3 and len(rays) >= 3:
        # Cyclic order around the interior direction, then a fan from rays[0].
        w = rays.sum(axis=0)
        e1 = np.cross(w, rays[0])
        e2 = np.cross(w, e1)
        rays = rays[np.argsort(np.arctan2(rays @ e2, rays @ e1))]
        a, b, c = rays[0], rays[1:-1], rays[2:]
        triple = np.abs(np.cross(b, c) @ a)
        omega = 2 * np.arctan2(triple, 1 + b @ a + np.sum(b * c, axis=1) + c @ a)
        return Estimate(float(omega.sum() / (4 * np.pi)), bound=16 * _EPS * len(rays))
    return None


def outer_angle(
    P: Polytope,
    face_id,
    samples: int = DEFAULT_SAMPLES,
    stream: RandomStream = RandomStream(),
) -> Estimate:
    face = P.face_by_ids(face_id)
    d = P.dim_real
    if face.k == d:
        return Estimate(1.0)
    if face.k == d - 1:
        return Estimate(0.5)
    basis = _normal_space(P, face)
    return _exact_angle(P, face, basis) or _classify(P, face, basis, samples, stream)


class AnglePass:
    """Shared, cached angle computation for all faces of one polytope.

    Per-face Monte Carlo runs use substreams derived from the face's position
    in the lattice, so results are deterministic in (seed, stream_id, samples).
    """

    def __init__(self, P: Polytope, samples: int = DEFAULT_SAMPLES,
                 stream: RandomStream = RandomStream()) -> None:
        self.polytope = P
        self.samples = samples
        self.stream = stream
        self._cache: dict[frozenset[int], Estimate] = {}
        self._order = {f.id: i for i, f in enumerate(P.all_faces())}

    def angle(self, face: Face) -> Estimate:
        key = face.id
        if key not in self._cache:
            sub = self.stream.substream(self._order.get(key, len(self._order)))
            self._cache[key] = outer_angle(self.polytope, key, self.samples, sub)
        return self._cache[key]
