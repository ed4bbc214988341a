"""V-representation polytopes in C^n = R^{2n}.

Convex hull with full face lattice, support function, Minkowski sums and the
summand faces of a face of a sum, scaling, translation, and halfspace splitting.
Lower-dimensional polytopes are first-class: the lattice is built inside the
affine hull of the input points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import complex_linalg as cl
from .numerics import DEFAULT_TOLERANCE, Tolerance

__all__ = [
    "DimensionCapExceeded",
    "EmptyInput",
    "FaceNotFound",
    "Face",
    "Polytope",
    "hull",
    "support",
    "minkowski_sum",
    "summand_faces",
    "scale",
    "translate",
    "split",
    "convex_volume",
    "load_polytope",
    "polytope_to_dict",
    "save_polytope",
]

DIMENSION_CAP = 8  # real ambient dimension 2n
SUM_VERTEX_CAP = 10**6


class DimensionCapExceeded(ValueError):
    pass


class EmptyInput(ValueError):
    pass


class FaceNotFound(KeyError):
    pass


def convex_volume(points: np.ndarray) -> float:
    """k-dimensional volume of the convex hull of points in R^k.

    Returns 0.0 for point sets that do not span R^k; returns 1.0 for k = 0
    (the volume convention for vertices).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k = points.shape[1]
    if k == 0:
        return 1.0
    if points.shape[0] <= k:
        return 0.0
    if k == 1:
        return float(points.max() - points.min())
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0


@dataclass(frozen=True, eq=False)
class Face:
    """A face of a polytope, with its affine-hull data."""

    vertex_ids: tuple[int, ...]
    k: int
    hull_basis: cl.SubspaceBasis
    volume_k: float
    rho: float

    @property
    def id(self) -> frozenset[int]:
        return frozenset(self.vertex_ids)


@dataclass(frozen=True, eq=False)
class Polytope:
    """Immutable polytope: extreme points plus the computed face lattice."""

    ambient_n: int
    vertices: np.ndarray  # (V, 2n), extreme points only
    faces: dict[int, list[Face]]  # dimension -> faces
    dim_real: int
    span_basis: cl.SubspaceBasis  # orthonormal basis of E_Gamma
    centroid: np.ndarray
    facet_data: tuple[tuple[frozenset[int], np.ndarray], ...]  # (ids, outer unit normal in R^2n)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def all_faces(self) -> list[Face]:
        return [f for k in sorted(self.faces) for f in self.faces[k]]

    @property
    def improper_face(self) -> Face:
        return self.faces[self.dim_real][-1]

    def face_by_ids(self, ids) -> Face:
        key = frozenset(ids)
        face = self._index().get(key)
        if face is None:
            raise FaceNotFound(sorted(key))
        return face

    def _index(self) -> dict[frozenset[int], Face]:
        cache = getattr(self, "_face_index", None)
        if cache is None:
            cache = {f.id: f for f in self.all_faces()}
            object.__setattr__(self, "_face_index", cache)
        return cache

    def face_vector(self) -> list[int]:
        return [len(self.faces.get(k, [])) for k in range(self.dim_real + 1)]

    def facets_containing(self, face: Face) -> list[np.ndarray]:
        ids = face.id
        return [normal for fids, normal in self.facet_data if ids <= fids]

    def witness_direction(self, face: Face) -> np.ndarray:
        """A direction in the relative interior of the dual cone of the face.

        Zero for the improper face (whose dual cone is E_Gamma^perp)."""
        if face.id == self.improper_face.id:
            return np.zeros(2 * self.ambient_n)
        normals = self.facets_containing(face)
        if not normals:
            raise FaceNotFound(sorted(face.id))
        return np.sum(normals, axis=0)


def _dedupe(points: np.ndarray, eps: float) -> np.ndarray:
    scale_ = max(1.0, float(np.abs(points).max()))
    kept: list[np.ndarray] = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= eps * scale_ for q in kept):
            kept.append(p)
    return np.array(kept)


def _affine_frame(points: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and orthonormal basis (rows) of the affine hull direction space."""
    center = points.mean(axis=0)
    diffs = points - center
    if diffs.shape[0] == 1:
        return center, np.zeros((0, points.shape[1]))
    u, s, vt = np.linalg.svd(diffs, full_matrices=False)
    scale_ = max(s[0], 1.0) if s.size else 1.0
    rank = int(np.sum(s > tol.rank_eps * scale_ * 10))
    return center, vt[:rank]


def _facet_sets(coords: np.ndarray, qhull: ConvexHull, eps: float) -> dict[frozenset[int], np.ndarray]:
    """Map facet vertex set -> outer unit normal (in the projected coordinates)."""
    out: dict[frozenset[int], np.ndarray] = {}
    scale_ = max(1.0, float(np.abs(coords).max()))
    for eq in qhull.equations:
        normal, offset = eq[:-1], eq[-1]
        vals = coords @ normal + offset
        members = frozenset(int(i) for i in np.nonzero(np.abs(vals) <= eps * scale_ * 10)[0])
        out.setdefault(members, normal / np.linalg.norm(normal))
    return out


def _build_face(ambient_n: int, vertices: np.ndarray, ids: frozenset[int], tol: Tolerance) -> Face:
    pts = vertices[sorted(ids)]
    basis = cl.SubspaceBasis.from_span(ambient_n, pts - pts[0], tol) if len(pts) > 1 else cl.SubspaceBasis(
        ambient_n, np.zeros((0, 2 * ambient_n))
    )
    k = basis.d
    vol = convex_volume((pts - pts[0]) @ basis.vectors.T) if k > 0 else 1.0
    r = cl.rho(basis, tol).rho
    return Face(tuple(sorted(ids)), k, basis, vol, r)


def _euler_check(faces: dict[int, list[Face]], d: int) -> None:
    total = sum((-1) ** k * len(fs) for k, fs in faces.items())
    # sum_{k=0}^{d-1} (-1)^k f_k = 1 - (-1)^d, so including f_d = 1 the sum is 1.
    if total != 1:
        raise RuntimeError(f"face lattice violates the Euler relation: {total} != 1")


def hull(points, tol: Tolerance = DEFAULT_TOLERANCE) -> Polytope:
    """Convex hull with full face lattice.  Ambient real dimension capped at 8."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise EmptyInput("no input points")
    dim2n = pts.shape[1]
    if dim2n % 2 != 0:
        raise ValueError("points must have an even number of real coordinates")
    if dim2n > DIMENSION_CAP:
        raise DimensionCapExceeded(f"real dimension {dim2n} exceeds cap {DIMENSION_CAP}")
    n = dim2n // 2
    pts = _dedupe(pts, tol.geom_eps)
    center, basis_rows = _affine_frame(pts, tol)
    d = basis_rows.shape[0]

    if d == 0:
        vertices = pts[:1]
        face = _build_face(n, vertices, frozenset({0}), tol)
        return Polytope(n, vertices, {0: [face]}, 0,
                        cl.SubspaceBasis(n, basis_rows), center, ())

    coords = (pts - center) @ basis_rows.T

    if d == 1:
        order = np.argsort(coords[:, 0])
        vertices = pts[[order[0], order[-1]]]
        v0 = _build_face(n, vertices, frozenset({0}), tol)
        v1 = _build_face(n, vertices, frozenset({1}), tol)
        whole = _build_face(n, vertices, frozenset({0, 1}), tol)
        direction = basis_rows[0]
        lo = -direction if coords[order[0], 0] < coords[order[-1], 0] else direction
        facets = ((frozenset({0}), lo), (frozenset({1}), -lo))
        faces = {0: [v0, v1], 1: [whole]}
        _euler_check(faces, 1)
        return Polytope(n, vertices, faces, 1, cl.SubspaceBasis(n, basis_rows), center, facets)

    qh = ConvexHull(coords)
    keep = sorted(int(i) for i in qh.vertices)
    vertices = pts[keep]
    vcoords = coords[keep]
    remap = {old: new for new, old in enumerate(keep)}
    facet_sets = {}
    for members, normal in _facet_sets(coords, qh, tol.geom_eps).items():
        facet_sets[frozenset(remap[i] for i in members if i in remap)] = normal

    # Face lattice: closure of the facet vertex sets under intersection.
    all_ids: set[frozenset[int]] = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new: set[frozenset[int]] = set()
        for s in frontier:
            for t in facet_sets:
                inter = s & t
                if inter and inter not in all_ids and inter not in new:
                    new.add(inter)
        all_ids |= new
        frontier = new
    all_ids.add(frozenset(range(len(keep))))

    faces: dict[int, list[Face]] = {}
    for ids in all_ids:
        face = _build_face(n, vertices, ids, tol)
        faces.setdefault(face.k, []).append(face)
    for k in faces:
        faces[k].sort(key=lambda f: f.vertex_ids)
    # Keep the improper face in the last slot of its dimension class.
    top = frozenset(range(len(keep)))
    faces[d] = [f for f in faces[d] if f.id != top] + [f for f in faces[d] if f.id == top]
    _euler_check(faces, d)

    facet_data = tuple(
        (ids, normal @ basis_rows) for ids, normal in facet_sets.items()
    )
    return Polytope(n, vertices, faces, d, cl.SubspaceBasis(n, basis_rows), center, facet_data)


def support(P: Polytope, u: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[float, Face]:
    """Support value and exposed face in the direction u (u = 0 exposes P itself)."""
    u = np.asarray(u, dtype=float)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        return 0.0, P.improper_face
    vals = P.vertices @ u
    h = float(vals.max())
    scale_ = max(1.0, float(np.abs(P.vertices).max()))
    members = frozenset(int(i) for i in np.nonzero(vals >= h - tol.geom_eps * norm * scale_)[0])
    face = P._index().get(members)
    if face is None:
        # Tolerance artifact: fall back to the minimal face containing the set.
        candidates = [f for f in P.all_faces() if members <= f.id]
        face = min(candidates, key=lambda f: (f.k, len(f.vertex_ids)))
    return h, face


def minkowski_sum(parts: list[Polytope], tol: Tolerance = DEFAULT_TOLERANCE) -> Polytope:
    if not parts:
        raise EmptyInput("need at least one summand")
    n = parts[0].ambient_n
    if any(p.ambient_n != n for p in parts):
        raise ValueError("summands must share the ambient space")
    total = math.prod(p.n_vertices for p in parts)
    if total > SUM_VERTEX_CAP:
        raise DimensionCapExceeded(f"vertex product {total} exceeds cap {SUM_VERTEX_CAP}")
    acc = parts[0].vertices
    for p in parts[1:]:
        acc = (acc[:, None, :] + p.vertices[None, :, :]).reshape(-1, 2 * n)
    return hull(acc, tol)


def summand_faces(
    S: Polytope, parts: list[Polytope], face: Face, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[Face, ...]:
    """The face F(A_l, u) of each summand, where F(S, u) = face and S = sum of the A_l:
    F(A_1 + ... + A_m, u) = F(A_1, u) + ... + F(A_m, u) for every direction u."""
    u = S.witness_direction(face)
    return tuple(support(p, u, tol)[1] for p in parts)


def scale(P: Polytope, lam: float, tol: Tolerance = DEFAULT_TOLERANCE) -> Polytope:
    if lam < 0:
        raise ValueError("scaling factor must be non-negative")
    return hull(P.vertices * lam, tol)


def translate(P: Polytope, t: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> Polytope:
    return hull(P.vertices + np.asarray(t, dtype=float), tol)


def split(
    P: Polytope, normal: np.ndarray, offset: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[Polytope | None, Polytope | None, Polytope | None]:
    """Intersections of P with the halfspaces <u, .> >= c, <= c, and the plane = c.

    Empty pieces are returned as None; downstream valuations treat them as 0.
    """
    u = np.asarray(normal, dtype=float)
    u = u / np.linalg.norm(u)
    vals = P.vertices @ u - offset
    scale_ = max(1.0, float(np.abs(P.vertices).max()))
    eps = tol.geom_eps * scale_ * 10
    crossings = []
    for edge in P.faces.get(1, []):
        i, j = edge.vertex_ids
        vi, vj = vals[i], vals[j]
        if vi > eps and vj < -eps or vi < -eps and vj > eps:
            t = vi / (vi - vj)
            crossings.append(P.vertices[i] + t * (P.vertices[j] - P.vertices[i]))
    crossings = np.array(crossings) if crossings else np.zeros((0, 2 * P.ambient_n))

    def piece(mask: np.ndarray, extra: np.ndarray) -> Polytope | None:
        pts = [P.vertices[mask]] if mask.any() else []
        if extra.size:
            pts.append(extra)
        if not pts:
            return None
        return hull(np.vstack(pts), tol)

    plus = piece(vals >= -eps, crossings)
    minus = piece(vals <= eps, crossings)
    on_plane = piece(np.abs(vals) <= eps, crossings)
    return plus, minus, on_plane


# ---------------------------------------------------------------------------
# File format


def _parse_number(x, exact: bool):
    if isinstance(x, str):
        frac = Fraction(x)
        return frac if exact else float(frac)
    return Fraction(x) if exact else float(x)


def load_polytope(source, tol: Tolerance = DEFAULT_TOLERANCE, exact: bool = False) -> Polytope:
    """Load a polytope from a JSON file path, JSON string, or dict.

    Format: {"n": int, "vertices": [[re1, im1, ..., re_n, im_n], ...]} with
    coordinates given as numbers or exact "p/q" strings.  In exact mode the
    vertex list is deduplicated in rational arithmetic before the floating
    lattice is built.
    """
    if isinstance(source, (str, Path)) and Path(str(source)).exists():
        data = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        data = json.loads(source)
    else:
        data = source
    n = int(data["n"])
    rows = data["vertices"]
    if not rows:
        raise EmptyInput("no vertices in input")
    parsed = [[_parse_number(x, exact) for x in row] for row in rows]
    for row in parsed:
        if len(row) != 2 * n:
            raise ValueError(f"vertex with {len(row)} coordinates, expected {2 * n}")
    if exact:
        seen = set()
        unique = []
        for row in parsed:
            key = tuple(row)
            if key not in seen:
                seen.add(key)
                unique.append([float(x) for x in row])
        parsed = unique
    return hull(np.array(parsed, dtype=float), tol)


def polytope_to_dict(P: Polytope) -> dict:
    return {"n": P.ambient_n, "vertices": P.vertices.tolist()}


def save_polytope(P: Polytope, path) -> None:
    Path(path).write_text(json.dumps(polytope_to_dict(P), indent=2))
