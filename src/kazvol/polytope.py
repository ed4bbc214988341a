"""V-representation polytopes in C^n = R^{2n}.

Convex hull with full face lattice, support function, Minkowski sums and the
summand faces of a face of a sum, and halfspace splitting.
Lower-dimensional polytopes are first-class: the lattice is built inside the
affine hull of the input points.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from . import complex_linalg as cl
from .numerics import DEFAULT_TOLERANCE, Tolerance, read_field, read_json

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
    "split",
    "convex_volume",
    "load_polytope",
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
        return _qhull(points)[2]
    except QhullError:
        return 0.0


def _qhull(points: np.ndarray) -> tuple[ConvexHull, int, float]:
    """Qhull of the points times 2**-e, e and the volume (2**(e d) times Qhull's, inf past
    the float range).  Qhull fails or crashes on coordinates far from 1 (a cloud in R^4
    at 1e60 or 1e140), so e scales them into [1/2, 1) past 2**±64; nearer 1, e = 0, as
    Qhull's volume is not always bit-equal under scaling."""
    exponent = _exponent(points)
    exponent = exponent if abs(exponent) > 64 else 0
    qhull = ConvexHull(np.ldexp(points, -exponent))
    with np.errstate(over="ignore"):
        return qhull, exponent, float(np.ldexp(qhull.volume, points.shape[1] * exponent))


@dataclass(eq=False)
class Face:
    """A face of a polytope and its data, hashed by identity: vol_k, rho and an
    orthonormal basis of E_Delta, all from its dimension's batch (``_face_data``)."""

    vertex_ids: tuple[int, ...]  # sorted: the face's key in the lattice
    k: int
    volume_k: float
    rho: float
    hull_basis: cl.SubspaceBasis

    @property
    def id(self) -> frozenset[int]:
        return frozenset(self.vertex_ids)


@dataclass(frozen=True, eq=False)
class Polytope:
    """Immutable polytope: extreme points plus the computed face lattice, every face
    and facet keyed by its sorted vertex-id tuple (``faces.ids[k]`` is sorted)."""

    ambient_n: int
    vertices: np.ndarray  # (V, 2n), extreme points only
    faces: _FaceLattice  # dimension -> faces, built on first read; ``faces.data(k)``: columns
    dim_real: int
    span_basis: cl.SubspaceBasis  # orthonormal basis of E_Gamma
    centroid: np.ndarray
    facet_ids: tuple[tuple[int, ...], ...]  # sorted vertex ids of each facet
    facet_normals: np.ndarray  # (facets, 2n) outer unit normals in R^2n, in facet_ids order
    tol: Tolerance  # set by ``hull``; everything computed on the polytope decides under it

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def all_faces(self) -> list[Face]:
        return [f for k in sorted(self.faces) for f in self.faces[k]]

    @property
    def improper_face(self) -> Face:
        return self.faces[self.dim_real][-1]

    def face_by_ids(self, ids) -> Face:
        key = sorted({int(i) for i in ids})
        if (face := self._find(key)) is None:
            raise FaceNotFound(key)
        return face

    def _find(self, ids) -> Face | None:
        """The face with these vertex ids, None if none; builds only its dimension."""
        return None if (at := self._locate(ids)) is None else self.faces[at[0]][at[1]]

    def _locate(self, ids) -> tuple[int, int] | None:
        """(k, i) with ``faces.ids[k][i]`` the sorted ids, None if none: a bisection
        of each dimension from min(len - 1, d) down (a k-face has k + 1 vertices or more)."""
        key = tuple(sorted(set(ids)))
        for k in range(min(len(key) - 1, self.dim_real), -1, -1):
            level = self.faces.ids[k]
            i = bisect_left(level, key)
            if i < len(level) and level[i] == key:
                return k, i
        return None

    def face_vector(self) -> list[int]:
        return [len(ids) for ids in self.faces.ids.values()]

    @cached_property
    def _incidence(self) -> np.ndarray:
        """The (facets, V) 0/1 vertex incidence of ``facet_ids``."""
        return _membership(self.facet_ids, self.n_vertices)

    def _facet_pairs(self, id_sets: list) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs (i, j), in row-major order, of the vertex sets i that lie in facet j:
        a set's membership row times the incidence equals its size.  One matmul per chunk
        of about 2**20 set-facet pairs."""
        incidence, member = self._incidence, _membership(id_sets, self.n_vertices)
        size, step = member.sum(axis=1)[:, None], max(1, 2**20 // max(1, len(incidence)))
        sets, facets = [], []
        for start in range(0, len(member), step):
            i, j = np.nonzero(member[start:start + step] @ incidence.T == size[start:start + step])
            sets.append(i + start)
            facets.append(j)
        return np.concatenate(sets), np.concatenate(facets)

    def facets_containing(self, face: Face) -> list[np.ndarray]:
        return list(self.facet_normals[self._facet_pairs([face.vertex_ids])[1]])

    def witness_direction(self, face: Face) -> np.ndarray:
        """A direction in the relative interior of the dual cone of the face.

        Zero for the improper face (whose dual cone is E_Gamma^perp), the one
        face of dimension ``dim_real``."""
        if face.k == self.dim_real:
            return np.zeros(2 * self.ambient_n)
        normals = self.facets_containing(face)
        if not normals:
            raise FaceNotFound(list(face.vertex_ids))
        return np.sum(normals, axis=0)


def _membership(id_sets: list, count: int) -> np.ndarray:
    """(len(id_sets), count) float32 0/1 rows, row i marking the ids of set i."""
    sizes = [len(ids) for ids in id_sets]
    out = np.zeros((len(sizes), count), dtype=np.float32)
    out[np.repeat(np.arange(len(sizes)), sizes), [v for ids in id_sets for v in ids]] = 1
    return out


def _members(mask: np.ndarray) -> list[list[int]]:
    """Row i of a 0/1 matrix as the sorted list of its nonzero columns (the inverse of
    ``_membership``), from one ``nonzero`` over the whole matrix."""
    ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
    flat = np.nonzero(mask)[1].tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _dedupe(points: np.ndarray, eps: float) -> np.ndarray:
    """The points in input order, less each one within Chebyshev distance
    eps * scale of an earlier kept point (one k-d-tree pair query, then a
    greedy pass over the close pairs only)."""
    scale_ = max(1.0, float(np.abs(points).max()))
    pairs = cKDTree(points).query_pairs(eps * scale_, p=np.inf, output_type="ndarray")
    dropped = [False] * len(points)
    for i, j in pairs[np.argsort(pairs[:, 1], kind="stable")].tolist():
        dropped[j] = dropped[j] or not dropped[i]
    return points[~np.array(dropped, dtype=bool)]


def _affine_frame(points: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and orthonormal basis (rows) of the affine hull direction space."""
    center = points.mean(axis=0)
    diffs = points - center
    if diffs.shape[0] == 1:
        return center, np.zeros((0, points.shape[1]))
    u, s, vt = np.linalg.svd(diffs, full_matrices=False)
    scale_ = max(s[0], 1.0) if s.size else 1.0
    rank = int(np.sum(s > tol.eps * scale_ * 10))
    return center, vt[:rank]


def _facet_sets(coords: np.ndarray, qhull: ConvexHull, exponent: int,
                eps: float) -> dict[tuple[int, ...], np.ndarray]:
    """Map facet vertex ids -> outer unit normal (in the projected coordinates).

    Qhull ran on coords times 2**-exponent.  Vertex ids number Qhull's vertices in
    index order; a facet's ids, sorted, are read from those vertices' entries of its
    point-plane incidence, so points on a facet's plane that are not vertices drop out.  Qhull
    triangulates non-simplicial facets, so one facet can come as many
    equations; each point set keeps the normal of its first equation.
    Equations are taken in chunks of about 2**20 point-equation pairs.  A facet
    bent within eps can also come with sliver facets along its ridges; their
    point sets lie inside a real facet's set, so only the inclusion-maximal
    sets are kept.  A set that lies strictly inside another has at least d
    points, so it is only compared with the sets of more than d.
    """
    sets: dict[frozenset[int], tuple[tuple[int, ...], np.ndarray]] = {}  # points -> (ids, normal)
    scale_ = max(1.0, float(np.abs(coords).max()))
    step = max(1, 2**20 // len(coords))
    keep = np.sort(qhull.vertices)
    for start in range(0, len(qhull.equations), step):
        eqs = qhull.equations[start:start + step]
        offset = np.ldexp(eqs[:, -1], exponent)
        on_plane = np.abs(coords @ eqs[:, :-1].T + offset) <= eps * scale_ * 10
        normals = eqs[:, :-1] / np.linalg.norm(eqs[:, :-1], axis=1)[:, None]
        _, first = np.unique(np.packbits(on_plane, axis=0).T, axis=0, return_index=True)
        cols = np.sort(first)
        rows = on_plane[:, cols].T
        for points, ids, normal in zip(_members(rows), _members(rows[:, keep]), normals[cols]):
            sets.setdefault(frozenset(points), (tuple(ids), normal))
    big = [s for s in sets if len(s) > coords.shape[1]]
    return {ids: normal for s, (ids, normal) in sets.items() if not any(s < t for t in big)}


def _lattice(facets: list[tuple[int, ...]], d: int) -> tuple[
        dict[int, list[tuple[int, ...]]], dict[int, np.ndarray], dict[int, dict]]:
    """Sorted vertex-id tuples of the proper faces, by dimension, from the (sorted) facets
    down; each dimension k's simplices as one (m, k + 1) int array, in the same order;
    and by dimension, each other face's pyramid bases (``_face_data``).

    A k-face with k + 1 vertices is a simplex: its (k-1)-faces are its one-vertex
    deletions.  A dimension's simplices are one (m, k + 1) int array, and one fancy
    index through a table of k-column subsets gives all their deletions, which
    ``_unique_rows`` sorts and dedupes at once.  The (k-1)-faces of any other k-face
    F are the inclusion-maximal proper sets F & g over the facets g, on int
    bitmasks; a (k-1)-face has at least k vertices and a smaller set F & g lies in
    one that has, so candidates of fewer than k vertices are dropped unscanned.
    Those found with k vertices join the simplex array before it is deduped, and
    those that miss F's first vertex are its pyramid bases.
    """
    radix = 1 + max(ids[-1] for ids in facets)
    out = {d - 1: sorted(set(facets))}
    simplices = np.array([f for f in out[d - 1] if len(f) == d], dtype=np.int64).reshape(-1, d)
    others = {sum(1 << v for v in ids): ids for ids in out[d - 1] if len(ids) != d}
    arrays, pyramids = {d - 1: simplices}, {}
    facet_masks = [sum(1 << v for v in ids) for ids in out[d - 1]] if others else []
    for k in range(d - 1, 0, -1):
        below: dict[int, tuple[int, ...]] = {}
        bases = pyramids[k] = {}
        for m, ids in others.items():
            maximal: list[int] = []
            for c in sorted({m & g for g in facet_masks} - {m}, key=int.bit_count, reverse=True):
                if c.bit_count() < k:
                    break
                if all(c & o != c for o in maximal):
                    maximal.append(c)
            for c in maximal:
                if c not in below:
                    below[c] = tuple(v for v in ids if c >> v & 1)
            bases[ids] = [below[c] for c in maximal if not c >> ids[0] & 1]
        found = np.array([ids for ids in below.values() if len(ids) == k], dtype=np.int64)
        simplices = _unique_rows(np.concatenate(
            [simplices[:, list(itertools.combinations(range(k + 1), k))].reshape(-1, k),
             found.reshape(-1, k)]), radix)
        faces = list(zip(*simplices.T.tolist()))
        others = {c: ids for c, ids in below.items() if len(ids) > k}
        out[k - 1] = sorted(faces + list(others.values())) if others else faces
        arrays[k - 1] = simplices
    return out, arrays, pyramids


def _unique_rows(rows: np.ndarray, radix: int) -> np.ndarray:
    """The distinct rows of an int array with entries below ``radix``, in lexicographic
    order.  Each row packs into one int64 key in mixed radix ``radix``, whose order is
    the rows': one sort of the keys, a compare of neighbours and a decode of the digits.
    Where radix**width reaches 2**63 a key would overflow, so the rows take one
    ``np.lexsort`` and a compare of adjacent rows instead (the slower path: used for
    every width, it made the ``lattice`` benchmark's tta_s about a fifth longer)."""
    width = rows.shape[1]
    if radix**width < 2**63:
        place = radix ** np.arange(width - 1, -1, -1, dtype=np.int64)
        key = np.sort(rows @ place)
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        return key[new, None] // place % radix
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[new]


def _exponent(a: np.ndarray) -> int:
    """The e with max|a| in [2**(e - 1), 2**e), 0 for zeros or none."""
    return int(np.frexp(np.abs(a).max(initial=0.0))[1])


def _simplex_data(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """prod r / k! and orthonormal row frames (F, k, 2n) of F sets of k edges (F, k, 2n).

    One ``cl.gram_schmidt`` pass over the edges, scaled by a power of two so that
    no squared norm over- or underflows, gives the residual norms r and a frame of
    each span.  For the edges of a k-simplex from one vertex, prod r / k! is its
    vol_k; for the k edges of a k-parallelotope, the mixed volume V_k.
    """
    k, exponent = edges.shape[1], _exponent(edges)
    r, q = cl.gram_schmidt(np.ldexp(edges, -exponent))
    with np.errstate(over="ignore"):  # inf past the float range, as ``_qhull``'s volume
        return np.ldexp(r.prod(axis=1), k * exponent) / math.factorial(k), q


def _face_data(vertices: np.ndarray, level: list[tuple[int, ...]], simplices: np.ndarray,
               bases: dict, below: tuple | None, k: int) -> tuple[np.ndarray, np.ndarray]:
    """vol_k and orthonormal row frames (f, k, 2n) of the f proper k-faces ``level``.

    Vertices have 1 and an empty frame, the simplices (rows of ``simplices``) one
    ``_simplex_data`` pass.  Any other face F is the union of the pyramids with apex v,
    its first vertex, over its (k-1)-faces G that miss v (``bases[F]``; Lasserre, J.
    Optim. Theory Appl. 39, 1983): vol_k(F) = sum h(v, G) vol_{k-1}(G) / k, from the
    ids, vol_{k-1} and frames ``below``.  h is the norm of v - g_0 off G's frame,
    projected twice and scaled as in ``_simplex_data``; F's frame is its first G's
    frame plus the unit residual.
    """
    count, n2 = len(level), vertices.shape[1]
    if k == 0:
        return np.ones(count), np.zeros((count, 0, n2))
    edges = vertices[simplices[:, 1:]] - vertices[simplices[:, :1]]
    if len(simplices) == count:
        return _simplex_data(edges)
    vol, frames = np.empty(count), np.empty((count, k, n2))
    pyramid = np.array([len(ids) > k + 1 for ids in level])
    if len(simplices):
        vol[~pyramid], frames[~pyramid] = _simplex_data(edges)
    level_below, vol_below, frames_below = below
    index = {ids: i for i, ids in enumerate(level_below)}
    tops = [level[i] for i in np.flatnonzero(pyramid)]
    face, base, apex, g0 = np.array([(f, index[g], top[0], g[0])
                                     for f, top in enumerate(tops) for g in bases[top]]).T
    edges, q = vertices[apex] - vertices[g0], frames_below[base]
    exponent = _exponent(edges)
    residual = np.ldexp(edges, -exponent)[:, None]
    for _ in range(2):
        residual -= (residual @ np.swapaxes(q, 1, 2)) @ q
    h = np.linalg.norm(residual[:, 0], axis=1)
    with np.errstate(over="ignore"):
        vol[pyramid] = np.ldexp(np.bincount(face, h * np.array(vol_below)[base], len(tops)),
                                exponent) / k
    first = np.flatnonzero(np.diff(face, prepend=-1))
    frames[pyramid] = np.concatenate([q[first], residual[first] / h[first, None, None]], axis=1)
    return vol, frames


class _FaceLattice(Mapping):
    """Read-only map dimension -> faces over the vertex-id tuples ``ids`` of every face;
    ``data(k)`` gives the k-faces' vol_k and rho as columns, with no ``Face`` built.

    The lattice is checked against the Euler relation on construction.  The first
    read of a dimension k, by ``data`` or by ``[]``, runs its batch: vol_k and frames
    from ``_face_data`` (which needs the batch of dimension k - 1 where a k-face is not
    a simplex), or for the improper face (k = d) the given volume and the frame (rows)
    of E_Gamma; then rho of every frame from one ``cl.batch_rho``.  ``[]`` builds the
    ``Face`` objects from the batch.
    """

    def __init__(self, vertices: np.ndarray, lattice: dict[int, list[tuple[int, ...]]],
                 arrays: dict[int, np.ndarray], pyramids: dict[int, dict], d: int,
                 volume: float, frame: np.ndarray, tol: Tolerance) -> None:
        self.ids = {**dict(sorted(lattice.items())), d: [tuple(range(len(vertices)))]}
        _euler_check(self.ids, tol)
        self._vertices, self._arrays, self._pyramids = vertices, arrays, pyramids
        self._d, self._volume, self._frame, self._tol = d, volume, frame, tol
        self._data: dict[int, tuple[list[float], list[float], np.ndarray]] = {}
        self._built: dict[int, list[Face]] = {}

    def _batch(self, k: int) -> tuple[list[float], list[float], np.ndarray]:
        """vol_k and rho (lists) and frames (f_k, k, 2n) of the k-faces, in ``ids[k]`` order."""
        if k not in self._data:
            if k == self._d:
                vol, frames = np.array([self._volume]), self._frame[None]
            else:
                bases = self._pyramids.get(k)
                below = (self.ids[k - 1], *self._batch(k - 1)[::2]) if bases else None
                vol, frames = _face_data(self._vertices, self.ids[k], self._arrays[k], bases,
                                         below, k)
            # k > n real directions never span a complex-equidimensional space: rho = 0.
            rho = np.zeros(len(vol)) if 2 * k > frames.shape[2] else cl.batch_rho(frames, self._tol)[0]
            self._data[k] = vol.tolist(), rho.tolist(), frames
        return self._data[k]

    def data(self, k: int) -> tuple[list[float], list[float]]:
        """vol_k and rho of every k-face, as two lists in ``ids[k]`` order (cached: every
        read returns the same lists)."""
        return self._batch(k)[:2]

    def __getitem__(self, k: int) -> list[Face]:
        faces = self._built.get(k)
        if faces is None:
            n = self._vertices.shape[1] // 2
            faces = self._built[k] = [Face(ids, k, v, r, cl.SubspaceBasis(n, q))
                                      for ids, v, r, q in zip(self.ids[k], *self._batch(k))]
        return faces

    def __contains__(self, k) -> bool:
        return k in self.ids

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _euler_check(faces: dict[int, list], tol: Tolerance) -> None:
    total = sum((-1) ** k * len(fs) for k, fs in faces.items())
    # sum_{k=0}^{d-1} (-1)^k f_k = 1 - (-1)^d, so including f_d = 1 the sum is 1.
    if total != 1:
        raise ValueError(f"face lattice violates the Euler relation ({total} != 1) at "
                         f"tolerance {tol.eps:g}: the points lie within the tolerance of a "
                         f"degenerate position; try another tolerance")


def hull(points, tol: Tolerance = DEFAULT_TOLERANCE) -> Polytope:
    """Convex hull with full face lattice, checked against the Euler relation; each
    dimension's faces are built on first read.  Ambient real dimension capped at 8."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise EmptyInput("no input points")
    dim2n = pts.shape[1]
    if dim2n % 2 != 0:
        raise ValueError("points must have an even number of real coordinates")
    if dim2n > DIMENSION_CAP:
        raise DimensionCapExceeded(f"real dimension {dim2n} exceeds cap {DIMENSION_CAP}")
    n = dim2n // 2
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"point {int(bad[0])} is not finite: {pts[bad[0]].tolist()}")
    pts = _dedupe(pts, tol.eps)
    center, basis_rows = _affine_frame(pts, tol)
    d = basis_rows.shape[0]
    span = cl.SubspaceBasis(n, basis_rows)

    if d == 0:
        vertices, lattice, arrays, pyramids, volume = pts[:1], {}, {}, {}, 1.0
        facet_ids, facet_normals = (), np.zeros((0, dim2n))
    else:
        coords = (pts - center) @ basis_rows.T
        if d == 1:
            order = np.argsort(coords[:, 0])
            vertices = pts[[order[0], order[-1]]]
            volume = float(coords[order[-1], 0] - coords[order[0], 0])
            # Rank 1 puts the first coordinate strictly below the last after the sort.
            lattice, arrays, pyramids = {0: [(0,), (1,)]}, {0: np.array([[0], [1]])}, {}
            facet_ids, facet_normals = ((0,), (1,)), np.array([-basis_rows[0], basis_rows[0]])
        else:
            qh, exponent, volume = _qhull(coords)
            vertices = pts[np.sort(qh.vertices)]
            facet_sets = _facet_sets(coords, qh, exponent, tol.eps)
            lattice, arrays, pyramids = _lattice(list(facet_sets), d)
            facet_ids = tuple(facet_sets)
            facet_normals = np.array(list(facet_sets.values())) @ basis_rows
    faces = _FaceLattice(vertices, lattice, arrays, pyramids, d, volume, basis_rows, tol)
    return Polytope(n, vertices, faces, d, span, center, facet_ids, facet_normals, tol)


def support(P: Polytope, u: np.ndarray) -> tuple[float, Face]:
    """Support value and exposed face in the direction u (u = 0 exposes P itself)."""
    u = np.asarray(u, dtype=float)
    norm = _norm(u)
    if not math.isfinite(norm):
        raise ValueError(f"direction {u.tolist()} has no finite norm")
    if norm == 0.0:
        return 0.0, P.improper_face
    with np.errstate(over="ignore", invalid="ignore"):
        vals = P.vertices @ u
    if not np.isfinite(vals).all():
        raise ValueError(f"direction {u.tolist()} has support values past the float range")
    h = float(vals.max())
    scale_ = max(1.0, float(np.abs(P.vertices).max()))
    members = np.flatnonzero(vals >= h - P.tol.eps * norm * scale_).tolist()
    face = P._find(members)
    if face is None:
        # Tolerance artifact: fall back to the smallest face containing the set,
        # the intersection of the facets through it (P itself if there are none).
        rows = P._incidence[P._incidence[:, members].all(axis=1)]
        face = P.face_by_ids(np.flatnonzero(rows.all(axis=0))) if len(rows) else P.improper_face
    return h, face


def _norm(u: np.ndarray) -> float:
    """|u|, inf where an entry of u is or |u| itself passes the float range:
    ``np.linalg.norm``, taken of u / max|u| and scaled back where the sum of squares
    overflows (|u| above about 1.3e154)."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(u))
    if norm == math.inf and np.isfinite(u).all():
        top = float(np.abs(u).max())
        norm = top * float(np.linalg.norm(u / top))
    return norm


def minkowski_sum(parts: list[Polytope]) -> Polytope:
    """The sum, built under the tolerance its summands share."""
    if not parts:
        raise EmptyInput("need at least one summand")
    n, tol = parts[0].ambient_n, parts[0].tol
    if any(p.ambient_n != n for p in parts):
        raise ValueError("summands must share the ambient space")
    if any(p.tol != tol for p in parts):
        raise ValueError("summands must share one tolerance")
    total = math.prod(p.n_vertices for p in parts)
    if total > SUM_VERTEX_CAP:
        raise DimensionCapExceeded(f"vertex product {total} exceeds cap {SUM_VERTEX_CAP}")
    return hull(_sum_points(parts), tol)


def _sum_points(parts: list[Polytope]) -> np.ndarray:
    """The sums of one vertex of each summand, row i1 * V2 * ... * Vm + ... + im for the
    vertices i1, ..., im: the rows from which ``minkowski_sum`` takes its hull."""
    acc = parts[0].vertices
    for p in parts[1:]:
        acc = (acc[:, None, :] + p.vertices[None, :, :]).reshape(-1, acc.shape[1])
    return acc


def _sum_labels(S: Polytope, parts: list[Polytope]) -> np.ndarray:
    """(V, m) array whose row i holds the vertex of each summand that sums to vertex i of
    S = ``minkowski_sum(parts)``.

    Every vertex of a sum is the sum of exactly one vertex of each summand, and
    ``hull`` copies its vertices bit for bit from the rows of ``_sum_points``,
    so an exact row lookup (on the rows' bytes, the first of equal rows, as
    ``_dedupe`` keeps) finds them.
    """
    first, found = _row_lookup(_sum_points(parts), S.vertices)
    if not found.all():
        raise RuntimeError("a vertex of the sum is not a sum of summand vertices")
    return np.stack(np.unravel_index(first, [p.n_vertices for p in parts]), axis=1)


def _row_lookup(table: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of wanted, the index of the first equal row of table and whether there
    is one: one sort of the rows' bytes as void keys and a bisection."""
    table, wanted = np.ascontiguousarray(table), np.ascontiguousarray(wanted)
    row = np.dtype((np.void, table.itemsize * table.shape[1]))
    keys, first = np.unique(table.view(row).ravel(), return_index=True)
    pos = np.minimum(np.searchsorted(keys, want := wanted.view(row).ravel()), len(keys) - 1)
    return first[pos], keys[pos] == want


def _summand_label_sets(S: Polytope, parts: list[Polytope],
                        k: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Per summand l, the (faces, V_l) bool membership rows of the l-th ``_sum_labels`` of
    each k-face's vertices, in ``S.faces.ids[k]`` order (one fancy assignment each, no
    ``Face`` built); and whether every set of a face is a face of its summand, where it
    is the summand face of ``summand_faces``."""
    ids = S.faces.ids.get(k, [])
    sizes = [len(t) for t in ids]
    rows = np.repeat(np.arange(len(ids)), sizes)
    labels = _sum_labels(S, parts)[np.fromiter(itertools.chain.from_iterable(ids), np.intp,
                                                sum(sizes))]
    members = [np.zeros((len(ids), p.n_vertices), dtype=bool) for p in parts]
    for l, member in enumerate(members):
        member[rows, labels[:, l]] = True
    found = [_are_faces(p, member) for p, member in zip(parts, members)]
    return members, np.logical_and.reduce(found, axis=0)


def _are_faces(P: Polytope, member: np.ndarray) -> np.ndarray:
    """Whether each (V,) bool membership row is the vertex set of a face of P (of any
    dimension, as ``_find`` accepts it): its ``np.packbits`` key among those of every
    tuple in ``P.faces.ids``."""
    every = [ids for level in P.faces.ids.values() for ids in level]
    faces = np.packbits(_membership(every, P.n_vertices) != 0, axis=1)
    return _row_lookup(faces, np.packbits(member, axis=1))[1]


def summand_faces(S: Polytope, parts: list[Polytope], face: Face) -> tuple[Face, ...]:
    """The face F(A_l, u) of each summand, where F(S, u) = face and S = sum of the A_l:
    F(A_1 + ... + A_m, u) = F(A_1, u) + ... + F(A_m, u) for every direction u."""
    u = S.witness_direction(face)
    return tuple(support(p, u)[1] for p in parts)


def split(
    P: Polytope, normal: np.ndarray, offset: float
) -> tuple[Polytope | None, Polytope | None, Polytope | None]:
    """Intersections of P with the halfspaces <u, .> >= c, <= c, and the plane = c.

    The pieces are built under ``P.tol``.  Empty pieces are returned as None;
    downstream valuations treat them as 0.
    """
    u = np.asarray(normal, dtype=float)
    if not 0.0 < (norm := _norm(u)) < math.inf:
        raise ValueError(f"normal {u.tolist()} is zero or has no finite norm")
    u = u / norm
    vals = P.vertices @ u - offset
    scale_ = max(1.0, float(np.abs(P.vertices).max()))
    eps = P.tol.eps * scale_ * 10
    # The edges as id pairs, so no edge Face is built; the crossings in edge order.
    edges = np.array(P.faces.ids.get(1, []), dtype=np.intp).reshape(-1, 2)
    vi, vj = vals[edges[:, 0]], vals[edges[:, 1]]
    i, j = edges[(vi > eps) & (vj < -eps) | (vi < -eps) & (vj > eps)].T
    t = vals[i] / (vals[i] - vals[j])
    crossings = P.vertices[i] + t[:, None] * (P.vertices[j] - P.vertices[i])

    def piece(mask: np.ndarray, extra: np.ndarray) -> Polytope | None:
        pts = [P.vertices[mask]] if mask.any() else []
        if extra.size:
            pts.append(extra)
        if not pts:
            return None
        return hull(np.vstack(pts), P.tol)

    plus = piece(vals >= -eps, crossings)
    minus = piece(vals <= eps, crossings)
    on_plane = piece(np.abs(vals) <= eps, crossings)
    return plus, minus, on_plane


# ---------------------------------------------------------------------------
# File format


def _parse_number(x) -> float:
    return float(Fraction(x)) if isinstance(x, str) else float(x)


def load_polytope(source, tol: Tolerance = DEFAULT_TOLERANCE) -> Polytope:
    """Load a polytope from a JSON file path, JSON string, or dict.

    Format: {"n": int, "vertices": [[re1, im1, ..., re_n, im_n], ...]} with
    coordinates given as numbers or exact "p/q" strings.
    """
    data = read_json(source)
    n = read_field(data, "n", int)
    parsed = read_field(data, "vertices",
                        lambda rows: [[_parse_number(x) for x in row] for row in rows])
    if not parsed:
        raise EmptyInput("no vertices in input")
    for row in parsed:
        if len(row) != 2 * n:
            raise ValueError(f"vertex with {len(row)} coordinates, expected {2 * n}")
    return hull(np.array(parsed, dtype=float), tol)
