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
from collections import namedtuple
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
    orthonormal frame (rows) of E_Delta, all from its dimension's batch (``_face_data``)."""

    vertex_ids: tuple[int, ...]  # sorted: the face's key in the lattice
    k: int
    volume_k: float
    rho: float
    frame: np.ndarray  # (k, 2n)

    @property
    def id(self) -> frozenset[int]:
        return frozenset(self.vertex_ids)

    @cached_property
    def hull_basis(self) -> cl.SubspaceBasis:
        return cl.SubspaceBasis(self.frame.shape[1] // 2, self.frame)


@dataclass(frozen=True, eq=False)
class Polytope:
    """Immutable polytope: vertex rows plus the computed face lattice, every face
    addressed by its position (k, i) in the sorted vertex-id tuples ``faces.ids[k]``."""

    ambient_n: int
    vertices: np.ndarray  # (V, 2n), Qhull's vertices: the 0-faces (``faces.ids[0]``) and any
    # other boundary point Qhull kept under the tolerance
    source: np.ndarray  # (V,) the index of the input row of ``hull`` each vertex row copies
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
    """Indices, ascending, of the points less each one within Chebyshev distance
    eps * scale of an earlier kept point: exact duplicates by one ``np.unique`` of the
    rows' bytes (each keeps its first), then one k-d-tree pair query and a greedy
    pass over the close pairs only.  An exact duplicate is always dropped, and a
    dropped point drops no other, so the first step keeps the greedy result."""
    rows = np.ascontiguousarray(points)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    first = np.sort(np.unique(keys, return_index=True)[1])
    scale_ = max(1.0, float(np.abs(points).max()))
    pairs = cKDTree(points[first]).query_pairs(eps * scale_, p=np.inf, output_type="ndarray")
    dropped = [False] * len(first)
    for i, j in pairs[np.argsort(pairs[:, 1], kind="stable")].tolist():
        dropped[j] = dropped[j] or not dropped[i]
    return first[~np.array(dropped, dtype=bool)]


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


# One dimension's face data in ``ids[k]`` order, from ``_face_data``.
_Batch = namedtuple("_Batch", "vol rho frames prod zframes zprod at")


def _face_data(vertices: np.ndarray, ids: dict, arrays: dict, bases: dict | None,
               below: _Batch, k: int, tol: Tolerance) -> _Batch:
    """The k-faces' batch, k >= 1: each face extends a (k-1)-face G of ``below`` by one
    ``cl.gram_schmidt_step`` of an edge, scaled by 2**-e (e of the coordinate ranges) so no
    product over- or underflows.  A simplex F = (v_0, ..., v_k), row of ``arrays[k]`` (``at``
    maps rows to positions), steps v_k - v_0 off G = F[:-1]: prod r = G's times r and vol_k =
    prod r / k!, as ``cl.gram_schmidt`` over F's edges from v_0.  Any other F is the union of
    the pyramids with apex F[0] over its (k-1)-faces G that miss F[0] (``bases[F]``; Lasserre,
    J. Optim. Theory Appl. 39, 1983): vol_k(F) = sum r vol_{k-1}(G) / k; F extends its first G.
    For k <= n the complexified new row steps off G's ``zframes`` (cutoff tol.eps): rho =
    min(zprod, 1), zprod = G's times r**2 or 0, as ``cl.batch_rho``; rho = 0 for k > n.
    All bit for bit."""
    level, simplices, n2 = ids[k], arrays[k], vertices.shape[1]
    count, exponent = len(level), _exponent(np.ptp(vertices, axis=0))
    simplex = np.ones(count, bool) if len(simplices) == count else np.array(
        [len(f) == k + 1 for f in level])
    at, other = np.flatnonzero(simplex), np.flatnonzero(~simplex).tolist()
    g = below.at[_row_lookup(arrays[k - 1], simplices[:, :-1])[0]]
    apex, g0, first = simplices[:, -1], simplices[:, 0], slice(None)
    if other:  # each pyramid's (face, G, apex, g_0), its step after the simplices'
        index = {f: i for i, f in enumerate(ids[k - 1])}
        tops = np.array([(i, index[b], level[i][0], b[0])
                         for i in other for b in bases[level[i]]]).T
        g, apex, g0 = (np.concatenate(pair) for pair in zip((g, apex, g0), tops[1:]))
        first = np.unique(np.concatenate([at, tops[0]]), return_index=True)[1]
        top = first[first >= len(at)]  # the pyramid steps whose rows go into a frame
    q, row = below.frames[g], np.ldexp(vertices[apex] - vertices[g0], -exponent)[:, None]
    r, m, prod = cl.gram_schmidt_step(q, row), len(at), np.ones(count)
    row[:m] *= np.divide(1.0, r[:m], out=np.zeros(m), where=r[:m] > 0)[:, None, None]
    prod[at] = below.prod[g[:m]] * r[:m]
    with np.errstate(over="ignore"):  # inf past the float range, as ``_qhull``'s volume
        vol = np.ldexp(prod, k * exponent) / math.factorial(k)
        if other:  # a simplex's row is scaled as in ``cl.gram_schmidt``, a pyramid's divided
            row[top] /= r[top, None, None]
            pyramids = np.bincount(tops[0], r[m:] * np.array(below.vol)[tops[1]], count)
            vol[~simplex] = (np.ldexp(pyramids, exponent) / k)[~simplex]
    base, frames = g[first], np.concatenate([q[first], row[first]], axis=1)
    zframes, zprod = None, np.zeros(count)
    if 2 * k <= n2:
        zq, z = below.zframes[base], frames[:, -1:, 0::2] + 1j * frames[:, -1:, 1::2]
        r = cl.gram_schmidt_step(zq, z)
        z *= np.divide(1.0, r, out=np.zeros(len(r)), where=r > tol.eps)[:, None, None]
        zframes = np.concatenate([zq, z], axis=1)
        zprod = np.where(r > tol.eps, below.zprod[base] * (r * r), 0.0)
    return _Batch(vol.tolist(), np.minimum(zprod, 1.0).tolist(), frames, prod, zframes, zprod, at)


class _FaceLattice(Mapping):
    """Read-only map dimension -> faces over the vertex-id tuples ``ids`` of every face;
    ``data(k)`` gives the k-faces' vol_k and rho as columns, with no ``Face`` built.

    The lattice is checked against the Euler relation on construction.  The first read
    of a dimension k, by ``data`` or by ``[]``, runs its batch: vertices have vol 1, rho 1
    and an empty frame, the improper face (k = d) the given volume, the frame (rows) of
    E_Gamma and one ``cl.batch_rho``, and other faces extend the batch of dimension k - 1
    (``_face_data``), run first.  ``[]`` builds the ``Face`` objects from the batch.
    """

    def __init__(self, vertices: np.ndarray, lattice: dict[int, list[tuple[int, ...]]],
                 arrays: dict[int, np.ndarray], pyramids: dict[int, dict], d: int,
                 volume: float, frame: np.ndarray, tol: Tolerance) -> None:
        self.ids = {**dict(sorted(lattice.items())), d: [tuple(range(len(vertices)))]}
        _euler_check(self.ids, tol)
        self._vertices, self._arrays, self._pyramids = vertices, arrays, pyramids
        self._d, self._volume, self._frame, self._tol = d, volume, frame, tol
        self._data: dict[int, _Batch] = {}
        self._built: dict[int, list[Face]] = {}

    def _batch(self, k: int) -> _Batch:
        if k not in self._data:
            f, n2 = len(self.ids[k]), self._vertices.shape[1]
            if k == self._d:
                rho = cl.batch_rho(self._frame[None], self._tol)[0].tolist()
                self._data[k] = _Batch([self._volume], rho, self._frame[None], *[None] * 4)
            elif k == 0:
                self._data[k] = _Batch([1.0] * f, [1.0] * f, np.zeros((f, 0, n2)), np.ones(f),
                                       np.zeros((f, 0, n2 // 2), complex), np.ones(f), np.arange(f))
            else:
                self._data[k] = _face_data(self._vertices, self.ids, self._arrays,
                                           self._pyramids.get(k), self._batch(k - 1), k, self._tol)
        return self._data[k]

    def data(self, k: int) -> tuple[list[float], list[float]]:
        """vol_k and rho of every k-face, as two lists in ``ids[k]`` order (cached: every
        read returns the same lists)."""
        return self._batch(k)[:2]

    def __getitem__(self, k: int) -> list[Face]:
        faces = self._built.get(k)
        if faces is None:
            faces = self._built[k] = [Face(ids, k, v, r, q)
                                      for ids, v, r, q in zip(self.ids[k], *self._batch(k)[:3])]
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
    kept = _dedupe(pts, tol.eps)
    pts = pts[kept]
    center, basis_rows = _affine_frame(pts, tol)
    d = basis_rows.shape[0]
    span = cl.SubspaceBasis(n, basis_rows)

    if d == 0:
        rows, lattice, arrays, pyramids, volume = [0], {}, {}, {}, 1.0
        facet_ids, facet_normals = (), np.zeros((0, dim2n))
    else:
        coords = (pts - center) @ basis_rows.T
        if d == 1:
            order = np.argsort(coords[:, 0])
            rows = [order[0], order[-1]]
            volume = float(coords[order[-1], 0] - coords[order[0], 0])
            # Rank 1 puts the first coordinate strictly below the last after the sort.
            lattice, arrays, pyramids = {0: [(0,), (1,)]}, {0: np.array([[0], [1]])}, {}
            facet_ids, facet_normals = ((0,), (1,)), np.array([-basis_rows[0], basis_rows[0]])
        else:
            qh, exponent, volume = _qhull(coords)
            rows = np.sort(qh.vertices)
            facet_sets = _facet_sets(coords, qh, exponent, tol.eps)
            lattice, arrays, pyramids = _lattice(list(facet_sets), d)
            facet_ids = tuple(facet_sets)
            facet_normals = np.array(list(facet_sets.values())) @ basis_rows
    vertices = pts[rows]
    faces = _FaceLattice(vertices, lattice, arrays, pyramids, d, volume, basis_rows, tol)
    return Polytope(n, vertices, kept[rows], faces, d, span, center, facet_ids, facet_normals,
                    tol)


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
    S = ``minkowski_sum(parts)``: ``S.source`` is its row of ``_sum_points``.

    Every 0-face of a sum is the sum of exactly one vertex of each summand, so its row
    is that decomposition.  ``hull`` also keeps any other point Qhull returns as a
    vertex (``[-1,1]^6 + [-1,1]^6`` has 76 vertex rows and 64 0-faces); such a point
    may be a sum in more than one way, and its row is the first of them.
    """
    return np.stack(np.unravel_index(S.source, [p.n_vertices for p in parts]), axis=1)


def _row_lookup(table: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of wanted, the index of the first equal row of table and whether there
    is one: one sort of the rows' bytes as void keys and a bisection."""
    table, wanted = np.ascontiguousarray(table), np.ascontiguousarray(wanted)
    row = np.dtype((np.void, table.itemsize * table.shape[1]))
    keys, first = np.unique(table.view(row).ravel(), return_index=True)
    pos = np.minimum(np.searchsorted(keys, want := wanted.view(row).ravel()), len(keys) - 1)
    return first[pos], keys[pos] == want


def _summand_positions(S: Polytope, parts: list[Polytope],
                       k: int) -> tuple[np.ndarray, np.ndarray]:
    """Dimension and index, two (faces, m) int arrays in ``S.faces.ids[k]`` order, of the
    face ``parts[l].faces.ids[dim][index]`` whose vertex set is the l-th ``_sum_labels``
    of each k-face's vertices, where it is the summand face of ``summand_faces``; -1
    in both where a set is no face.  One lookup per summand of the sets'
    ``np.packbits`` keys among those of all its faces; no ``Face`` built."""
    ids = S.faces.ids.get(k, [])
    sizes = [len(t) for t in ids]
    rows = np.repeat(np.arange(len(ids)), sizes)
    labels = _sum_labels(S, parts)[np.fromiter(itertools.chain.from_iterable(ids), np.intp,
                                                sum(sizes))]
    dims, index = np.full((2, len(ids), len(parts)), -1)
    for l, p in enumerate(parts):
        member = np.zeros((len(ids), p.n_vertices), dtype=bool)
        member[rows, labels[:, l]] = True
        every = [t for level in p.faces.ids.values() for t in level]
        pos, found = _row_lookup(np.packbits(_membership(every, p.n_vertices) != 0, axis=1),
                                 np.packbits(member, axis=1))
        where = np.array([(j, i) for j, level in p.faces.ids.items() for i in range(len(level))])
        dims[found, l], index[found, l] = where[pos[found]].T
    return dims, index


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
