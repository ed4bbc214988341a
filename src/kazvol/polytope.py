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
    centroid: np.ndarray
    facet_ids: list[tuple[int, ...]]  # ``faces.ids[d - 1]``: facet j is the face (d - 1, j)
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
        """The face with these vertex ids, in any order; builds only its dimension."""
        key = sorted({int(i) for i in ids})
        if (at := self._locate(key)) is None:
            raise FaceNotFound(key)
        return self.faces[at[0]][at[1]]

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


def _membership(id_sets: list, count: int, dtype: type = np.float32) -> np.ndarray:
    """(len(id_sets), count) 0/1 rows, row i marking the ids of set i."""
    sizes = [len(ids) for ids in id_sets]
    out = np.zeros((len(sizes), count), dtype=dtype)
    out[np.repeat(np.arange(len(sizes)), sizes), [v for ids in id_sets for v in ids]] = 1
    return out


def _members(mask: np.ndarray) -> list[tuple[int, ...]]:
    """Row i of a 0/1 matrix as the sorted tuple of its nonzero columns (the inverse of
    ``_membership``), from one ``nonzero`` over the whole matrix."""
    rows, cols = np.nonzero(mask)
    ends = np.searchsorted(rows, np.arange(len(mask)), "right").tolist()
    flat = cols.tolist()
    return [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]


def _dedupe(points: np.ndarray, eps: float) -> np.ndarray:
    """Indices, ascending, of the points less each one within Chebyshev distance
    eps * scale of an earlier kept point: exact duplicates by one ``np.unique`` of the
    rows' bytes (each keeps its first), then one k-d-tree pair query and a greedy
    pass over the close pairs only.  An exact duplicate is always dropped, and a
    dropped point drops no other, so the first step keeps the greedy result."""
    first = np.sort(np.unique(_void(points), return_index=True)[1])
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
                eps: float) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The facets' vertex ids, sorted (the order of ``_lattice``'s (d-1)-faces), and their
    outer unit normals (in the projected coordinates) in that order.

    Qhull ran on coords times 2**-exponent.  Vertex ids number Qhull's vertices in index
    order, and only those rows can be facet ids, so the on-plane test runs on them alone:
    each equation's vertices on its plane (within 10 eps scale, scale over every row) are
    one ``_pack`` key, taken in chunks of about 2**20 vertex-equation pairs.  Qhull
    triangulates non-simplicial facets, so one facet can come as many equations: the keys
    are deduped once, in equation order, and each vertex set keeps the normal of its first
    equation.  A facet bent within eps can also come with sliver facets along its ridges;
    their vertex sets lie inside a real facet's set, so only the inclusion-maximal sets
    are kept, each one facet (``a & ~b`` is zero where a lies in b, in chunks of about
    2**20 words).  A set that lies strictly inside another has at least d vertices, so it
    is only compared with the sets of more than d.
    """
    scale_ = max(1.0, float(np.abs(coords).max()))
    coords = coords[np.sort(qhull.vertices)]
    step, eqs = max(1, 2**20 // len(coords)), qhull.equations
    keys = np.concatenate([_pack(np.abs(coords @ e[:, :-1].T + np.ldexp(e[:, -1], exponent)).T
                                 <= eps * scale_ * 10)
                           for e in (eqs[s:s + step] for s in range(0, len(eqs), step))])
    first = np.sort(np.unique(_void(keys), return_index=True)[1])
    words = np.ascontiguousarray(keys[first].T)  # word-major: ANDs and reductions run along sets
    size = np.bitwise_count(words).sum(axis=0)
    big = size > coords.shape[1]
    outside, bigger = ~words[:, big, None], size[big, None]
    kept, step = np.ones(len(first), bool), max(1, 2**20 // max(1, outside.size))
    for s in range(0, len(first), step):  # no set lies strictly inside a bigger one
        inside = ~(words[:, None, s:s + step] & outside).any(axis=0)
        kept[s:s + step] = ~(inside & (size[s:s + step] < bigger)).any(axis=0)
    ids = _members(np.unpackbits(keys[first[kept]].view(np.uint8), axis=1, count=len(coords)))
    normals = eqs[first[kept], :-1]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [ids[i] for i in order], (normals / np.linalg.norm(normals, axis=1)[:, None])[order]


def _pack(rows: np.ndarray) -> np.ndarray:
    """Boolean rows as packed uint64 bit rows, ceil(columns / 64) words each, one code
    path for every width: row i's key holds column v at bit 7 - v % 8 of byte v // 8
    (``np.packbits``)."""
    bits = np.packbits(rows, axis=1)
    out = np.zeros((len(bits), -(-bits.shape[1] // 8) * 8), np.uint8)
    out[:, :bits.shape[1]] = bits
    return out.view(np.uint64)


def _void(keys: np.ndarray) -> np.ndarray:
    """The rows of a 2-d array as one void scalar each, for ``np.unique`` of rows."""
    keys = np.ascontiguousarray(keys)
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()


def _lattice(facets: list[tuple[int, ...]], d: int) -> tuple[
        dict[int, list[tuple[int, ...]]], dict[int, np.ndarray],
        dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Sorted vertex-id tuples of the proper faces, by dimension, from the (sorted) facets
    down; each dimension k's simplices as one (m, k + 1) int array, in the same order;
    and by dimension k, each other face's position in ``ids[k]`` paired with that of each
    of its (k-1)-faces in ``ids[k - 1]``, sorted by face, then (k-1)-face (``_face_data``).

    A k-face with k + 1 vertices is a simplex: its (k-1)-faces are its one-vertex
    deletions, all of a dimension from one fancy index through a table of k-column
    subsets, which ``_unique_rows`` sorts and dedupes at once.  The (k-1)-faces of any
    other k-face F are the inclusion-maximal proper sets F & g over the facets g
    (Kaibel & Pfetsch, Comput. Geom. 23, 2002), found on ``_pack`` rows by
    ``_closure_step``: those with k vertices join the simplex array before it is
    deduped, and the others are the next dimension's non-simplex faces.
    """
    radix = 1 + max(ids[-1] for ids in facets)
    out = {d - 1: sorted(dict.fromkeys(facets))}  # linear on ``_facet_sets``' sorted ids
    simplices = np.array([f for f in out[d - 1] if len(f) == d], dtype=np.int64).reshape(-1, d)
    at = np.array([i for i, f in enumerate(out[d - 1]) if len(f) != d], dtype=np.intp)
    arrays, subfaces = {d - 1: simplices}, {}
    if len(at):
        packed = _pack(_membership(out[d - 1], radix, bool))
        others, size = packed[at], np.array([len(out[d - 1][i]) for i in at])
    for k in range(d - 1, 0, -1):
        found = np.zeros((0, k), np.int64)
        if len(at):
            keys, size, face, index = _closure_step(others, size, packed, k)
            rows = np.unpackbits(keys.view(np.uint8), axis=1, count=radix)
            simplex = size == k
            found = np.nonzero(rows[simplex])[1].reshape(-1, k)
        simplices = _unique_rows(np.concatenate(
            [simplices[:, list(itertools.combinations(range(k + 1), k))].reshape(-1, k),
             found]), radix)
        out[k - 1] = faces = list(zip(*simplices.T.tolist()))
        arrays[k - 1] = simplices
        if len(at):
            other = ~simplex
            tops = _members(rows[other])
            if tops:
                out[k - 1] = faces = sorted(faces + tops)
            position = dict(zip(faces, range(len(faces))))
            where = np.empty(len(keys), np.intp)  # each key's position in ids[k - 1]
            where[simplex] = [position[f] for f in zip(*found.T.tolist())]
            where[other] = [position[f] for f in tops]
            subfaces[k] = np.divmod(np.sort(at[face] * len(faces) + where[index]), len(faces))
            at, others, size = where[other], keys[other], size[other]
    return out, arrays, subfaces


def _closure_step(faces: np.ndarray, size: np.ndarray, facets: np.ndarray, k: int) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (k-1)-faces of non-simplex k-faces F, from the ``_pack`` rows and sizes of the
    faces and the ``_pack`` rows of the facets: their distinct keys and sizes, and each
    pair of a face F's row and the key row of one of its (k-1)-faces, sorted by F.

    One AND of the rows gives every F & g and its size; a (k-1)-face has at least k
    vertices and a smaller set lies in one that has, so the candidates are those with
    k <= |F & g| < |F|.  They are deduped over all F, then per F.  Only a candidate
    smaller than the largest of its F can lie strictly inside another (none does on a
    cube, whose candidates in one F are all alike), so only those are tested against the
    others of their F (a lies in b where ``a & ~b`` is zero); one that lies inside is
    dropped."""
    n, width = facets.shape
    step, i, cands, most = max(1, 2**20 // facets.size), [], [], []
    for s in range(0, len(size), step):
        both = faces[s:s + step, None] & facets
        count = np.bitwise_count(both).sum(axis=2)
        count[count >= size[s:s + step, None]] = 0
        most.append(count.max(axis=1))
        at = np.flatnonzero(count >= k)
        i.append(at // n + s)
        cands.append(both.reshape(-1, width)[at])
    i, cands, most = np.concatenate(i), np.concatenate(cands), np.concatenate(most)
    order = np.lexsort(cands.T)  # np.unique(return_inverse) of the void rows: 1.6-2x as long
    cands = cands[order]
    new = np.ones(len(order), bool)
    new[1:] = (cands[1:] != cands[:-1]).any(axis=1)
    keys = cands[new]
    pair = np.sort(i[order] * len(keys) + np.cumsum(new) - 1)  # per F (np.unique: 4-13x as long)
    new = np.ones(len(pair), bool)
    new[1:] = pair[1:] != pair[:-1]
    pair = pair[new]
    i = pair // len(keys)
    key = pair - i * len(keys)
    size = np.bitwise_count(keys).sum(axis=1)
    a = np.flatnonzero(size[key] < most[i])  # only these can lie inside another of their F
    if len(a):
        start = np.searchsorted(i, i[a])
        count = np.searchsorted(i, i[a], "right") - start
        b = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - start, count)
        a = np.repeat(a, count)
        smaller = size[key[a]] < size[key[b]]
        a, b = a[smaller], b[smaller]
        kept = np.ones(len(i), bool)
        kept[a[~(keys[key[a]] & ~keys[key[b]]).any(axis=1)]] = False
        below = np.zeros(len(keys), bool)
        below[key[kept]] = True
        keys, size, i, key = keys[below], size[below], i[kept], (np.cumsum(below) - 1)[key[kept]]
    return keys, size, i, key


def _unique_rows(rows: np.ndarray, radix: int) -> np.ndarray:
    """The distinct rows of an int array with entries below ``radix``, in lexicographic
    order.  Each row packs into one int64 key in mixed radix ``radix``, whose order is
    the rows': one sort of the keys, a compare of neighbours and a decode of the digits.
    Where radix**width reaches 2**63 a key would overflow, so the rows take one
    ``np.lexsort`` and a compare of adjacent rows instead (the slower path: used for
    every width, it made the ``lattice`` benchmark's tta_s about a fifth longer)."""
    width = rows.shape[1]
    if not len(rows):
        return rows
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


def _face_data(vertices: np.ndarray, ids: dict, arrays: dict,
               subfaces: tuple[np.ndarray, np.ndarray] | None,
               below: _Batch, k: int, exponent: int, tol: Tolerance) -> _Batch:
    """The k-faces' batch, k >= 1, by one rule: F is the union of the pyramids with apex
    v = F[-1] over its (k-1)-faces G that miss v, G[-1] != F[-1] (Lasserre, J. Optim. Theory
    Appl. 39, 1983).  A simplex, row of ``arrays[k]`` (``at`` maps rows to positions), has
    one, F[:-1]; any other F has them among ``subfaces``, all its (k-1)-faces.  Each pyramid
    is one ``cl.gram_schmidt_step`` of v - G[0] off G's frame in ``below``, scaled by
    2**-exponent (e of the coordinate ranges) so no product over- or underflows: prod = k!
    vol_k = sum r prod(G), for a simplex prod r as ``cl.gram_schmidt`` over its edges from
    F[0].  F extends its first G.  For k <= n the complexified new row steps off G's
    ``zframes`` (cutoff tol.eps): rho = min(zprod, 1), zprod = G's times r**2 or 0, as
    ``cl.batch_rho``; rho = 0 for k > n.  All bit for bit."""
    simplices, count, n2, first = arrays[k], len(ids[k]), vertices.shape[1], slice(None)
    at = (np.arange(count) if subfaces is None
          else np.flatnonzero(np.bincount(subfaces[0], minlength=count) == 0))
    steps = (at, below.at[_row_lookup(arrays[k - 1], simplices[:, :-1])[0]],
             simplices[:, -1], simplices[:, 0])  # each pyramid's F, G, v and G[0]
    if subfaces is not None:
        last = np.array([f[-1] for f in ids[k]])
        g0, g1 = np.array([[f[0] for f in ids[k - 1]], [f[-1] for f in ids[k - 1]]])
        face, g = (b[g1[subfaces[1]] != last[subfaces[0]]] for b in subfaces)
        steps = [np.concatenate(pair) for pair in zip(steps, (face, g, last[face], g0[g]))]
        first = np.unique(steps[0], return_index=True)[1]
    face, g, apex, g0 = steps
    q, row = below.frames[g], np.ldexp(vertices[apex] - vertices[g0], -exponent)[:, None]
    r = cl.gram_schmidt_step(q, row)
    prod = np.bincount(face, r * below.prod[g], count)
    with np.errstate(over="ignore"):  # inf past the float range, as ``_qhull``'s volume
        vol = np.ldexp(prod, k * exponent) / math.factorial(k)
    base, frames = g[first], np.concatenate([q[first], row[first]], axis=1)
    zframes, zprod = None, np.zeros(count)
    if 2 * k <= n2:
        zq, z = below.zframes[base], cl.real_to_complex(frames[:, -1:])
        r = cl.gram_schmidt_step(zq, z, tol.eps)
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
                 arrays: dict[int, np.ndarray], subfaces: dict[int, tuple], d: int,
                 volume: float, frame: np.ndarray, tol: Tolerance) -> None:
        self.ids = {**dict(sorted(lattice.items())), d: [tuple(range(len(vertices)))]}
        _euler_check(self.ids, tol)
        self._vertices, self._arrays, self._subfaces = vertices, arrays, subfaces
        self._d, self._volume, self._frame, self._tol = d, volume, frame, tol
        self._data: dict[int, _Batch] = {}
        self._built: dict[int, list[Face]] = {}

    @cached_property
    def _edge_exponent(self) -> int:
        """The e of the coordinate ranges, by which ``_face_data`` scales every edge."""
        return _exponent(np.ptp(self._vertices, axis=0))

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
                                           self._subfaces.get(k), self._batch(k - 1), k,
                                           self._edge_exponent, self._tol)
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

    if d == 0:
        rows, lattice, arrays, subfaces, volume = [0], {}, {}, {}, 1.0
        facet_normals = np.zeros((0, dim2n))
    else:
        coords = (pts - center) @ basis_rows.T
        if d == 1:
            order = np.argsort(coords[:, 0])
            rows = [order[0], order[-1]]
            volume = float(coords[order[-1], 0] - coords[order[0], 0])
            # Rank 1 puts the first coordinate strictly below the last after the sort.
            lattice, arrays, subfaces = {0: [(0,), (1,)]}, {0: np.array([[0], [1]])}, {}
            facet_normals = np.array([-basis_rows[0], basis_rows[0]])
        else:
            qh, exponent, volume = _qhull(coords)
            rows = np.sort(qh.vertices)
            facet_ids, facet_normals = _facet_sets(coords, qh, exponent, tol.eps)
            lattice, arrays, subfaces = _lattice(facet_ids, d)
            facet_normals = facet_normals @ basis_rows
    vertices = pts[rows]
    faces = _FaceLattice(vertices, lattice, arrays, subfaces, d, volume, basis_rows, tol)
    return Polytope(n, vertices, kept[rows], faces, d, center, faces.ids.get(d - 1, ()),
                    facet_normals, tol)


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
    if (at := P._locate(members)) is None:
        # Tolerance artifact: fall back to the smallest face containing the set, the
        # intersection of the facets through it (every vertex, P itself, if there are none).
        rows = P._incidence[P._incidence[:, members].all(axis=1)]
        return h, P.face_by_ids(np.flatnonzero(rows.all(axis=0)))
    return h, P.faces[at[0]][at[1]]


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
    return hull(_sum_points([p.vertices for p in parts]), tol)


def _sum_points(points: list[np.ndarray]) -> np.ndarray:
    """The sums of one row of each array, row i1 * N2 * ... * Nm + ... + im for the rows
    i1, ..., im: on the summands' vertices, the rows from which ``minkowski_sum`` takes
    its hull."""
    acc = points[0]
    for p in points[1:]:
        acc = (acc[:, None, :] + p[None, :, :]).reshape(-1, acc.shape[1])
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
    keys, first = np.unique(_void(table), return_index=True)
    pos = np.minimum(np.searchsorted(keys, want := _void(wanted)), len(keys) - 1)
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
        pos, found = _row_lookup(np.packbits(_membership(every, p.n_vertices, bool), axis=1),
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
