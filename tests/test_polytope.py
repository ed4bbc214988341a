import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kazvol import (
    AnglePass,
    DimensionCapExceeded,
    EmptyInput,
    FaceNotFound,
    RandomStream,
    hull,
    load_polytope,
    minkowski_sum,
    outer_angle,
    pseudovolume,
    random_unitary,
    realify,
    split,
    summand_faces,
    support,
)
from kazvol import complex_linalg as cl
from kazvol.cli import EXIT_OK, main
from kazvol.numerics import DEFAULT_TOLERANCE, Tolerance
from kazvol import polytope as pt
from kazvol.polytope import _dedupe, convex_volume

from conftest import SAMPLES, random_polytope

DATA = Path(__file__).resolve().parents[1] / "data"


class TestConvexVolume:
    def test_point(self):
        assert convex_volume(np.zeros((1, 0))) == 1.0

    def test_segment(self):
        assert convex_volume(np.array([[0.0], [3.0]])) == pytest.approx(3.0)

    def test_square(self):
        pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        assert convex_volume(pts) == pytest.approx(1.0)

    def test_degenerate(self):
        pts = np.array([[0, 0], [1, 1], [2, 2]], dtype=float)
        assert convex_volume(pts) == 0.0


class TestHugeCoordinates:
    """Coordinates past 2**±64 reach Qhull scaled by a power of two, in ``hull`` and in
    ``convex_volume``; a ℂ² cloud at 1e60 to 1e100 once raised Qhull's "flat initial
    simplex" error (and ``convex_volume`` read it as volume 0)."""

    CLOUD = np.random.default_rng(8).normal(size=(10, 4))

    @pytest.mark.parametrize("scale", [1e60, 1e70, 1e80, 1e100])
    def test_scaled_cloud_keeps_its_lattice_and_volume(self, scale):
        P0, P = hull(self.CLOUD), hull(self.CLOUD * scale)
        assert P.face_vector() == P0.face_vector()
        assert P.faces.ids == P0.faces.ids
        want = Fraction(P0.improper_face.volume_k) * Fraction(scale) ** 4
        if want < Fraction(sys.float_info.max):
            assert P.improper_face.volume_k == pytest.approx(float(want), rel=1e-12)
        else:
            assert P.improper_face.volume_k == math.inf
        assert convex_volume(self.CLOUD * 1e60) == pytest.approx(
            convex_volume(self.CLOUD) * 1e240, rel=1e-12)

    @pytest.mark.parametrize("case", ["cube4", "theta4 + cube4"])
    @pytest.mark.parametrize("scale", [1e60, 1e100, 1e120, 1e160, 1e200])
    def test_scaled_face_data(self, case, scale):
        """vol_k of every face, squares and cubes from the pyramid step included, scales
        by scale**k (inf past the float range) and rho stays."""
        points = CUBE4 if case == "cube4" else _sum_points(THETA4, CUBE4)
        P0, P = hull(points), hull(points * scale)
        assert P.faces.ids == P0.faces.ids
        for k in P0.faces:
            (vol0, rho0), (vol, rho) = P0.faces.data(k), P.faces.data(k)
            for v0, v in zip(vol0, vol):
                want = Fraction(v0) * Fraction(scale) ** k
                if want < Fraction(sys.float_info.max):
                    assert v == pytest.approx(float(want), rel=1e-12), (k, v0)
                else:
                    assert v == math.inf, (k, v0)
            assert rho == pytest.approx(rho0, rel=1e-12, abs=1e-12), k


class TestHull:
    def test_square_face_vector(self, square_c1):
        assert square_c1.face_vector() == [4, 4, 1]

    def test_cube4_face_vector(self, cube4):
        assert cube4.face_vector() == [16, 32, 24, 8, 1]

    def test_theta4_face_vector(self, theta4):
        assert theta4.face_vector() == [8, 24, 32, 16, 1]

    def test_theta3_face_vector(self, theta3):
        # Octahedron embedded with d = 3 < 4 ambient real dimensions.
        assert theta3.dim_real == 3
        assert theta3.face_vector() == [6, 12, 8, 1]

    def test_simplex_volumes(self):
        # Standard simplex conv{0, e_1, ..., e_4} in R^4: vol = 1/4!.
        pts = np.vstack([np.zeros(4), np.eye(4)])
        P = hull(pts)
        assert P.improper_face.volume_k == pytest.approx(1 / math.factorial(4))

    def test_regular_simplex_face_volume(self):
        # conv{e_1, ..., e_{k+1}} has k-volume sqrt(k+1)/k!.
        for k in (1, 2, 3):
            pts = np.eye(k + 1)
            if pts.shape[1] % 2:
                pts = np.hstack([pts, np.zeros((k + 1, 1))])
            P = hull(pts)
            expected = math.sqrt(k + 1) / math.factorial(k)
            assert P.improper_face.volume_k == pytest.approx(expected, rel=1e-9)

    def test_euler_relation(self, cube4, theta4, theta3):
        for P in (cube4, theta4, theta3):
            fv = P.face_vector()
            alt = sum((-1) ** k * c for k, c in enumerate(fv[:-1]))
            assert alt == 1 - (-1) ** P.dim_real

    def test_dedupe(self):
        P = hull(np.array([[0, 0], [0, 0], [1, 0], [0, 1], [1, 1]], dtype=float))
        assert P.n_vertices == 4

    def test_point_polytope(self):
        P = hull(np.array([[0.5, 0.5]]))
        assert P.dim_real == 0
        assert P.improper_face.volume_k == 1.0

    def test_segment(self):
        P = hull(np.array([[0, 0], [2, 0]], dtype=float))
        assert P.dim_real == 1
        assert P.improper_face.volume_k == pytest.approx(2.0)
        assert P.face_vector() == [2, 1]
        for Q in (P, hull(np.array([[3.0, 1.0], [0.0, 0.0], [1.0, 1 / 3]]))):
            # each end's facet normal points away from the other
            for ids, normal in zip(Q.facet_ids, Q.facet_normals):
                (i,) = ids
                assert normal @ (Q.vertices[i] - Q.vertices[1 - i]) > 0

    def test_idempotent(self, theta4):
        again = hull(theta4.vertices)
        assert again.face_vector() == theta4.face_vector()

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapExceeded):
            hull(np.eye(10))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            hull(np.zeros((0, 4)))

    def test_odd_columns_rejected(self):
        with pytest.raises(ValueError):
            hull(np.zeros((3, 3)))


class TestSupport:
    def test_vertex(self, square_c1):
        h, f = support(square_c1, np.array([1.0, 0.0]))
        assert h == pytest.approx(1.0)
        assert f.k == 0

    def test_edge(self, square_c1):
        u = np.array([1.0, 1.0]) / math.sqrt(2)
        h, f = support(square_c1, u)
        assert h == pytest.approx(1 / math.sqrt(2), rel=1e-9)
        assert f.k == 1

    def test_homogeneous(self, cube4):
        u = np.array([1.0, 2.0, -1.0, 0.5])
        h1, _ = support(cube4, u)
        h2, _ = support(cube4, 3 * u)
        assert h2 == pytest.approx(3 * h1)

    def test_face_maximizes(self, theta4):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.normal(size=4)
            h, f = support(theta4, u)
            vals = theta4.vertices @ u
            assert h == pytest.approx(vals.max(), rel=1e-12)
            for vid in f.vertex_ids:
                assert vals[vid] == pytest.approx(h, abs=1e-9)

    def test_fallback_to_facet_intersection(self):
        # B lies 2e-9 above the segment AC: Qhull keeps it as a vertex, but within
        # the facet tolerance A, B and C share one facet, so {B} is no face of
        # the lattice and the exposed set in direction i falls back to that facet.
        pts = np.array([[-1, 0], [0, 2e-9], [1, 0], [0, -1]], dtype=float)
        P = hull(pts)
        ids = {tuple(p): i for i, p in enumerate(P.vertices.tolist())}
        a, b, c = (ids[tuple(p)] for p in pts[:3].tolist())
        assert P._find([b]) is None
        h, f = support(P, np.array([0.0, 1.0]))
        assert h == pytest.approx(2e-9, rel=1e-12)
        assert f.vertex_ids == tuple(sorted((a, b, c)))
        assert f.k == 1

    def test_zero_direction_exposes_the_polytope(self, theta3):
        h, f = support(theta3, np.zeros(4))
        assert h == 0.0 and f is theta3.improper_face

    @pytest.mark.parametrize("u", [[np.nan, 0.0], [np.inf, 1.0], [0.0, -np.inf]])
    def test_non_finite_direction_is_named(self, square_c1, u):
        with pytest.raises(ValueError, match="direction"):
            support(square_c1, np.array(u))

    def test_huge_finite_direction_exposes_the_vertex(self, square_c1):
        """|u| = 1e200 squares past the float range, but u is finite and exposes a vertex."""
        h, f = support(square_c1, np.array([1e200, 0.0]))
        assert h == 1e200
        assert f.k == 0 and np.array_equal(square_c1.vertices[f.vertex_ids[0]], [1.0, 0.0])

    @pytest.mark.parametrize("u", [[1e308, 0.0], [1.5e308, 1.5e308]])
    def test_direction_past_the_float_range_is_rejected(self, u):
        """<v, u> overflows for the first two vertices (exposed face: the vertex (2, 0),
        not the edge that two infs would tie); |u| of the second overflows itself."""
        P = hull(np.array([[2.0, 0.0], [1.9, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="direction"):
            support(P, np.array(u))


class TestMinkowskiSum:
    def test_square_sum(self):
        a = hull(np.array([[0, 0], [1, 0]], dtype=float))
        b = hull(np.array([[0, 0], [0, 1]], dtype=float))
        s = minkowski_sum([a, b])
        assert s.dim_real == 2
        assert s.improper_face.volume_k == pytest.approx(1.0)

    def test_summand_spans(self):
        rng = np.random.default_rng(3)
        a = random_polytope(rng, 5)
        b = random_polytope(rng, 5)
        s = minkowski_sum([a, b])
        for f in s.all_faces():
            fa, fb = summand_faces(s, [a, b], f)
            # Face of the sum decomposes as the sum of its summand faces.
            va = a.vertices[sorted(fa.id)]
            vb = b.vertices[sorted(fb.id)]
            pts = (va[:, None, :] + vb[None, :, :]).reshape(-1, 4)
            got = s.vertices[sorted(f.id)]
            for g in got:
                assert min(np.linalg.norm(pts - g, axis=1)) < 1e-8

    def test_sum_keeps_the_summands_tolerance(self):
        # Under 1e-6 the sum's four points lie within 1e-5 of a line; under 1e-9 they do not.
        tol = Tolerance(1e-6)
        segments = [np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 5e-7]])]
        s = minkowski_sum([hull(p, tol) for p in segments])
        assert s.tol == tol and s.dim_real == 1
        assert minkowski_sum([hull(p) for p in segments]).dim_real == 2

    def test_summands_under_two_tolerances_rejected(self, square_c1):
        with pytest.raises(ValueError, match="one tolerance"):
            minkowski_sum([square_c1, hull(square_c1.vertices, Tolerance(1e-6))])

    def test_volume_superadditive(self):
        rng = np.random.default_rng(4)
        a = random_polytope(rng, 6)
        b = random_polytope(rng, 6)
        s = minkowski_sum([a, b])
        assert s.improper_face.volume_k >= (
            a.improper_face.volume_k + b.improper_face.volume_k - 1e-12)


class TestTransforms:
    def test_scale_volume(self, cube4):
        assert hull(cube4.vertices * 0.5).improper_face.volume_k == pytest.approx(1.0)

    def test_translate_invariance(self, theta4):
        t = hull(theta4.vertices + np.array([1.0, -2.0, 0.5, 3.0]))
        assert t.face_vector() == theta4.face_vector()
        assert t.improper_face.volume_k == pytest.approx(
            theta4.improper_face.volume_k)

    def test_split_volume_additive(self):
        rng = np.random.default_rng(6)
        for i in range(5):
            P = random_polytope(rng, 7)
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            c = float(P.centroid @ u)
            plus, minus, zero = split(P, u, c)
            vol = sum(p.improper_face.volume_k for p in (plus, minus) if p is not None)
            assert vol == pytest.approx(P.improper_face.volume_k, rel=1e-7)
            if zero is not None:
                assert zero.dim_real < P.dim_real

    def test_split_pieces_keep_the_tolerance(self, cube4):
        tol = Tolerance(1e-6)
        P = hull(cube4.vertices, tol)
        pieces = split(P, np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
        assert all(p.tol == tol for p in pieces)

    def test_split_miss(self, square_c1):
        plus, minus, zero = split(square_c1, np.array([1.0, 0.0]), 5.0)
        assert plus is None
        assert minus.face_vector() == square_c1.face_vector()

    @pytest.mark.parametrize("u", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0], [0.0, -np.inf]])
    def test_split_rejects_a_zero_or_non_finite_normal(self, square_c1, u):
        with pytest.raises(ValueError, match="normal"):
            split(square_c1, np.array(u), 0.0)

    def test_split_by_a_huge_finite_normal(self, square_c1):
        got = split(square_c1, np.array([1e200, 1e200]), 0.0)
        want = split(square_c1, np.array([1.0, 1.0]), 0.0)
        for g, w in zip(got, want):
            assert np.array_equal(g.vertices, w.vertices)
            assert g.faces.ids == w.faces.ids

    def test_split_builds_no_edge(self, built):
        """The crossings come from the edges' id tuples: ``split`` builds no ``Face``
        of dimension 1 (nor of any other dimension) of the polytope it cuts."""
        P = hull(np.random.default_rng(304).normal(size=(12, 6)))
        plus, minus, _ = split(P, np.array([1.0, 2.0, 0.0, -1.0, 0.5, 0.0]), 0.1)
        assert plus is not None and minus is not None and built == []


class TestSerialization:
    def test_round_trip(self, theta4, tmp_path):
        path = tmp_path / "theta4.json"
        path.write_text(json.dumps({"n": 2, "vertices": theta4.vertices.tolist()}))
        again = load_polytope(path)
        assert again.face_vector() == theta4.face_vector()
        np.testing.assert_allclose(
            np.sort(again.vertices, axis=0), np.sort(theta4.vertices, axis=0))

    def test_rational_parsing(self):
        P = load_polytope({"n": 1, "vertices": [["1/2", 0], ["-1/2", 0], [0, "1/3"]]})
        assert P.n_vertices == 3

    def test_exact_dedup(self):
        # "1/3" and "2/6" parse to the same float, which the hull drops as a duplicate.
        P = load_polytope({"n": 1, "vertices": [["1/3", 0], ["2/6", 0], [1, 0], [0, 1]]})
        assert P.n_vertices == 3

    def test_inline_json(self):
        P = load_polytope(json.dumps({"n": 1, "vertices": [[0, 0], [1, 0]]}))
        assert P.dim_real == 1


# Inputs and seeds fixed before the lookup tests were first run.
LOOKUP_CASES = {
    "theta4": lambda: hull(np.vstack([np.eye(4), -np.eye(4)])),
    "cube4": lambda: hull(np.array(list(itertools.product([-1.0, 1.0], repeat=4)))),
    "gauss C3 seed 402": lambda: hull(np.random.default_rng(402).normal(size=(14, 6))),
}


class TestFaceLookup:
    def test_missing_face(self, square_c1):
        with pytest.raises(FaceNotFound):
            square_c1.face_by_ids([0, 2])

    @pytest.mark.parametrize("case", sorted(LOOKUP_CASES))
    def test_every_face_is_found_in_any_order(self, case):
        """Each face's ids, shuffled and with some repeated, as a list or an array."""
        P = LOOKUP_CASES[case]()
        rng = np.random.default_rng(401)
        for f in P.all_faces():
            ids = list(f.vertex_ids)
            mixed = rng.permutation(ids + ids[:int(rng.integers(1, len(ids) + 1))])
            assert P._find(f.vertex_ids) is f
            assert P._find(mixed.tolist()) is f and P._find(mixed) is f
            assert P.face_by_ids(mixed) is f

    def test_sets_that_are_no_faces(self, cube4, theta3):
        """Two opposite vertices of the cube, the empty set, an id out of range and all
        vertices of the lower-dimensional Theta_3 but one."""
        first = cube4.vertices[0]
        opposite = int(np.flatnonzero((cube4.vertices == -first).all(axis=1))[0])
        for P, ids in ((cube4, [0, opposite]), (cube4, []), (cube4, [cube4.n_vertices]),
                       (theta3, list(range(1, theta3.n_vertices)))):
            assert P._find(ids) is None, ids
            with pytest.raises(FaceNotFound):
                P.face_by_ids(ids)
        assert theta3.dim_real == 3 and theta3._find(range(6)) is theta3.improper_face


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_hull_euler_property(seed):
    """Alternating face count including the improper face is 1."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(3, 9)), 4))
    P = hull(pts)
    fv = P.face_vector()
    total = sum((-1) ** k * c for k, c in enumerate(fv))
    assert total == 1


def frozenset_lattice(P, tol=DEFAULT_TOLERANCE):
    """Oracle: the face lattice as the closure of the facet vertex sets under
    intersection, with each face's dimension, basis, volume and rho computed
    on its own (SVD rank, Qhull volume, ``cl.rho``).

    Returns {k: [(vertex ids, volume, rho), ...]} in the order ``hull`` must
    give: sorted by vertex ids within each dimension, improper face last.
    """
    facets = [frozenset(ids) for ids in P.facet_ids]
    all_ids = set(facets)
    frontier = set(facets)
    while frontier:
        new = set()
        for s in frontier:
            for t in facets:
                inter = s & t
                if inter and inter not in all_ids and inter not in new:
                    new.add(inter)
        all_ids |= new
        frontier = new
    top = frozenset(range(P.n_vertices))
    all_ids.add(top)
    out = {}
    for ids in all_ids:
        pts = P.vertices[sorted(ids)]
        basis = cl.SubspaceBasis.from_span(P.ambient_n, pts - pts[0], tol) if len(pts) > 1 \
            else cl.SubspaceBasis(P.ambient_n, np.zeros((0, 2 * P.ambient_n)))
        k = basis.d
        vol = convex_volume((pts - pts[0]) @ basis.vectors.T) if k > 0 else 1.0
        out.setdefault(k, []).append((tuple(sorted(ids)), vol, cl.rho(basis, tol).rho))
    for k in out:
        out[k].sort(key=lambda row: (row[0] == tuple(sorted(top)), row[0]))
    return out


def _exact_rho(vertices, ids):
    """rho of a simplex's span as det H / det G of its edge vectors, in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w = mpmath.matrix((vertices[list(ids[1:])] - vertices[ids[0]]).tolist())
        z = mpmath.matrix([[mpmath.mpc(row[2 * j], row[2 * j + 1]) for j in range(w.cols // 2)]
                           for row in w.tolist()])
        return float(mpmath.re(mpmath.det(z * z.H)) / mpmath.det(w * w.T))


def _integer_grid(rng, count, dim):
    return rng.integers(-2, 3, size=(count, dim)).astype(float)


def _in_subspace(rng, count, dim, n):
    frame = np.linalg.qr(rng.normal(size=(2 * n, dim)))[0].T
    return rng.normal(size=(count, dim)) @ frame + rng.normal(size=2 * n)


# Inputs and seeds fixed before the oracle was first run against ``hull``.
ORACLE_CASES = {
    **{f"data {name}": (lambda name=name: load_polytope(DATA / f"{name}.json"))
       for name in ("cube4", "real_square2", "segment", "square_c1", "theta3", "theta4")},
    **{f"gauss C{n} seed {seed}": (lambda n=n, m=m, seed=seed:
                                   hull(np.random.default_rng(seed).normal(size=(m, 2 * n))))
       for n, m, seeds in ((2, 9, (101, 102)), (3, 12, (103, 104)), (4, 11, (105, 106)))
       for seed in seeds},
    **{f"subspace dim {dim} of C{n}": (lambda dim=dim, n=n:
                                        hull(_in_subspace(np.random.default_rng(107 + dim), 9, dim, n)))
       for dim, n in ((2, 2), (3, 2), (3, 3), (5, 3))},
    **{f"integer grid C{n} seed {seed}": (lambda n=n, seed=seed:
                                          hull(_integer_grid(np.random.default_rng(seed), 14, 2 * n)))
       for n, seed in ((2, 111), (2, 112), (3, 113))},
    "cube + crosspolytope": lambda: minkowski_sum(
        [load_polytope(DATA / "cube4.json"), load_polytope(DATA / "theta4.json")]),
    "prism": lambda: hull(np.array([[a, b, c, 0.0] for a, b in ((0, 0), (1, 0), (0, 1))
                                    for c in (0.0, 1.0)])),
    "cube [-1,1]^6": lambda: hull(CUBE6),
    "C2 pair sum": lambda: minkowski_sum([hull(np.random.default_rng(35).normal(size=(8, 4))),
                                          hull(np.random.default_rng(36).normal(size=(9, 4)))]),
}


def _assert_closure_matches_oracle(P):
    """The lattice's vertex-id tuples, by dimension and in order, are the closure oracle's;
    returns the oracle."""
    want = frozenset_lattice(P)
    assert P.face_vector() == [len(want.get(k, [])) for k in range(P.dim_real + 1)]
    assert [ids for k in P.faces for ids in P.faces.ids[k]] == \
        [row[0] for k in sorted(want) for row in want[k]]
    return want


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_lattice_matches_frozenset_oracle(case):
    """Same faces in the same order as the closure oracle; vol and rho within 1e-12
    relative, and exact-zero rho on exactly the same faces."""
    P = ORACLE_CASES[case]()
    want = _assert_closure_matches_oracle(P)
    for f, (ids, vol, rho) in zip(P.all_faces(), [row for k in sorted(want) for row in want[k]]):
        assert f.volume_k == pytest.approx(vol, rel=1e-12, abs=0), (case, ids)
        assert (f.rho == 0.0) == (rho == 0.0), (case, ids, f.rho, rho)
        if f.rho != pytest.approx(rho, rel=1e-12, abs=0):
            # cl.rho's singular values of the oracle's from_span basis carry an
            # absolute error near 1e-16, so a small rho can miss by more than 1e-12
            # relative: then the face's value, from its QR frame, must match 40-digit
            # arithmetic at 1e-12 and beat the oracle's.
            exact = _exact_rho(P.vertices, ids)
            assert f.rho == pytest.approx(exact, rel=1e-12, abs=0), (case, ids)
            assert abs(f.rho - exact) < abs(rho - exact), (case, ids)


def test_batched_closure_matches_oracle_on_a_c3_cloud():
    """32 Gaussian points in C^3 (6,681 faces): every proper face is a simplex, so the
    whole lattice below the facets comes from the batched one-vertex deletions."""
    P = hull(np.random.default_rng(402).normal(size=(32, 6)))
    assert P.face_vector() == [32, 308, 1241, 2343, 2067, 689, 1]
    _assert_closure_matches_oracle(P)


def test_closure_matches_oracle_where_simplices_and_cube_faces_meet():
    """[-1, 1]^4 plus three points beyond its facets: dimensions 2 and 3 hold simplices
    (on the batched path) next to squares and cubes (on the bitmask path), and the
    intersection path also finds triangles and edges that the deletions find."""
    cube = np.array(list(itertools.product([-1.0, 1.0], repeat=4)))
    rng = np.random.default_rng(403)
    out = rng.uniform(-0.8, 0.8, size=(3, 4))
    out[np.arange(3), rng.integers(0, 4, 3)] = rng.choice([-1.5, 1.5], 3)
    P = hull(np.vstack([cube, out]))
    for k in (2, 3):
        assert {len(ids) == k + 1 for ids in P.faces.ids[k]} == {False, True}
    _assert_closure_matches_oracle(P)


def test_lattice_on_ids_beyond_the_packed_key(monkeypatch):
    """The facets of 12 points in C^4 relabelled to ids above 2**10 (a permutation, so
    the order changes): the closure is the relabelled closure of the original ids.
    radix**k passes 2**63 for the 7-vertex deletions only, and exactly there the rows
    are deduped by ``np.lexsort`` instead of a packed int64 key."""
    P = hull(np.random.default_rng(401).normal(size=(12, 8)))
    d, (base, _, _) = P.dim_real, pt._lattice(list(P.facet_ids), P.dim_real)
    labels = (1025 + 3 * np.random.default_rng(405).permutation(P.n_vertices)).tolist()

    def relabel(ids):
        return tuple(sorted(labels[v] for v in ids))

    widths = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: widths.append(len(keys)) or lexsort(keys))
    got, _, _ = pt._lattice([relabel(ids) for ids in P.facet_ids], d)
    assert widths == [k for k in range(d - 1, 0, -1) if (max(labels) + 1) ** k >= 2**63] == [7]
    assert got == {k: sorted(relabel(ids) for ids in faces) for k, faces in base.items()}
    assert list(got) == list(base)


def test_lattice_oracle_under_loose_tolerance():
    """Under eps = 1e-6 the near-complex triangle's rho is exactly 0 on both paths."""
    tol = Tolerance(1e-6)
    P = hull(np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1e-7, 0], [0, 0, 0, 1]]), tol)
    lattice = frozenset_lattice(P, tol)
    want = [row for k in sorted(lattice) for row in lattice[k]]
    got = P.all_faces()
    assert [f.vertex_ids for f in got] == [row[0] for row in want]
    assert [f.rho == 0.0 for f in got] == [row[2] == 0.0 for row in want]
    assert any(f.rho == 0.0 and f.k == 2 for f in got)


def test_face_data_makes_no_per_face_call(monkeypatch):
    """Every dimension of [-1, 1]^4, [-1, 1]^6 and Theta_4 + [-1, 1]^4, squares and cubes
    included, comes from the per-dimension batches: no Qhull volume and no ``cl.rho``."""
    calls = []
    for module, name in ((pt, "convex_volume"), (cl, "rho")):
        monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name), name=name:
                            calls.append(name) or f(*a))
    for points in (CUBE4, CUBE6, _sum_points(THETA4, CUBE4)):
        assert len(hull(points).all_faces()) > 80
    assert calls == []


@pytest.mark.parametrize("case", ["cube4", "cube6", "theta4 + cube4", "cloud in C^3"])
def test_every_face_frame_is_orthonormal_and_spans_its_vertices(case):
    """Each face's ``hull_basis``, from a Gram-Schmidt pass or a pyramid step, has k
    orthonormal rows, and the face's edges from its first vertex lie in their span."""
    P = hull({"cube4": CUBE4, "cube6": CUBE6, "theta4 + cube4": _sum_points(THETA4, CUBE4),
              "cloud in C^3": np.random.default_rng(308).normal(size=(12, 6))}[case])
    scale = max(1.0, float(np.abs(P.vertices).max()))
    for f in P.all_faces():
        q = f.hull_basis.vectors
        assert q.shape == (f.k, 2 * P.ambient_n)
        np.testing.assert_allclose(q @ q.T, np.eye(f.k), rtol=0, atol=1e-12)
        edges = P.vertices[list(f.vertex_ids)] - P.vertices[f.vertex_ids[0]]
        assert np.abs(edges - (edges @ q.T) @ q).max() <= 1e-12 * scale, f.vertex_ids


@pytest.mark.parametrize("n, points, seed",
                         [(3, 14, 309), (3, 24, 310), (4, 12, 311), (4, 15, 312)])
def test_simplex_face_data_is_one_gram_schmidt_bit_for_bit(n, points, seed):
    """Every simplex face's vol_k, rho and frame, though each extends its face without the
    last vertex by one step, equal ``cl.gram_schmidt`` over its edges from its first vertex
    (vol_k = prod r / k!) and ``cl.batch_rho`` of that frame, bit for bit."""
    P = hull(np.random.default_rng(seed).normal(size=(points, 2 * n)))
    for k in range(1, P.dim_real):
        faces = P.faces[k]
        assert all(len(f.vertex_ids) == k + 1 for f in faces)
        ids = np.array([f.vertex_ids for f in faces])
        r, q = cl.gram_schmidt(P.vertices[ids[:, 1:]] - P.vertices[ids[:, :1]])
        assert [f.volume_k for f in faces] == (r.prod(axis=1) / math.factorial(k)).tolist()
        assert [f.rho for f in faces] == cl.batch_rho(q, P.tol)[0].tolist()
        assert np.array_equal(np.array([f.frame for f in faces]), q)


@pytest.fixture
def built(monkeypatch):
    """The dimensions of the proper faces of dimension 1 or more whose data batch runs from
    here on, one entry per batch, in the order they finish: a dimension's first read, of
    its columns or of its ``Face`` objects, runs the batches below it first."""
    dims = []
    batch = pt._face_data

    def record(vertices, ids, arrays, bases, below, k, tol):
        dims.append(k)
        return batch(vertices, ids, arrays, bases, below, k, tol)

    monkeypatch.setattr(pt, "_face_data", record)
    return dims


def test_volume_path_builds_no_face_data(monkeypatch, built):
    """``hull``, the f-vector and the improper face's volume (``kazvol volume``) build no
    proper face: the only Gram-Schmidt steps are the d of the improper face's rho, each
    on its one frame."""
    calls = []
    step = cl.gram_schmidt_step
    monkeypatch.setattr(cl, "gram_schmidt_step", lambda *a: calls.append(len(a[1])) or step(*a))
    P = hull(np.random.default_rng(301).normal(size=(16, 6)))
    assert sum(P.face_vector()) > 100
    assert P.improper_face.volume_k > 0
    assert calls == [1] * P.dim_real and built == []


def test_faces_command_builds_no_face_on_a_simplicial_polytope(monkeypatch, built, capsys):
    """``kazvol faces`` on a cloud in C^3, where every proper face is a simplex, prints
    every dimension from its columns: one batch per proper dimension and no ``Face``."""
    made = []
    init = pt.Face.__init__
    monkeypatch.setattr(pt.Face, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    points = np.random.default_rng(306).normal(size=(14, 6))
    assert main(["faces", json.dumps({"n": 3, "vertices": points.tolist()})]) == EXIT_OK
    assert "(improper)" in capsys.readouterr().out
    assert made == [] and built == [1, 2, 3, 4, 5]


def test_columns_and_faces_share_one_batch(built):
    """A dimension's columns and its ``Face`` objects, read in either order, come from
    one batch and carry the same values bit for bit; the first read of dimension 2
    runs the batch of dimension 1 first, and that of dimension 3 only its own."""
    P = hull(np.random.default_rng(307).normal(size=(12, 6)))
    vol, rho = P.faces.data(2)
    assert [f.volume_k for f in P.faces[2]] == vol and [f.rho for f in P.faces[2]] == rho
    faces = P.faces[3]
    assert P.faces.data(3) == ([f.volume_k for f in faces], [f.rho for f in faces])
    assert built == [1, 2, 3]


def test_hull_itself_checks_the_euler_relation(built):
    """The 4-cube moved by 1e-8 fails the Euler relation at eps = 1e-9: ``hull`` raises
    before any face is read or built."""
    cube = np.array(list(itertools.product([-1.0, 1.0], repeat=4)))
    points = cube + np.random.default_rng(0).normal(size=(16, 4)) * 1e-8
    with pytest.raises(ValueError, match="Euler relation"):
        hull(points, Tolerance(1e-9))
    assert built == []


def test_pseudovolume_builds_one_dimension(built):
    """P_2 of a cloud in C^2 sums over the 2-faces, whose normal cones (dimension 2)
    have closed-form angles: only the dimensions below them are built, for their data."""
    P = hull(np.random.default_rng(302).normal(size=(12, 4)))
    assert pseudovolume(P, samples=SAMPLES).value > 0
    assert built == [1, 2]


def test_sampled_angle_keeps_its_lattice_substream(built):
    """An edge of a cloud in C^3 (normal cone of dimension 5, sampled) draws on the
    substream of its position in ``all_faces()``, bit for bit, although its pass
    builds only the edges."""
    P = hull(np.random.default_rng(303).normal(size=(12, 6)))
    stream = RandomStream(7)
    edge = P.faces[1][5]
    got = AnglePass(P, 2000, stream).angle(edge)
    assert got.method == "monte_carlo" and built == [1]
    want = outer_angle(P, edge.id, 2000, stream.substream(P.all_faces().index(edge)))
    assert (got.value, got.std_error, got.samples) == (want.value, want.std_error, want.samples)


def greedy_dedupe(points, eps):
    """Oracle: the point-by-point loop that ``_dedupe`` replaced.  A point is
    dropped iff an earlier kept point lies within Chebyshev distance eps * scale."""
    scale_ = max(1.0, float(np.abs(points).max()))
    kept = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= eps * scale_ for q in kept):
            kept.append(p)
    return np.array(kept)


def _planted_duplicates(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(30, 4))
    return rng.permutation(np.vstack([pts, pts[rng.integers(0, 30, size=25)]]))


def _near_duplicates(seed, offset):
    """Points in [-0.5, 0.5]^4 (so the scale is 1), each followed by a copy
    moved by offset * eps in one signed coordinate."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.5, 0.5, size=(20, 4))
    moved = pts + offset * EPS * rng.choice([-1.0, 1.0], size=(20, 1)) * np.eye(4)[rng.integers(0, 4, 20)]
    return np.vstack([pts, moved])[np.argsort(np.tile(np.arange(20), 2), kind="stable")]


def _sum_points(a, b):
    """All pairwise sums, the points ``minkowski_sum`` hands to ``hull``."""
    return (a[:, None] + b[None]).reshape(-1, a.shape[1])


EPS = DEFAULT_TOLERANCE.eps
CUBE4 = np.array(list(itertools.product([-1.0, 1.0], repeat=4)))
CUBE6 = np.array(list(itertools.product([-1.0, 1.0], repeat=6)))
THETA4 = np.vstack([np.eye(4), -np.eye(4)])
# Inputs and seeds fixed before the oracle was first run against ``_dedupe``.
DEDUPE_CASES = {
    **{f"planted duplicates seed {seed}": (lambda seed=seed: _planted_duplicates(seed))
       for seed in (201, 202, 203)},
    **{f"near duplicates at {offset} eps": (lambda offset=offset: _near_duplicates(204, offset))
       for offset in (0.5, 2.0)},
    "chain a-b-c": lambda: np.array([[0.0, 0.0], [0.8 * EPS, 0.0], [1.6 * EPS, 0.0]]),
    "chain a-b-b-c": lambda: np.array([[0.0, 0.0], [0.8 * EPS, 0.0], [0.8 * EPS, 0.0],
                                       [1.6 * EPS, 0.0]]),
    "cube + cube": lambda: _sum_points(CUBE4, CUBE4),
    "theta4 + cube": lambda: _sum_points(THETA4, CUBE4),
}


@pytest.mark.parametrize("case", sorted(DEDUPE_CASES))
def test_dedupe_matches_greedy_oracle(case):
    points = DEDUPE_CASES[case]()
    assert np.array_equal(points[_dedupe(points, EPS)], greedy_dedupe(points, EPS))


def test_vertices_are_their_source_rows():
    """``P.source`` names the input row of each vertex, bit for bit: on a cloud with
    planted exact and near duplicates, and on a Minkowski sum's vertex sums."""
    rng = np.random.default_rng(205)
    pts = rng.normal(size=(20, 4))
    cloud = rng.permutation(np.vstack([pts, pts[:6], pts[6:12] + 0.5 * EPS]))
    P = hull(cloud)
    assert P.source.tolist() == sorted(set(P.source.tolist()))
    assert P.vertices.tobytes() == cloud[P.source].tobytes()
    parts = [hull(THETA4), hull(CUBE4)]
    S = minkowski_sum(parts)
    assert S.vertices.tobytes() == pt._sum_points(parts)[S.source].tobytes()


def test_dedupe_chain_keeps_both_ends():
    points = DEDUPE_CASES["chain a-b-c"]()
    assert np.array_equal(points[_dedupe(points, EPS)], points[[0, 2]])


def _pyramid(bend):
    """The square pyramid over (±1, 0, ±1, 0) with apex (0, 1, 0, 0), the base's y_2
    set to ±bend."""
    base = [[a, 0.0, b, a * b * bend] for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
    return hull(np.array(base + [[0.0, 1.0, 0.0, 0.0]]))


def test_face_bent_within_tolerance_keeps_its_rank():
    """The base bent by 3e-9 is a 2-face of the lattice, so its basis has rank 2 and
    it counts in P_2; a basis of rank 3 once gave it rho = 0 and P_2 = 2.1213."""
    flat, bent = _pyramid(0.0), _pyramid(3e-9)
    assert bent.face_vector() == [5, 8, 5, 1]
    assert [f.hull_basis.d for f in bent.faces[2]] == [2] * 5
    p_flat = pseudovolume(flat, samples=SAMPLES).value
    assert p_flat == pytest.approx(4.121320344, abs=1e-9)
    assert pseudovolume(bent, samples=SAMPLES).value == pytest.approx(p_flat, abs=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_rounded_rotated_cube(seed):
    """[-1, 1]^4 under a random unitary, rounded to 10 significant digits: Qhull's
    sliver facets along the bent facets' ridges are dropped, as sets inside a facet's."""
    cube = np.array(list(itertools.product([-1.0, 1.0], repeat=4)))
    rotated = cube @ realify(random_unitary(2, RandomStream(seed))).T
    P = hull(np.array([[float(f"{x:.10g}") for x in row] for row in rotated]))
    assert P.face_vector() == [16, 32, 24, 8, 1]
    assert pseudovolume(P, samples=SAMPLES).value == pytest.approx(16.0, abs=1e-8)
