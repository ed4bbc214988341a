import importlib
import inspect
import itertools
import math
import statistics

import numpy as np
import pytest

from kazvol import (
    RHO,
    UNIT,
    AnglePass,
    RandomStream,
    eps_neighborhood_pseudovolume,
    hull,
    intrinsic_phi_volume,
    mixed_phi_volume,
    mixed_pseudovolume,
    mixed_volume,
    mixed_with_ball,
    minkowski_sum,
    pseudovolume,
    valuation_check,
)
from kazvol.complex_linalg import SubspaceBasis, random_unitary, realify
from kazvol.complex_linalg import rho as cl_rho
from kazvol.numerics import Tolerance, kappa, weighted_sum
from kazvol.polytope import Face, _summand_label_sets, _sum_labels, summand_faces
from kazvol.pseudovolume import _summand_mixed_volume
from kazvol.smooth_bodies import ball_pseudovolume

from conftest import SAMPLES, random_polygon_real, random_polytope


def segment(direction, ambient=2):
    v = np.zeros((2, 2 * ambient))
    v[1, : len(direction)] = direction
    return hull(v)


def nonmon_k(lam):
    """K^lambda = conv{(±i, 0), (±i, lambda)} in C^2."""
    return hull(np.array([
        [0, 1, 0, 0], [0, -1, 0, 0], [0, 1, lam, 0], [0, -1, lam, 0],
    ], dtype=float))


def nonmon_gamma(lam):
    """Pyramid over the square ±2±2i in C x {0} with apex (0, 2 lambda)."""
    return hull(np.array([
        [2, 2, 0, 0], [-2, 2, 0, 0], [-2, -2, 0, 0], [2, -2, 0, 0],
        [0, 0, 2 * lam, 0],
    ], dtype=float))


class TestPolytopeValues:
    def test_square_c1(self, square_c1, stream):
        rep = pseudovolume(square_c1, samples=SAMPLES, stream=stream)
        # 4 edges, length sqrt2, rho = 1, psi = 1/2 each.
        assert rep.value == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert rep.std_error == 0.0

    def test_cube4(self, cube4, stream):
        rep = pseudovolume(cube4, samples=4 * SAMPLES, stream=stream)
        assert rep.value == pytest.approx(16.0, abs=4 * rep.std_error + rep.bound)

    def test_cube2_exact(self, square_c1, stream):
        # In C^1 the improper 1-face never appears; 2-dim body: P_1 uses edges.
        rep = pseudovolume(square_c1, samples=SAMPLES, stream=stream)
        assert len(rep.terms) == 4

    def test_theta4(self, theta4, stream):
        rep = pseudovolume(theta4, samples=4 * SAMPLES, stream=stream)
        expected = 16 * math.sqrt(3) / 9
        assert rep.value == pytest.approx(expected, abs=4 * rep.std_error + rep.bound)
        # Every two-face carries rho = 2/3.
        for _, r, v, _, _ in rep.terms:
            assert r == pytest.approx(2.0 / 3.0, abs=1e-9)
            assert v == pytest.approx(math.sqrt(3) / 2, rel=1e-9)
        assert len(rep.terms) == 32

    def test_theta3(self, theta3, stream):
        # Facets of the 3-dimensional body have exact angles 1/2, so the
        # value is exact: 8 faces x (2/3) x (sqrt3/2) x (1/2).
        rep = pseudovolume(theta3, samples=SAMPLES, stream=stream)
        assert rep.value == pytest.approx(4 * math.sqrt(3) / 3, abs=1e-9)
        assert rep.std_error == 0.0

    def test_real_square(self, real_square2, stream):
        # Full-dimensional in its span: P_2 = area = 4, exact.
        rep = pseudovolume(real_square2, samples=SAMPLES, stream=stream)
        assert rep.value == pytest.approx(4.0, abs=1e-12)

    def test_complex_line_square_vanishes(self, stream):
        # Square in C x {0}: the 2-face is a complex line, rho = 0.
        P = hull(np.array([
            [1, 1, 0, 0], [1, -1, 0, 0], [-1, 1, 0, 0], [-1, -1, 0, 0],
        ], dtype=float))
        rep = pseudovolume(P, samples=SAMPLES, stream=stream)
        assert rep.value == 0.0


class TestNonMonotonicity:
    def test_k_lambda(self, stream):
        lam = 0.25
        rep = pseudovolume(nonmon_k(lam), samples=SAMPLES, stream=stream)
        assert rep.value == pytest.approx(2 * lam, abs=4 * rep.std_error + rep.bound + 1e-9)

    def test_gamma_lambda(self, stream):
        lam = 0.25
        rep = pseudovolume(nonmon_gamma(lam), samples=SAMPLES, stream=stream)
        expected = 8 * lam**2 / math.sqrt(1 + lam**2)
        assert rep.value == pytest.approx(expected, abs=4 * rep.std_error + rep.bound + 1e-9)

    def test_strict_reversal(self, stream):
        # K subset Gamma yet P_2(K) > P_2(Gamma) for small lambda.
        lam = 0.2
        small = pseudovolume(nonmon_k(lam), samples=SAMPLES, stream=stream)
        big = pseudovolume(nonmon_gamma(lam), samples=SAMPLES, stream=stream)
        gap = small.value - big.value
        assert gap > 4 * (small.std_error + small.bound + big.std_error + big.bound)


class TestInvariance:
    def test_homogeneity(self, theta4, stream):
        rep = pseudovolume(theta4, samples=SAMPLES, stream=stream)
        rep2 = pseudovolume(hull(theta4.vertices * 1.7), samples=SAMPLES, stream=stream)
        diff = weighted_sum([(1, rep2), (-1.7**2, rep)])
        assert abs(diff.value) <= 4 * diff.std_error + diff.bound

    def test_translation(self, theta4, stream):
        shifted = hull(theta4.vertices + np.array([0.3, -1.2, 0.7, 2.0]))
        a = pseudovolume(theta4, samples=SAMPLES, stream=stream)
        b = pseudovolume(shifted, samples=SAMPLES, stream=stream)
        diff = weighted_sum([(1, b), (-1, a)])
        assert abs(diff.value) <= 4 * diff.std_error + diff.bound + 1e-9

    def test_unitary_invariance(self, stream):
        rng = np.random.default_rng(21)
        for i in range(3):
            P = random_polytope(rng, 6)
            u = realify(random_unitary(2, stream.substream(50 + i)))
            rotated = hull(P.vertices @ u.T)
            a = pseudovolume(P, samples=SAMPLES, stream=stream.substream(60 + i))
            b = pseudovolume(rotated, samples=SAMPLES, stream=stream.substream(70 + i))
            diff = weighted_sum([(1, b), (-1, a)])
            assert abs(diff.value) <= 4 * diff.std_error + diff.bound + 1e-9

    def test_orthogonal_counterexample(self, real_square2, stream):
        # Swapping Im z1 with Re z2 is orthogonal but not unitary and sends
        # the real square (P_2 = 4 = 2^2) to a square in a complex line.
        swapped = real_square2.vertices[:, [0, 2, 1, 3]]
        rep = pseudovolume(hull(swapped), samples=SAMPLES, stream=stream)
        assert rep.value == 0.0


class TestPhiVolumes:
    def test_unit_weight_is_intrinsic(self, square_c1, stream):
        from kazvol import intrinsic_volume
        ap = AnglePass(square_c1, SAMPLES, stream)
        for k in (0, 1, 2):
            assert intrinsic_phi_volume(square_c1, k, UNIT, ap).value == pytest.approx(
                intrinsic_volume(square_c1, k, ap.angle), rel=1e-12)

    def test_rho_weight_vanishes_above_n(self, cube4, stream):
        ap = AnglePass(cube4, SAMPLES, stream)
        assert intrinsic_phi_volume(cube4, 3, RHO, ap).value == 0.0
        assert intrinsic_phi_volume(cube4, 4, RHO, ap).value == 0.0

    def test_point_body(self, stream):
        P = hull(np.array([[1.0, 2.0, 0.0, 0.0]]))
        ap = AnglePass(P, SAMPLES, stream)
        assert intrinsic_phi_volume(P, 0, RHO, ap).value == 1.0

    def test_diagonal_matches_pseudovolume(self, theta4, stream):
        ap = AnglePass(theta4, SAMPLES, stream)
        rep = pseudovolume(theta4, angles=ap)
        assert intrinsic_phi_volume(theta4, 2, RHO, ap).value == pytest.approx(
            rep.value, rel=1e-12)

    def test_rho_weight_uses_hull_tolerance(self, stream):
        # Under eps = 1e-6 the triangle spans a complex line up to 1e-7,
        # so its rho is 0; rho under the default 1e-9 would be about 5e-15.
        tol = Tolerance(1e-6)
        P = hull(np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1e-7, 0]]), tol)
        ap = AnglePass(P, SAMPLES, stream)
        rep = pseudovolume(P, angles=ap)
        assert rep.value == 0.0
        assert intrinsic_phi_volume(P, 2, RHO, ap).value == rep.value

    def test_no_function_of_a_polytope_takes_a_tolerance(self):
        # A polytope keeps the tolerance ``hull`` built it under; only ``hull`` and
        # ``load_polytope`` take one.
        pv = importlib.import_module("kazvol.pseudovolume")
        cg = importlib.import_module("kazvol.cone_geometry")
        pt = importlib.import_module("kazvol.polytope")
        functions = [pt.support, pt.minkowski_sum, pt.summand_faces, pt.split, cg.outer_angle,
                     cg.AnglePass, cg._normal_space, cg._classify, pv.pseudovolume,
                     pv.mixed_phi_volume, pv.mixed_pseudovolume, pv.mixed_with_ball,
                     pv.eps_neighborhood_pseudovolume, pv.valuation_check,
                     pv._summand_mixed_volume]
        assert [f.__name__ for f in functions if "tol" in inspect.signature(f).parameters] == []
        assert not hasattr(AnglePass(hull(np.eye(4)), SAMPLES), "tol")


class TestMixedPseudovolume:
    def test_diagonal(self, theta4, stream):
        q = mixed_pseudovolume([theta4, theta4], samples=SAMPLES, stream=stream)
        p = pseudovolume(theta4, samples=SAMPLES, stream=stream)
        diff = weighted_sum([(1, q), (-1, p)])
        assert abs(diff.value) <= 4 * diff.std_error + diff.bound

    def test_direct_vs_polarization(self, stream):
        rng = np.random.default_rng(22)
        a = random_polytope(rng, 5)
        b = random_polytope(rng, 5)
        d = mixed_pseudovolume([a, b], samples=SAMPLES, stream=stream)
        p = mixed_pseudovolume([a, b], samples=SAMPLES,
                               stream=stream.substream(1), method="polarization")
        diff = weighted_sum([(1, d), (-1, p)])
        assert abs(diff.value) <= 4 * diff.std_error + diff.bound

    def test_real_reduction(self, stream):
        # On real polygons Q_2 equals the Minkowski mixed volume.
        rng = np.random.default_rng(23)
        for i in range(5):
            a = random_polygon_real(rng)
            b = random_polygon_real(rng)
            q = mixed_pseudovolume([a, b], samples=SAMPLES, stream=stream.substream(i))
            v = mixed_volume([a.vertices, b.vertices])
            assert q.value == pytest.approx(v, abs=4 * q.std_error + q.bound + 1e-9)

    def test_symmetry(self, stream):
        rng = np.random.default_rng(24)
        a = random_polytope(rng, 5)
        b = random_polytope(rng, 5)
        q1 = mixed_pseudovolume([a, b], samples=SAMPLES, stream=stream)
        q2 = mixed_pseudovolume([b, a], samples=SAMPLES, stream=stream)
        diff = weighted_sum([(1, q1), (-1, q2)])
        assert abs(diff.value) <= 4 * diff.std_error + diff.bound

    def test_wrong_arity(self, theta4):
        with pytest.raises(ValueError):
            mixed_pseudovolume([theta4])

    def test_unknown_method(self, theta4, cube4):
        with pytest.raises(ValueError):
            mixed_pseudovolume([theta4, cube4], samples=10, method="laplace")

    def test_direct_path_hulls_only_the_sum(self, theta4, cube4, monkeypatch):
        # Summand faces are read from the summands' vertices, never re-hulled.
        # (The package attribute `kazvol.pseudovolume` is the function.)
        polytope_mod = importlib.import_module("kazvol.polytope")
        pseudovolume_mod = importlib.import_module("kazvol.pseudovolume")
        real_hull = polytope_mod.hull
        calls = []

        def counting_hull(*args, **kwargs):
            calls.append(args)
            return real_hull(*args, **kwargs)

        real_support = polytope_mod.support
        support_calls = []

        def counting_support(*args, **kwargs):
            support_calls.append(args)
            return real_support(*args, **kwargs)

        monkeypatch.setattr(polytope_mod, "hull", counting_hull)
        monkeypatch.setattr(pseudovolume_mod, "hull", counting_hull)
        # Summand faces come from the sum's vertex labels, not from support scans.
        monkeypatch.setattr(polytope_mod, "support", counting_support)
        mixed_phi_volume([theta4, cube4], RHO, samples=10, method="direct")
        assert len(calls) == 1
        assert support_calls == []

    def test_direct_path_skips_rho_where_the_mixed_volume_is_zero(self, theta4, cube4,
                                                                   monkeypatch):
        # 48 of the sum's 2-faces have a vertex summand, so V_2 = 0 and rho is never read;
        # every other term is a simplex or a parallelogram with rho from the batched pass.
        calls = []
        monkeypatch.setattr(importlib.import_module("kazvol.complex_linalg"), "rho",
                            lambda *a, **k: calls.append(a) or cl_rho(*a, **k))
        est = mixed_phi_volume([theta4, cube4], RHO, samples=10, method="direct")
        assert est.value == pytest.approx(8.866022783673, abs=1e-11)
        assert calls == []

    def test_segment_degeneracy(self, stream):
        # Segments with C-dependent directions: Q_2 = 0; independent: > 0.
        e1 = segment([2, 0, 0, 0])
        ie1 = segment([0, 2, 0, 0])
        e2 = segment([0, 0, 2, 0])
        zero = mixed_pseudovolume([e1, ie1], samples=SAMPLES, stream=stream)
        assert abs(zero.value) < 1e-9
        pos = mixed_pseudovolume([e1, e2], samples=SAMPLES, stream=stream)
        assert pos.value > 0.1


def c3_triple():
    """Gaussian clouds of 3, 4 and 4 points in C^3."""
    rng = np.random.default_rng(33)
    return [random_polytope(rng, m, 3) for m in (3, 4, 4)]


class TestSummandLabels:
    """The direct path reads summand faces from the sum's vertex labels, as one
    membership row per face and summand (``_summand_label_sets``); the
    support-function route ``summand_faces`` is the oracle."""

    @pytest.fixture(params=["c2_pair", "c3_triple", "c2_clouds"])
    def parts(self, request, theta4, cube4):
        if request.param == "c2_pair":
            return [theta4, cube4]
        if request.param == "c3_triple":
            return c3_triple()
        rng = np.random.default_rng(35)
        return [random_polytope(rng, m, 2) for m in (6, 7)]

    def test_labels_match_support_route(self, parts):
        S = minkowski_sum(parts)
        labels = _sum_labels(S, parts)
        np.testing.assert_array_equal(
            sum(p.vertices[labels[:, l]] for l, p in enumerate(parts)), S.vertices)
        for k in S.faces:
            members, found = _summand_label_sets(S, parts, k)
            assert found.all(), k
            for i, f in enumerate(S.faces[k]):
                got = [frozenset(np.flatnonzero(m[i]).tolist()) for m in members]
                want = summand_faces(S, parts, f)
                assert got == [w.id for w in want], f.vertex_ids

    def test_parallelotope_data_match_per_face_routes(self, parts):
        S = minkowski_sum(parts)
        k = len(parts)
        n = S.ambient_n
        members, _ = _summand_label_sets(S, parts, k)
        measure = _summand_mixed_volume(S, parts, k)
        counts = {"parallelotope": 0, "point": 0}
        for i, f in enumerate(S.faces[k]):
            sets = [np.flatnonzero(m[i]) for m in members]
            sizes = {len(s) for s in sets}
            if 1 in sizes:
                counts["point"] += 1
                assert measure(f) == 0.0
                continue
            if sizes != {2}:
                continue
            counts["parallelotope"] += 1
            pts = S.vertices[list(f.vertex_ids)]
            basis = SubspaceBasis.from_span(n, pts - pts[0])
            segments = [p.vertices[s] for p, s in zip(parts, sets)]
            assert measure(f) == pytest.approx(mixed_volume(segments, basis), rel=1e-12)
            assert f.rho == pytest.approx(cl_rho(basis).rho, rel=1e-12, abs=1e-15)
            np.testing.assert_allclose(f.hull_basis.vectors.T @ f.hull_basis.vectors,
                                       basis.vectors.T @ basis.vectors, atol=1e-12)
        if k == 3:
            assert counts["parallelotope"] == 70 and counts["point"] == 227
        assert counts["parallelotope"] > 0

    def test_support_fallback_gives_the_same_value(self, parts, stream, monkeypatch):
        labelled = mixed_phi_volume(parts, RHO, samples=SAMPLES, stream=stream)
        # Every label set rejected: each summand face comes from `summand_faces`.
        pv = importlib.import_module("kazvol.pseudovolume")
        calls = []
        monkeypatch.setattr(importlib.import_module("kazvol.polytope"), "_are_faces",
                            lambda P, member: np.zeros(len(member), dtype=bool))
        monkeypatch.setattr(pv, "summand_faces",
                            lambda S, ps, f: calls.append(f) or summand_faces(S, ps, f))
        fallback = mixed_phi_volume(parts, RHO, samples=SAMPLES, stream=stream)
        assert len(calls) == len(minkowski_sum(parts).faces.ids[len(parts)])
        assert fallback.value == pytest.approx(labelled.value, rel=1e-12)

    def test_direct_path_builds_no_summand_face(self, parts, stream, monkeypatch):
        built = []
        init = Face.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.vertex_ids)

        monkeypatch.setattr(Face, "__init__", counting)
        mixed_phi_volume(parts, RHO, samples=SAMPLES, stream=stream)
        # The k-faces of the sum, each once, and no face of a summand.
        assert built == minkowski_sum(parts).faces.ids[len(parts)]

    def test_direct_matches_polarization_in_c3(self, stream):
        # Both paths are exact here (normal cones of dimension <= 3).
        parts = c3_triple()
        d = mixed_pseudovolume(parts, samples=SAMPLES, stream=stream)
        p = mixed_pseudovolume(parts, samples=SAMPLES, stream=stream.substream(1),
                               method="polarization")
        assert d.value == pytest.approx(9.0557017343842, rel=1e-12)
        assert abs(d.value - p.value) <= d.bound + p.bound


class TestMinkowskiInequality:
    """Minkowski's inequality Q_2(A, B)^2 >= P_2(A) P_2(B), the n = 2 case of
    Alexandrov-Fenchel, fails for the pseudovolume: a witness with integer vertices,
    both bodies full-dimensional, every value exact on both routes to Q_2."""

    A = [[1, 0, -1, -1], [-1, 0, 0, -1], [0, 1, 3, 1], [-1, -1, -3, -2], [2, 1, 1, 0],
         [0, -1, 0, 0]]
    B = [[0, -1, 0, 0], [-1, 1, -3, 0], [-2, 1, -5, 3], [0, 0, -1, -1], [2, -1, -1, 0],
         [2, -1, 1, -4]]

    def test_witness(self, stream):
        a, b = hull(np.array(self.A, dtype=float)), hull(np.array(self.B, dtype=float))
        assert a.face_vector() == b.face_vector() == [6, 14, 16, 8, 1]
        pa = pseudovolume(a, samples=SAMPLES, stream=stream.substream(1))
        pb = pseudovolume(b, samples=SAMPLES, stream=stream.substream(2))
        direct = mixed_pseudovolume([a, b], samples=SAMPLES, stream=stream.substream(3))
        oracle = mixed_pseudovolume([a, b], samples=SAMPLES, stream=stream.substream(4),
                                    method="polarization")
        for est, want in ((pa, 12.6412249), (pb, 17.5180793), (direct, 12.3753922),
                          (oracle, 12.3753922)):
            assert est.method == "exact" and est.bound < 1e-11
            assert est.value == pytest.approx(want, abs=5e-8)
        assert abs(direct.value - oracle.value) <= direct.bound + oracle.bound
        assert direct.value ** 2 / (pa.value * pb.value) < 0.7


class TestMixedWithBall:
    def test_segment_value(self, stream):
        seg = segment([2, 0, 0, 0])
        est = mixed_with_ball([seg], samples=SAMPLES, stream=stream)
        assert est.value == pytest.approx(8.0 / 3.0, abs=1e-9)

    def test_full_slot_falls_back(self, theta4, stream):
        est = mixed_with_ball([theta4, theta4], samples=SAMPLES, stream=stream)
        p = pseudovolume(theta4, samples=SAMPLES, stream=stream)
        diff = weighted_sum([(1, est), (-1, p)])
        assert abs(diff.value) <= 4 * diff.std_error + diff.bound

    def test_arity_check(self, theta4):
        with pytest.raises(ValueError):
            mixed_with_ball([theta4, theta4, theta4])


class TestEpsExpansion:
    def test_real_square_coefficients(self, real_square2, stream):
        exp = eps_neighborhood_pseudovolume(
            real_square2, 0.5, samples=SAMPLES, stream=stream)
        c0, c1, c2 = (c.value for c in exp.terms)
        # c0 and c1 involve Monte Carlo vertex/edge angles; c2 is the exact area.
        assert c0 == pytest.approx(2 * math.pi, abs=0.05)
        assert c1 == pytest.approx(32.0 / 3.0, abs=0.2)
        assert c2 == pytest.approx(4.0, abs=1e-9)

    def test_point_gives_ball(self, stream):
        P = hull(np.array([[0.0, 0.0, 0.0, 0.0]]))
        eps = 0.7
        exp = eps_neighborhood_pseudovolume(P, eps, samples=SAMPLES, stream=stream)
        assert exp.value == pytest.approx(eps**2 * ball_pseudovolume(2), rel=1e-12)

    def test_zero_eps_recovers_pseudovolume(self, theta4, stream):
        ap = AnglePass(theta4, SAMPLES, stream)
        exp = eps_neighborhood_pseudovolume(theta4, 0.0, angles=ap)
        rep = pseudovolume(theta4, angles=ap)
        assert exp.value == pytest.approx(rep.value, rel=1e-12)

    def test_vertex_coefficient_exact_without_sampling(self, cube4, stream, monkeypatch):
        """v_0^rho = 1 from the identity, so the cube's expansion samples nothing
        (its edge and 2-face cones have dimension 3 and 2) and carries no error."""
        cg = importlib.import_module("kazvol.cone_geometry")
        calls = []
        real = cg.sphere_sample
        monkeypatch.setattr(cg, "sphere_sample", lambda *a, **k: calls.append(a) or real(*a, **k))
        exp = eps_neighborhood_pseudovolume(cube4, 1.0, samples=SAMPLES, stream=stream)
        assert calls == []
        assert exp.std_error == 0.0 and exp.bound < 1e-9
        assert exp.terms[0].value == 4 * kappa(4) / kappa(2)

    def test_negative_eps_rejected(self, theta4):
        with pytest.raises(ValueError):
            eps_neighborhood_pseudovolume(theta4, -0.1)

    def test_monotone_in_eps(self, theta4, stream):
        ap = AnglePass(theta4, SAMPLES, stream)
        values = [eps_neighborhood_pseudovolume(theta4, e, angles=ap).value
                  for e in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestErrorCalibration:
    """The std_error of a sum of independent sampled face terms is one standard deviation."""

    # Declared before the first run, with the band [0.6, 1.5] (about the
    # 99.9 % range of a chi with 29 degrees of freedom, over sqrt(29)).
    SEEDS = range(30)
    SAMPLES = 1_000

    def test_spread_matches_reported_error(self):
        P = hull(np.random.default_rng(2026).normal(size=(10, 6)))
        runs = [eps_neighborhood_pseudovolume(P, 1.0, samples=self.SAMPLES,
                                              stream=RandomStream(seed))
                for seed in self.SEEDS]
        # Edges and 2-faces of this C^3 polytope have normal cones of dimension 5 and 4.
        assert all(r.terms[k].method == "monte_carlo" for r in runs for k in (1, 2))
        spread = statistics.stdev(r.value for r in runs)
        rms = math.sqrt(statistics.fmean(r.std_error**2 for r in runs))
        assert 0.6 <= spread / rms <= 1.5, (spread, rms)


class TestValuation:
    def test_random_splits(self, stream):
        rng = np.random.default_rng(25)
        for i in range(5):
            P = random_polytope(rng, 6)
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            c = float(P.centroid @ u)
            res = valuation_check(P, u, c, samples=SAMPLES, stream=stream.substream(i))
            assert res.value <= 4 * res.std_error + res.bound + 1e-9

    def test_split_misses(self, theta4, stream):
        # A plane that misses the body: one side is the whole body, the other
        # empty, so the residual is pure Monte Carlo noise.
        res = valuation_check(theta4, np.array([1.0, 0, 0, 0]), 10.0,
                              samples=SAMPLES, stream=stream)
        assert res.value <= 4 * res.std_error + res.bound + 1e-9
