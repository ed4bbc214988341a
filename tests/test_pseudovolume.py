import importlib
import itertools
import math

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
    scale,
    translate,
    valuation_check,
)
from kazvol.complex_linalg import random_unitary, realify
from kazvol.numerics import Tolerance
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
        assert rep.mc_std_error == 0.0

    def test_cube4(self, cube4, stream):
        rep = pseudovolume(cube4, samples=4 * SAMPLES, stream=stream)
        assert rep.value == pytest.approx(16.0, abs=4 * rep.mc_std_error)

    def test_cube2_exact(self, square_c1, stream):
        # In C^1 the improper 1-face never appears; 2-dim body: P_1 uses edges.
        rep = pseudovolume(square_c1, samples=SAMPLES, stream=stream)
        assert len(rep.per_face_terms) == 4

    def test_theta4(self, theta4, stream):
        rep = pseudovolume(theta4, samples=4 * SAMPLES, stream=stream)
        expected = 16 * math.sqrt(3) / 9
        assert rep.value == pytest.approx(expected, abs=4 * rep.mc_std_error)
        # Every two-face carries rho = 2/3.
        for _, r, v, _, _ in rep.per_face_terms:
            assert r == pytest.approx(2.0 / 3.0, abs=1e-9)
            assert v == pytest.approx(math.sqrt(3) / 2, rel=1e-9)
        assert len(rep.per_face_terms) == 32

    def test_theta3(self, theta3, stream):
        # Facets of the 3-dimensional body have exact angles 1/2, so the
        # value is exact: 8 faces x (2/3) x (sqrt3/2) x (1/2).
        rep = pseudovolume(theta3, samples=SAMPLES, stream=stream)
        assert rep.value == pytest.approx(4 * math.sqrt(3) / 3, abs=1e-9)
        assert rep.mc_std_error == 0.0

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
        assert rep.value == pytest.approx(2 * lam, abs=4 * rep.mc_std_error + 1e-9)

    def test_gamma_lambda(self, stream):
        lam = 0.25
        rep = pseudovolume(nonmon_gamma(lam), samples=SAMPLES, stream=stream)
        expected = 8 * lam**2 / math.sqrt(1 + lam**2)
        assert rep.value == pytest.approx(expected, abs=4 * rep.mc_std_error + 1e-9)

    def test_strict_reversal(self, stream):
        # K subset Gamma yet P_2(K) > P_2(Gamma) for small lambda.
        lam = 0.2
        small = pseudovolume(nonmon_k(lam), samples=SAMPLES, stream=stream)
        big = pseudovolume(nonmon_gamma(lam), samples=SAMPLES, stream=stream)
        gap = small.value - big.value
        assert gap > 4 * (small.mc_std_error + big.mc_std_error)


class TestInvariance:
    def test_homogeneity(self, theta4, stream):
        rep = pseudovolume(theta4, samples=SAMPLES, stream=stream)
        rep2 = pseudovolume(scale(theta4, 1.7), samples=SAMPLES, stream=stream)
        assert rep2.value == pytest.approx(
            1.7**2 * rep.value,
            abs=4 * (1.7**2 * rep.mc_std_error + rep2.mc_std_error))

    def test_translation(self, theta4, stream):
        shifted = translate(theta4, np.array([0.3, -1.2, 0.7, 2.0]))
        a = pseudovolume(theta4, samples=SAMPLES, stream=stream)
        b = pseudovolume(shifted, samples=SAMPLES, stream=stream)
        assert b.value == pytest.approx(
            a.value, abs=4 * (a.mc_std_error + b.mc_std_error) + 1e-9)

    def test_unitary_invariance(self, stream):
        rng = np.random.default_rng(21)
        for i in range(3):
            P = random_polytope(rng, 6)
            u = realify(random_unitary(2, stream.substream(50 + i)))
            rotated = hull(P.vertices @ u.T)
            a = pseudovolume(P, samples=SAMPLES, stream=stream.substream(60 + i))
            b = pseudovolume(rotated, samples=SAMPLES, stream=stream.substream(70 + i))
            assert b.value == pytest.approx(
                a.value, abs=4 * (a.mc_std_error + b.mc_std_error) + 1e-9)

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
            assert intrinsic_phi_volume(square_c1, k, UNIT, ap) == pytest.approx(
                intrinsic_volume(square_c1, k, ap.angle), rel=1e-12)

    def test_rho_weight_vanishes_above_n(self, cube4, stream):
        ap = AnglePass(cube4, SAMPLES, stream)
        assert intrinsic_phi_volume(cube4, 3, RHO, ap) == 0.0
        assert intrinsic_phi_volume(cube4, 4, RHO, ap) == 0.0

    def test_point_body(self, stream):
        P = hull(np.array([[1.0, 2.0, 0.0, 0.0]]))
        ap = AnglePass(P, SAMPLES, stream)
        assert intrinsic_phi_volume(P, 0, RHO, ap) == 1.0

    def test_diagonal_matches_pseudovolume(self, theta4, stream):
        ap = AnglePass(theta4, SAMPLES, stream)
        rep = pseudovolume(theta4, angles=ap)
        assert intrinsic_phi_volume(theta4, 2, RHO, ap) == pytest.approx(
            rep.value, rel=1e-12)

    def test_rho_weight_uses_hull_tolerance(self, stream):
        # Under rank_eps = 1e-6 the triangle spans a complex line up to 1e-7,
        # so its rho is 0; rho under the default 1e-9 would be about 5e-15.
        tol = Tolerance(1e-6, 1e-6)
        P = hull(np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1e-7, 0]]), tol)
        ap = AnglePass(P, SAMPLES, stream, tol)
        rep = pseudovolume(P, angles=ap, tol=tol)
        assert rep.value == 0.0
        assert intrinsic_phi_volume(P, 2, RHO, ap) == rep.value


class TestMixedPseudovolume:
    def test_diagonal(self, theta4, stream):
        q = mixed_pseudovolume([theta4, theta4], samples=SAMPLES, stream=stream)
        p = pseudovolume(theta4, samples=SAMPLES, stream=stream)
        assert q.value == pytest.approx(
            p.value, abs=4 * (q.std_error + p.mc_std_error))

    def test_direct_vs_polarization(self, stream):
        rng = np.random.default_rng(22)
        a = random_polytope(rng, 5)
        b = random_polytope(rng, 5)
        d = mixed_pseudovolume([a, b], samples=SAMPLES, stream=stream)
        p = mixed_pseudovolume([a, b], samples=SAMPLES,
                               stream=stream.substream(1), method="polarization")
        assert d.value == pytest.approx(p.value, abs=4 * (d.std_error + p.std_error))

    def test_real_reduction(self, stream):
        # On real polygons Q_2 equals the Minkowski mixed volume.
        rng = np.random.default_rng(23)
        for i in range(5):
            a = random_polygon_real(rng)
            b = random_polygon_real(rng)
            q = mixed_pseudovolume([a, b], samples=SAMPLES, stream=stream.substream(i))
            v = mixed_volume([a.vertices, b.vertices])
            assert q.value == pytest.approx(v, abs=4 * q.std_error + 1e-9)

    def test_symmetry(self, stream):
        rng = np.random.default_rng(24)
        a = random_polytope(rng, 5)
        b = random_polytope(rng, 5)
        q1 = mixed_pseudovolume([a, b], samples=SAMPLES, stream=stream)
        q2 = mixed_pseudovolume([b, a], samples=SAMPLES, stream=stream)
        assert q1.value == pytest.approx(q2.value, abs=4 * (q1.std_error + q2.std_error))

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

        monkeypatch.setattr(polytope_mod, "hull", counting_hull)
        monkeypatch.setattr(pseudovolume_mod, "hull", counting_hull)
        mixed_phi_volume([theta4, cube4], RHO, samples=10, method="direct")
        assert len(calls) == 1

    def test_segment_degeneracy(self, stream):
        # Segments with C-dependent directions: Q_2 = 0; independent: > 0.
        e1 = segment([2, 0, 0, 0])
        ie1 = segment([0, 2, 0, 0])
        e2 = segment([0, 0, 2, 0])
        zero = mixed_pseudovolume([e1, ie1], samples=SAMPLES, stream=stream)
        assert abs(zero.value) < 1e-9
        pos = mixed_pseudovolume([e1, e2], samples=SAMPLES, stream=stream)
        assert pos.value > 0.1


class TestMixedWithBall:
    def test_segment_value(self, stream):
        seg = segment([2, 0, 0, 0])
        est = mixed_with_ball([seg], samples=SAMPLES, stream=stream)
        assert est.value == pytest.approx(8.0 / 3.0, abs=1e-9)

    def test_full_slot_falls_back(self, theta4, stream):
        est = mixed_with_ball([theta4, theta4], samples=SAMPLES, stream=stream)
        p = pseudovolume(theta4, samples=SAMPLES, stream=stream)
        assert est.value == pytest.approx(p.value, abs=4 * (est.std_error + p.mc_std_error))

    def test_arity_check(self, theta4):
        with pytest.raises(ValueError):
            mixed_with_ball([theta4, theta4, theta4])


class TestEpsExpansion:
    def test_real_square_coefficients(self, real_square2, stream):
        exp = eps_neighborhood_pseudovolume(
            real_square2, 0.5, samples=SAMPLES, stream=stream)
        c0, c1, c2 = exp.coefficients
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

    def test_negative_eps_rejected(self, theta4):
        with pytest.raises(ValueError):
            eps_neighborhood_pseudovolume(theta4, -0.1)

    def test_monotone_in_eps(self, theta4, stream):
        ap = AnglePass(theta4, SAMPLES, stream)
        values = [eps_neighborhood_pseudovolume(theta4, e, angles=ap).value
                  for e in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestValuation:
    def test_random_splits(self, stream):
        rng = np.random.default_rng(25)
        for i in range(5):
            P = random_polytope(rng, 6)
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            c = float(P.centroid @ u)
            res = valuation_check(P, u, c, samples=SAMPLES, stream=stream.substream(i))
            assert res.value <= 4 * res.std_error + 1e-9

    def test_split_misses(self, theta4, stream):
        # A plane that misses the body: one side is the whole body, the other
        # empty, so the residual is pure Monte Carlo noise.
        res = valuation_check(theta4, np.array([1.0, 0, 0, 0]), 10.0,
                              samples=SAMPLES, stream=stream)
        assert res.value <= 4 * res.std_error + 1e-9
