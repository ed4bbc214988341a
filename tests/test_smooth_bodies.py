import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from kazvol import (
    NonFiniteIntegrand,
    RandomStream,
    SingularPoint,
    SphereRule,
    ball,
    ball_pseudovolume,
    batch_mixed_discriminant,
    boundary_mixed_pseudovolume,
    complex_gradient,
    complex_hessian,
    custom_body,
    ellipsoid,
    levi_ball_identity,
    load_body,
    lower_ball,
    lower_ball_pseudovolume,
    mc_mixed_pseudovolume,
    mc_pseudovolume,
    smooth_quadrature,
)
from kazvol import smooth_bodies
from kazvol.numerics import kappa, sphere_sample

MC = 200_000
# Seeds of the cubature and analytic-ellipsoid tests, fixed before their first run.
ANISO_SEED = 7  # Q = A A^T + 4I with A from default_rng(7)
ANISO_MC_STREAM = RandomStream(7)
FALLBACK_STREAM = RandomStream(30)
# Seed of the closed-form determinant tests (points, random Q and rotations), fixed before
# their first run.
DET_SEED = 11
# Seeds of the one-dimensional integral's oracle tests (random Q and the Monte Carlo
# draws), fixed before their first run.
INTEGRAL_SEED = 29
INTEGRAL_MC_STREAM = RandomStream(29)


def without_q(body):
    """A built-in body without its Q: smooth_quadrature then takes the oracle paths
    (cubature over det_hessian for n <= 3, Monte Carlo above)."""
    return dataclasses.replace(body, q=None)


def anisotropic_ellipsoid():
    a = np.random.default_rng(ANISO_SEED).normal(size=(4, 4))
    return ellipsoid(2, a @ a.T + 4 * np.eye(4))


def degenerate_ellipsoid():
    # Q = diag(1, 1, 1, 0) drops Im z_2: a unitary image of lower_ball(2).
    return ellipsoid(2, np.diag([1.0, 1.0, 1.0, 0.0]))


def rotated_degenerate_ellipsoid():
    # R diag(1, 1, 1, 0) R^T, R a rotation by 0.3 in the (x_2, y_2) plane: the kink is off-axis.
    c, s = math.cos(0.3), math.sin(0.3)
    r = np.eye(4)
    r[2:, 2:] = [[c, -s], [s, c]]
    return ellipsoid(2, r @ np.diag([1.0, 1.0, 1.0, 0.0]) @ r.T)


def sphere_points(n, count, seed=0):
    pts = sphere_sample(2 * n, RandomStream(seed), count)
    return pts[:, ::2] + 1j * pts[:, 1::2]


class TestClosedForms:
    def test_ball_formula(self):
        for n in range(1, 11):
            expected = 2**n * kappa(2 * n) / kappa(n)
            assert ball_pseudovolume(n) == pytest.approx(expected, rel=1e-13)

    def test_first_values(self):
        assert ball_pseudovolume(1) == pytest.approx(math.pi, rel=1e-13)
        assert ball_pseudovolume(2) == pytest.approx(2 * math.pi, rel=1e-13)
        assert ball_pseudovolume(3) == pytest.approx(math.pi**2, rel=1e-13)

    def test_lower_ball_values(self):
        assert lower_ball_pseudovolume(1) == pytest.approx(2.0, rel=1e-13)
        assert lower_ball_pseudovolume(2) == pytest.approx(4 * math.pi / 3, rel=1e-13)
        assert lower_ball_pseudovolume(3) == pytest.approx(32 * math.pi / 15, rel=1e-13)

    def test_lower_below_full(self):
        for n in range(1, 11):
            assert lower_ball_pseudovolume(n) < ball_pseudovolume(n)

    def test_levi_identity(self):
        for n in (1, 2, 3, 4):
            lhs, rhs = levi_ball_identity(n)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDerivatives:
    def test_ball_hessian_matches_fd(self):
        body = ball(2)
        fd = custom_body(2, body.h)
        z = sphere_points(2, 50, seed=1)
        np.testing.assert_allclose(
            complex_hessian(body, z), complex_hessian(fd, z), atol=1e-5)

    def test_lower_ball_hessian_matches_fd(self):
        body = lower_ball(2)
        fd = custom_body(2, body.h)
        z = sphere_points(2, 50, seed=2)
        np.testing.assert_allclose(
            complex_hessian(body, z), complex_hessian(fd, z), atol=1e-5)

    def test_ball_gradient_matches_fd(self):
        body = ball(2)
        fd = custom_body(2, body.h)
        z = sphere_points(2, 50, seed=3)
        np.testing.assert_allclose(
            complex_gradient(body, z), complex_gradient(fd, z), atol=1e-6)

    def test_lower_ball_gradient_matches_fd(self):
        body = lower_ball(2)
        fd = custom_body(2, body.h)
        z = sphere_points(2, 50, seed=4)
        np.testing.assert_allclose(
            complex_gradient(body, z), complex_gradient(fd, z), atol=1e-6)

    def test_ball_hessian_determinant(self):
        # det Hess_C ||z|| = 2^{-(n+1)} ||z||^{-n} on the sphere: constant.
        for n in (2, 3):
            z = sphere_points(n, 100, seed=5)
            h = complex_hessian(ball(n), z)
            dets = np.linalg.det(h).real
            np.testing.assert_allclose(dets, 2.0 ** -(n + 1), rtol=1e-10)

    def test_ellipsoid_derivatives_match_fd(self):
        z = sphere_points(2, 50, seed=20)
        for body in (anisotropic_ellipsoid(), degenerate_ellipsoid()):
            fd = custom_body(2, body.h)
            np.testing.assert_allclose(
                complex_hessian(body, z), complex_hessian(fd, z), atol=1e-5)
            np.testing.assert_allclose(
                complex_gradient(body, z), complex_gradient(fd, z), atol=1e-5)

    def test_hessian_hermitian(self):
        z = sphere_points(2, 50, seed=6)
        for body in (ball(2), lower_ball(2), anisotropic_ellipsoid(), degenerate_ellipsoid()):
            h = complex_hessian(body, z)
            np.testing.assert_allclose(h, np.conj(np.swapaxes(h, 1, 2)), atol=1e-10)

    def test_euler_identity(self):
        # h is 1-homogeneous: Re <grad, z-part> relation 2 Re sum(dh/dz * z) = h.
        z = sphere_points(2, 50, seed=7)
        for body in (ball(2), lower_ball(2), anisotropic_ellipsoid()):
            g = complex_gradient(body, z)
            recon = 2 * np.sum(g * z, axis=1).real
            np.testing.assert_allclose(recon, body.h(z), atol=1e-8)


def determinant_bodies(n):
    """(body, Q) for ball, lower_ball, a random PSD ellipsoid and a rotated
    one-line-kernel ellipsoid in C^n."""
    rng = np.random.default_rng(DET_SEED + n)
    a = rng.normal(size=(2 * n, 2 * n))
    r, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
    kernel_line = r @ np.diag([1.0] * (2 * n - 1) + [0.0]) @ r.T
    random_q, kernel_q = a @ a.T, (kernel_line + kernel_line.T) / 2
    return [(ball(n), np.eye(2 * n)), (lower_ball(n), np.diag([0.0] + [1.0] * (2 * n - 1))),
            (ellipsoid(n, random_q), random_q), (ellipsoid(n, kernel_q), kernel_q)]


def mp_det_hessian(q, z):
    """det Hess_C h of h = sqrt(x^T Q x) at each point, at 40 digits, from the real Hessian."""
    mpmath = pytest.importorskip("mpmath")
    dim = q.shape[0]
    out = []
    with mpmath.workdps(40):
        qm = mpmath.matrix(q.tolist())
        for row in z:
            x = mpmath.matrix([c for v in row for c in (v.real, v.imag)])
            qx = qm * x
            h = mpmath.sqrt((x.T * qx)[0])
            hr = (qm - qx * qx.T / h**2) / h  # real Hessian (Q - g g^T) / h, g = Qx / h
            hc = mpmath.matrix(dim // 2, dim // 2)
            for l, k in itertools.product(range(dim // 2), repeat=2):
                hc[l, k] = (hr[2 * l, 2 * k] + hr[2 * l + 1, 2 * k + 1]
                            + 1j * (hr[2 * l, 2 * k + 1] - hr[2 * l + 1, 2 * k])) / 4
            out.append(complex(mpmath.det(hc)))
    return np.array(out)


class TestClosedFormDeterminant:
    # Gate values fixed before the first run.  The determinant lemma and LU each lose
    # about cond * eps: at each point the two routes agree to 1e-10 of (||Q||_2 / h)^n,
    # which bounds both terms that cancel in det A - u^T adj(A) conj(u) (det is
    # identically 0 on the segment that a one-line kernel gives in C^1), and on the
    # stiff ellipsoid diag(1e6, 1, ...) both routes must be within 1e-8 relative of the
    # 40-digit reference (100 * 1e6 * eps is 2.2e-8).
    AGREE = 1e-10
    STIFF = 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_lu(self, n):
        z = sphere_points(n, 200, seed=DET_SEED)
        for body, q in determinant_bodies(n):
            scale = (np.linalg.norm(q, ord=2) / body.h(z)) ** n
            err = np.abs(body.det_hessian(z) - np.linalg.det(complex_hessian(body, z)))
            assert np.all(err <= self.AGREE * scale), body.kind

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stiff_ellipsoid_against_mpmath(self, n):
        q = np.diag([1e6] + [1.0] * (2 * n - 1))
        body = ellipsoid(n, q)
        z = sphere_points(n, 40, seed=DET_SEED)
        ref = mp_det_hessian(q, z)
        for got in (body.det_hessian(z), np.linalg.det(complex_hessian(body, z))):
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= self.STIFF

    def test_one_body_density_needs_no_hessian(self, monkeypatch):
        def refuse(body, z):
            raise AssertionError("the one-body density built a Hessian")

        monkeypatch.setattr(smooth_bodies, "complex_hessian", refuse)
        for body, expected in ((ball(3), math.pi**2), (lower_ball(2), 4 * math.pi / 3)):
            res = smooth_quadrature([without_q(body)])
            assert res.method == "cubature"
            assert abs(res.value - expected) <= res.bound
        res = smooth_quadrature([without_q(lower_ball(4))], 20_000, FALLBACK_STREAM)
        assert res.method == "monte_carlo"
        assert res.value == pytest.approx(lower_ball_pseudovolume(4), abs=4 * res.std_error)

    def test_singular_points_still_raise(self):
        _, integrand = smooth_bodies._density([ball(2)])
        with pytest.raises(SingularPoint, match="origin"):
            integrand(np.zeros((1, 2)))
        with pytest.raises(SingularPoint, match="singular line"):
            lower_ball(2).det_hessian(np.array([[1.0, 0.0]]))


class TestQuadrature:
    def test_ball_zero_variance(self):
        res = mc_pseudovolume(ball(2), MC, RandomStream(1))
        assert res.value == pytest.approx(2 * math.pi, rel=1e-10)
        assert res.std_error < 1e-8

    def test_lower_ball_sphere_reduction(self):
        for n in (2, 3):
            res = mc_pseudovolume(lower_ball(n), MC, RandomStream(2))
            expected = lower_ball_pseudovolume(n)
            assert res.value == pytest.approx(expected, abs=4 * res.std_error)

    def test_ball_reduction_variant(self):
        res = mc_pseudovolume(lower_ball(2), MC, RandomStream(3), reduction="ball")
        expected = lower_ball_pseudovolume(2)
        assert res.value == pytest.approx(expected, abs=4 * res.std_error)

    def test_reductions_agree(self):
        a = mc_pseudovolume(lower_ball(2), MC, RandomStream(4), reduction="sphere")
        b = mc_pseudovolume(lower_ball(2), MC, RandomStream(5), reduction="ball")
        assert a.value == pytest.approx(b.value, abs=4 * (a.std_error + b.std_error))

    def test_no_samples_has_infinite_error(self):
        for reduction in ("sphere", "ball"):
            res = mc_pseudovolume(ball(2), samples=0, reduction=reduction)
            assert (res.value, res.std_error, res.samples) == (0.0, math.inf, 0)

    def test_deterministic(self):
        a = mc_pseudovolume(lower_ball(2), 50_000, RandomStream(6))
        b = mc_pseudovolume(lower_ball(2), 50_000, RandomStream(6))
        assert a.value == b.value

    def test_ellipsoid_matches_ball(self):
        body = ellipsoid(2, np.eye(4))
        res = mc_pseudovolume(body, 50_000, RandomStream(7))
        assert res.value == pytest.approx(2 * math.pi, rel=1e-3)

    def test_scaled_ellipsoid_homogeneity(self):
        # h_{tB} = t h_B comes from Q = t^2 I; P_2 scales by t^2.
        t = 1.5
        body = ellipsoid(2, t**2 * np.eye(4))
        res = mc_pseudovolume(body, 50_000, RandomStream(8))
        assert res.value == pytest.approx(t**2 * 2 * math.pi, rel=1e-3)


def _monomial_integral(alpha):
    """Integral of x^alpha over the unit sphere of R^len(alpha)."""
    if any(a % 2 for a in alpha):
        return 0.0
    b = [(a + 1) / 2 for a in alpha]
    return 2 * math.prod(math.gamma(x) for x in b) / math.gamma(sum(b))


class TestSphereRule:
    @pytest.mark.parametrize("dim,degree,axis", [
        (2, 7, 0), (2, 11, 1), (2, 19, 0),
        (4, 7, 0), (4, 11, 0), (4, 15, 3),
        (6, 7, 0), (6, 7, 5),
    ])
    def test_monomials_exact_up_to_degree(self, dim, degree, axis):
        rule = SphereRule(dim, degree, np.eye(dim)[axis])
        points, weights = rule.nodes(0, rule.size)
        area = _monomial_integral((0,) * dim)
        assert weights.sum() == pytest.approx(area, rel=1e-14)
        powers = points[:, :, None] ** np.arange(degree + 1)  # (N, dim, degree + 1)
        worst = 0.0
        for alpha in itertools.product(range(degree + 1), repeat=dim):
            if sum(alpha) > degree:
                continue
            value = weights @ np.prod(powers[:, np.arange(dim), alpha], axis=1)
            worst = max(worst, abs(value - _monomial_integral(alpha)))
        assert worst <= 1e-14 * area

    def test_chunks_tile_the_rule(self):
        rule = SphereRule(4, 11, np.eye(4)[2])
        whole = rule.nodes(0, rule.size)
        parts = [rule.nodes(a, min(a + 500, rule.size)) for a in range(0, rule.size, 500)]
        np.testing.assert_array_equal(np.vstack([p for p, _ in parts]), whole[0])
        np.testing.assert_array_equal(np.concatenate([w for _, w in parts]), whole[1])
        np.testing.assert_allclose(np.linalg.norm(whole[0], axis=1), 1.0, rtol=1e-15)


class TestCubature:
    @pytest.mark.parametrize("name,bodies,boundary,expected", [
        ("P1(B2)", [ball(1)], False, math.pi),
        ("P2(B4)", [ball(2)], False, 2 * math.pi),
        ("P3(B6)", [ball(3)], False, math.pi**2),
        ("P2(B3)", [lower_ball(2)], False, 4 * math.pi / 3),
        ("P3(B5)", [lower_ball(3)], False, 32 * math.pi / 15),
        ("ellipsoid 4I", [ellipsoid(2, 4 * np.eye(4))], False, 8 * math.pi),
        ("ellipsoid 2.25I", [ellipsoid(2, 2.25 * np.eye(4))], False, 2.25 * 2 * math.pi),
        ("Q2(B4,B3) interior", [ball(2), lower_ball(2)], False, 16 / 3),
        ("Q2(B4,B3) boundary", [ball(2), lower_ball(2)], True, 16 / 3),
        ("Q2(B3,B4) boundary", [lower_ball(2), ball(2)], True, 16 / 3),
        ("ellipsoid diag(1,1,1,0)", [degenerate_ellipsoid()], False, 4 * math.pi / 3),
        ("rotated diag(1,1,1,0)", [rotated_degenerate_ellipsoid()], False, 4 * math.pi / 3),
    ])
    def test_closed_forms(self, name, bodies, boundary, expected):
        res = smooth_quadrature([without_q(b) for b in bodies], boundary=boundary)
        assert res.method == "cubature"
        assert abs(res.value - expected) <= res.std_error + res.bound, name
        assert res.std_error == 0.0 and res.bound <= 1e-9 * expected

    def test_anisotropic_ellipsoid_matches_monte_carlo(self):
        body = without_q(anisotropic_ellipsoid())
        cub = smooth_quadrature([body])
        mc = mc_pseudovolume(body, 2_000_000, ANISO_MC_STREAM)
        assert cub.method == "cubature"
        assert abs(cub.value - mc.value) <= 4 * mc.std_error + cub.bound
        assert cub.bound <= 1e-6 * cub.value

    def test_ladder_respects_samples(self):
        # More nodes allowed, finer rules: the coarse answer's error bar covers the fine one.
        body = without_q(anisotropic_ellipsoid())
        coarse = smooth_quadrature([body], 3_000)
        fine = smooth_quadrature([body], 300_000)
        assert coarse.method == fine.method == "cubature"
        assert coarse.samples < fine.samples
        assert abs(coarse.value - fine.value) <= coarse.std_error + coarse.bound

    def test_capped_ladder_bound_counts_the_reported_rule(self, monkeypatch):
        # At 30,000 nodes the cap stops the ladder before two rules agree.  The bound is
        # the last difference plus N * eps * sum |w f| of the rule reported, whose N and
        # sums are recorded here from the nodes the ladder asks for.
        bodies = [ellipsoid(2, np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1), ball(2)]
        constant, integrand = smooth_bodies._density(bodies)
        rules = []  # [sum w f, sum |w f|, N] of each rule evaluated

        class RecordingRule(SphereRule):
            def nodes(self, start, stop):
                points, weights = super().nodes(start, stop)
                if start == 0:
                    rules.append([0.0, 0.0, self.size])
                wf = weights * smooth_bodies._real_values(
                    integrand(points[:, 0::2] + 1j * points[:, 1::2]))
                rules[-1][0] += float(np.sum(wf))
                rules[-1][1] += float(np.sum(np.abs(wf)))
                return points, weights

        monkeypatch.setattr(smooth_bodies, "SphereRule", RecordingRule)
        res = smooth_quadrature(bodies, 30_000)
        (previous, _, _), (total, total_abs, size) = rules[-2:]
        assert res.method == "cubature" and res.samples == sum(r[2] for r in rules)
        assert abs(total - previous) > 1e-12 * total_abs
        area = 2 * math.pi**2  # |S^3|
        assert res.value == pytest.approx(constant * total / area, rel=1e-14, abs=0)
        assert res.bound == pytest.approx(
            constant * (abs(total - previous) + size * math.ulp(1.0) * total_abs) / area,
            rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["different axes", "custom body", "too few samples",
                                      "boundary without gradient", "n = 4"])
    def test_fallback_to_monte_carlo(self, case):
        rotated = dataclasses.replace(lower_ball(2), singular_axis=np.eye(4)[1])
        no_gradient = dataclasses.replace(ball(2), gradient=None)
        bodies, boundary, samples, oracle = {
            "different axes": ([lower_ball(2), rotated], False, 4_000, mc_mixed_pseudovolume),
            "custom body": ([custom_body(2, ball(2).h)], False, 4_000, mc_pseudovolume),
            "too few samples": ([without_q(ball(3))], False, 20_000, mc_pseudovolume),
            "boundary without gradient": ([no_gradient, lower_ball(2)], True, 4_000,
                                          boundary_mixed_pseudovolume),
            "n = 4": ([without_q(ball(4))], False, 4_000, mc_pseudovolume),
        }[case]
        res = smooth_quadrature(bodies, samples, FALLBACK_STREAM, boundary=boundary)
        want = oracle(bodies[0] if oracle is mc_pseudovolume else bodies, samples,
                      FALLBACK_STREAM)
        assert res.method == "monte_carlo"
        assert (res.value, res.std_error, res.samples) == (want.value, want.std_error, samples)

    def test_interior_without_gradient_still_cubature(self):
        no_gradient = dataclasses.replace(ball(2), gradient=None)
        assert smooth_quadrature([no_gradient, lower_ball(2)]).method == "cubature"

    def test_singular_line_in_c1_rejected(self):
        for body in (lower_ball(1), ellipsoid(1, np.ones((2, 2)))):
            with pytest.raises(ValueError, match="singular line"):
                smooth_quadrature([body])


def random_q(n, kernel):
    """G G^T with G a 2n x (2n - kernel) normal matrix: full rank, or one kernel line."""
    g = np.random.default_rng(INTEGRAL_SEED + 10 * n + kernel).normal(size=(2 * n, 2 * n - kernel))
    return g @ g.T


def mp_schwinger(diagonal):
    """P_n of h = sqrt(x^T diag(d) x) from I_0 and I_1 by 30-digit quadrature (mpmath).

    For a diagonal Q, A = diag((d_2l + d_2l+1) / 4), adj(A) = det A / A, and B is
    diagonal with b_i = d_i^2 adj(A)_{ii//2} / 4.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        d = [mpmath.mpf(x) for x in diagonal]
        n = len(d) // 2
        half = mpmath.mpf(n) / 2
        a = [(d[2 * k] + d[2 * k + 1]) / 4 for k in range(n)]
        det_a = mpmath.fprod(a)
        b = [x**2 * det_a / a[i // 2] / 4 for i, x in enumerate(d)]

        def gauss_factor(t):
            return mpmath.fprod(1 / mpmath.sqrt(1 + 2 * t * x) for x in d)

        cuts = [0, mpmath.mpf("1e-6"), mpmath.mpf("1e-3"), 1, mpmath.inf]
        i0 = mpmath.quad(lambda t: t ** (half - 1) * gauss_factor(t), cuts) / mpmath.gamma(half)
        i1 = mpmath.quad(lambda t: t**half * gauss_factor(t)
                         * mpmath.fsum(bi / (1 + 2 * t * x) for bi, x in zip(b, d)),
                         cuts) / mpmath.gamma(half + 1)
        gauss = 2 ** (-half) * mpmath.gamma(half) / mpmath.gamma(n)

        def kap(k):
            return mpmath.pi ** (mpmath.mpf(k) / 2) / mpmath.gamma(mpmath.mpf(k) / 2 + 1)

        return float(4**n * 2 * kap(2 * n) / kap(n) * (det_a * i0 - i1) / gauss)


class TestSchwingerIntegral:
    # Gates fixed before the first run: 1e-13 relative on the closed forms, the
    # oracle's own bound or 4 sigma plus the integral's bound elsewhere.
    @pytest.mark.parametrize("body,expected", [
        *[(ball(n), ball_pseudovolume(n)) for n in range(1, 11)],
        *[(lower_ball(n), lower_ball_pseudovolume(n)) for n in range(2, 11)],
    ], ids=[f"ball{n}" for n in range(1, 11)] + [f"lower_ball{n}" for n in range(2, 11)])
    def test_closed_forms(self, body, expected):
        res = smooth_quadrature([body])
        assert res.method == "integral" and res.std_error == 0.0 and res.samples > 0
        assert abs(res.value - expected) <= 1e-13 * expected
        assert abs(res.value - expected) <= res.bound

    @pytest.mark.parametrize("n,kernel", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_random_q_matches_cubature(self, n, kernel):
        body = ellipsoid(n, random_q(n, kernel))
        res = smooth_quadrature([body])
        cub = smooth_quadrature([without_q(body)])
        assert (res.method, cub.method) == ("integral", "cubature")
        assert abs(res.value - cub.value) <= res.bound + cub.bound

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_q_matches_monte_carlo(self, n):
        body = ellipsoid(n, random_q(n, 0))
        res = smooth_quadrature([body])
        mc = mc_pseudovolume(body, 400_000, INTEGRAL_MC_STREAM)
        assert res.method == "integral"
        assert abs(res.value - mc.value) <= 4 * mc.std_error + res.bound

    @pytest.mark.parametrize("n", [2, 3])
    def test_stiff_ellipsoid_against_mpmath(self, n):
        diagonal = [1e6] + [1.0] * (2 * n - 1)
        res = smooth_quadrature([ellipsoid(n, np.diag(diagonal))])
        ref = mp_schwinger(diagonal)
        assert abs(res.value - ref) <= res.bound
        assert res.bound <= 1e-12 * ref


class TestScaleFree:
    """s Q gives P_n(s Q) = s^{n/2} P_n(Q) and Q_n(s Q, B, ...) = sqrt(s) Q_n(Q, B, ...) at
    every scale a float holds.  Gates fixed before the first run: 1e-13 relative for the
    integral against the closed form of a ball, 1e-12 relative against the unit-scale run,
    the reported bound for the cubature."""

    SCALES = [1e-200, 1e-160, 1e-20, 1e20, 1e32, 1e40, 1e120, 1e150, 1e200]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("s", SCALES)
    def test_integral(self, n, s):
        expected = ball_pseudovolume(n) * s ** (n / 2)
        res = smooth_quadrature([ellipsoid(n, s * np.eye(2 * n))])
        assert res.method == "integral"
        assert abs(res.value - expected) <= 1e-13 * expected
        assert abs(res.value - expected) <= res.bound <= 1e-12 * expected
        q = random_q(n, 1)
        unit = smooth_quadrature([ellipsoid(n, q)])
        assert smooth_quadrature([ellipsoid(n, s * q)]).value == pytest.approx(
            unit.value * s ** (n / 2), rel=1e-12, abs=0)

    @pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
    @pytest.mark.parametrize("s", SCALES)
    def test_mixed_cubature(self, s, boundary):
        expected = 2 * math.pi * math.sqrt(s)
        res = smooth_quadrature([ellipsoid(2, s * np.eye(4)), ball(2)], 20_000,
                                boundary=boundary)
        assert res.method == "cubature"
        assert abs(res.value - expected) <= res.bound <= 1e-12 * expected

    @pytest.mark.parametrize("s", [1e-200, 1e200])
    def test_monte_carlo(self, s):
        # det Hess_C h is constant on the sphere for s I: every draw is exact.
        res = mc_pseudovolume(ellipsoid(2, s * np.eye(4)), 1000, RandomStream(1))
        assert res.value == pytest.approx(2 * math.pi * s, rel=1e-12, abs=0)

    @pytest.mark.parametrize("s", [1e-200, 1e-160, 1e200])
    def test_oracle_route(self, s):
        """A body's own callables are scale-free too: with ``q=None`` the cubature reads
        the body's ``det_hessian``, not a unit-scale copy, and det A and adj(A) taken at
        the body's scale would overflow (1e200) or lose digits (1e-160, 1e-200)."""
        res = smooth_quadrature([dataclasses.replace(ellipsoid(2, s * np.eye(4)), q=None)],
                                70_000, RandomStream(1))
        expected = 2 * math.pi * s
        assert res.method == "cubature"
        assert abs(res.value - expected) <= res.bound <= 1e-12 * expected

    def test_symmetry_test_is_relative(self):
        r = np.linalg.qr(np.random.default_rng(INTEGRAL_SEED).normal(size=(8, 8)))[0]
        q = 1e20 * r @ np.diag([1.0, 2, 3, 4, 5, 6, 7, 8]) @ r.T
        assert np.max(np.abs(q - q.T)) > 1.0  # rounding in the last bits of 1e20
        assert ellipsoid(4, q).q is not None
        with pytest.raises(ValueError, match="symmetric"):
            ellipsoid(1, 1e-13 * np.array([[1.0, 5.0], [0.0, 1.0]]))


class TestMixedQuadrature:
    def test_diagonal(self):
        res = mc_mixed_pseudovolume([ball(2), ball(2)], MC, RandomStream(9))
        assert res.value == pytest.approx(2 * math.pi, rel=1e-10)

    def test_interior_value(self):
        res = mc_mixed_pseudovolume([ball(2), lower_ball(2)], MC, RandomStream(10))
        assert res.value == pytest.approx(16.0 / 3.0, abs=4 * res.std_error)

    def test_boundary_value(self):
        res = boundary_mixed_pseudovolume([ball(2), lower_ball(2)], MC, RandomStream(11))
        assert res.value == pytest.approx(16.0 / 3.0, abs=4 * res.std_error)

    def test_boundary_diagonal(self):
        res = boundary_mixed_pseudovolume([ball(2), ball(2)], MC, RandomStream(12))
        assert res.value == pytest.approx(2 * math.pi, abs=4 * res.std_error + 1e-8)

    def test_symmetry(self):
        a = mc_mixed_pseudovolume([ball(2), lower_ball(2)], MC, RandomStream(13))
        b = mc_mixed_pseudovolume([lower_ball(2), ball(2)], MC, RandomStream(13))
        assert a.value == pytest.approx(b.value, abs=4 * (a.std_error + b.std_error))

    def test_arity_check(self):
        with pytest.raises(ValueError):
            mc_mixed_pseudovolume([ball(2)], 1000, RandomStream(0))

    def test_bodies_from_different_spaces(self):
        with pytest.raises(ValueError, match="must share the ambient space"):
            mc_mixed_pseudovolume([ball(2), ball(3)], 1000, RandomStream(0))


class TestErrorHandling:
    def test_non_finite_integrand(self):
        bad = custom_body(2, lambda z: np.where(
            z[:, 0].real > 0, np.linalg.norm(z, axis=1), np.nan))
        with pytest.raises((NonFiniteIntegrand, FloatingPointError)):
            mc_pseudovolume(bad, 10_000, RandomStream(1))

    def test_ellipsoid_validation(self):
        for q, match in ((np.eye(3), "4x4"),
                         (np.diag([1.0, 1.0, 1.0, -1.0]), "positive semidefinite"),
                         (np.diag([1.0, 1.0, 1.0, np.nan]), "finite")):
            with pytest.raises(ValueError, match=match):
                ellipsoid(2, q)

    def test_singular_axis_from_q(self):
        assert ball(2).singular_axis is None
        np.testing.assert_array_equal(lower_ball(2).singular_axis, np.eye(4)[0])
        np.testing.assert_array_equal(degenerate_ellipsoid().singular_axis, np.eye(4)[3])
        np.testing.assert_allclose(rotated_degenerate_ellipsoid().singular_axis,
                                   [0.0, 0.0, -math.sin(0.3), math.cos(0.3)], atol=1e-15)
        np.testing.assert_allclose(ellipsoid(1, np.ones((2, 2))).singular_axis,
                                   [math.sqrt(0.5), -math.sqrt(0.5)], atol=1e-15)
        # A two-dimensional kernel has no single axis, and its mass escapes the sphere average.
        with pytest.raises(ValueError, match="ker Q has dimension 2"):
            ellipsoid(2, np.diag([0.0, 1.0, 1.0, 0.0]))


class TestLoadBody:
    def test_ball(self):
        b = load_body(json.dumps({"kind": "ball", "n": 2}))
        assert b.kind == "ball_2n"
        assert b.ambient_n == 2

    def test_lower_ball(self):
        b = load_body({"kind": "lower_ball", "n": 3})
        assert b.kind == "ball_2n_minus_1"

    def test_ellipsoid(self):
        b = load_body({"kind": "ellipsoid", "n": 2, "Q": np.eye(4).tolist()})
        assert b.kind == "ellipsoid"

    def test_unknown(self):
        with pytest.raises(ValueError):
            load_body({"kind": "torus", "n": 2})


class TestBatchDiscriminantIntegration:
    def test_mixed_matches_determinant_on_diagonal(self):
        z = sphere_points(2, 20, seed=8)
        h = complex_hessian(ball(2), z)
        d = batch_mixed_discriminant([h, h])
        np.testing.assert_allclose(d.real, np.linalg.det(h).real, rtol=1e-10)
