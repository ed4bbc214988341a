"""Acceptance battery: eleven numbered criteria, one test (one pass/fail line
under ``pytest -v``) per criterion, plus the evidence tests for criteria 3
and 4.

Criteria 3 and 4 once carried published targets -- Q2(B4, B3) = 248/45 and
P2(Theta_4) = 20 sqrt3/9, P2(Theta_3) = 2 sqrt3 -- that contradict the
framework the library implements.  They now check 16/3, 16 sqrt3/9 and
4 sqrt3/3 at their original gates, seeds and sample counts.  The evidence that
the published targets are wrong sits next to each criterion in tests that use
neither kazvol's quadratures nor its rho routine: a symbolic Hessian with a
deterministic sphere integral for criterion 3, and an exact census of the
Theta_4 two-faces for criterion 4.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import nquad

from kazvol import (
    AnglePass,
    RandomStream,
    alexandroff_gap,
    ball,
    ball_pseudovolume,
    boundary_mixed_pseudovolume,
    eps_neighborhood_pseudovolume,
    hull,
    intrinsic_phi_volume,
    lower_ball,
    lower_ball_pseudovolume,
    mc_mixed_pseudovolume,
    mc_pseudovolume,
    minkowski_sum,
    mixed_discriminant,
    mixed_pseudovolume,
    mixed_volume,
    pseudovolume,
    valuation_check,
)
from kazvol.complex_linalg import random_unitary, realify
from kazvol.numerics import weighted_sum

from conftest import random_polygon_real, random_polytope

TABLE_FULL = [
    math.pi, 2 * math.pi, math.pi**2, 4 * math.pi**2 / 3, math.pi**3 / 2,
    8 * math.pi**3 / 15, math.pi**4 / 6, 16 * math.pi**4 / 105,
    math.pi**5 / 24, 32 * math.pi**5 / 945,
]
TABLE_LOWER = [
    2.0, 4 * math.pi / 3, 32 * math.pi / 15, 32 * math.pi**2 / 35,
    1024 * math.pi**2 / 945, 256 * math.pi**3 / 693, 16384 * math.pi**3 / 45045,
    2048 * math.pi**4 / 19305, 1048576 * math.pi**4 / 11486475,
    16384 * math.pi**5 / 692835,
]

MC_FULL = 2_000_000
MC_ANGLE = 400_000


def theta4_polytope():
    return hull(np.vstack([np.eye(4), -np.eye(4)]))


def theta3_polytope():
    return hull(np.array([
        [1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0],
        [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 0]], dtype=float))


def test_criterion_01_full_ball_table():
    """P_n(B_2n) closed forms for n=1..10 at 1e-12; MC n=1..3 within 3 sigma."""
    for n in range(1, 11):
        value = ball_pseudovolume(n)
        assert value == pytest.approx(TABLE_FULL[n - 1], rel=1e-12), \
            f"closed form P_{n}(B_{2 * n}) = {value} != {TABLE_FULL[n - 1]}"
    for n in (1, 2, 3):
        res = mc_pseudovolume(ball(n), MC_FULL, RandomStream(42).substream(n))
        assert abs(res.value - TABLE_FULL[n - 1]) <= 3 * res.std_error + 1e-9, \
            f"MC P_{n}(B_{2 * n}) = {res.value} ± {res.std_error}"


def test_criterion_02_lower_ball_table():
    """P_n(B_2n-1) closed forms at 1e-12; MC n=2,3 within 3 sigma; strictly
    below the full-ball values."""
    for n in range(1, 11):
        value = lower_ball_pseudovolume(n)
        assert value == pytest.approx(TABLE_LOWER[n - 1], rel=1e-12)
        assert value < ball_pseudovolume(n)
    for n in (2, 3):
        res = mc_pseudovolume(lower_ball(n), MC_FULL, RandomStream(42).substream(10 + n))
        assert abs(res.value - TABLE_LOWER[n - 1]) <= 3 * res.std_error, \
            f"MC P_{n}(B_{2 * n - 1}) = {res.value} ± {res.std_error}"


def test_criterion_03_mixed_ball_quadratures():
    """Q2(B4, B3) = 16/3 by interior and boundary quadrature, 1% relative.

    The published target 248/45 = 5.511... is rejected: Q2 is the
    polarization of P2, and with the one constant that gives P2(B4) = 2 pi
    and P2(B3) = 4 pi/3 (criteria 1 and 2) the mixed-discriminant density
    integrates to 16/3 exactly (test_criterion_03_independent_quadrature).
    The ratio 248/45 : 16/3 = 31/30 is no normalization factor, since that
    constant is already pinned by the two ball values.
    """
    target = 16.0 / 3.0
    bodies = [ball(2), lower_ball(2)]
    interior = mc_mixed_pseudovolume(bodies, 1_000_000, RandomStream(42).substream(20))
    boundary = boundary_mixed_pseudovolume(bodies, 1_000_000, RandomStream(42).substream(21))
    for label, res in (("interior", interior), ("boundary", boundary)):
        assert abs(res.value - target) <= 0.01 * target, (
            f"{label} quadrature gives {res.value:.6f} ± {res.std_error:.4f}, "
            f"not {target:.6f}")


def test_criterion_03_independent_quadrature():
    """P2(B4), P2(B3) and Q2(B4, B3) without kazvol, at 1e-9 relative.

    sympy forms the complex Hessians of h_B4 = |z| and
    h_B3 = sqrt(y_1^2 + |z_2|^2) and their mixed discriminant; a deterministic
    nquad integrates each density over S^3.  The single constant of the
    integral formula is fixed by P2(B4) = 2 pi; the same constant then gives
    P2(B3) = 4 pi/3 and Q2(B4, B3) = 16/3, which the rejected 248/45 misses by
    more than criterion 3's 1% gate.
    """
    sp = pytest.importorskip("sympy")

    x1, y1, x2, y2 = sp.symbols("x1 y1 x2 y2", real=True)
    pairs = ((x1, y1), (x2, y2))

    def hess_c(h):
        # d^2 h / dz_j dzbar_k with d/dz = (d/dx - i d/dy)/2, d/dzbar = (d/dx + i d/dy)/2.
        def entry(j, k):
            (xj, yj), (xk, yk) = pairs[j], pairs[k]
            return (sp.diff(h, xj, xk) + sp.diff(h, yj, yk)
                    + sp.I * (sp.diff(h, xj, yk) - sp.diff(h, yj, xk))) / 4
        return sp.Matrix(2, 2, entry)

    def mixed_disc(a, b):
        return (a[0, 0] * b[1, 1] + a[1, 1] * b[0, 0]
                - a[0, 1] * b[1, 0] - a[1, 0] * b[0, 1]) / 2

    h_b4 = sp.sqrt(x1**2 + y1**2 + x2**2 + y2**2)
    h_b3 = sp.sqrt(y1**2 + x2**2 + y2**2)
    hess_b4, hess_b3 = hess_c(h_b4), hess_c(h_b3)
    densities = {name: sp.cancel(sp.expand(expr)) for name, expr in (
        ("P2(B4)", hess_b4.det()),
        ("P2(B3)", hess_b3.det()),
        ("Q2(B4,B3)", mixed_disc(hess_b4, hess_b3)))}
    closed = (2 * y1**2 + 3 * (x2**2 + y2**2)) / (32 * h_b3**3 * h_b4)
    assert sp.cancel(densities["Q2(B4,B3)"] - closed) == 0

    def sphere_integral(expr):
        f = sp.lambdify((x1, y1, x2, y2), expr, "math")

        # Hyperspherical coordinates with x1 as the polar axis: on S^3,
        # h_B3 = sin(theta) vanishes only at x1 = +-1, and the area element
        # sin^2(theta) cancels the densities' growth of at most 1/h_B3^2
        # there, so every integrand stays bounded.
        def integrand(theta, phi, psi):
            s = math.sin(theta)
            return s * s * math.sin(phi) * f(
                math.cos(theta), s * math.cos(phi),
                s * math.sin(phi) * math.cos(psi), s * math.sin(phi) * math.sin(psi))

        value, _ = nquad(integrand, [(0, math.pi), (0, math.pi), (0, 2 * math.pi)])
        return value

    integrals = {name: sphere_integral(expr) for name, expr in densities.items()}
    constant = 2 * math.pi / integrals["P2(B4)"]
    assert constant == pytest.approx(8 / math.pi, rel=1e-9)
    p2_b3 = constant * integrals["P2(B3)"]
    q2 = constant * integrals["Q2(B4,B3)"]
    assert p2_b3 == pytest.approx(4 * math.pi / 3, rel=1e-9)
    assert q2 == pytest.approx(16 / 3, rel=1e-9)
    assert abs(q2 - 248 / 45) > 0.01 * 248 / 45


def test_criterion_04_polytope_closed_values():
    """P_1(square) = 2 sqrt 2; P_n(I_2n) = 4^n; crosspolytope values.

    All 32 two-faces of Theta_4 have rho = 2/3, so P_2(Theta_4) = 16 sqrt3/9
    and P_2(Theta_3) = 4 sqrt3/3.  The published targets are rejected:
    20 sqrt3/9 rests on 16 of the 32 two-faces having rho = 1, and 2 sqrt3 on
    all eight two-faces of Theta_3 having rho = 1.  The 32 faces form one
    orbit of maps that preserve rho, and every one of them has rho = 2/3 in
    exact arithmetic (test_criterion_04_independent_face_census); this rho
    is the normalization that reproduces P_2(B_4)
    (test_criterion_04_independent_rho_normalization).
    """
    stream = RandomStream(42)
    square = hull(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float))
    rep = pseudovolume(square, samples=MC_ANGLE, stream=stream.substream(1))
    assert rep.value == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    for n in (1, 2):
        cube = hull(np.array(list(itertools.product([-1.0, 1.0], repeat=2 * n))))
        rep = pseudovolume(cube, samples=MC_ANGLE, stream=stream.substream(2 + n))
        assert abs(rep.value - 4.0**n) <= 4 * rep.std_error + rep.bound + 1e-9

    theta4 = theta4_polytope()
    ap = AnglePass(theta4, MC_ANGLE, stream.substream(5))
    for f in theta4.faces[2]:
        if f.vertex_ids == theta4.improper_face.vertex_ids:
            continue
        a = ap.angle(f)
        assert abs(a.value - 1.0 / 6.0) <= 4 * a.std_error + a.bound, \
            f"two-face angle {a.value} != 1/6"

    rhos = sorted(f.rho for f in theta4.faces[2] if f.vertex_ids != theta4.improper_face.vertex_ids)
    n_two_thirds = sum(1 for r in rhos if abs(r - 2.0 / 3.0) <= 1e-9)
    assert len(rhos) == 32 and n_two_thirds == 32, f"two-face rho values {rhos}"
    rep4 = pseudovolume(theta4, angles=ap)
    rep3 = pseudovolume(theta3_polytope(), samples=MC_ANGLE, stream=stream.substream(6))
    assert abs(rep4.value - 16 * math.sqrt(3) / 9) <= 4 * rep4.std_error + rep4.bound, \
        f"P_2(Theta_4) = {rep4.value} ± {rep4.std_error} + {rep4.bound}"
    assert abs(rep3.value - 4 * math.sqrt(3) / 3) <= 4 * rep3.std_error + rep3.bound + 1e-9, \
        f"P_2(Theta_3) = {rep3.value} ± {rep3.std_error} + {rep3.bound}"


def test_criterion_04_independent_face_census():
    """The two-faces of Theta_4 and Theta_3 in exact arithmetic, without kazvol.

    Coordinates are (Re z_1, Im z_1, Re z_2, Im z_2); a two-face of Theta_4 is
    conv{s_a e_a, s_b e_b, s_c e_c} on three of the four real axes.  The 32
    faces form one orbit of diag(i, 1), diag(1, i), the coordinate swap and
    conjugation, maps that are orthogonal and send the complex structure J to
    +-J, hence preserve rho.  For edge vectors a, b,
    rho = |det_C(a, b)|^2 / Gram_R(a, b), which is 2/3 on every face, so no
    face has rho = 1.  Summing rho * area * outer angle over the faces gives
    16 sqrt3/9 for Theta_4 and 4 sqrt3/3 for Theta_3.
    """
    identity = np.eye(4, dtype=int)
    faces4 = {
        frozenset(tuple(s if i == k else 0 for i in range(4)) for k, s in zip(axes, signs))
        for axes in itertools.combinations(range(4), 3)
        for signs in itertools.product((-1, 1), repeat=3)}
    assert len(faces4) == 32

    complex_structure = np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    generators = [
        np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
        np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
        np.diag([1, -1, 1, -1]),
    ]

    def image(g, face):
        return frozenset(tuple(int(c) for c in g @ np.array(v)) for v in face)

    for g in generators:
        assert (g.T @ g == identity).all()
        j_pulled = g.T @ complex_structure @ g
        assert (j_pulled == complex_structure).all() or (j_pulled == -complex_structure).all()
        assert {image(g, f) for f in faces4} == faces4
    orbit, frontier = set(), [next(iter(faces4))]
    while frontier:
        face = frontier.pop()
        if face not in orbit:
            orbit.add(face)
            frontier.extend(image(g, face) for g in generators)
    assert orbit == faces4

    def rho_and_gram(face):
        v0, v1, v2 = (np.array(v) for v in sorted(face))
        a, b = v1 - v0, v2 - v0
        det_c = complex(a[0], a[1]) * complex(b[2], b[3]) - complex(a[2], a[3]) * complex(b[0], b[1])
        gram = int(a @ a) * int(b @ b) - int(a @ b) ** 2
        return Fraction(int(det_c.real) ** 2 + int(det_c.imag) ** 2, gram), gram

    def outer_angle_theta4(face):
        # The normal cone is spanned by the outer normals of the two facets
        # through the face, sum(s_k e_k) +- e_d on the remaining axis d.
        direction = sum(np.array(v) for v in face)
        d = int(np.flatnonzero(direction == 0)[0])
        n_plus, n_minus = direction + identity[d], direction - identity[d]
        return math.acos((n_plus @ n_minus) / (n_plus @ n_plus)) / (2 * math.pi)

    p2_theta4 = 0.0
    for face in faces4:
        rho, gram = rho_and_gram(face)
        assert rho == Fraction(2, 3)
        p2_theta4 += float(rho) * math.sqrt(gram) / 2 * outer_angle_theta4(face)
    assert p2_theta4 == pytest.approx(16 * math.sqrt(3) / 9, rel=1e-12)

    # Theta_3 spans the first three axes: its two-faces are facets of a
    # 3-polytope in R^4, whose normal cones are half-planes (outer angle 1/2).
    faces3 = [f for f in faces4 if all(v[3] == 0 for v in f)]
    assert len(faces3) == 8
    p2_theta3 = 0.0
    for face in faces3:
        rho, gram = rho_and_gram(face)
        assert rho == Fraction(2, 3)
        p2_theta3 += float(rho) * math.sqrt(gram) / 2 * 0.5
    assert p2_theta3 == pytest.approx(4 * math.sqrt(3) / 3, rel=1e-12)


def test_criterion_04_independent_rho_normalization():
    """rho = |det_C|^2 / Gram_R averages P_2(B_4) / V_2(B_4) = 2 pi / 3 pi.

    The ball is invariant under every rotation, so the tangent planes that
    build P_2(B_4) are uniform on the real 2-planes of C^2, and the mean of rho
    over those planes must equal P_2(B_4) / V_2(B_4) = 2/3.  The alternative
    weight |det_C| / sqrt(Gram_R) averages pi/4 and misses it.
    """
    rng = np.random.default_rng(20191007)
    samples = 200_000
    a = rng.normal(size=(samples, 2)) + 1j * rng.normal(size=(samples, 2))
    b = rng.normal(size=(samples, 2)) + 1j * rng.normal(size=(samples, 2))
    det_c = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]) ** 2
    dot = (a.conj() * b).sum(axis=1).real
    gram = (np.abs(a) ** 2).sum(axis=1) * (np.abs(b) ** 2).sum(axis=1) - dot**2
    for weight, expect_match in ((det_c / gram, True), (np.sqrt(det_c / gram), False)):
        mean = weight.mean()
        err = weight.std(ddof=1) / math.sqrt(samples)
        matches = abs(mean - (2 * math.pi) / (3 * math.pi)) <= 4 * err
        assert matches == expect_match, f"mean weight {mean} ± {err}"


def test_criterion_05_real_reduction():
    """Q_2 of real polygons equals the Minkowski mixed volume, 20 random pairs."""
    rng = np.random.default_rng(1234)
    stream = RandomStream(42)
    for i in range(20):
        a = random_polygon_real(rng)
        b = random_polygon_real(rng)
        q = mixed_pseudovolume([a, b], samples=100_000, stream=stream.substream(i))
        v = mixed_volume([a.vertices, b.vertices])
        assert abs(q.value - v) <= 4 * q.std_error + q.bound + 1e-9, \
            f"pair {i}: Q_2 = {q.value} vs V_2 = {v}"


def test_criterion_06_non_monotonicity():
    """P_2(K^l) = 2l and P_2(Gamma^l) = 8 l^2/sqrt(1+l^2); reversal at l=0.2."""
    stream = RandomStream(42)

    def k_body(lam):
        return hull(np.array([
            [0, 1, 0, 0], [0, -1, 0, 0], [0, 1, lam, 0], [0, -1, lam, 0]]))

    def gamma_body(lam):
        return hull(np.array([
            [2, 2, 0, 0], [-2, 2, 0, 0], [-2, -2, 0, 0], [2, -2, 0, 0],
            [0, 0, 2 * lam, 0]]))

    lam = 0.25
    k_rep = pseudovolume(k_body(lam), samples=MC_ANGLE, stream=stream.substream(1))
    g_rep = pseudovolume(gamma_body(lam), samples=MC_ANGLE, stream=stream.substream(2))
    assert abs(k_rep.value - 2 * lam) <= 4 * k_rep.std_error + k_rep.bound + 1e-9
    expected = 8 * lam**2 / math.sqrt(1 + lam**2)
    assert abs(g_rep.value - expected) <= 4 * g_rep.std_error + g_rep.bound + 1e-9

    lam = 0.2
    k_rep = pseudovolume(k_body(lam), samples=MC_ANGLE, stream=stream.substream(3))
    g_rep = pseudovolume(gamma_body(lam), samples=MC_ANGLE, stream=stream.substream(4))
    assert g_rep.value < k_rep.value, "monotonicity reversal not observed"


def test_criterion_07_eps_expansion():
    """Square coefficients (2 pi, 32/3, 4); point body reduces to the ball."""
    stream = RandomStream(42)
    square = hull(np.array([
        [1, 0, 1, 0], [1, 0, -1, 0], [-1, 0, 1, 0], [-1, 0, -1, 0]], dtype=float))
    ap = AnglePass(square, MC_ANGLE, stream)
    exp = eps_neighborhood_pseudovolume(square, 0.0, angles=ap)
    targets = (2 * math.pi, 32.0 / 3.0, 4.0)
    for k, (got, want) in enumerate(zip(exp.terms, targets)):
        assert abs(got.value - want) <= 4 * got.std_error + got.bound + 1e-9, \
            f"coefficient of eps^{2 - k}: {got.value} vs {want}"

    point = hull(np.zeros((1, 4)))
    for eps in (0.3, 1.0, 2.5):
        exp = eps_neighborhood_pseudovolume(point, eps, samples=1000,
                                            stream=stream.substream(9))
        assert exp.value == pytest.approx(eps**2 * ball_pseudovolume(2), rel=1e-12)


def test_criterion_08_valuation_residual():
    """Split residual below 4x combined MC error on 10 random 3-polytopes."""
    rng = np.random.default_rng(777)
    stream = RandomStream(42)
    frame = np.linalg.qr(rng.normal(size=(4, 3)))[0].T
    for i in range(10):
        coords = rng.normal(size=(6, 3))
        P = hull(coords @ frame + rng.normal(size=4) * 0.1)
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        res = valuation_check(P, u, float(P.centroid @ u),
                              samples=100_000, stream=stream.substream(i))
        assert res.value <= 4 * res.std_error + res.bound + 1e-9, \
            f"split {i}: residual {res.value} vs error {res.std_error} + {res.bound}"


def test_criterion_09_invariance_battery():
    """Homogeneity, translation and unitary invariance; orthogonal counterexample."""
    rng = np.random.default_rng(4321)
    stream = RandomStream(42)
    for i in range(10):
        P = random_polytope(rng, 6)
        base = pseudovolume(P, samples=100_000, stream=stream.substream(3 * i))
        lam = float(rng.uniform(0.5, 2.0))
        scaled = pseudovolume(hull(P.vertices * lam), samples=100_000,
                              stream=stream.substream(3 * i + 1))
        diff = weighted_sum([(1, scaled), (-lam**2, base)])
        assert abs(diff.value) <= 4 * diff.std_error + diff.bound + 1e-9

        moved = pseudovolume(hull(P.vertices + rng.normal(size=4)),
                             samples=100_000, stream=stream.substream(3 * i + 2))
        diff = weighted_sum([(1, moved), (-1, base)])
        assert abs(diff.value) <= 4 * diff.std_error + diff.bound + 1e-9

        u = realify(random_unitary(2, stream.substream(100 + i)))
        rotated = pseudovolume(hull(P.vertices @ u.T), samples=100_000,
                               stream=stream.substream(200 + i))
        diff = weighted_sum([(1, rotated), (-1, base)])
        assert abs(diff.value) <= 4 * diff.std_error + diff.bound + 1e-9

    # I_2 = square of side 2 in R^2 x {0}: P_2 = 4 = 2^2; the orthogonal swap
    # of Im z_1 and Re z_2 sends it into a complex line where P_2 = 0 exactly.
    square = hull(np.array([
        [1, 0, 1, 0], [1, 0, -1, 0], [-1, 0, 1, 0], [-1, 0, -1, 0]], dtype=float))
    rep = pseudovolume(square, samples=10_000, stream=stream)
    assert rep.value == pytest.approx(4.0, abs=1e-12)
    swapped = hull(square.vertices[:, [0, 2, 1, 3]])
    assert pseudovolume(swapped, samples=10_000, stream=stream).value == 0.0


def test_criterion_10_mixed_discriminant_suite():
    """Determinant/identity/symmetry/linearity/left-multiplication properties,
    Laplace-vs-permutation agreement, Alexandroff inequality."""
    rng = np.random.default_rng(2718)

    def herm(n, positive=False):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return a @ a.conj().T if positive else (a + a.conj().T) / 2

    for n in (3, 4):
        mats = [herm(n) for _ in range(n)]
        # Property: diagonal reduces to the determinant.
        d = mixed_discriminant([mats[0]] * n)
        assert abs(d - np.linalg.det(mats[0])) <= 1e-9 * max(1.0, abs(d))
        # Property: identity arguments give 1.
        assert mixed_discriminant([np.eye(n)] * n).real == pytest.approx(1.0, rel=1e-12)
        # Property: symmetry under permutations.
        base = mixed_discriminant(mats)
        for perm in itertools.permutations(range(n)):
            val = mixed_discriminant([mats[i] for i in perm])
            assert abs(val - base) <= 1e-9 * max(1.0, abs(base))
        # Property: linearity in the first slot.
        a, b = herm(n), herm(n)
        lhs = mixed_discriminant([2 * a + 3 * b] + mats[1:])
        rhs = (2 * mixed_discriminant([a] + mats[1:])
               + 3 * mixed_discriminant([b] + mats[1:]))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        # Property: left multiplication scales by the determinant.
        n_mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = mixed_discriminant([n_mat @ m for m in mats])
        rhs = np.linalg.det(n_mat) * base
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        # Laplace-expansion path agrees with the permutation path.
        lap = mixed_discriminant(mats, method="laplace")
        perm_val = mixed_discriminant(mats, method="permutation")
        assert abs(lap - perm_val) <= 1e-10 * max(1.0, abs(perm_val))

    for _ in range(100):
        m = herm(3, positive=True)
        other = herm(3, positive=True)
        rest = [herm(3, positive=True)]
        assert alexandroff_gap(m, other, rest) >= -1e-9
    m = herm(3, positive=True)
    rest = [herm(3, positive=True)]
    scale_gap = alexandroff_gap(m, 1.7 * m, rest)
    norm = abs(mixed_discriminant([m, m, *rest])) ** 2
    assert abs(scale_gap) <= 1e-9 * max(1.0, norm)


def test_criterion_11_degeneracy_characterization():
    """Q_2 > 0 exactly when the two bodies carry segments with C-linearly
    independent directions, over 50 random tuples."""
    rng = np.random.default_rng(31415)
    stream = RandomStream(42)

    def segment(direction):
        v = np.zeros((2, 4))
        v[1] = direction
        return hull(v)

    def complex_line_polygon():
        # Polygon inside z_2 = c z_1: every edge direction is a C-multiple
        # of the others.
        c = rng.normal() + 1j * rng.normal()
        z1 = rng.normal(size=5) + 1j * rng.normal(size=5)
        z2 = c * z1
        return hull(np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=1))

    def edge_directions(P):
        dirs = []
        for f in P.faces.get(1, []):
            ids = sorted(f.vertex_ids)
            if len(ids) != 2:
                continue
            d = P.vertices[ids[1]] - P.vertices[ids[0]]
            dirs.append(np.array([d[0] + 1j * d[1], d[2] + 1j * d[3]]))
        if P.dim_real == 1:
            d = P.vertices[1] - P.vertices[0]
            dirs.append(np.array([d[0] + 1j * d[1], d[2] + 1j * d[3]]))
        return dirs

    def has_independent_pair(A, B):
        scale_ = max(np.abs(A.vertices).max(), np.abs(B.vertices).max())
        for u in edge_directions(A):
            for v in edge_directions(B):
                det = u[0] * v[1] - u[1] * v[0]
                if abs(det) > 1e-9 * scale_**2:
                    return True
        return False

    for i in range(50):
        kind = i % 5
        if kind == 0:
            A, B = random_polytope(rng, 5), random_polytope(rng, 5)
        elif kind == 1:
            A, B = complex_line_polygon(), complex_line_polygon()
        elif kind == 2:
            d = rng.normal(size=4)
            A = segment(d)
            c = rng.normal() + 1j * rng.normal()
            u = np.array([d[0] + 1j * d[1], d[2] + 1j * d[3]]) * c
            B = segment([u[0].real, u[0].imag, u[1].real, u[1].imag])
        elif kind == 3:
            A, B = segment(rng.normal(size=4)), segment(rng.normal(size=4))
        else:
            A, B = complex_line_polygon(), random_polygon_real(rng)
        q = mixed_pseudovolume([A, B], samples=50_000, stream=stream.substream(i))
        scale_ = max(np.abs(A.vertices).max(), np.abs(B.vertices).max()) ** 2
        if has_independent_pair(A, B):
            assert q.value > 1e-9 * scale_, f"tuple {i} ({kind}): Q_2 = {q.value}"
        else:
            assert abs(q.value) <= 1e-9 * scale_, \
                f"tuple {i} ({kind}): Q_2 = {q.value} should vanish"
