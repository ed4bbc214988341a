"""Self-check suites behind the CLI ``verify`` command.

Two batteries: ``tables`` re-derives the closed-form pseudovolume tables and
the worked quadrature values; ``invariants`` spot-checks the structural
identities (Wallis recursion, distortion examples, angle normalization,
valuation residuals, unitary invariance and its orthogonal failure).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import complex_linalg as cl
from . import polytope as pt
from . import smooth_bodies as sb
from .pseudovolume import pseudovolume, valuation_check
from .numerics import RandomStream, kappa, wallis, weighted_sum

__all__ = ["Check", "run_suite", "SUITES"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> Check:
    return Check(name, bool(passed), detail)


# Exact values of the first ten full- and lower-dimensional ball pseudovolumes.
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

# Exact mixed pseudovolume of the full and lower unit balls of C^2, obtained by
# integrating 32*D_2(Hess h_B4, Hess h_B3) = (2 y_1^2 + 3|z_2|^2) / (h_B3^3 h_B4)
# in polar coordinates.
Q2_BALLS = 16.0 / 3.0


def suite_tables(samples: int, stream: RandomStream) -> list[Check]:
    checks = []
    for n in range(1, 11):
        value = sb.ball_pseudovolume(n)
        expected = TABLE_FULL[n - 1]
        checks.append(_check(
            f"P{n}(B_{2 * n}) closed form",
            abs(value - expected) <= 1e-12 * expected,
            f"{value:.12g} vs {expected:.12g}",
        ))
        value = sb.lower_ball_pseudovolume(n)
        expected = TABLE_LOWER[n - 1]
        checks.append(_check(
            f"P{n}(B_{2 * n - 1}) closed form",
            abs(value - expected) <= 1e-12 * expected,
            f"{value:.12g} vs {expected:.12g}",
        ))
    checks.append(_check(
        "P_n(B_{2n-1}) < P_n(B_{2n}) for n=1..10",
        all(lo < hi for lo, hi in zip(TABLE_LOWER, TABLE_FULL)),
        "strict monotonicity across the two tables",
    ))
    for n in (1, 2, 3):
        lhs, rhs = sb.levi_ball_identity(n)
        checks.append(_check(
            f"boundary Levi identity n={n}",
            abs(lhs - rhs) <= 1e-12 * rhs,
            f"{lhs:.12g} vs {rhs:.12g}",
        ))
    mc_samples = min(samples, 400_000)
    for n in (1, 2, 3):
        res = sb.smooth_quadrature([sb.ball(n)], mc_samples, stream.substream(n))
        expected = TABLE_FULL[n - 1]
        checks.append(_check(
            f"P{n}(B_{2 * n}) sphere quadrature",
            abs(res.value - expected) <= 3 * res.std_error + res.bound + 1e-9,
            f"{res.value:.6g} ± {res.std_error:.2g} + {res.bound:.2g} vs {expected:.6g} "
            f"({res.method})",
        ))
    for n in (2, 3):
        res = sb.smooth_quadrature([sb.lower_ball(n)], mc_samples, stream.substream(10 + n))
        expected = TABLE_LOWER[n - 1]
        checks.append(_check(
            f"P{n}(B_{2 * n - 1}) sphere quadrature",
            abs(res.value - expected) <= 4 * res.std_error + res.bound,
            f"{res.value:.6g} ± {res.std_error:.2g} + {res.bound:.2g} vs {expected:.6g} "
            f"({res.method})",
        ))
    bodies = [sb.ball(2), sb.lower_ball(2)]
    interior = sb.smooth_quadrature(bodies, mc_samples, stream.substream(20))
    boundary = sb.smooth_quadrature(bodies, mc_samples, stream.substream(21), boundary=True)
    for label, res in (("interior", interior), ("boundary", boundary)):
        checks.append(_check(
            f"Q2(B4,B3) {label} quadrature = 16/3",
            abs(res.value - Q2_BALLS) <= 4 * res.std_error + res.bound,
            f"{res.value:.6g} ± {res.std_error:.2g} + {res.bound:.2g} vs {Q2_BALLS:.6g} "
            f"({res.method})",
        ))
    return checks


def suite_invariants(samples: int, stream: RandomStream) -> list[Check]:
    checks = []
    ok = all(
        abs(wallis(n) * wallis(n + 1) - 2 * math.pi / (n + 1)) <= 1e-12 * 2 * math.pi / (n + 1)
        for n in range(21)
    )
    checks.append(_check("Wallis recursion W_n W_{n+1} = 2 pi/(n+1)", ok, "n = 0..20"))
    ok = all(abs(kappa(2 * ell) * math.factorial(ell) - math.pi**ell) <= 1e-12 * math.pi**ell
             for ell in range(1, 11))
    checks.append(_check("kappa(2l) * l! = pi^l", ok, "l = 1..10"))

    basis = cl.SubspaceBasis(2, np.array([[1, 0, 0, 0], [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0]]))
    r = cl.rho(basis).rho
    checks.append(_check("rho(span{e1,(ie1+e2)/sqrt2}) = 1/2", abs(r - 0.5) <= 1e-9, f"{r:.9f}"))

    angle_samples = min(samples, 400_000)
    square = pt.hull(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], float))
    rep = pseudovolume(square, samples=angle_samples, stream=stream.substream(1))
    checks.append(_check(
        "P1(square{1,i,-1,-i}) = 2 sqrt 2",
        abs(rep.value - 2 * math.sqrt(2)) <= 1e-9,
        f"{rep.value:.9f}",
    ))

    cube = pt.hull(np.array(list(itertools.product([-1, 1], repeat=4)), float))
    rep = pseudovolume(cube, samples=angle_samples, stream=stream.substream(2))
    checks.append(_check(
        "P2(I4) = 16",
        abs(rep.value - 16.0) <= 4 * rep.std_error + rep.bound,
        f"{rep.value:.5f} ± {rep.std_error:.2g} + {rep.bound:.2g}",
    ))

    theta4 = pt.hull(np.vstack([np.eye(4), -np.eye(4)]))
    rep = pseudovolume(theta4, samples=angle_samples, stream=stream.substream(3))
    expected = 16 * math.sqrt(3) / 9
    checks.append(_check(
        "P2(Theta4) = 16 sqrt3/9 (all 32 two-faces have rho = 2/3)",
        abs(rep.value - expected) <= 4 * rep.std_error + rep.bound,
        f"{rep.value:.5f} ± {rep.std_error:.2g} + {rep.bound:.2g} vs {expected:.5f}",
    ))

    theta3 = pt.hull(np.array(
        [[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 0]],
        float))
    rep = pseudovolume(theta3, samples=angle_samples, stream=stream.substream(4))
    expected = 4 * math.sqrt(3) / 3
    checks.append(_check(
        "P2(Theta3) = 4 sqrt3/3 (facet angles exact)",
        abs(rep.value - expected) <= 1e-9,
        f"{rep.value:.9f} vs {expected:.9f}",
    ))

    rng = np.random.default_rng(stream.seed)
    residual_ok = True
    detail = []
    for i in range(3):
        P = pt.hull(rng.normal(size=(6, 4)))
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        res = valuation_check(P, u, float(P.centroid @ u), samples=angle_samples,
                                 stream=stream.substream(30 + i))
        residual_ok &= res.value <= 4 * res.std_error + res.bound + 1e-9
        detail.append(f"{res.value:.2g}")
    checks.append(_check("valuation residuals on random splits", residual_ok, ", ".join(detail)))

    # Unitary invariance vs the orthogonal swap counterexample.
    square2 = pt.hull(np.array([[1, 0, 1, 0], [1, 0, -1, 0], [-1, 0, 1, 0], [-1, 0, -1, 0]], float))
    u_mat = cl.realify(cl.random_unitary(2, stream.substream(40)))
    rot = pt.hull(square2.vertices @ u_mat.T)
    rep_a = pseudovolume(square2, samples=angle_samples, stream=stream.substream(41))
    rep_b = pseudovolume(rot, samples=angle_samples, stream=stream.substream(42))
    diff = weighted_sum([(1, rep_a), (-1, rep_b)])
    checks.append(_check(
        "P2 unitary invariance on I2 x {0}",
        abs(diff.value) <= 4 * diff.std_error + diff.bound + 1e-9,
        f"{rep_a.value:.5f} vs {rep_b.value:.5f}",
    ))
    swapped = square2.vertices.copy()
    swapped[:, [1, 2]] = swapped[:, [2, 1]]  # exchange Im z1 and Re z2
    rep_c = pseudovolume(pt.hull(swapped), samples=angle_samples, stream=stream.substream(43))
    checks.append(_check(
        "orthogonal (non-unitary) swap kills P2 of the real square",
        rep_a.value > 1.0 and abs(rep_c.value) <= 1e-12,
        f"{rep_a.value:.5f} -> {rep_c.value:.2g}",
    ))
    return checks


SUITES = {"tables": suite_tables, "invariants": suite_invariants}


def run_suite(name: str, samples: int, stream: RandomStream) -> list[Check]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name](samples, stream)
