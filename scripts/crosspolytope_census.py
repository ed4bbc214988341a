#!/usr/bin/env python3
"""Census of the two-faces of the crosspolytopes Theta_4 and Theta_3 in C^2.

Theta_4 = conv{±e_1, ±ie_1, ±e_2, ±ie_2} has 32 triangular two-faces.  This
script prints, for each face, its vertex set, volume-distortion coefficient
rho, area and Monte Carlo outer angle, then assembles the pseudovolume.

Every two-face turns out to carry rho = 2/3: the faces are pairwise
equivalent under diagonal unitaries diag(±1, ±i), the coordinate swap and
complex conjugation, all of which preserve rho.  A cylinder-volume Monte
Carlo oracle for rho (rho = kappa_2^{-2} vol_4(B_E + iB_E)) is printed as an
independent cross-check for one face per orbit.
"""

import argparse
import math

import numpy as np

from kazvol import AnglePass, RandomStream, hull, pseudovolume
from kazvol.complex_linalg import SubspaceBasis, multiply_i
from kazvol.numerics import kappa


ORACLE_SAMPLES = 400_000


def cylinder_rho(basis: SubspaceBasis, rng, samples: int) -> float:
    """rho via the volume of the cylinder B_E + iB_E inside span(E, iE)."""
    frame = SubspaceBasis.from_span(
        basis.ambient_n, np.vstack([basis.vectors, multiply_i(basis.vectors)])).vectors
    pts = rng.uniform(-2, 2, size=(samples, frame.shape[0])) @ frame
    mix = np.vstack([basis.vectors, multiply_i(basis.vectors)])
    coeff = pts @ np.linalg.pinv(mix)
    a, c = coeff[:, : basis.d], coeff[:, basis.d:]
    inside = (np.linalg.norm(a, axis=1) <= 1) & (np.linalg.norm(c, axis=1) <= 1)
    return inside.mean() * 4.0 ** frame.shape[0] / kappa(basis.d) ** 2


def census(P, name: str, samples: int, seed: int) -> None:
    ap = AnglePass(P, samples, RandomStream(seed))
    print(f"\n=== {name}: {P.n_vertices} vertices, face vector {P.face_vector()} ===")
    rhos = []
    for f in P.faces[2]:
        if f.k == P.dim_real:
            continue
        a = ap.angle(f)
        rhos.append(f.rho)
        print(f"  face {list(f.vertex_ids)}: rho = {f.rho:.9f}, area = {f.volume_k:.9f}, "
              f"psi = {a.value:.6f} ± {a.std_error:.1e} (bound {a.bound:.1e}, {a.method})")
    print(f"  distinct rho values: {sorted(set(round(r, 9) for r in rhos))}")
    rep = pseudovolume(P, angles=ap)
    print(f"  P_2({name}) = {rep.value:.9f} ± {rep.std_error:.2e} (bound {rep.bound:.1e})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=500_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    theta4 = hull(np.vstack([np.eye(4), -np.eye(4)]))
    census(theta4, "Theta_4", args.samples, args.seed)
    print(f"  reference: 16 sqrt3/9 = {16 * math.sqrt(3) / 9:.9f}")

    # Independent oracle on one representative face span, conv{e1, ie1, e2}.
    rng = np.random.default_rng(args.seed)
    basis = SubspaceBasis.from_span(2, np.array(
        [[-1.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 1.0, 0.0]]))
    est = cylinder_rho(basis, rng, ORACLE_SAMPLES)
    print(f"  cylinder-volume oracle for a representative face: "
          f"rho ~ {est:.4f} (exact 2/3 = {2 / 3:.4f})")

    theta3 = hull(np.array([
        [1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0],
        [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 0]], dtype=float))
    census(theta3, "Theta_3", args.samples, args.seed)
    print(f"  reference: 4 sqrt3/3 = {4 * math.sqrt(3) / 3:.9f} (exact, facet "
          f"angles are 1/2)")


if __name__ == "__main__":
    main()
