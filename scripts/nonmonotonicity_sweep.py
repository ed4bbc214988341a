#!/usr/bin/env python3
"""Sweep the non-monotonicity example: a flat rectangle K inside a pyramid
Gamma whose pseudovolume is smaller for small heights.

P_2(K^l) = 2l grows linearly while P_2(Gamma^l) = 8 l^2 / sqrt(1 + l^2) is
quadratic near 0, so the inclusion K^l subset Gamma^l reverses the
pseudovolume order for l < 1/sqrt(15) ~ 0.258.
"""

import argparse
import math

import numpy as np

from kazvol import RandomStream, hull, pseudovolume


LAMBDAS = (0.05, 0.1, 0.15, 0.2, 0.25, 1 / math.sqrt(15), 0.3, 0.5, 1.0)


def k_body(lam: float):
    return hull(np.array([
        [0, 1, 0, 0], [0, -1, 0, 0], [0, 1, lam, 0], [0, -1, lam, 0]]))


def gamma_body(lam: float):
    return hull(np.array([
        [2, 2, 0, 0], [-2, 2, 0, 0], [-2, -2, 0, 0], [2, -2, 0, 0],
        [0, 0, 2 * lam, 0]]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()
    stream = RandomStream(args.seed)

    rows = []
    print(f"{'lambda':>8}  {'P2(K)':>10}  {'2l':>10}  {'P2(Gamma)':>10}  "
          f"{'8l^2/sqrt(1+l^2)':>17}  order")
    for i, lam in enumerate(LAMBDAS):
        k = pseudovolume(k_body(lam), samples=args.samples, stream=stream.substream(2 * i))
        g = pseudovolume(gamma_body(lam), samples=args.samples,
                         stream=stream.substream(2 * i + 1))
        exact_g = 8 * lam**2 / math.sqrt(1 + lam**2)
        order = "K > Gamma (reversed)" if k.value > g.value else "K <= Gamma"
        print(f"{lam:>8.4f}  {k.value:>10.6f}  {2 * lam:>10.6f}  "
              f"{g.value:>10.6f}  {exact_g:>17.6f}  {order}")
        rows.append((lam, k.value, g.value))

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("lambda,p2_k,p2_gamma\n")
            for lam, kv, gv in rows:
                fh.write(f"{lam},{kv},{gv}\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
