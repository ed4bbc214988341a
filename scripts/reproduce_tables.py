#!/usr/bin/env python3
"""Reproduce the pseudovolume tables for full- and lower-dimensional balls.

Prints, for n = 1..n_max, the closed-form values of P_n(B_2n) and
P_n(B_2n-1) next to ``smooth_quadrature``'s values, with their standard
errors and bounds.  Both balls are quadratic support bodies, so the values
come from the one-dimensional integral in Q and are exact to about 1e-13 at
any --samples; --samples and --seed reach only a Monte Carlo fallback.
"""

import argparse

from kazvol import (
    RandomStream,
    ball,
    ball_pseudovolume,
    lower_ball,
    lower_ball_pseudovolume,
    smooth_quadrature,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--samples", type=int, default=500_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    stream = RandomStream(args.seed)

    print(f"{'n':>2}  {'P_n(B_2n)':>14}  {'quadrature':>14}  {'sigma':>9}  {'bound':>9}   "
          f"{'P_n(B_2n-1)':>14}  {'quadrature':>14}  {'sigma':>9}  {'bound':>9}")
    for n in range(1, args.n_max + 1):
        full = ball_pseudovolume(n)
        low = lower_ball_pseudovolume(n)
        full_q = smooth_quadrature([ball(n)], args.samples, stream.substream(2 * n))
        if n == 1:
            # B_1 is a segment: its whole density lies on the singular line,
            # which no sphere quadrature sees.
            low_cols = f"{'(segment)':>14}  {'--':>9}  {'--':>9}"
        else:
            low_q = smooth_quadrature([lower_ball(n)], args.samples,
                                       stream.substream(2 * n + 1))
            low_cols = f"{low_q.value:>14.9f}  {low_q.std_error:>9.2e}  {low_q.bound:>9.2e}"
        print(f"{n:>2}  {full:>14.9f}  {full_q.value:>14.9f}  "
              f"{full_q.std_error:>9.2e}  {full_q.bound:>9.2e}   {low:>14.9f}  {low_cols}")


if __name__ == "__main__":
    main()
