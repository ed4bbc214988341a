"""Command-line interface.

Subcommands: rho, faces, angle, volume, intrinsic, phi-volume, pseudovolume,
mixed, eps-expand, smooth, discriminant, verify.  Inputs are JSON files (or
inline JSON): polytopes as {"n": int, "vertices": [[re, im, ...], ...]} with
optional exact "p/q" coordinate strings, smooth bodies as {"kind": ..., "n":
...}, matrices as {"matrices": [[[re or [re, im], ...]]]}.

Each handler ``cmd_x(args, tol, stream, samples)`` computes, prints its
lines and returns the parts of the report it has: ``values``, and ``flags``
and ``per_face`` where there are any.  :func:`main` parses the options into
the tolerance, stream and sample count, writes the ``--json`` report
(command, inputs, seed, samples, flags, values, per_face, wall_time) and
turns exceptions into exit codes: 0 success, 1 a ``verify`` check failed
(after the report is written), 2 input error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
import time

import numpy as np

from . import complex_linalg as cl
from . import polytope as pt
from . import smooth_bodies as sb
from . import verification
from .pseudovolume import (
    RHO,
    UNIT,
    eps_neighborhood_pseudovolume,
    intrinsic_phi_volume,
    mixed_pseudovolume,
    mixed_with_ball,
    pseudovolume,
)
from .cone_geometry import AnglePass, outer_angle
from .numerics import DEFAULT_SAMPLES, RandomStream, Tolerance, read_field, read_json
from .volumes import mixed_discriminant

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--samples", type=float, default=DEFAULT_SAMPLES, help="Monte Carlo samples")
    sub.add_argument("--seed", type=int, default=42, help="random seed")
    sub.add_argument("--tol", type=float, default=1e-9, help="rank and geometric tolerance")
    sub.add_argument("--json", nargs="?", const="-", default=None,
                     help="write a JSON report (with no argument: to stdout, "
                          "with every other line moved to stderr)")


def _context(args):
    if not 1 <= args.samples < float("inf"):
        raise ValueError(f"--samples must be a finite number >= 1, got {args.samples:g}")
    return Tolerance(args.tol), RandomStream(seed=args.seed), int(args.samples)


def _parse_matrix(rows) -> np.ndarray:
    def num(x):
        if not isinstance(x, list):
            return complex(x)
        if len(x) != 2:
            raise ValueError(f"matrix entry {x!r} is neither a number nor an [re, im] pair")
        return complex(x[0], x[1])

    return np.array([[num(x) for x in row] for row in rows])


def _finite_array(value) -> np.ndarray:
    array = np.array(value, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError(f"not an array of finite numbers: {value!r}")
    return array


def _pm(est) -> str:
    """``± std_error``, then the deterministic bound when there is one."""
    return f"± {est.std_error:.3g}" + (f" (bound {est.bound:.2g})" if est.bound else "")


def _estimate_values(est, **values) -> dict:
    """Report values followed by the estimate's error, method and draws or nodes used."""
    return {**values, "std_error": est.std_error, "bound": est.bound, "method": est.method,
            "samples_used": est.samples}


# ---------------------------------------------------------------------------
# Command handlers


def cmd_rho(args, tol, stream, samples) -> dict:
    data = read_json(args.file)
    n = read_field(data, "n", int)
    vectors = read_field(data, "vectors", _finite_array)
    basis = cl.SubspaceBasis.from_span(n, vectors, tol)
    report = cl.rho(basis, tol)
    print(f"d = {basis.d}, complex dim of span = {report.complex_dim}, "
          f"CR dimension = {report.cr_dim}")
    print(f"equidimensional: {report.equidimensional}")
    print(f"rho = {report.rho:.12g}")
    return {"values": {"rho": report.rho, "cr_dim": report.cr_dim,
                       "complex_dim": report.complex_dim,
                       "equidimensional": report.equidimensional}}


def cmd_faces(args, tol, stream, samples) -> dict:
    """One line per face, a dimension at a time from the columns ``P.faces.data(k)``
    through one ``%`` on the joined line templates of its faces (one per vertex count),
    so a simplicial polytope builds no ``Face``."""
    P = pt.load_polytope(args.file, tol)
    print(f"ambient C^{P.ambient_n}, real dimension {P.dim_real}, "
          f"{P.n_vertices} vertices")
    print(f"face vector: {P.face_vector()}")
    lines = []
    for k, level in P.faces.ids.items():
        vol, rho = P.faces.data(k)
        tail = " vol=%.9g rho=%.9g" + (" (improper)" if k == P.dim_real else "")
        line = {m: f"  k={k} vertices=[{', '.join(['%d'] * m)}]{tail}"
                for m in set(map(len, level))}
        values = itertools.chain.from_iterable(map(tuple.__add__, level, zip(vol, rho)))
        lines.append("\n".join(map(line.__getitem__, map(len, level))) % tuple(values))
    print("\n".join(lines))
    return {"values": {"face_vector": P.face_vector(), "dim_real": P.dim_real}}


def cmd_angle(args, tol, stream, samples) -> dict:
    P = pt.load_polytope(args.file, tol)
    ids = [int(x) for x in args.face.split(",")]
    est = outer_angle(P, ids, samples, stream)
    print(f"outer angle of face {ids}: {est.value:.9g} {_pm(est)} ({est.method})")
    return {"flags": {"face": ids}, "values": _estimate_values(est, angle=est.value)}


def cmd_volume(args, tol, stream, samples) -> dict:
    P = pt.load_polytope(args.file, tol)
    vol = P.improper_face.volume_k
    print(f"vol_{P.dim_real} = {vol:.12g}")
    return {"values": {"dim": P.dim_real, "volume": vol}}


def cmd_intrinsic(args, tol, stream, samples) -> dict:
    """v_k for ``intrinsic``, v_k^rho for ``phi-volume``."""
    P = pt.load_polytope(args.file, tol)
    phi, label = (RHO, "^rho") if args.command == "phi-volume" else (UNIT, "")
    est = intrinsic_phi_volume(P, args.k, phi, AnglePass(P, samples, stream))
    print(f"v_{args.k}{label} = {est.value:.9g} {_pm(est)}")
    return {"flags": {"k": args.k}, "values": _estimate_values(est, k=args.k, value=est.value)}


def cmd_pseudovolume(args, tol, stream, samples) -> dict:
    P = pt.load_polytope(args.file, tol)
    report = pseudovolume(P, samples=samples, stream=stream)
    print(f"P_{P.ambient_n} = {report.value:.9g} {_pm(report)}")
    if report.terms:
        print("  face                     rho        vol_n      angle      term")
        for ids, rho_, vol, angle, term in report.terms:
            print(f"  {str(list(ids)):24s} {rho_:<10.6g} {vol:<10.6g} "
                  f"{angle:<10.6g} {term:.6g}")
    return {"values": _estimate_values(report, value=report.value),
            "per_face": [list(map(float, (rho_, vol, angle, term))) + [list(ids)]
                         for ids, rho_, vol, angle, term in report.terms]}


def cmd_mixed(args, tol, stream, samples) -> dict:
    parts = [pt.load_polytope(f, tol) for f in args.files]
    n = parts[0].ambient_n
    if args.ball:
        k = len(parts)
        est = mixed_with_ball(parts, samples, stream)
        print(f"Q_{n}({k} bodies, B[{n - k}]) = {est.value:.9g} {_pm(est)}")
    else:
        est = mixed_pseudovolume(parts, samples, stream)
        print(f"Q_{n} = {est.value:.9g} {_pm(est)}")
    values = _estimate_values(est, value=est.value)
    if args.oracle and not args.ball:
        oracle = mixed_pseudovolume(parts, samples, stream.substream(99), method="polarization")
        print(f"polarization cross-check: {oracle.value:.9g} {_pm(oracle)}")
        values.update(oracle_value=oracle.value, oracle_std_error=oracle.std_error,
                      oracle_bound=oracle.bound)
    return {"flags": {"ball": bool(args.ball)}, "values": values}


def cmd_eps_expand(args, tol, stream, samples) -> dict:
    P = pt.load_polytope(args.file, tol)
    exp = eps_neighborhood_pseudovolume(P, args.eps, samples=samples, stream=stream)
    n = P.ambient_n
    coefficients = [c.value for c in exp.terms]
    terms = " + ".join(f"{c:.9g}*eps^{n - k}" for k, c in enumerate(coefficients))
    print(f"P_{n}((Gamma)_eps) = {terms}")
    print(f"at eps = {args.eps}: {exp.value:.9g} {_pm(exp)}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("eps,value\n")
            for e in np.linspace(0.0, max(args.eps, 1.0), 101):
                val = sum(c * e ** (n - k) for k, c in enumerate(coefficients))
                fh.write(f"{e},{val}\n")
    return {"flags": {"eps": args.eps},
            "values": _estimate_values(exp, coefficients=coefficients, value=exp.value)}


def cmd_smooth(args, tol, stream, samples) -> dict:
    bodies = [sb.load_body(f) for f in [args.file] + (args.mixed or [])]
    n = bodies[0].ambient_n

    def show(label, res):
        how = {"cubature": f"cubature, {res.samples} nodes",
               "integral": f"1-D integral, {res.samples} nodes"}.get(res.method, "Monte Carlo")
        print(f"{label} ({how}) = {res.value:.9g} {_pm(res)}")

    if len(bodies) == 1:
        body = bodies[0]
        if body.kind == "ball_2n":
            print(f"closed form: {sb.ball_pseudovolume(n):.12g}")
        elif body.kind == "ball_2n_minus_1":
            print(f"closed form: {sb.lower_ball_pseudovolume(n):.12g}")
        res = sb.smooth_quadrature(bodies, samples, stream)
        show(f"P_{n}", res)
    else:
        bodies = bodies + [sb.ball(n)] * (n - len(bodies))
        res = sb.smooth_quadrature(bodies, samples, stream)
        show(f"Q_{n} interior", res)
    values = _estimate_values(res, value=res.value, nodes=res.samples)
    if len(bodies) > 1 and (args.boundary or args.oracle):
        bres = sb.smooth_quadrature(bodies, samples, stream.substream(1), boundary=True)
        show(f"Q_{n} boundary", bres)
        values.update(boundary_value=bres.value, boundary_std_error=bres.std_error,
                      boundary_bound=bres.bound, boundary_method=bres.method,
                      boundary_nodes=bres.samples)
    if args.oracle:
        mc = (sb.mc_pseudovolume(bodies[0], samples, stream.substream(2)) if len(bodies) == 1
              else sb.mc_mixed_pseudovolume(bodies, samples, stream.substream(2)))
        print(f"Monte Carlo cross-check: {mc.value:.9g} {_pm(mc)}")
        values.update(mc_value=mc.value, mc_std_error=mc.std_error, mc_bound=mc.bound)
    return {"values": values}


def cmd_discriminant(args, tol, stream, samples) -> dict:
    data = read_json(args.file)
    mats = read_field(data, "matrices", lambda ms: [_parse_matrix(m) for m in ms])
    value = mixed_discriminant(mats, method=args.method)
    if abs(value.imag) < 1e-12 * max(1.0, abs(value.real)):
        print(f"D_{len(mats)} = {value.real:.12g}")
    else:
        print(f"D_{len(mats)} = {value:.12g}")
    return {"flags": {"method": args.method}, "values": {"real": value.real, "imag": value.imag}}


def cmd_verify(args, tol, stream, samples) -> dict:
    """The report's ``failures`` count makes :func:`main` exit 1."""
    suites = [args.suite] if args.suite else list(verification.SUITES)
    failures = 0
    all_checks = []
    for name in suites:
        # The suite's position, not hash(name): str hashes vary with PYTHONHASHSEED.
        index = list(verification.SUITES).index(name)
        checks = verification.run_suite(name, samples, stream.substream(index))
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{status}] {name}: {c.name} — {c.detail}")
            failures += 0 if c.passed else 1
            all_checks.append({"suite": name, "name": c.name, "passed": c.passed,
                               "detail": c.detail})
    print(f"{len(all_checks) - failures}/{len(all_checks)} checks passed")
    return {"flags": {"suite": args.suite or "all"},
            "values": {"checks": all_checks, "failures": failures}}


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on the first call, which costs milliseconds."""
    parser = argparse.ArgumentParser(
        prog="kazvol",
        description="Kazarnovskii pseudovolume of convex bodies in C^n",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sub = subs.add_parser(name, **kwargs)
        _common_flags(sub)
        sub.set_defaults(fn=fn)
        return sub

    s = add("rho", cmd_rho, help="volume distortion of a spanned subspace")
    s.add_argument("file", help="JSON {n, vectors} file or inline JSON")
    s = add("faces", cmd_faces, help="face lattice of a polytope")
    s.add_argument("file")
    s = add("angle", cmd_angle, help="outer angle of one face")
    s.add_argument("file")
    s.add_argument("--face", required=True, help="comma-separated vertex ids")
    s = add("volume", cmd_volume, help="top-dimensional volume")
    s.add_argument("file")
    s = add("intrinsic", cmd_intrinsic, help="intrinsic volume v_k")
    s.add_argument("file")
    s.add_argument("--k", type=int, required=True)
    s = add("phi-volume", cmd_intrinsic, help="rho-weighted intrinsic volume v_k^rho")
    s.add_argument("file")
    s.add_argument("--k", type=int, required=True)
    s = add("pseudovolume", cmd_pseudovolume, help="Kazarnovskii pseudovolume P_n")
    s.add_argument("file")
    s = add("mixed", cmd_mixed, help="mixed pseudovolume Q_n")
    s.add_argument("files", nargs="+")
    s.add_argument("--ball", action="store_true",
                   help="fill the remaining slots with unit balls")
    s.add_argument("--oracle", action="store_true", help="also run the polarization cross-check")
    s = add("eps-expand", cmd_eps_expand, help="pseudovolume of the eps-neighborhood")
    s.add_argument("file")
    s.add_argument("--eps", type=float, default=0.0)
    s.add_argument("--csv", default=None, help="emit an eps/value curve as CSV")
    s = add("smooth", cmd_smooth, help="smooth-body pseudovolume by quadrature")
    s.add_argument("file")
    s.add_argument("--mixed", nargs="*", default=None, help="additional body files")
    s.add_argument("--boundary", action="store_true", help="also run the boundary formula")
    s.add_argument("--oracle", action="store_true",
                   help="also run the Monte Carlo cross-check (and, for Q_n, the boundary formula)")
    s = add("discriminant", cmd_discriminant, help="mixed discriminant of matrices")
    s.add_argument("file", help='JSON {"matrices": [...]} file or inline JSON')
    s.add_argument("--method", default="auto",
                   choices=["auto", "permutation", "subset", "laplace"])
    s = add("verify", cmd_verify, help="run the self-check suites")
    s.add_argument("--suite", choices=sorted(verification.SUITES), default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    stdout = sys.stdout  # with `--json -` the report is the only thing on stdout
    opts = vars(args)
    with contextlib.redirect_stdout(sys.stderr) if args.json == "-" else contextlib.nullcontext():
        try:
            parts = args.fn(args, *_context(args))
            report = {
                "command": args.command,
                "inputs": ([opts["file"]] if "file" in opts else opts.get("files", []))
                + (opts.get("mixed") or []),
                "seed": args.seed,
                "samples": int(args.samples),
                "flags": parts.get("flags", {}),
                "values": parts["values"],
                "per_face": parts.get("per_face", []),
                "wall_time": time.perf_counter() - started,
            }
            if args.json == "-":
                print(json.dumps(report, indent=2), file=stdout)
            elif args.json is not None:
                with open(args.json, "w") as fh:
                    fh.write(json.dumps(report, indent=2))
        except pt.DimensionCapExceeded as exc:
            print(f"resource cap: {exc}", file=sys.stderr)
            return EXIT_CAP
        except (OSError, KeyError, ValueError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except pt.QhullError as exc:  # its first line names the error, the rest is a dump
            print(f"input error: Qhull: {str(exc).splitlines()[0]}", file=sys.stderr)
            return EXIT_INPUT
        if report["values"].get("failures"):
            return EXIT_VERIFY
        print(f"done in {time.perf_counter() - started:.2f}s (seed {args.seed})")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
