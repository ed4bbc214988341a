"""Command-line interface.

Subcommands: rho, faces, angle, volume, intrinsic, phi-volume, pseudovolume,
mixed, eps-expand, smooth, discriminant, verify.  Inputs are JSON files (or
inline JSON): polytopes as {"n": int, "vertices": [[re, im, ...], ...]} with
optional exact "p/q" coordinate strings, smooth bodies as {"kind": ..., "n":
...}, matrices as {"matrices": [[[re or [re, im], ...]]]}.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import complex_linalg as cl
from . import polytope as pt
from . import smooth_bodies as sb
from . import verification
from .pseudovolume import (
    RHO,
    eps_neighborhood_pseudovolume,
    intrinsic_phi_volume,
    mixed_pseudovolume,
    mixed_with_ball,
    pseudovolume,
)
from .cone_geometry import AnglePass, outer_angle
from .numerics import RandomStream, Tolerance
from .volumes import SizeMismatch, intrinsic_volume, mixed_discriminant

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3


@dataclass
class RunReport:
    command: str
    inputs: list[str]
    seed: int
    samples: int
    flags: dict
    values: dict = field(default_factory=dict)
    per_face: list = field(default_factory=list)
    wall_time: float = 0.0

    def emit(self, args) -> None:
        self.wall_time = time.perf_counter() - args.started
        if args.json is not None:
            text = json.dumps(asdict(self), indent=2)
            if args.json == "-":
                print(text, file=args.stdout)
            else:
                with open(args.json, "w") as fh:
                    fh.write(text)


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--samples", type=float, default=2e6, help="Monte Carlo samples")
    sub.add_argument("--seed", type=int, default=42, help="random seed")
    sub.add_argument("--tol", type=float, default=1e-9, help="geometric tolerance")
    sub.add_argument("--exact", action="store_true", help="exact rational vertex parsing")
    sub.add_argument("--oracle", action="store_true", help="run independent cross-check paths")
    sub.add_argument("--json", nargs="?", const="-", default=None,
                     help="write a JSON report (with no argument: to stdout, "
                          "with every other line moved to stderr)")


def _context(args):
    if not 1 <= args.samples < float("inf"):
        raise ValueError(f"--samples must be a finite number >= 1, got {args.samples:g}")
    tol = Tolerance(rank_eps=args.tol, geom_eps=args.tol)
    stream = RandomStream(seed=args.seed)
    return tol, stream, int(args.samples)


def _load_poly(path: str, args, tol):
    return pt.load_polytope(path, tol, exact=args.exact)


def _report(args, command, inputs, **flags) -> RunReport:
    return RunReport(command=command, inputs=list(inputs), seed=args.seed,
                     samples=int(args.samples), flags=flags)


def _parse_matrix(rows) -> np.ndarray:
    def num(x):
        if isinstance(x, list):
            return complex(x[0], x[1])
        return complex(x)

    return np.array([[num(x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# Command handlers


def cmd_rho(args) -> int:
    tol, _, _ = _context(args)
    data = json.loads(open(args.file).read()) if not args.file.lstrip().startswith("{") \
        else json.loads(args.file)
    n = int(data["n"])
    vectors = np.array(data["vectors"], dtype=float)
    basis = cl.SubspaceBasis.from_span(n, vectors, tol)
    report = cl.rho(basis, tol)
    print(f"d = {basis.d}, complex dim of span = {report.complex_dim}, "
          f"CR dimension = {report.cr_dim}")
    print(f"equidimensional: {report.equidimensional}")
    print(f"rho = {report.rho:.12g}")
    rep = _report(args, "rho", [args.file])
    rep.values = {"rho": report.rho, "cr_dim": report.cr_dim,
                  "complex_dim": report.complex_dim,
                  "equidimensional": report.equidimensional}
    rep.emit(args)
    return EXIT_OK


def cmd_faces(args) -> int:
    tol, _, _ = _context(args)
    P = _load_poly(args.file, args, tol)
    print(f"ambient C^{P.ambient_n}, real dimension {P.dim_real}, "
          f"{P.n_vertices} vertices")
    print(f"face vector: {P.face_vector()}")
    for k in sorted(P.faces):
        for f in P.faces[k]:
            tag = " (improper)" if f.id == P.improper_face.id else ""
            print(f"  k={k} vertices={list(f.vertex_ids)} vol={f.volume_k:.9g} "
                  f"rho={f.rho:.9g}{tag}")
    rep = _report(args, "faces", [args.file])
    rep.values = {"face_vector": P.face_vector(), "dim_real": P.dim_real}
    rep.emit(args)
    return EXIT_OK


def cmd_angle(args) -> int:
    tol, stream, samples = _context(args)
    P = _load_poly(args.file, args, tol)
    ids = [int(x) for x in args.face.split(",")]
    est = outer_angle(P, ids, samples, stream, tol)
    print(f"outer angle of face {ids}: {est.value:.9g} ± {est.std_error:.3g} ({est.method})")
    rep = _report(args, "angle", [args.file], face=ids)
    rep.values = {"angle": est.value, "std_error": est.std_error, "method": est.method}
    rep.emit(args)
    return EXIT_OK


def cmd_volume(args) -> int:
    tol, _, _ = _context(args)
    P = _load_poly(args.file, args, tol)
    vol = P.improper_face.volume_k
    print(f"vol_{P.dim_real} = {vol:.12g}")
    rep = _report(args, "volume", [args.file])
    rep.values = {"dim": P.dim_real, "volume": vol}
    rep.emit(args)
    return EXIT_OK


def cmd_intrinsic(args) -> int:
    tol, stream, samples = _context(args)
    P = _load_poly(args.file, args, tol)
    ap = AnglePass(P, samples, stream, tol)
    value = intrinsic_volume(P, args.k, ap.angle)
    print(f"v_{args.k} = {value:.9g}")
    rep = _report(args, "intrinsic", [args.file], k=args.k)
    rep.values = {"k": args.k, "value": value}
    rep.emit(args)
    return EXIT_OK


def cmd_phi_volume(args) -> int:
    tol, stream, samples = _context(args)
    P = _load_poly(args.file, args, tol)
    ap = AnglePass(P, samples, stream, tol)
    value = intrinsic_phi_volume(P, args.k, RHO, ap)
    print(f"v_{args.k}^rho = {value:.9g}")
    rep = _report(args, "phi-volume", [args.file], k=args.k)
    rep.values = {"k": args.k, "value": value}
    rep.emit(args)
    return EXIT_OK


def cmd_pseudovolume(args) -> int:
    tol, stream, samples = _context(args)
    P = _load_poly(args.file, args, tol)
    report = pseudovolume(P, samples=samples, stream=stream, tol=tol)
    print(f"P_{P.ambient_n} = {report.value:.9g} ± {report.mc_std_error:.3g}")
    if report.per_face_terms:
        print("  face                     rho        vol_n      angle      term")
        for ids, rho_, vol, angle, term in report.per_face_terms:
            print(f"  {str(list(ids)):24s} {rho_:<10.6g} {vol:<10.6g} "
                  f"{angle:<10.6g} {term:.6g}")
    rep = _report(args, "pseudovolume", [args.file])
    rep.values = {"value": report.value, "std_error": report.mc_std_error}
    rep.per_face = [list(map(float, (rho_, vol, angle, term))) + [list(ids)]
                    for ids, rho_, vol, angle, term in report.per_face_terms]
    rep.emit(args)
    return EXIT_OK


def cmd_mixed(args) -> int:
    tol, stream, samples = _context(args)
    parts = [_load_poly(f, args, tol) for f in args.files]
    n = parts[0].ambient_n
    if args.ball:
        k = len(parts)
        est = mixed_with_ball(parts, samples, stream, tol)
        print(f"Q_{n}({k} bodies, B[{n - k}]) = {est.value:.9g} ± {est.std_error:.3g}")
    else:
        est = mixed_pseudovolume(parts, samples, stream, tol)
        print(f"Q_{n} = {est.value:.9g} ± {est.std_error:.3g}")
    values = {"value": est.value, "std_error": est.std_error}
    if args.oracle and not args.ball:
        oracle = mixed_pseudovolume(parts, samples, stream.substream(99), tol,
                                       method="polarization")
        print(f"polarization cross-check: {oracle.value:.9g} ± {oracle.std_error:.3g}")
        values["oracle_value"] = oracle.value
        values["oracle_std_error"] = oracle.std_error
    rep = _report(args, "mixed", args.files, ball=bool(args.ball))
    rep.values = values
    rep.emit(args)
    return EXIT_OK


def cmd_eps_expand(args) -> int:
    tol, stream, samples = _context(args)
    P = _load_poly(args.file, args, tol)
    exp = eps_neighborhood_pseudovolume(P, args.eps, samples=samples, stream=stream, tol=tol)
    n = P.ambient_n
    terms = " + ".join(f"{c:.9g}*eps^{n - k}" for k, c in enumerate(exp.coefficients))
    print(f"P_{n}((Gamma)_eps) = {terms}")
    print(f"at eps = {args.eps}: {exp.value:.9g} ± {exp.std_error:.3g}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("eps,value\n")
            for e in np.linspace(0.0, max(args.eps, 1.0), 101):
                val = sum(c * e ** (n - k) for k, c in enumerate(exp.coefficients))
                fh.write(f"{e},{val}\n")
    rep = _report(args, "eps-expand", [args.file], eps=args.eps)
    rep.values = {"coefficients": list(exp.coefficients), "value": exp.value,
                  "std_error": exp.std_error}
    rep.emit(args)
    return EXIT_OK


def cmd_smooth(args) -> int:
    _, stream, samples = _context(args)
    bodies = [sb.load_body(f) for f in [args.file] + (args.mixed or [])]
    n = bodies[0].ambient_n
    if len(bodies) == 1:
        body = bodies[0]
        if body.kind == "ball_2n":
            closed = sb.ball_pseudovolume(n)
            print(f"closed form: {closed:.12g}")
        elif body.kind == "ball_2n_minus_1":
            closed = sb.lower_ball_pseudovolume(n)
            print(f"closed form: {closed:.12g}")
        res = sb.mc_pseudovolume(body, samples, stream)
        print(f"P_{n} (Monte Carlo) = {res.value:.9g} ± {res.std_error:.3g}")
        values = {"value": res.value, "std_error": res.std_error}
    else:
        bodies = bodies + [sb.ball(n)] * (n - len(bodies))
        res = sb.mc_mixed_pseudovolume(bodies, samples, stream)
        print(f"Q_{n} (interior quadrature) = {res.value:.9g} ± {res.std_error:.3g}")
        values = {"value": res.value, "std_error": res.std_error}
        if args.boundary or args.oracle:
            bres = sb.boundary_mixed_pseudovolume(bodies, samples, stream.substream(1))
            print(f"Q_{n} (boundary quadrature) = {bres.value:.9g} ± {bres.std_error:.3g}")
            values["boundary_value"] = bres.value
            values["boundary_std_error"] = bres.std_error
    rep = _report(args, "smooth", [args.file] + (args.mixed or []))
    rep.values = values
    rep.emit(args)
    return EXIT_OK


def cmd_discriminant(args) -> int:
    _context(args)  # only to reject a bad --samples, which the report records
    data = json.loads(open(args.file).read()) if not args.file.lstrip().startswith("{") \
        else json.loads(args.file)
    mats = [_parse_matrix(m) for m in data["matrices"]]
    value = mixed_discriminant(mats, method=args.method)
    if abs(value.imag) < 1e-12 * max(1.0, abs(value.real)):
        print(f"D_{len(mats)} = {value.real:.12g}")
    else:
        print(f"D_{len(mats)} = {value:.12g}")
    rep = _report(args, "discriminant", [args.file], method=args.method)
    rep.values = {"real": value.real, "imag": value.imag}
    rep.emit(args)
    return EXIT_OK


def cmd_verify(args) -> int:
    _, stream, samples = _context(args)
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
    rep = _report(args, "verify", [], suite=args.suite or "all")
    rep.values = {"checks": all_checks, "failures": failures}
    rep.emit(args)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    s = add("phi-volume", cmd_phi_volume, help="rho-weighted intrinsic volume v_k^rho")
    s.add_argument("file")
    s.add_argument("--k", type=int, required=True)
    s = add("pseudovolume", cmd_pseudovolume, help="Kazarnovskii pseudovolume P_n")
    s.add_argument("file")
    s = add("mixed", cmd_mixed, help="mixed pseudovolume Q_n")
    s.add_argument("files", nargs="+")
    s.add_argument("--ball", action="store_true",
                   help="fill the remaining slots with unit balls")
    s = add("eps-expand", cmd_eps_expand, help="pseudovolume of the eps-neighborhood")
    s.add_argument("file")
    s.add_argument("--eps", type=float, default=0.0)
    s.add_argument("--csv", default=None, help="emit an eps/value curve as CSV")
    s = add("smooth", cmd_smooth, help="smooth-body pseudovolume by quadrature")
    s.add_argument("file")
    s.add_argument("--mixed", nargs="*", default=None, help="additional body files")
    s.add_argument("--boundary", action="store_true", help="also run the boundary formula")
    s = add("discriminant", cmd_discriminant, help="mixed discriminant of matrices")
    s.add_argument("file", help='JSON {"matrices": [...]} file or inline JSON')
    s.add_argument("--method", default="auto",
                   choices=["auto", "permutation", "subset", "laplace"])
    s = add("verify", cmd_verify, help="run the self-check suites")
    s.add_argument("--suite", choices=sorted(verification.SUITES), default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    # With `--json -` the report is the only thing on stdout.
    args.stdout = sys.stdout
    quiet = args.json == "-"
    with contextlib.redirect_stdout(sys.stderr) if quiet else contextlib.nullcontext():
        try:
            code = args.fn(args)
        except (pt.DimensionCapExceeded,) as exc:
            print(f"resource cap: {exc}", file=sys.stderr)
            return EXIT_CAP
        except SizeMismatch as exc:
            if "permutation path" in str(exc):
                print(f"resource cap: {exc}", file=sys.stderr)
                return EXIT_CAP
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        elapsed = time.perf_counter() - args.started
        if code == EXIT_OK:
            print(f"done in {elapsed:.2f}s (seed {args.seed})")
    return code


if __name__ == "__main__":
    sys.exit(main())
