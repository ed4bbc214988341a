#!/usr/bin/env python3
"""Dump every reported value of a fixed corpus for one kazvol source tree.

    python3 scripts/output_corpus.py OLD/src old.json
    python3 scripts/output_corpus.py src new.json
    cmp old.json new.json
    python3 scripts/output_corpus.py --compare old.json new.json --rtol 1e-12

A refactor that must leave every output unchanged should give byte-identical
files.  The corpus, at --samples 30000 --seed 5: the CLI commands
pseudovolume, faces, eps-expand, intrinsic, phi-volume and angle on each
polytope in data/, mixed (plain, --oracle, --tol 1e-6, --ball; plain on
cube4 + cube4 and theta4 + theta4; plain and --oracle on three inline
polytopes in C^3, the k = 3 parallelepiped faces of the direct path; plain on a
homothetic triple A, 2A, A + t in C^3, whose 3-faces all need pair sums), smooth
(balls, an ellipsoid, a degenerate ellipsoid and its rotation with the kink
off-axis, an indefinite Q, --mixed --boundary, --oracle; the bodies in C^3 at
--samples 70000 and lower_ball in C^4, all on the one-dimensional integral
since it reads no --samples), eps-expand on a rounded Gaussian cloud in C^3 and
pseudovolume on one in C^4, whose outer angles are sampled, and verify -- report values,
per-face rows and stdout lines less the timing line -- plus library paths the
CLI does not reach, among them the cubature and Monte Carlo of one built-in
body without its Q.  A polytope keeps the tolerance it was loaded under, so
the library rows load each polytope at the default tolerance and, for the
"eps tol" rows, once more at 1e-6.  Every value is stored as repr or exact JSON, so equality
of the files is equality of the floats.

A change that may move floats by rounding only is checked with --compare:
floats in report values, per-face rows and library values must agree within
relative tolerance --rtol, numbers in stdout lines (printed to 9 significant
digits) within 1e-8, and everything else exactly.  It lists every difference
and exits 1 if there is one.
"""
import ast
import contextlib
import dataclasses
import importlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

STDOUT_RTOL = 1e-8
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def _close(a, b, rtol: float) -> bool:
    """Same structure; floats within rtol of each other, everything else equal."""
    if isinstance(a, float) or isinstance(b, float):
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
            return False
        a, b = float(a), float(b)
        return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= rtol * max(abs(a), abs(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and type(a) is type(b):
        return len(a) == len(b) and all(_close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rtol) for k in a)
    if isinstance(a, str) and isinstance(b, str) and a != b:
        try:  # library rows hold some floats as repr strings
            return _close(float(a), float(b), rtol)
        except ValueError:
            return False
    return a == b


def _line_close(a: str, b: str) -> bool:
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return False
    return all(_close(float(x), float(y), STDOUT_RTOL) for x, y in zip(pa[1::2], pb[1::2]))


def compare(old_path: str, new_path: str, rtol: float) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    diffs = [f"{key}: only in one corpus" for key in sorted(old.keys() ^ new.keys())]
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        if key == "library":
            diffs += [f"library {k}: {a.get(k)} vs {b.get(k)}" for k in sorted(a.keys() | b.keys())
                      if k not in a or k not in b
                      or not _close(ast.literal_eval(a[k]), ast.literal_eval(b[k]), rtol)]
            continue
        for field in ("code", "values", "per_face"):
            if not _close(a[field], b[field], rtol):
                diffs.append(f"{key} {field}: {a[field]} vs {b[field]}")
        if len(a["stdout"]) != len(b["stdout"]):
            diffs.append(f"{key} stdout: {len(a['stdout'])} vs {len(b['stdout'])} lines")
        diffs += [f"{key} stdout: {x!r} vs {y!r}" for x, y in zip(a["stdout"], b["stdout"])
                  if not _line_close(x, y)]
    for line in diffs:
        print(line if len(line) <= 300 else line[:300] + " ...")
    print(f"{len(diffs)} differences over {len(old)} entries at rtol {rtol:g} "
          f"(stdout numbers at {STDOUT_RTOL:g})")
    return 1 if diffs else 0


if sys.argv[1] == "--compare":
    if len(sys.argv) != 6 or sys.argv[4] != "--rtol":
        sys.exit("usage: output_corpus.py --compare OLD NEW --rtol R")
    sys.exit(compare(sys.argv[2], sys.argv[3], float(sys.argv[5])))

src, out_path = str(Path(sys.argv[1]).resolve()), sys.argv[2]
sys.path.insert(0, src)
import numpy as np  # noqa: E402

import kazvol  # noqa: E402
from kazvol import cli, smooth_bodies as sb  # noqa: E402
from kazvol.numerics import RandomStream, Tolerance  # noqa: E402

pv = importlib.import_module("kazvol.pseudovolume")
assert kazvol.__file__.startswith(src), f"imported {kazvol.__file__}, not {src}"
DATA = Path(__file__).resolve().parents[1] / "data"
POLYS = ["cube4", "real_square2", "segment", "square_c1", "theta3", "theta4"]
COMMON = ["--samples", "30000", "--seed", "5"]
result = {}


def run(key, argv, tail=()):
    with tempfile.TemporaryDirectory() as d:
        rep = Path(d) / "r.json"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + COMMON + list(tail) + ["--json", str(rep)])
        lines = [l for l in buf.getvalue().splitlines() if not l.startswith("done in")]
        data = json.loads(rep.read_text()) if rep.exists() else {}
        result[key] = {"code": code, "values": data.get("values"),
                       "per_face": data.get("per_face"), "stdout": lines}


ellipsoid = json.dumps({"kind": "ellipsoid", "n": 2,
                        "Q": (np.diag([1, 2, 3, 4]) + 0.1).tolist()})
for name in POLYS:
    f = str(DATA / f"{name}.json")
    P = kazvol.load_polytope(f)
    for cmd in ("pseudovolume", "faces"):
        run(f"{cmd} {name}", [cmd, f])
    for eps in ("0", "0.5"):
        run(f"eps-expand {name} {eps}", ["eps-expand", f, "--eps", eps])
    for k in range(P.dim_real + 1):
        run(f"intrinsic {name} {k}", ["intrinsic", f, "--k", str(k)])
        run(f"phi-volume {name} {k}", ["phi-volume", f, "--k", str(k)])
        face = P.faces[k][0]
        ids = ",".join(map(str, face.vertex_ids))
        run(f"angle {name} {ids}", ["angle", f, "--face", ids])
    if P.ambient_n == 2:
        run(f"mixed-ball {name}", ["mixed", f, "--ball"])
pairs = [("theta4", "cube4"), ("segment", "theta3"), ("real_square2", "theta4"),
         ("theta3", "theta3")]
for a, b in pairs:
    fa, fb = str(DATA / f"{a}.json"), str(DATA / f"{b}.json")
    run(f"mixed {a} {b}", ["mixed", fa, fb])
    run(f"mixed-oracle {a} {b}", ["mixed", fa, fb, "--oracle"])
    run(f"mixed-tol {a} {b}", ["mixed", fa, fb, "--tol", "1e-6", "--oracle"])
# Sums made mostly of exact duplicates (256 -> 81 and 64 -> 33 points) pin the dedupe.
for name in ("cube4", "theta4"):
    run(f"mixed {name} {name}", ["mixed", str(DATA / f"{name}.json"), str(DATA / f"{name}.json")])
run("mixed-ball segment theta3", ["mixed", str(DATA / "segment.json"),
                                  str(DATA / "theta3.json"), "--ball"])
# Three summands in C^3, whose nonzero terms are all parallelepiped 3-faces.
c3_triple = [json.dumps({"n": 3, "vertices": v}) for v in (
    [[0, 0, 0, 0, 0, 0], [1, 0.5, -0.25, 0, 0.75, 0], [0.25, 1, 0, -0.5, 0, 1]],
    [[0, 0, 0, 0, 0, 0], [0.5, -1, 0.25, 0.75, 0, 0.5], [-0.75, 0.25, 1, 0, 0.5, -0.25],
     [0, 0.5, -0.5, 1, 0.25, 0.75]],
    [[1, 0, 0, 0.5, -0.5, 0], [0, 1, 0.5, 0, 0.25, -0.5], [-0.5, 0, 1, 0.25, 0, 0.75],
     [0.25, -0.75, 0, 0.5, 1, 0.25]])]
run("mixed c3 triple", ["mixed", *c3_triple])
run("mixed-oracle c3 triple", ["mixed", *c3_triple, "--oracle"])
# A 4-simplex A in C^3, 2A and A + t: every 3-face of the sum is a sum of homothetic
# tetrahedra, whose mixed volume needs the volumes of their pair sums.
simplex = np.array([[0, 0, 0, 0, 0, 0], [1, 0, 0.5, 0, 0, 0.25], [0, 1, 0, -0.5, 0.25, 0],
                    [0.5, 0, 0, 1, 0, 0.5], [0, 0.25, 0.5, 0, 1, 0]])
homothetic = [json.dumps({"n": 3, "vertices": v.tolist()})
              for v in (simplex, 2 * simplex, simplex + [0.5, -0.25, 0, 0.75, 0, 0])]
run("mixed homothetic c3 triple", ["mixed", *homothetic])
for body in ("ball2", "lower_ball2"):
    run(f"smooth {body}", ["smooth", str(DATA / f"{body}.json")])
run("smooth ellipsoid", ["smooth", ellipsoid])
run("smooth degenerate ellipsoid", ["smooth", json.dumps({
    "kind": "ellipsoid", "n": 2, "Q": np.diag([1.0, 1.0, 1.0, 0.0]).tolist()})])
# R diag(1, 1, 1, 0) R^T, R a rotation by 0.3 in the (x_2, y_2) plane: the kink is off-axis.
rotation = np.eye(4)
rotation[2:, 2:] = [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]]
rotated = json.dumps({"kind": "ellipsoid", "n": 2,
                      "Q": (rotation @ np.diag([1.0, 1.0, 1.0, 0.0]) @ rotation.T).tolist()})
run("smooth rotated degenerate ellipsoid", ["smooth", rotated])
run("smooth indefinite ellipsoid", ["smooth", json.dumps({
    "kind": "ellipsoid", "n": 1, "Q": [[1, 0], [0, -1]]})])
run("smooth mixed", ["smooth", str(DATA / "ball2.json"), "--mixed",
                     str(DATA / "lower_ball2.json"), "--boundary"])
run("smooth mixed ellipsoid", ["smooth", ellipsoid, "--mixed", str(DATA / "ball2.json"),
                               "--boundary"])
for kind in ("ball", "lower_ball"):
    run(f"smooth {kind}3", ["smooth", json.dumps({"kind": kind, "n": 3})],
        tail=["--samples", "70000"])
run("smooth lower_ball4", ["smooth", json.dumps({"kind": "lower_ball", "n": 4})])
run("smooth oracle lower_ball2", ["smooth", str(DATA / "lower_ball2.json"), "--oracle"])
run("smooth oracle mixed", ["smooth", str(DATA / "ball2.json"), "--mixed",
                            str(DATA / "lower_ball2.json"), "--oracle"])
# Sampled polytope angles: the edges and 2-faces of a cloud in C^3 (normal cones of
# dimension 5 and 4) and every face of a cloud in C^4, so a change that moves the
# Monte Carlo draws shows here.
for key, cmd, seed, shape, tail in (("eps-expand c3 cloud 0.5", "eps-expand", 3101, (10, 6),
                                     ["--eps", "0.5"]),
                                    ("pseudovolume c4 cloud", "pseudovolume", 3102, (9, 8), [])):
    cloud = np.round(np.random.default_rng(seed).normal(size=shape), 3)
    run(key, [cmd, json.dumps({"n": shape[1] // 2, "vertices": cloud.tolist()}), *tail])
run("verify", ["verify"])

# Library paths the CLI does not reach.
lib = {}
S = RandomStream(5)
for name, body in (("ball2", sb.ball(2)), ("lower_ball2", sb.lower_ball(2)),
                   ("ball1", sb.ball(1)), ("ball3", sb.ball(3)),
                   ("ellipsoid", sb.load_body(ellipsoid))):
    for red in ("sphere", "ball"):
        r = sb.mc_pseudovolume(body, 30000, S, reduction=red)
        lib[f"mc {name} {red}"] = [r.value, r.std_error, r.bound, r.samples]
    r = sb.mc_pseudovolume(body, 250_001, S.substream(3), reduction="ball")
    lib[f"mc {name} ball 250001"] = [r.value, r.std_error, r.bound]
polys = {n: kazvol.load_polytope(str(DATA / f"{n}.json")) for n in POLYS}
combos = [["segment"], ["theta4"], ["segment", "theta3"], ["theta4", "cube4"],
          ["real_square2", "theta4"], ["cube4"]]
for combo in combos:
    parts = [polys[c] for c in combo]
    for label, phi in (("rho", pv.RHO), ("one", pv.UNIT)):
        for method in ("direct", "polarization"):
            e = pv.mixed_phi_volume(parts, phi, 30000, S, method=method)
            lib[f"mixed_phi {combo} {label} {method}"] = [e.value, e.std_error, e.bound]
for combo in (["theta4", "cube4"], ["segment", "theta3"]):
    e = pv.mixed_pseudovolume([polys[c] for c in combo], 30000, S, method="polarization")
    lib[f"mixed_pv polar {combo}"] = [e.value, e.std_error, e.bound]
for name in ("theta4", "cube4", "theta3"):
    P = polys[name]
    for normal, offset in ((np.array([1.0, 0.3, -0.2, 0.5]), 0.1),
                           (np.array([0.0, 1.0, 1.0, 0.0]), -0.2)):
        e = pv.valuation_check(P, normal, offset, 30000, S)
        lib[f"valuation {name} {offset}"] = [e.value, e.std_error, e.bound]
    ap = kazvol.AnglePass(P, 30000, S)
    for k in range(P.dim_real + 1):
        lib[f"phi UNIT {name} {k}"] = pv.intrinsic_phi_volume(P, k, pv.UNIT, ap).value
        lib[f"phi RHO {name} {k}"] = pv.intrinsic_phi_volume(P, k, pv.RHO, ap).value
    rep = pv.pseudovolume(P, ap)
    lib[f"pv {name}"] = [rep.value, rep.std_error, rep.bound,
                         [list(map(repr, t[1:])) + [list(t[0])] for t in rep.terms]]
    x = pv.eps_neighborhood_pseudovolume(P, 0.7, ap)
    lib[f"eps {name}"] = [[c.value for c in x.terms], x.value, x.std_error, x.bound]
    x = pv.eps_neighborhood_pseudovolume(
        kazvol.load_polytope(str(DATA / f"{name}.json"), Tolerance(1e-6)), 0.7, samples=30000,
        stream=S.substream(4))
    lib[f"eps tol {name}"] = [[c.value for c in x.terms], x.value, x.std_error, x.bound]
point = kazvol.hull(np.array([[1.0, 2.0, 0.0, 0.0]]))
lib["point phi"] = [pv.intrinsic_phi_volume(point, 0, phi, kazvol.AnglePass(point, 10, S)).value
                    for phi in (pv.RHO, pv.UNIT)]
lib["point eps"] = pv.eps_neighborhood_pseudovolume(point, 0.3, samples=1000, stream=S).value
# One built-in body without its Q: the cubature of the ball and lower ball in C^3,
# the rotated degenerate ellipsoid (the one rule axis that takes the reflection)
# and the Monte Carlo fallback in C^4.
for name, body, samples in (("ball3", sb.ball(3), 70000), ("lower_ball3", sb.lower_ball(3), 70000),
                            ("rotated degenerate ellipsoid", sb.load_body(rotated), 30000),
                            ("lower_ball4", sb.lower_ball(4), 30000)):
    r = sb.smooth_quadrature([dataclasses.replace(body, q=None)], samples, S.substream(6))
    lib[f"quadrature {name} without q"] = [r.value, r.std_error, r.bound, r.method, r.samples]
result["library"] = {k: repr(v) for k, v in lib.items()}
Path(out_path).write_text(json.dumps(result, indent=1, sort_keys=True))
print(len(result) - 1, "CLI reports,", len(lib), "library values")
