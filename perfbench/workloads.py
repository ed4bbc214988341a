"""Workload definitions: seeded inputs, the CLI operations run on them, and
the reference checks applied to their ``--json`` reports.

A workload is built from its seed alone.  The program only ever sees the
generated JSON fixture files and a ``--seed``; everything else here (the
unitary rotations, the scipy references, the closed forms) belongs to the
benchmark.  Sample counts, sigma targets and check tolerances come from
``spec.json`` next to this file.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())
NAMES = tuple(SPEC["workloads"])


@dataclass
class Op:
    """One in-process CLI call.  ``argv`` names fixtures by key, not by path."""

    id: str
    argv: list[str]
    sigma_target: float | None  # relative target; None = no Monte Carlo in the op
    samples: int | None = None

    def command(self, paths: dict[str, Path], seed: int, report: Path) -> list[str]:
        argv = [str(paths[a]) if a in paths else a for a in self.argv]
        if self.samples is not None:
            argv += ["--samples", str(self.samples)]
        return argv + ["--seed", str(seed), "--json", str(report)]


@dataclass
class Check:
    """A reference check over the reports of one or more ops.

    ``test`` receives ({op id: report values}, workload) and returns
    (passed, detail).
    ``advisory`` checks are counted in ``ref_pass_frac`` but do not make the
    run incorrect (see spec.json, "advisory_checks").
    """

    id: str
    ops: tuple[str, ...]
    test: Callable[[dict, "Workload"], tuple[bool, str]]
    advisory: bool = False


@dataclass
class Workload:
    name: str
    fixtures: dict[str, dict]
    ops: list[Op]
    checks: list[Check]
    refs: dict = field(default_factory=dict)  # lazily computed reference values


# ---------------------------------------------------------------------------
# Helpers


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = NAMES.index(name)
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _cloud(name: str, index: int, size: int, n: int) -> np.ndarray:
    """A Gaussian cloud of ``size`` points in C^n whose shape is fixed.

    The shape comes from ``base_seed`` in spec.json, not from the workload
    seed: the work in a hull varies by 20 % and more between Gaussian clouds
    of one size, which would swamp the run-to-run spread.  The workload seed
    only places the cloud (see ``_place``).
    """
    ss = np.random.SeedSequence([SPEC["base_seed"], NAMES.index(name), index])
    return np.random.default_rng(ss).standard_normal((size, 2 * n))


def _place(rng: np.random.Generator, points: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The points in a seeded order, mapped by the unitary ``u``.

    Both leave the face lattice, volumes, rho and P_n unchanged (and, with one
    ``u`` for all summands, the lattice of a Minkowski sum), so the work is
    the same for every seed while the numbers the program reads differ.
    """
    return _rotate(points[rng.permutation(len(points))], u)


def _poly(points: np.ndarray) -> dict:
    n = points.shape[1] // 2
    return {"n": n, "vertices": points.tolist()}


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary from QR of a complex Gaussian, with the phase fix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def _rotate(points: np.ndarray, u: np.ndarray) -> np.ndarray:
    z = points[:, 0::2] + 1j * points[:, 1::2]
    w = z @ u.T
    out = np.empty_like(points)
    out[:, 0::2] = w.real
    out[:, 1::2] = w.imag
    return out


THETA4 = np.vstack([np.eye(4), -np.eye(4)])
CUBE4 = np.array(list(itertools.product([-1.0, 1.0], repeat=4)))
P2_THETA4 = 16 * math.sqrt(3) / 9
P2_CUBE4 = 16.0


def _kappa(ell: int) -> float:
    return math.pi ** (ell / 2) / math.gamma(1 + ell / 2)


def _close(value: float, ref: float, sigma: float, floor_rel: float | None = None):
    if floor_rel is None:
        floor_rel = SPEC["checks"]["fp_floor_rel"]
    tol = SPEC["checks"]["k_sigma"] * sigma + floor_rel * max(1.0, abs(ref))
    return abs(value - ref) <= tol, f"{value:.9g} vs {ref:.9g} (tol {tol:.3g})"


def _vs_ref(op: str, ref: float, floor_rel: float | None = None):
    def test(r, wl):
        v = r[op]
        return _close(v["value"], ref, v["std_error"], floor_rel)
    return test


def _pair(a: str, b: str):
    """Two independent estimates of the same quantity agree."""
    def test(r, wl):
        va, vb = r[a], r[b]
        return _close(va["value"], vb["value"], math.hypot(va["std_error"], vb["std_error"]))
    return test


# ---------------------------------------------------------------------------
# Workloads


def lattice(seed: int, smoke: bool) -> Workload:
    cfg = SPEC["workloads"]["lattice"]["smoke" if smoke else "params"]
    rng = _rng(seed, "lattice")
    fixtures, ops, checks = {}, [], []
    for i, (cmd, n, size) in enumerate(cfg["clouds"]):
        key = f"c{n}_{size}"
        fixtures[key] = _poly(_place(rng, _cloud("lattice", i, size, n), _unitary(rng, n)))
        op = f"{cmd}:{key}"
        ops.append(Op(op, [cmd, key], None))
        if cmd == "faces":
            checks.append(Check(f"faces_scipy:{key}", (op,), _faces_test(op, key)))
        else:
            checks.append(Check(f"volume_scipy:{key}", (op,), _volume_test(op, key, "scipy")))
            checks.append(Check(f"volume_facets:{key}", (op,), _volume_test(op, key, "facets")))
    return Workload("lattice", fixtures, ops, checks)


def _faces_test(op: str, key: str):
    def test(r, wl):
        from scipy.spatial import ConvexHull

        pts = np.asarray(wl.fixtures[key]["vertices"])
        qh = ConvexHull(pts)
        fv = r[op]["face_vector"]
        d = pts.shape[1]
        euler = sum((-1) ** k * f for k, f in enumerate(fv))
        ok = (r[op]["dim_real"] == d and fv[0] == len(qh.vertices)
              and fv[d - 1] == len(qh.simplices) and fv[d] == 1 and euler == 1)
        return ok, f"f={fv} scipy f0={len(qh.vertices)} f{d - 1}={len(qh.simplices)}"
    return test


def _volume_test(op: str, key: str, source: str):
    def test(r, wl):
        if (key, source) not in wl.refs:
            pts = np.asarray(wl.fixtures[key]["vertices"])
            if source == "scipy":
                from scipy.spatial import ConvexHull
                wl.refs[key, source] = float(ConvexHull(pts).volume)
            else:
                import kazvol
                wl.refs[key, source] = float(kazvol.volume_via_facets(kazvol.hull(pts)))
        ref = wl.refs[key, source]
        v = r[op]["volume"]
        tol = SPEC["checks"]["fp_floor_rel"] * max(1.0, abs(ref))
        return abs(v - ref) <= tol, f"{v:.12g} vs {source} {ref:.12g}"
    return test


def angles(seed: int, smoke: bool) -> Workload:
    cfg = SPEC["workloads"]["angles"]["smoke" if smoke else "params"]
    target = SPEC["workloads"]["angles"]["sigma_target_rel"]
    samples = cfg["samples"]
    rng = _rng(seed, "angles")
    fixtures, ops, checks = {}, [], []

    def pv(key):
        ops.append(Op(f"pseudovolume:{key}", ["pseudovolume", key], target, samples))

    # The cube comes first, so the warm-up op allocates the largest arrays of
    # the workload (samples x 16 vertices): with a smaller warm-up the whole
    # first pass ran 15-25 % slower than the later ones.
    for key, pts, ref in (("cube4", CUBE4, P2_CUBE4), ("theta4", THETA4, P2_THETA4)):
        fixtures[key] = _poly(pts)
        pv(key)
        checks.append(Check(f"closed_form:{key}", (f"pseudovolume:{key}",),
                            _vs_ref(f"pseudovolume:{key}", ref)))
    for i, size in enumerate(cfg["cloud_sizes"]):
        key = f"cloud{size}"
        pts = _place(rng, _cloud("angles", i, size, 2), _unitary(rng, 2))
        fixtures[key] = _poly(pts)
        fixtures[f"u_{key}"] = _poly(_rotate(pts, _unitary(rng, 2)))
        pv(key)
        pv(f"u_{key}")
        checks.append(Check(f"unitary:{key}", (f"pseudovolume:{key}", f"pseudovolume:u_{key}"),
                            _pair(f"pseudovolume:{key}", f"pseudovolume:u_{key}")))
    c0 = 2 ** 2 * _kappa(4) / _kappa(2)
    for key, ref in (("theta4", P2_THETA4), ("cube4", P2_CUBE4)):
        op = f"eps-expand:{key}"
        ops.append(Op(op, ["eps-expand", key, "--eps", "1"], target, samples))
        checks.append(Check(f"eps_coef0:{key}", (op,), _coef(op, 0, c0)))
        checks.append(Check(f"eps_coefn:{key}", (op,), _coef(op, 2, ref)))
    return Workload("angles", fixtures, ops, checks)


def _coef(op: str, k: int, ref: float):
    # The report carries one standard error for the whole expansion at eps = 1;
    # it bounds the error of every coefficient.
    def test(r, wl):
        v = r[op]
        return _close(v["coefficients"][k], ref, v["std_error"])
    return test


def mixed(seed: int, smoke: bool) -> Workload:
    cfg = SPEC["workloads"]["mixed"]["smoke" if smoke else "params"]
    target = SPEC["workloads"]["mixed"]["sigma_target_rel"]
    samples = cfg["samples"]
    rng = _rng(seed, "mixed")
    fixtures = {"theta4": _poly(THETA4), "cube4": _poly(CUBE4)}
    ops, checks = [], []

    def q(a, b):
        op = f"mixed:{a}+{b}"
        ops.append(Op(op, ["mixed", a, b], target, samples))
        return op

    checks.append(Check("diagonal:theta4", (q("theta4", "theta4"),),
                        _vs_ref("mixed:theta4+theta4", P2_THETA4)))
    checks.append(Check("diagonal:cube4", (q("cube4", "cube4"),),
                        _vs_ref("mixed:cube4+cube4", P2_CUBE4)))
    a, b = q("theta4", "cube4"), q("cube4", "theta4")
    checks.append(Check("symmetry:theta4+cube4", (a, b), _pair(a, b)))
    for i, (na, nb) in enumerate(cfg["pair_sizes"]):
        v = _unitary(rng, 2)
        pa = _place(rng, _cloud("mixed", 2 * i, na, 2), v)
        pb = _place(rng, _cloud("mixed", 2 * i + 1, nb, 2), v)
        u = _unitary(rng, 2)
        fixtures[f"a{i}"], fixtures[f"b{i}"] = _poly(pa), _poly(pb)
        fixtures[f"ua{i}"], fixtures[f"ub{i}"] = _poly(_rotate(pa, u)), _poly(_rotate(pb, u))
        x, y = q(f"a{i}", f"b{i}"), q(f"ua{i}", f"ub{i}")
        checks.append(Check(f"unitary:pair{i}", (x, y), _pair(x, y)))
    return Workload("mixed", fixtures, ops, checks)


def quadrature(seed: int, smoke: bool) -> Workload:
    spec = SPEC["workloads"]["quadrature"]
    cfg = spec["smoke" if smoke else "params"]
    target = spec["sigma_target_rel"]
    fixtures = {
        "ball1": {"kind": "ball", "n": 1},
        "ball2": {"kind": "ball", "n": 2},
        "ball3": {"kind": "ball", "n": 3},
        "lower_ball2": {"kind": "lower_ball", "n": 2},
        "lower_ball3": {"kind": "lower_ball", "n": 3},
        "ellipsoid2": {"kind": "ellipsoid", "n": 2, "Q": (4 * np.eye(4)).tolist()},
    }
    closed = {
        "ball1": math.pi, "ball2": 2 * math.pi, "ball3": math.pi ** 2,
        "lower_ball2": 4 * math.pi / 3, "lower_ball3": 32 * math.pi / 15,
        "ellipsoid2": 8 * math.pi,
    }
    ops, checks = [], []
    for key, ref in closed.items():
        op = f"smooth:{key}"
        fd = key == "ellipsoid2"
        ops.append(Op(op, ["smooth", key], target, cfg["fd_samples"] if fd else cfg["samples"]))
        floor = SPEC["checks"]["fd_floor_rel"] if fd else None
        cid = f"closed_form:{key}"
        checks.append(Check(cid, (op,), _vs_ref(op, ref, floor),
                            advisory=cid in SPEC["advisory_checks"]["ids"]))
    op = "smooth:ball2+lower_ball2"
    ops.append(Op(op, ["smooth", "ball2", "--mixed", "lower_ball2", "--boundary"],
                  target, cfg["samples"]))
    checks.append(Check("mixed_interior:ball2+lower_ball2", (op,), _vs_ref(op, 16 / 3)))

    def boundary(r, wl):
        v = r[op]
        return _close(v["boundary_value"], 16 / 3, v["boundary_std_error"])

    checks.append(Check("mixed_boundary:ball2+lower_ball2", (op,), boundary))
    return Workload("quadrature", fixtures, ops, checks)


BUILDERS = {"lattice": lattice, "angles": angles, "mixed": mixed, "quadrature": quadrature}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return BUILDERS[name](seed, smoke)


def run_check(check: Check, reports: dict, wl: Workload) -> tuple[bool, str]:
    """Evaluate a check; a missing report (the op raised) is a miss."""
    missing = [o for o in check.ops if reports.get(o) is None]
    if missing:
        return False, f"no report from {missing}"
    try:
        return check.test(reports, wl)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return False, f"malformed report: {exc!r}"
