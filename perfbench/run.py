"""kazvol benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs one workload in this single-threaded process by calling
``kazvol.cli.main([...])`` on generated JSON fixtures and reading the
``--json`` reports.  Phases:

1. set-up: import kazvol; then, three times, generate the inputs from the
   seed, write the fixtures and run one untimed warm-up op (the first op);
2. timed phase, tracing off: whole passes over the op list while half a
   further pass still fits in ``--seconds`` (at least one).  Pass ``p`` runs
   every op with program seed ``seed * 1000 + p``.  Each op is bracketed by
   runs of the calibration kernel (calibrate.py), and end-to-end times are
   reported in seconds at the kernel's reference speed;
3. with ``--trace 1``: one more pass of pass-0 seeds under the outside-in
   tracer (tracer.py), which gives the per-layer metrics (raw seconds);
4. reference checks on every report of every pass.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``.  ``--smoke`` runs every
workload at tiny sizes with both metric sets and checks that every metric
named in BENCHMARK.json is emitted with its unit and that every reference
check ran.
"""

from __future__ import annotations

import os

# Single-threaded BLAS; must be set before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
SEED_STRIDE = 1000

# Units as this file computes them; --smoke checks them against BENCHMARK.json.
END_TO_END_UNITS = {"wall_s": "s", "tta_s": "s", "ref_pass_frac": "frac",
                    "setup_s": "s", "peak_rss_mb": "MB"}
# (metric, tracer function key or layer, field)
PER_LAYER_FN = (
    ("polytope.hull.self_s", "polytope.hull", "self_s"),
    ("polytope.hull.calls", "polytope.hull", "calls"),
    ("polytope.hull.points_in", "polytope.hull", "points_in"),
    ("polytope.faces_built", "polytope.hull", "faces_built"),
    ("complex_linalg.rho.calls", "complex_linalg.rho", "calls"),
    ("complex_linalg.rho.self_s", "complex_linalg.rho", "self_s"),
    ("complex_linalg.from_span.calls", "complex_linalg.from_span", "calls"),
    ("complex_linalg.from_span.self_s", "complex_linalg.from_span", "self_s"),
    ("polytope.convex_volume.calls", "polytope.convex_volume", "calls"),
    ("polytope.convex_volume.self_s", "polytope.convex_volume", "self_s"),
    ("polytope.support.calls", "polytope.support", "calls"),
    ("polytope.support.self_s", "polytope.support", "self_s"),
    ("polytope.minkowski_sum.self_s", "polytope.minkowski_sum", "self_s"),
    ("polytope.minkowski_sum.points_in", "polytope.minkowski_sum", "points_in"),
    ("volumes.mixed_volume.calls", "volumes.mixed_volume", "calls"),
    ("volumes.mixed_volume.self_s", "volumes.mixed_volume", "self_s"),
    ("cone_geometry.outer_angle.calls", "cone_geometry.outer_angle", "calls"),
    ("cone_geometry.outer_angle.self_s", "cone_geometry.outer_angle", "self_s"),
    ("cone_geometry.mc_samples", "cone_geometry.outer_angle", "mc_samples"),
    ("numerics.sphere_sample.calls", "numerics.sphere_sample", "calls"),
    ("numerics.sphere_sample.self_s", "numerics.sphere_sample", "self_s"),
    ("numerics.sphere_sample.points", "numerics.sphere_sample", "points"),
    ("smooth_bodies.complex_hessian.self_s", "smooth_bodies.complex_hessian", "self_s"),
    ("smooth_bodies.complex_hessian.points", "smooth_bodies.complex_hessian", "points"),
    ("smooth_bodies.complex_gradient.self_s", "smooth_bodies.complex_gradient", "self_s"),
    ("volumes.batch_mixed_discriminant.self_s", "volumes.batch_mixed_discriminant", "self_s"),
    ("volumes.batch_mixed_discriminant.points", "volumes.batch_mixed_discriminant", "points"),
)


def per_layer_units() -> dict[str, str]:
    from tracer import LAYERS

    units = {name: ("s" if fld == "self_s" else "count") for name, _, fld in PER_LAYER_FN}
    units["cone_geometry.exact_frac"] = "frac"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.wall_s": "s", "trace.spans": "count", "trace.overhead_frac": "frac"})
    return units


# ---------------------------------------------------------------------------
# Environment record


def _blas_versions() -> dict:
    import numpy as np
    import scipy

    out = {}
    for name, mod in (("numpy", np), ("scipy", scipy)):
        try:
            cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[name] = f'{cfg.get("name")} {cfg.get("version")}'
        except (KeyError, TypeError, ValueError):
            out[name] = "unknown"
    return out


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else ref
    return ref


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "kazvol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_versions(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# Running ops


class OpResult(NamedTuple):
    wall: float  # seconds of the cli.main call
    values: dict | None  # the --json report's values; None when the op failed
    error: str | None
    kernel: float  # seconds of the calibration kernel timed next to the op


class Runner:
    """Runs ops through the imported CLI on fixtures in a scratch directory."""

    def __init__(self, cli, kernel, workdir: Path) -> None:
        self.cli = cli
        self.kernel = kernel
        self.workdir = workdir
        self.report = workdir / "report.json"
        self.paths: dict[str, Path] = {}

    def write_fixtures(self, wl) -> None:
        fixdir = self.workdir / "fixtures"
        fixdir.mkdir(exist_ok=True)
        self.paths = {}
        for key, data in wl.fixtures.items():
            path = fixdir / f"{key}.json"
            path.write_text(json.dumps(data))
            self.paths[key] = path

    def run_op(self, op, seed: int) -> OpResult:
        argv = op.command(self.paths, seed, self.report)
        with contextlib.suppress(FileNotFoundError):
            self.report.unlink()
        sink = io.StringIO()
        gc.collect()  # every op starts from the same heap state, as a fresh CLI would
        kernel = self.kernel()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception as exc:  # an op that raises is recorded as failed
            return OpResult(time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}", kernel)
        wall = time.perf_counter() - t0
        if code != 0:
            return OpResult(wall, None, f"exit {code}: {sink.getvalue()[-300:]}", kernel)
        return OpResult(wall, json.loads(self.report.read_text())["values"], None, kernel)

    def run_pass(self, wl, seed: int) -> dict[str, OpResult]:
        """Every op once; each op's kernel time becomes the mean of the kernel
        runs just before and just after it."""
        results = {op.id: self.run_op(op, seed) for op in wl.ops}
        gc.collect()
        after = [r.kernel for r in list(results.values())[1:]] + [self.kernel()]
        return {op_id: r._replace(kernel=(r.kernel + k) / 2)
                for (op_id, r), k in zip(results.items(), after)}


def setup(workloads, runner, name: str, seed: int, smoke: bool):
    """One set-up: generate inputs, write fixtures, one untimed warm-up op.

    Returns the workload and the set-up time in kernel units (over the
    kernel time measured before the warm-up op)."""
    t0 = time.perf_counter()
    wl = workloads.build(name, seed, smoke)
    runner.write_fixtures(wl)
    warm = runner.run_op(wl.ops[0], seed * SEED_STRIDE)
    if warm.error is not None:
        raise RuntimeError(f"warm-up op {wl.ops[0].id} failed: {warm.error}")
    return wl, (time.perf_counter() - t0 - warm.kernel) / warm.kernel


def timed_passes(wl, runner, seed: int, seconds: float) -> list[dict[str, OpResult]]:
    """Whole passes while half a further pass still fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(wl, seed * SEED_STRIDE + len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def pass_wall(p: dict[str, OpResult]) -> float:
    return sum(r.wall for r in p.values())


def _sigma_rel(values: dict | None) -> float | None:
    if values is None or not values.get("value") or "std_error" not in values:
        return None
    return values["std_error"] / abs(values["value"])


def end_to_end(wl, passes, ref_pass_frac: float, setup_s: float, rss_mb: float) -> dict:
    """Times in seconds at the calibration kernel's reference speed.

    Each op's wall time on a pass is divided by the mean kernel time around
    it; the op's time is the median of that ratio over the passes, times
    REFERENCE_S.  Its accuracy factor is the median over the passes' Monte
    Carlo seeds.
    """
    from calibrate import REFERENCE_S

    wall = 0.0
    log_tta = []
    for op in wl.ops:
        t = statistics.median(p[op.id].wall / p[op.id].kernel for p in passes) * REFERENCE_S
        factors = []
        for p in passes:
            rel = _sigma_rel(p[op.id].values)
            if op.sigma_target is not None and rel is not None:
                factors.append(max(1.0, (rel / op.sigma_target) ** 2))
        wall += t
        log_tta.append(math.log(t * (statistics.median(factors) if factors else 1.0)))
    return {
        "wall_s": wall,
        "tta_s": math.exp(sum(log_tta) / len(log_tta)),
        "ref_pass_frac": ref_pass_frac,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def setup_seconds(res, import_s: float) -> float:
    """Import plus the median set-up, at the kernel's reference speed."""
    from calibrate import REFERENCE_S

    kernel = statistics.median(r.kernel for p in res["passes"] for r in p.values())
    return (import_s / kernel + res["setup_reps"]) * REFERENCE_S


def per_layer(tracer, traced_wall: float, untraced_wall: float) -> dict:
    from tracer import LAYERS

    out = {}
    for name, key, fld in PER_LAYER_FN:
        st = tracer.stats[key]
        if fld == "self_s":
            out[name] = st.self_ns * 1e-9
        elif fld == "calls":
            out[name] = st.calls
        else:
            out[name] = st.counts[fld]
    oa = tracer.stats["cone_geometry.outer_angle"]
    out["cone_geometry.exact_frac"] = oa.counts["exact"] / oa.calls if oa.calls else 0.0
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.wall_s"] = traced_wall
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out


def run_workload(workloads, cli, name, seed, seconds, trace, smoke, workdir) -> dict:
    from calibrate import Kernel

    runner = Runner(cli, Kernel(), workdir)
    reps = [setup(workloads, runner, name, seed, smoke) for _ in range(SETUP_REPS)]
    wl = reps[-1][0]
    res = {"wl": wl, "setup_reps": statistics.median(r[1] for r in reps)}
    res["passes"] = timed_passes(wl, runner, seed, seconds)
    res["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["checked"] = list(res["passes"])
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            res["traced"] = runner.run_pass(wl, seed * SEED_STRIDE)
        finally:
            tracer.uninstall()
        res["tracer"] = tracer
        res["checked"].append(res["traced"])
    # (pass index, check, passed, detail) for every check on every checked pass
    res["checks"] = []
    for i, p in enumerate(res["checked"]):
        reports = {op_id: r.values for op_id, r in p.items()}
        res["checks"] += [(i, check, *workloads.run_check(check, reports, wl))
                          for check in wl.checks]
    return res


def summarize(res, import_s: float, trace: bool) -> tuple[dict, dict]:
    wl, passes, checks = res["wl"], res["passes"], res["checks"]
    failed = {(i, op_id) for i, p in enumerate(res["checked"])
              for op_id, r in p.items() if r.values is None}
    # A miss of a non-advisory check fails every op the check reads.
    for i, check, ok, _ in checks:
        if not ok and not check.advisory:
            failed.update((i, op_id) for op_id in check.ops)
    if trace:
        untraced_wall = statistics.median(pass_wall(p) for p in passes)
        metrics = per_layer(res["tracer"], pass_wall(res["traced"]), untraced_wall)
    else:
        passed = sum(ok for _, _, ok, _ in checks) / len(checks)
        metrics = end_to_end(wl, passes, passed, setup_seconds(res, import_s), res["rss_mb"])
    summary = {
        "attempted": sum(len(p) for p in res["checked"]),
        "failed": len(failed),
        "passes": len(passes),
        "misses": [(c.id, c.advisory, detail) for _, c, ok, detail in checks if not ok],
        "errors": [(op_id, r.error) for p in res["checked"]
                   for op_id, r in p.items() if r.error is not None],
    }
    return metrics, summary


# ---------------------------------------------------------------------------


def import_kazvol():
    """Import kazvol from this checkout's src/ (never an installed copy)."""
    if not (SRC / "kazvol" / "__init__.py").is_file():
        raise ImportError(f"no kazvol sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import kazvol
    import kazvol.cli as cli

    import_s = time.perf_counter() - t0
    if Path(kazvol.__file__).resolve().parent != (SRC / "kazvol").resolve():
        raise ImportError(f"kazvol imported from {kazvol.__file__}, not {SRC}")
    return cli, import_s


def emit(metrics: dict, units: dict) -> dict:
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} lack a unit or a value")
    return {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}


def smoke(cli, import_s: float, workdir: Path) -> int:
    """Every workload at tiny sizes, traced and untraced, in one process."""
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for section, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", per_layer_units())):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        if declared != units:
            problems.append(f"{section} of BENCHMARK.json differs from run.py: "
                            f"{sorted(set(declared.items()) ^ set(units.items()))}")
    declared = [w["name"] for w in bench["workloads"]]
    if sorted(declared) != sorted(workloads.NAMES):
        problems.append(f"workloads differ: {declared} vs {list(workloads.NAMES)}")
    for name in workloads.NAMES:
        t0 = time.perf_counter()
        res = run_workload(workloads, cli, name, 1, 0.0, True, True, workdir)
        try:
            e2e = emit(summarize(res, import_s, False)[0], END_TO_END_UNITS)
            emit(summarize(res, import_s, True)[0], per_layer_units())
        except RuntimeError as exc:
            problems.append(f"{name}: {exc}")
            continue
        _, summary = summarize(res, import_s, False)
        ran = {check.id for _, check, _, _ in res["checks"]}
        never = [c.id for c in res["wl"].checks if c.id not in ran]
        if never:
            problems.append(f"{name}: checks never ran: {never}")
        if summary["errors"]:
            problems.append(f"{name}: ops raised: {summary['errors']}")
        print(f"{name}: {len(res['wl'].ops)} ops, {len(res['checks'])} checks, "
              f"{len(summary['misses'])} misses, {time.perf_counter() - t0:.1f}s")
        for k, v in e2e.items():
            print(f"  {k:16s} {v['value']:12.6g} {v['unit']}")
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny end-to-end self-test")
    args = parser.parse_args(argv)
    try:
        cli, import_s = import_kazvol()
    except ImportError as exc:
        print(f"perfbench: cannot import kazvol: {exc}", file=sys.stderr)
        return 2
    import workloads

    if not args.smoke and args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.smoke:
            return smoke(cli, import_s, workdir)
        res = run_workload(workloads, cli, args.workload, args.seed, args.seconds,
                           bool(args.trace), False, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, summary = summarize(res, import_s, bool(args.trace))
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "import_s": import_s,
              "summary": summary, "metrics": metrics,
              "ops": {op.id: {"wall_s": [p[op.id].wall for p in res["passes"]],
                              "kernel_s": [p[op.id].kernel for p in res["passes"]],
                              "sigma_rel": [_sigma_rel(p[op.id].values) for p in res["passes"]]}
                      for op in res["wl"].ops}}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        (OUT / "traces").mkdir(exist_ok=True)
        res["tracer"].write_spans(OUT / "traces" / f"{tag}.tsv")
    print("env " + json.dumps(record["env"]))
    for cid, advisory, detail in summary["misses"]:
        print(f"miss{' (advisory)' if advisory else ''}: {cid}: {detail}")
    for op_id, err in summary["errors"]:
        print(f"error: {op_id}: {err}")
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": emit(metrics, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
