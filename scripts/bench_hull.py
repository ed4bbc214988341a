#!/usr/bin/env python3
"""Time ``kazvol.hull`` with the face reads of its callers, the closed-form outer
angles and the direct ``Q_2`` on fixed inputs for one kazvol source tree.

    python3 scripts/bench_hull.py OLD/src BENCH.json --label parent
    python3 scripts/bench_hull.py src BENCH.json --label change
    python3 scripts/bench_hull.py src bench.json --smoke      # Theta_4 and Theta_4 + cube

The cases are the ``hull`` rows of the ROADMAP: Theta_4, 40 points in C^3,
30 points in C^4 (each cloud ``np.random.default_rng(2026).normal(size=(m,
2n))``), the cube [-1, 1]^8 and the Minkowski sum Theta_4 + [-1, 1]^4 (the hull
of its 128 vertex sums, as ``minkowski_sum`` takes it): a non-simplicial hull
whose squares and cubes take the lattice's bitmask path.  ``hull`` builds each dimension's faces on
first read, so ``hull`` alone leaves out work; each case times four paths
instead, each as the median wall time over ``REPS`` calls after one warm-up
call:

- eager: ``hull`` plus a read of every dimension of ``P.faces``, the work of
  a caller that sums over ``Face`` objects;
- faces: ``kazvol faces`` on the points (``cli.cmd_faces`` with its output
  captured): ``hull``, the face data of every dimension and its rendering;
- volume: ``hull``, ``face_vector()`` and ``improper_face.volume_k``, the
  work of ``kazvol volume``;
- lookup: ``hull`` and one ``face_by_ids`` of the middle face (in
  ``P.faces.ids`` order) of dimension floor(d/2), the work of ``kazvol
  angle`` on one face before its angle.

It also records the f-vector, a hash of the faces path's output (equal hashes
on two trees mean byte-identical ``kazvol faces`` output) and, from one more
eager call and one more faces call under cProfile, the cumulative seconds of
the whole call, of ``hull``, of Qhull (``ConvexHull``), ``_facet_sets``,
``_lattice``, the per-dimension face builder ``_build_faces`` of trees that
have no column reader, the column reader ``_FaceLattice.data``, the
per-dimension batch (``_simplex_columns`` on trees whose non-simplicial faces
compute their own data, ``_face_data`` with its pyramid step on later ones) and
its simplex pass ``_simplex_data``; a name the tree does not define is left out
of the record.
The profile is read from the functions of the given tree, so nothing of
``hull`` is copied here; Qhull is timed by a pass-through wrapper around the
``ConvexHull`` name that ``polytope`` calls.  Profiled times carry cProfile's
overhead and are for the split, not for the totals.  Each timed eager call is
followed by one timed pass of a new ``AnglePass(P).angle`` over every face
whose normal cone has dimension 2 or 3 (the closed forms), and the run
records the median of those passes too.

The ``Q_n`` rows (``mixed_rows``) time the mixed path, ``mixed_pseudovolume`` (the
direct route) on the hulls of two point sets, as ``kazvol mixed`` runs it: on
Theta_4 + [-1, 1]^4 and on a seeded pair of 8 and 9 points in C^2
(``np.random.default_rng(2026)``, one draw after the other; left out by --smoke).
Each records the median of ``REPS`` calls after a warm-up call, the value with its
std_error, bound and method, and a cProfile split into ``hull`` (the summands' and
the sum's), Qhull and the layers of ``LAYERS["mixed"]``: ``minkowski_sum``, the
summand labels, the label-set classification of a whole dimension
``_summand_label_sets`` (or, on older trees, the per-face
``_labelled_summand_faces``), ``mixed_volume`` and ``_simplex_data``.

The run also records the machine, the package versions and a hash of the
tree's sources; it stops if ``kazvol`` is imported from outside SRC (an
installed copy, say), so the hash always names the code that ran.

Each run is appended to the ``runs`` list of OUT.json (created if missing),
so runs on two trees, alternated, sit side by side in one file.  BLAS runs
on one thread.
"""

from __future__ import annotations

import os

# Single-threaded BLAS; must be set before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

CLOUD_SEED = 2026
REPS = 5  # timed calls of each path per case
# Profiled functions, as "module.name" under ``kazvol``, recorded by the part after the module.
LAYERS = {
    "hull": ("polytope._facet_sets", "polytope._lattice", "polytope._build_faces",
             "polytope._FaceLattice.data", "polytope._simplex_columns", "polytope._face_data",
             "polytope._simplex_data"),
    "mixed": ("polytope.minkowski_sum", "polytope._sum_labels", "polytope._summand_label_sets",
              "polytope._labelled_summand_faces", "pseudovolume._summand_mixed_volume",
              "volumes.mixed_volume", "polytope._simplex_data"),
}


def cases(smoke: bool) -> list[tuple[str, np.ndarray]]:
    theta4 = np.vstack([np.eye(4), -np.eye(4)])  # the cross-polytope of R^4 = C^2
    out = [("theta4", theta4)]
    if not smoke:
        cube4 = np.array(list(itertools.product([-1.0, 1.0], repeat=4)))
        out += [("cloud 40 in C^3", np.random.default_rng(CLOUD_SEED).normal(size=(40, 6))),
                ("cloud 30 in C^4", np.random.default_rng(CLOUD_SEED).normal(size=(30, 8))),
                ("cube [-1,1]^8", np.array(list(itertools.product([-1.0, 1.0], repeat=8)))),
                ("sum theta4 + [-1,1]^4", (theta4[:, None, :] + cube4[None, :, :]).reshape(-1, 4))]
    return out


def mixed_cases(smoke: bool) -> list[tuple[str, list[np.ndarray]]]:
    theta4 = np.vstack([np.eye(4), -np.eye(4)])
    out = [("theta4 + [-1,1]^4", [theta4, np.array(list(itertools.product([-1.0, 1.0],
                                                                         repeat=4)))])]
    if not smoke:
        rng = np.random.default_rng(CLOUD_SEED)
        out.append(("cloud 8 + cloud 9 in C^2", [rng.normal(size=(8, 4)),
                                                 rng.normal(size=(9, 4))]))
    return out


def eager(polytope, points: np.ndarray):
    """``hull`` and every dimension of its faces."""
    P = polytope.hull(points)
    for k in P.faces:
        P.faces[k]
    return P


def faces(polytope, points: np.ndarray) -> str:
    """``kazvol faces`` on the points, as its command handler runs it; returns its output."""
    from kazvol import cli  # the tree of ``polytope``: ``main`` put it first on the path

    doc = {"n": points.shape[1] // 2, "vertices": points.tolist()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.cmd_faces(argparse.Namespace(file=doc), polytope.DEFAULT_TOLERANCE, None, 0)
    return out.getvalue()


def volume(polytope, points: np.ndarray) -> float:
    """``hull``, its f-vector and its volume, as ``kazvol volume`` reads them."""
    P = polytope.hull(points)
    P.face_vector()
    return P.improper_face.volume_k


def lookup(polytope, points: np.ndarray):
    """``hull`` and one ``face_by_ids`` of the middle face of dimension floor(d/2)."""
    P = polytope.hull(points)
    ids = P.faces.ids[P.dim_real // 2]
    return P.face_by_ids(ids[len(ids) // 2])


def mixed(polytope, pair: list[np.ndarray]):
    """``kazvol mixed`` on two point sets: their hulls and the direct ``Q_2``."""
    from kazvol import mixed_pseudovolume  # the tree of ``polytope``

    return mixed_pseudovolume([polytope.hull(points) for points in pair])


def profile(polytope, path, points, layers: tuple[str, ...]) -> dict[str, float]:
    """Cumulative seconds of one call of a path and of its layers, under cProfile."""
    qhull = polytope.ConvexHull

    def ConvexHull(*args, **kwargs):  # noqa: N802 -- stands in for the name it wraps
        return qhull(*args, **kwargs)

    functions = {path.__name__: path, "hull": polytope.hull, "ConvexHull": ConvexHull}
    for name in layers:
        module, attrs = name.split(".", 1)
        fn = functools.reduce(lambda obj, attr: getattr(obj, attr, None), attrs.split("."),
                              importlib.import_module(f"kazvol.{module}"))
        if fn is not None:
            functions[attrs] = fn
    polytope.ConvexHull = ConvexHull
    profiler = cProfile.Profile()
    try:
        profiler.runcall(path, polytope, points)
    finally:
        polytope.ConvexHull = qhull
    stats = pstats.Stats(profiler).stats
    out = {}
    for name, fn in functions.items():
        code = fn.__code__
        row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        out[name] = row[3] if row else 0.0  # cumulative time; 0 if never called
    return out


def angle_pass(angle_pass_cls, P) -> tuple[float, int]:
    """Seconds of one new ``AnglePass`` over the faces with normal cones of dimension 2 or 3,
    and the number of those faces."""
    faces = [f for f in P.all_faces() if P.dim_real - f.k in (2, 3)]
    start = time.perf_counter()
    angles = angle_pass_cls(P)
    for f in faces:
        angles.angle(f)
    return time.perf_counter() - start, len(faces)


def timed(path, polytope, points: np.ndarray) -> tuple[float, object]:
    start = time.perf_counter()
    result = path(polytope, points)
    return time.perf_counter() - start, result


def run_case(polytope, angle_pass_cls, points: np.ndarray) -> dict:
    eager(polytope, points)  # warm-up
    output = faces(polytope, points)
    volume(polytope, points)
    lookup(polytope, points)
    times, faces_times, volume_times, lookup_times, angle_times = [], [], [], [], []
    for _ in range(REPS):
        seconds, P = timed(eager, polytope, points)
        times.append(seconds)
        seconds, angle_faces = angle_pass(angle_pass_cls, P)
        angle_times.append(seconds)
        faces_times.append(timed(faces, polytope, points)[0])
        volume_times.append(timed(volume, polytope, points)[0])
        lookup_times.append(timed(lookup, polytope, points)[0])
    f_vector = P.face_vector()
    return {"points": len(points), "n": points.shape[1] // 2,
            "eager_median_s": statistics.median(times), "eager_times_s": times,
            "faces_median_s": statistics.median(faces_times), "faces_times_s": faces_times,
            "faces_output_sha256": hashlib.sha256(output.encode()).hexdigest(),
            "volume_median_s": statistics.median(volume_times), "volume_times_s": volume_times,
            "lookup_median_s": statistics.median(lookup_times), "lookup_times_s": lookup_times,
            "f_vector": f_vector, "faces": sum(f_vector),
            "angle_faces": angle_faces, "angles_median_s": statistics.median(angle_times),
            "angles_times_s": angle_times,
            "profile_s": profile(polytope, eager, points, LAYERS["hull"]),
            "faces_profile_s": profile(polytope, faces, points, LAYERS["hull"])}


def run_mixed_case(polytope, pair: list[np.ndarray]) -> dict:
    mixed(polytope, pair)  # warm-up
    times = []
    for _ in range(REPS):
        seconds, est = timed(mixed, polytope, pair)
        times.append(seconds)
    return {"points": [len(points) for points in pair], "n": pair[0].shape[1] // 2,
            "mixed_median_s": statistics.median(times), "mixed_times_s": times,
            "value": est.value, "std_error": est.std_error, "bound": est.bound,
            "method": est.method, "profile_s": profile(polytope, mixed, pair, LAYERS["mixed"])}


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu": cpu,
            "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(), "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"]}


def sources_hash(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "kazvol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the source tree (the directory that holds kazvol/)")
    parser.add_argument("out", help="JSON file the run is appended to")
    parser.add_argument("--smoke", action="store_true",
                        help="Theta_4 and the Q_2 of Theta_4 + [-1, 1]^4 only")
    parser.add_argument("--label", default="", help="name of the run, e.g. parent or change")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from kazvol import AnglePass, polytope

    if not Path(polytope.__file__).resolve().is_relative_to(src):
        sys.exit(f"kazvol was imported from {polytope.__file__}, not from {src}")

    rows = []
    for name, points in cases(args.smoke):
        row = {"case": name, **run_case(polytope, AnglePass, points)}
        rows.append(row)
        print(f"{name}: median over {REPS}: eager {row['eager_median_s']:.4f} s, "
              f"faces {row['faces_median_s']:.4f} s, volume {row['volume_median_s']:.4f} s, "
              f"lookup {row['lookup_median_s']:.4f} s, "
              f"f-vector {row['f_vector']}, angles of {row['angle_faces']} faces: median "
              f"{row['angles_median_s']:.4f} s, profile "
              + ", ".join(f"{k} {v:.4f}" for k, v in row["profile_s"].items())
              + "; faces profile "
              + ", ".join(f"{k} {v:.4f}" for k, v in row["faces_profile_s"].items()))
    mixed_rows = []
    for name, pair in mixed_cases(args.smoke):
        row = {"case": name, **run_mixed_case(polytope, pair)}
        mixed_rows.append(row)
        print(f"mixed {name}: median over {REPS}: {row['mixed_median_s']:.4f} s, "
              f"Q_2 = {row['value']!r} ± {row['std_error']:g} (bound {row['bound']:.2g}, "
              f"{row['method']}), profile "
              + ", ".join(f"{k} {v:.4f}" for k, v in row["profile_s"].items()))
    run = {"label": args.label, "sources_sha256": sources_hash(src), "smoke": args.smoke,
           "reps": REPS, "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
           "machine": machine(),
           "versions": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__},
           "rows": rows, "mixed_rows": mixed_rows}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"runs": []}
    doc["runs"].append(run)
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
