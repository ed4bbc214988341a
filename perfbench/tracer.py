"""Outside-in tracer for the kazvol layers.

The tracer never edits ``src/``.  It replaces each traced public function
with a timing wrapper and rebinds the wrapper everywhere the original is
reachable: the defining module, and every ``kazvol`` module that copied the
binding with ``from .x import f`` (``kazvol.cli``, ``kazvol.pseudovolume``,
``kazvol.volumes``, ``kazvol.cone_geometry``, ``kazvol.smooth_bodies`` and the
``kazvol`` package itself).  Calls made through a module attribute
(``cl.rho``, ``sb.mc_pseudovolume``) resolve to the wrapper as well.

Self time comes from a span stack: a span's self time is its duration minus
the durations of its direct children.  Spans stay in memory and are written
out by :meth:`Tracer.write_spans` when the benchmark ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Layer (module of src/kazvol) -> public functions wrapped in that module.
# "Class.method" names a classmethod.  `verification` is out of scope.
TARGETS: dict[str, tuple[str, ...]] = {
    "polytope": ("hull", "support", "minkowski_sum", "convex_volume", "load_polytope"),
    "complex_linalg": ("rho", "SubspaceBasis.from_span"),
    "cone_geometry": ("outer_angle",),
    "numerics": ("sphere_sample",),
    "volumes": ("mixed_volume", "batch_mixed_discriminant", "mixed_discriminant",
                "intrinsic_volume", "volume_via_facets"),
    "smooth_bodies": ("complex_hessian", "complex_gradient", "mc_pseudovolume",
                      "mc_mixed_pseudovolume", "boundary_mixed_pseudovolume", "load_body"),
    "pseudovolume": ("pseudovolume", "mixed_pseudovolume", "mixed_phi_volume",
                     "mixed_with_ball", "eps_neighborhood_pseudovolume",
                     "intrinsic_phi_volume"),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS)

# Bindings copied by `from .x import f` that the tracer must reach; checked
# after installation so that a renamed import cannot silently drop a layer.
REQUIRED_REBINDS = (
    ("kazvol", "hull"), ("kazvol", "pseudovolume"), ("kazvol", "sphere_sample"),
    ("kazvol.cli", "pseudovolume"), ("kazvol.cli", "mixed_pseudovolume"),
    ("kazvol.cli", "eps_neighborhood_pseudovolume"), ("kazvol.cli", "outer_angle"),
    ("kazvol.pseudovolume", "hull"), ("kazvol.pseudovolume", "minkowski_sum"),
    ("kazvol.pseudovolume", "mixed_volume"), ("kazvol.volumes", "convex_volume"),
    ("kazvol.cone_geometry", "sphere_sample"), ("kazvol.smooth_bodies", "sphere_sample"),
    ("kazvol.smooth_bodies", "batch_mixed_discriminant"),
)

_SKIP_MODULES = ("kazvol.verification",)


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _count_hull(a, result, counts):
    counts["points_in"] += _rows(a["points"])
    counts["faces_built"] += sum(result.face_vector())


def _count_minkowski(a, result, counts):
    counts["points_in"] += sum(p.n_vertices for p in a["parts"])


def _count_outer_angle(a, result, counts):
    if result.method == "exact":
        counts["exact"] += 1
    else:
        counts["mc_samples"] += int(a["samples"])


def _count_sphere(a, result, counts):
    counts["points"] += int(a["count"])


def _count_hessian(a, result, counts):
    counts["points"] += _rows(a["z"])


def _count_batch_md(a, result, counts):
    counts["points"] += int(a["mats"][0].shape[0])


# (layer, function) -> hook(bound arguments, return value, counts dict)
COUNTERS = {
    ("polytope", "hull"): _count_hull,
    ("polytope", "minkowski_sum"): _count_minkowski,
    ("cone_geometry", "outer_angle"): _count_outer_angle,
    ("numerics", "sphere_sample"): _count_sphere,
    ("smooth_bodies", "complex_hessian"): _count_hessian,
    ("volumes", "batch_mixed_discriminant"): _count_batch_md,
}


@dataclass
class FnStats:
    layer: str
    calls: int = 0
    self_ns: int = 0
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Wraps the TARGETS functions while installed; collects spans and counts."""

    def __init__(self) -> None:
        self.stats: dict[str, FnStats] = {}
        self.spans: list[tuple[int, int, int, int]] = []  # (fn index, start, end, parent)
        self._names: list[str] = []
        self._stack: list[list[int]] = []  # [span index, start_ns, child_ns]
        self._restore: list[tuple[object, str, object]] = []
        self.rebinds: set[tuple[str, str]] = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "kazvol" or name.startswith("kazvol."))
                   and name not in _SKIP_MODULES and m is not None]
        for layer, names in TARGETS.items():
            mod = importlib.import_module(f"kazvol.{layer}")
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    wrapped = self._wrap(layer, qual, raw.__func__)
                    self._set(cls, meth, classmethod(wrapped), f"kazvol.{layer}.{cls_name}")
                    continue
                orig = getattr(mod, qual)
                wrapped = self._wrap(layer, qual, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, wrapped, m.__name__)
        missing = [site for site in REQUIRED_REBINDS if site not in self.rebinds]
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracer could not rebind {missing}")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        self.rebinds.clear()

    def _set(self, owner, attr, value, owner_name) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)
        self.rebinds.add((owner_name, attr))

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name.split('.')[-1]}"
        stats = self.stats.setdefault(key, FnStats(layer))
        idx = len(self._names)
        self._names.append(key)
        counter = COUNTERS.get((layer, name))
        sig = inspect.signature(fn) if counter else None
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), clock(), 0]
            spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                spans[frame[0]] = (idx, frame[1], end, parent)
                stats.calls += 1
                stats.self_ns += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(bound.arguments, result, stats.counts)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for st in self.stats.values():
            out[st.layer] += st.self_ns * 1e-9
        return out

    def write_spans(self, path) -> None:
        """One line per span: name, start and end (ns), parent span index (-1 = root)."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, span in enumerate(self.spans):
                fn_idx, start, end, parent = span
                fh.write(f"{i}\t{self._names[fn_idx]}\t{start}\t{end}\t{parent}\n")
