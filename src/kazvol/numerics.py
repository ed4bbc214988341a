"""Shared utilities: ball volumes, Wallis integrals, tolerances, JSON input, seeded sampling.

All Monte Carlo code in the package draws from :class:`RandomStream`, a
counter-based descriptor built on numpy's Philox generator.  Two streams with
the same (seed, stream_id) always produce identical samples, regardless of how
many other streams have been consumed in between.  Every Monte Carlo value,
the sampled outer angles and the smooth-body sphere averages alike, is the
one estimator :func:`sampled_mean`: its loop over :func:`chunks` is the one
place that derives a per-chunk substream.
Every result is an :class:`Estimate`, with one statistical standard deviation
and a deterministic error bound; :func:`weighted_sum` is the one place that
combines the errors of independent estimates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "Tolerance",
    "Estimate",
    "weighted_sum",
    "RandomStream",
    "kappa",
    "wallis",
    "sphere_sample",
    "chunks",
    "sampled_mean",
    "read_json",
    "read_field",
    "DEFAULT_TOLERANCE",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = 2_000_000  # draws per Monte Carlo estimate or cubature nodes; --samples


@dataclass(frozen=True)
class Tolerance:
    """Numeric tolerance shared by rank decisions and face coincidence tests."""

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1e-3):
            raise ValueError(f"eps must lie in (0, 1e-3), got {self.eps!r}")


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class RandomStream:
    """Immutable descriptor of a reproducible random substream."""

    seed: int = 42
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % (1 << 64), self.stream_id % (1 << 64)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RandomStream":
        # Injective on the index ranges used here (indices < 2**20 per parent).
        return RandomStream(self.seed, (self.stream_id << 21) ^ (index + 1))


def kappa(ell: int) -> float:
    """Lebesgue volume of the unit ball of dimension ``ell``."""
    if ell < 0:
        raise ValueError("dimension must be non-negative")
    return math.pi ** (ell / 2.0) / math.gamma(1.0 + ell / 2.0)


def wallis(n: int) -> float:
    """The integral of sin(theta)**n over [0, pi]."""
    if n < 0:
        raise ValueError("order must be non-negative")
    return math.sqrt(math.pi) * math.gamma((n + 1) / 2.0) / math.gamma((n + 2) / 2.0)


def sphere_sample(dim: int, stream: RandomStream, count: int) -> np.ndarray:
    """Uniform points on the unit sphere of R^dim, shape (count, dim).

    Gaussian directions normalized to unit length; deterministic in
    (seed, stream_id).  For dim == 1 the result takes values in {-1, +1}.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = stream.generator()
    x = gen.standard_normal((count, dim))
    norms = np.linalg.norm(x, axis=1)
    # Resampling a Gaussian at exactly 0 has probability 0; guard anyway.
    bad = norms < 1e-300
    if bad.any():
        x[bad] = 1.0
        norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]


def chunks(samples: int, stream: RandomStream, size: int) -> Iterator[tuple[RandomStream, int]]:
    """Split ``samples`` draws into chunks of at most ``size``.

    Yields ``(stream.substream(i), count)`` for chunk ``i``; the counts sum to
    ``samples``.  The chunk size therefore decides which draws a run uses.
    """
    for i, start in enumerate(range(0, samples, size)):
        yield stream.substream(i), min(size, samples - start)


def sampled_mean(values_of: Callable[[RandomStream, int], np.ndarray], samples: int,
                 stream: RandomStream, size: int) -> tuple[float, float, int]:
    """Mean, standard error and number of the values kept from ``samples`` draws.

    ``values_of(sub, m)`` makes the ``m`` draws of one chunk of :func:`chunks`
    from its substream ``sub`` and returns the values of those it keeps.  For
    0/1 values the mean is hits / used.  No kept draw gives (0.0, inf, 0).
    """
    total = total_sq = 0.0
    used = 0
    for sub, m in chunks(samples, stream, size):
        vals = np.asarray(values_of(sub, m), dtype=float)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals**2))
        used += len(vals)
    if not used:
        return 0.0, float("inf"), 0
    mean = total / used
    var = max(total_sq / used - mean**2, 0.0)
    return mean, math.sqrt(var / used), used


@dataclass(frozen=True)
class Estimate:
    """A value, its standard error and a deterministic bound (rounding, a cubature ladder);
    ``samples`` counts the draws kept or the nodes evaluated, ``terms`` the parts of a sum
    (per-face rows, or one coefficient ``Estimate`` per degree)."""

    value: float
    std_error: float = 0.0
    bound: float = 0.0
    method: str = "exact"
    samples: int = 0
    terms: tuple = ()


def weighted_sum(pairs: Iterable[tuple[float, Estimate]], terms: tuple = ()) -> Estimate:
    """sum c * value over ``(c, estimate)`` pairs of independent estimates: standard errors
    add in quadrature, ``|c| * bound`` and the samples add, and the method is the parts'
    sorted methods joined by "+" (no parts give an exact 0)."""
    pairs = list(pairs)
    value = 0.0
    for c, e in pairs:
        value += c * e.value
    return Estimate(float(value), math.hypot(*(c * e.std_error for c, e in pairs)),
                    float(sum(abs(c) * e.bound for c, e in pairs)),
                    "+".join(sorted({e.method for _, e in pairs})) or "exact",
                    sum(e.samples for _, e in pairs), tuple(terms))


def read_json(source) -> dict:
    """A JSON object from a file path, inline JSON text, or an already parsed dict.

    A string that starts with "{" or "[" is inline JSON; any other string or path
    is read as a file, so a missing file raises an OSError naming it.  A document
    that is not an object is a ValueError.
    """
    if isinstance(source, str) and source.lstrip().startswith(("{", "[")):
        data = json.loads(source)
    elif isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError(f"input must be a JSON object, not {type(data).__name__}")
    return data


def _has_bool(value) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_has_bool, value))


def read_field(data: dict, name: str, parse: Callable):
    """``parse(data[name])``; a value ``parse`` rejects is a ValueError naming the field.
    So is a boolean anywhere in the value, as every field holds numbers (``float`` reads
    true as 1), and for ``parse = int`` any value but an int or numpy integer."""
    value = data[name]
    if _has_bool(value) or parse is int and not isinstance(value, (int, np.integer)):
        want, got = ("an integer", repr(value)) if parse is int else ("numbers", "a boolean")
        raise ValueError(f"field {name!r}: expected {want}, got {got}")
    try:
        return parse(value)
    except (ArithmeticError, TypeError, ValueError) as exc:  # "1/0" is a ZeroDivisionError
        raise ValueError(f"field {name!r}: {exc}") from None
