"""Deterministic, splittable random sampling for data, weights, and noise.

Every draw flows through an :class:`RngStream`, a value object naming one
counter-based Philox stream by a ``(seed, stream_id)`` key pair.  Distinct
key pairs index distinct Philox random functions, so parallel trials get
independent, non-overlapping sequences by construction, independent of
scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

_MASK64 = (1 << 64) - 1

# Purpose tags for deriving per-role substreams inside one trial.
TAG_DATA = 1
TAG_WEIGHTS = 2
TAG_NOISE = 3
TAG_TEST = 4
TAG_TARGET = 5
TAG_SUPPORTS = 6

# Entries of scratch that `GaussianColumns` draws a row's words into (32 kB).
_SCRATCH = 4096


def _splitmix64(z: int) -> int:
    """One SplitMix64 step; the standard 64-bit finalizer used to derive keys."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """A named random stream: identical (seed, stream_id) pairs replay bit-identically."""

    seed: int
    stream_id: int

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) <= _MASK64:
                raise InvalidArgumentError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, *tags: int) -> "RngStream":
        """Derive a stream for a sub-purpose (data/weights/noise/... within a trial).

        The stream_id is re-keyed through SplitMix64 per tag; collisions across
        distinct tag paths are astronomically unlikely and determinism is exact.
        """
        h = self.stream_id
        for t in tags:
            h = _splitmix64(h ^ (int(t) & _MASK64))
        return RngStream(self.seed, h)


def split_stream(seed: int, trial_id: int) -> RngStream:
    """Stream for one trial under a master seed; independent across trial_ids."""
    return RngStream(seed, trial_id)


@dataclass(frozen=True)
class NoiseModel:
    """Additive output noise: none, Uniform[-E, E], or centered Gaussian with std level."""

    kind: str
    level: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "bounded_uniform", "gaussian"):
            raise InvalidArgumentError(f"unknown noise kind {self.kind!r}")
        if not (self.level >= 0 and np.isfinite(self.level)):
            raise InvalidArgumentError("noise level must be finite and non-negative")
        if self.kind == "none" and self.level != 0:
            raise InvalidArgumentError("noise kind 'none' requires level 0")
        if self.level > np.finfo(float).max / 2:
            raise InvalidArgumentError(f"noise level {self.level!r}: 2 * level overflows")

    @property
    def bound(self) -> float:
        """Value of E in the risk bounds: the level for bounded noise, 2*level for
        Gaussian (the level is exceeded only with the probability absorbed into
        the bounds' confidence budget), 0 without noise."""
        if self.kind == "bounded_uniform":
            return self.level
        if self.kind == "gaussian":
            return 2.0 * self.level
        return 0.0


NOISE_NONE = NoiseModel("none", 0.0)


def _check_gaussian(rows: int, cols: int, variance: float) -> None:
    if rows < 1 or cols < 1:
        raise InvalidArgumentError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if variance <= 0:
        raise InvalidArgumentError(f"variance must be positive, got {variance}")


def gaussian_matrix(rows: int, cols: int, variance: float, stream: RngStream) -> np.ndarray:
    """rows x cols matrix of i.i.d. N(0, variance) entries, deterministic per stream."""
    _check_gaussian(rows, cols, variance)
    gen = stream.generator()
    return gen.normal(0.0, np.sqrt(variance), size=(rows, cols))


class GaussianColumns:
    """`gaussian_matrix(rows, cols, variance, stream)` read in column blocks,
    bit for bit, without holding it.

    The matrix is drawn row after row from one Philox stream by numpy's
    ziggurat normal, whose words per draw depend on the draw, so a row's
    start is known only by drawing the rows before it.  The first block read
    draws each row once, in pieces of `_SCRATCH` entries, and keeps a
    generator at each row's start: Philox is counter-based, so its state can
    be copied and replayed.  Each block `W[:, i:j]` then draws columns [i, j)
    of every row from that row's generator by the same `normal` call.  So
    blocks are read in ascending, contiguous order, and a read holds its
    block and `rows` generators.  `np.asarray(W)` draws the whole matrix
    anew: it is `gaussian_matrix` itself.
    """

    ndim = 2

    def __init__(self, rows: int, cols: int, variance: float, stream: RngStream):
        _check_gaussian(rows, cols, variance)
        self.shape = (rows, cols)
        self.variance, self.stream = variance, stream
        self._rows = None  # a generator per row, at column `_next` of that row
        self._next = 0

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(gaussian_matrix(*self.shape, self.variance, self.stream), dtype)

    def __getitem__(self, key) -> np.ndarray:
        if not (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(k, slice) for k in key)
                and key[0] == slice(None) and key[1].step in (None, 1)):
            raise InvalidArgumentError(f"GaussianColumns reads blocks W[:, i:j], not {key!r}")
        i, j, _ = key[1].indices(self.shape[1])
        if i != self._next or j <= i:
            raise InvalidArgumentError(
                f"column blocks are read in ascending, contiguous order: the next starts "
                f"at {self._next}, not [{i}, {j})")
        if self._rows is None:
            self._rows = self._row_starts()
        scale = np.sqrt(self.variance)
        block = np.empty((self.shape[0], j - i))
        for r, gen in enumerate(self._rows):
            block[r] = gen.normal(0.0, scale, size=j - i)
        self._next = j
        return block

    def _row_starts(self) -> list[np.random.Generator]:
        gen = self.stream.generator()
        rows, cols = self.shape
        scratch = np.empty(min(cols, _SCRATCH))
        starts = []
        for _ in range(rows):
            start = self.stream.generator()
            start.bit_generator.state = gen.bit_generator.state
            starts.append(start)
            for i in range(0, cols, _SCRATCH):  # the words of one row of `normal`
                gen.standard_normal(out=scratch[:cols - i])
        return starts


def noise_vector(m: int, model: NoiseModel, stream: RngStream) -> np.ndarray:
    """Length-m noise draw; bounded_uniform satisfies |e_j| <= level always."""
    if m < 1:
        raise InvalidArgumentError(f"noise length must be positive, got {m}")
    if model.kind == "none":
        return np.zeros(m)
    gen = stream.generator()
    if model.kind == "bounded_uniform":
        return gen.uniform(-model.level, model.level, size=m)
    # Gaussian noise is never truncated at sampling time; the 2*level bound
    # holds only with the stated probability and is applied in reporting.
    return gen.normal(0.0, model.level, size=m)
