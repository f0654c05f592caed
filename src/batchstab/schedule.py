"""Data-independent batch-selection rules and their realizations.

A schedule assigns to every step t a set of m distinct dataset indices.  All
rules here are data independent: the realized T x m index matrix is a
deterministic function of the specification and its seed, never of the
sampled examples.

Supported rules:

    full_batch        every step uses all n indices (m = n)
    round_robin       consecutive wrapping blocks of m indices in fixed order;
                      with m = 1 this is the classical incremental rule
                      1, 2, ..., n, 1, 2, ...
    random_reshuffle  a fresh uniform permutation per epoch, chunked into
                      batches of m (the remainder is dropped when m does not
                      divide n, keeping every batch exactly m indices)
    single_shuffle    one uniform permutation drawn once and reused each epoch
    uniform_random    every step an independent uniform draw of m distinct
                      indices
    custom            an explicit T x m matrix supplied by the caller

Indices are 0-based internally.  ``custom_indices`` and the schedules that
``batchstab dump`` writes follow the {1, ..., n} convention used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from batchstab.errors import ConfigError
from batchstab.seeding import substream

VALID_KINDS = (
    "full_batch",
    "round_robin",
    "random_reshuffle",
    "single_shuffle",
    "uniform_random",
    "custom",
)

STOCHASTIC_KINDS = ("random_reshuffle", "single_shuffle", "uniform_random")

# Uniform keys drawn at once by a uniform_random realization, at most; the
# keys and their partition are two arrays of this size.
_UNIFORM_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class ScheduleSpec:
    """Specification of a batch-selection rule.

    ``custom_indices`` rows are 1-based.  The seed is irrelevant for
    ``full_batch``, ``round_robin`` and ``custom`` kinds.
    """

    kind: str
    n: int
    m: int
    T: int
    seed: int = 0
    custom_indices: tuple[tuple[int, ...], ...] | None = None

    def validate(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ConfigError(
                f"schedule kind {self.kind!r} is not one of {VALID_KINDS}"
            )
        if self.n < 1:
            raise ConfigError(f"dataset size n must be >= 1, got {self.n}")
        if not 1 <= self.m <= self.n:
            raise ConfigError(
                f"batch size m must satisfy 1 <= m <= n, got m={self.m}, n={self.n}"
            )
        if self.T < 0:
            raise ConfigError(f"horizon T must be >= 0, got {self.T}")
        if self.kind == "full_batch" and self.m != self.n:
            raise ConfigError(
                f"full_batch requires m = n, got m={self.m}, n={self.n}"
            )
        if self.kind == "custom":
            if self.custom_indices is None:
                raise ConfigError("custom schedule requires custom_indices")
            rows = self.custom_indices
            if len(rows) != self.T:
                raise ConfigError(
                    f"custom_indices has {len(rows)} rows, expected T={self.T}"
                )
            for t, row in enumerate(rows, start=1):
                if len(row) != self.m or len(set(row)) != self.m:
                    raise ConfigError(
                        f"custom_indices row {t} must hold {self.m} distinct indices"
                    )
                if not all(1 <= i <= self.n for i in row):
                    raise ConfigError(
                        f"custom_indices row {t} has an index outside [1, {self.n}]"
                    )
        elif self.custom_indices is not None:
            raise ConfigError("custom_indices is only valid for kind='custom'")

    def label(self) -> str:
        return f"{self.kind}_m{self.m}" if self.kind != "full_batch" else "full_batch"


@dataclass(eq=False)
class RealizedSchedule:
    """Concrete outcome of a batch-selection rule: one index set per step.

    ``batches`` is a (T, m) array of 0-based indices; rows are distinct by
    construction when produced by :func:`realize`.
    """

    batches: np.ndarray
    n: int
    kind: str = "custom"

    def __post_init__(self) -> None:
        self.batches = np.asarray(self.batches, dtype=np.int64)
        if self.batches.ndim != 2:
            raise ConfigError("batches must be a T x m matrix")

    @property
    def T(self) -> int:
        return self.batches.shape[0]

    @property
    def m(self) -> int:
        return self.batches.shape[1]


def realize(spec: ScheduleSpec) -> RealizedSchedule:
    """Realize a schedule specification into a concrete index matrix.

    Deterministic in (spec, spec.seed): equal seeds give bit-identical
    matrices.  Stochastic kinds draw from the one generator of
    ``substream(spec.seed, 0)``.  random_reshuffle's epoch e is its e-th
    ``permutation(n)``, so a longer horizon extends the same prefix, and
    single_shuffle's one permutation is random_reshuffle's first epoch.
    """
    spec.validate()
    n, m, T = spec.n, spec.m, spec.T

    if spec.kind == "full_batch":
        batches = np.tile(np.arange(n, dtype=np.int64), (T, 1))
    elif spec.kind == "round_robin":
        offsets = np.arange(T, dtype=np.int64)[:, None] * m
        batches = (offsets + np.arange(m, dtype=np.int64)) % n
    elif spec.kind == "custom":
        batches = np.asarray(spec.custom_indices, dtype=np.int64).reshape(T, m) - 1
    elif spec.kind in ("single_shuffle", "random_reshuffle"):
        # One permuted row per epoch reads the stream as that many
        # permutation(n) calls would, one after another.  Each epoch is cut
        # into n // m batches, the remainder dropped; single_shuffle recycles
        # its one epoch, and the last epoch is cut short at T.
        epochs = 1 if spec.kind == "single_shuffle" else max(1, -(-T // (n // m)))
        perms = default_rng(substream(spec.seed, 0)).permuted(
            np.tile(np.arange(n, dtype=np.int64), (epochs, 1)), axis=1
        )
        chunks = perms[:, : n // m * m].reshape(-1, m)
        batches = np.tile(chunks, (-(-T // len(chunks)), 1))[:T]
    elif spec.kind == "uniform_random":
        # Each step's batch is the m smallest of n uniform keys.  The keys are
        # drawn in blocks of rows, which reads the stream exactly as one
        # (T, n) draw would, so the block size never changes a batch.
        rng = default_rng(substream(spec.seed, 0))
        batches = np.empty((T, m), dtype=np.int64)
        rows = max(1, _UNIFORM_BLOCK_ELEMENTS // n)
        for t0 in range(0, T, rows):
            keys = rng.random((min(rows, T - t0), n))
            batches[t0 : t0 + len(keys)] = _smallest(keys, m)
    else:  # pragma: no cover - guarded by validate
        raise ConfigError(f"unhandled kind {spec.kind!r}")

    return RealizedSchedule(batches=batches, n=n, kind=spec.kind)


def _smallest(keys: np.ndarray, m: int) -> np.ndarray:
    """Per row of ``keys``, the indices of its m smallest keys in increasing
    key order: the first m columns of ``np.argsort(keys, axis=1)``.

    A partition finds them and only they are sorted.  Where two keys tie
    (about n^2 2^-54 per row of n 53-bit uniform keys), the tied indices may
    be picked or ordered otherwise than the argsort would; the result is
    still m distinct indices of the row.
    """
    rows = np.arange(keys.shape[0])[:, None]
    picked = np.argpartition(keys, m - 1, axis=1)[:, :m]
    return picked[rows, np.argsort(keys[rows, picked], axis=1)]


@dataclass(frozen=True)
class CountingVerdict:
    passed: bool
    first_violation_t: int | None = None


def check_counting_lemma(sched: RealizedSchedule) -> CountingVerdict:
    """Check that every step perturbs exactly m of the n neighboring runs.

    For each step the number of indices whose replacement would change the
    batch must equal the batch size: sum_i 1{i in K_t} = m.  Equivalently
    every row must hold m distinct in-range indices.  Returns the first
    violating step (1-based) otherwise.

    A step's count is that of the distinct in-range indices in its row: once
    each row is sorted, with every out-of-range entry as -1, an in-range
    entry is new when it differs from the one before it.
    """
    b = sched.batches
    srt = np.sort(np.where((b >= 0) & (b < sched.n), b, -1), axis=1)
    new = srt >= 0
    new[:, 1:] &= srt[:, 1:] != srt[:, :-1]
    counts = new.sum(axis=1)
    bad = np.nonzero(counts != sched.m)[0]
    if bad.size:
        return CountingVerdict(False, int(bad[0]) + 1)
    return CountingVerdict(True)
