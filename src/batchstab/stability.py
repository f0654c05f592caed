"""On-average stability measurements and per-step growth-recursion checks.

For a paired execution (one schedule realization, a dataset and its n
single-replacement neighbors) the gap at step t toward neighbor i is
||w_t - w_t^(i)||.  Three loss classes admit a one-step recursion bounding
gap_{t+1} by gap_t:

    convex           gap_{t+1} <= gap_t + (2L/m) eta_t 1{i selected at t}
                     (needs eta_t < 2/beta)
    nonconvex        gap_{t+1} <= (1 + beta eta_t) gap_t + (2L/m) eta_t 1{...}
    strongly convex  gap_{t+1} <= (1 - eta_t gamma / 2) gap_t
                     + (2 Ltilde/m) eta_t 1{...}   (needs eta_t <= 2/(beta+gamma))

Solving each recursion and summing 1{i selected} over i (which totals m at
every step for any data-independent rule) yields the closed-form on-average
stability bounds; the batch size cancels, so the bounds are m-free.

``GrowthRecursionAudit`` checks the recursion as the iterates stream past
the engine's ``on_block`` hook, so a paired run is audited without its
(T+1, n+1, d) paths.  Only the m pairs selected at a step get the kick, the
one term holding L; every other pair is settled as its block arrives, and
the T m selected ones once L is known.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from batchstab._series import suffix_products
from batchstab.engine import PairedTrajectory
from batchstab.errors import ConfigError, RegimeError
from batchstab.problems import ABS_SLACK, REL_SLACK
from batchstab.schedule import RealizedSchedule

LOSS_CLASSES = ("convex", "nonconvex", "strongly_convex")


def final_on_average_gap(pt: PairedTrajectory) -> float:
    """Final-iterate on-average gap: the mean of ||w_{T+1} - w_{T+1}^(i)||."""
    diffs = pt.finals[1:] - pt.finals[0]
    return float(np.linalg.norm(diffs, axis=-1).mean())


@dataclass(frozen=True)
class RecursionVerdict:
    loss_class: str
    violations: tuple[tuple[int, int, float, float], ...]
    max_slack: float

    def __bool__(self) -> bool:
        return not self.violations


class GrowthRecursionAudit:
    """Streaming check of the growth recursion of one paired run.

    Call it with blocks of paired iterates in path order, of any size: first
    a block starting with w_1, then the rest; then ask for the ``verdict``.
    A block is (k, P, d) with the (P,) run index of each of its rows, run 0
    first; every run left out is run 0 at those steps, and must not be
    selected at any of them.  The engine's ``on_block`` hook hands over the
    rows a paired run stepped.
    Gap norms are taken for the rows given only: a left-out neighbor has gap
    0.0 against a bound of 0.0 at each such step, which holds and counts as
    slack 0.0.  The audit holds the previous (n,) gap, and for each selected
    pair (t, i), i one of the distinct indices of step t, the gap and
    factor_t gap_{t-1}: O(n + T m) numbers, plus a block's temporaries.
    Every other pair is settled as its block arrives, since its bound
    factor_t gap_{t-1} holds no L.
    """

    def __init__(
        self,
        loss_class: str,
        etas: np.ndarray,
        schedule: RealizedSchedule,
        beta: float | None = None,
        gamma: float | None = None,
    ):
        self.loss_class = loss_class
        self.etas = np.asarray(etas, dtype=float)
        self.factors = growth_factors(loss_class, self.etas, beta, gamma)
        self.schedule = schedule
        self.steps = 0
        self.gap = None
        self.slack = -np.inf
        self.violations: list[tuple[int, int, float, float]] = []
        self.selected: list[tuple[np.ndarray, ...]] = []

    def __call__(self, rows: np.ndarray, runs: np.ndarray) -> None:
        i = np.asarray(runs)[1:] - 1
        # np.linalg.norm(., axis=-1) bit for bit, on one temporary
        gaps = rows[:, 1:, :] - rows[:, :1, :]
        np.square(gaps, out=gaps)
        gaps = np.sqrt(np.add.reduce(gaps, -1))
        if self.gap is None:
            self.gap = np.zeros(self.schedule.n)
            self.gap[i], gaps = gaps[0], gaps[1:]
        if not gaps.shape[0]:
            return
        t0, t1 = self.steps, self.steps + gaps.shape[0]
        # the column of each neighbor selected in the block, -1 if left out
        column = np.full(self.schedule.n, -1)
        column[i] = np.arange(i.size)
        where = column[self.schedule.batches[t0:t1]]
        if (where < 0).any():
            raise ConfigError("an audited block leaves out a neighbor selected in it")
        prev = np.concatenate([self.gap[i][None], gaps[:-1]])
        held = self.factors[t0:t1, None] * prev
        picked = np.zeros(gaps.shape, dtype=bool)
        picked[np.arange(t1 - t0)[:, None], where] = True
        free = ~picked
        if free.any():
            self.slack = max(self.slack, float((gaps - held)[free].max()))
        if i.size < self.schedule.n:
            self.slack = max(self.slack, 0.0)
        margin = gaps - (held * (1.0 + REL_SLACK) + ABS_SLACK)
        k, c = _in_pair_order(free & (margin > 0), i, self.schedule.n)
        self.violations.extend(_pairs(t0 + k, i[c], gaps[k, c], held[k, c]))
        k, c = _in_pair_order(picked, i, self.schedule.n)
        self.selected.append((t0 + k, i[c], gaps[k, c], held[k, c]))
        self.gap[i], self.steps = gaps[-1], t1

    def verdict(self, L: float) -> RecursionVerdict:
        """Settle the selected pairs with the gradient bound ``L`` and merge
        their violations with the others' in (t, i) order.

        ``L`` is the gradient bound entering the perturbation term: the
        Lipschitz constant for Lipschitz losses, a path-gradient bound
        otherwise.  Violations are reported as (t, i, lhs, rhs) with 1-based
        t and i; max_slack is the largest lhs - rhs over all pairs (negative
        when all hold strictly).
        """
        if self.gap is None or self.steps != self.etas.size:
            raise ConfigError(
                f"the audit saw {self.steps} of {self.etas.size} steps"
            )
        if not self.steps:
            return RecursionVerdict(self.loss_class, (), 0.0)
        t, i, gap, held = (np.concatenate(a) for a in zip(*self.selected))
        rhs = held + 2.0 * L / self.schedule.m * self.etas[t]
        slack = max(self.slack, float((gap - rhs).max()))
        margin = gap - (rhs * (1.0 + REL_SLACK) + ABS_SLACK)
        bad = np.flatnonzero(margin > 0)
        kicked = _pairs(t[bad], i[bad], gap[bad], rhs[bad])
        return RecursionVerdict(
            loss_class=self.loss_class,
            violations=tuple(heapq.merge(self.violations, kicked)),
            max_slack=slack,
        )


def _in_pair_order(
    mask: np.ndarray, i: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (step, column) entries of a (k, P-1) mask sorted by step, then by
    the neighbor index ``i`` (< n) of the column."""
    k, c = np.nonzero(mask)
    o = np.argsort(k * n + i[c])
    return k[o], c[o]


def _pairs(t, i, lhs, rhs) -> list[tuple[int, int, float, float]]:
    """Violation tuples of 0-based pairs (t, i), reported 1-based."""
    return list(zip((t + 1).tolist(), (i + 1).tolist(), lhs.tolist(), rhs.tolist()))


def growth_factors(
    loss_class: str,
    etas: np.ndarray,
    beta: float | None,
    gamma: float | None = None,
) -> np.ndarray:
    """Per-step factors of the growth recursion of one loss class.

    1 for convex (requires eta_t < 2/beta), 1 + beta eta_t for nonconvex,
    1 - gamma eta_t / 2 for strongly convex (requires eta_t <= 2/(beta+gamma)).
    A gamma of 0 means the loss is not strongly convex and counts as missing.
    """
    if loss_class not in LOSS_CLASSES:
        raise ConfigError(f"loss_class must be one of {LOSS_CLASSES}")
    if beta is None:
        raise ConfigError(f"{loss_class} growth recursion requires beta")
    etas = np.asarray(etas, dtype=float)
    top = float(etas.max()) if etas.size else 0.0
    if loss_class == "convex":
        if top >= 2.0 / beta:
            raise RegimeError(
                "convex growth recursion requires eta_t < 2/beta; "
                f"got max eta_t = {top!r}"
            )
        return np.ones_like(etas)
    if loss_class == "nonconvex":
        return 1.0 + beta * etas
    if not gamma:
        raise ConfigError("strongly_convex growth recursion requires gamma > 0")
    if top > (2.0 / (beta + gamma)) * (1.0 + REL_SLACK):
        raise RegimeError(
            "strongly-convex growth recursion requires eta_t <= 2/(beta+gamma); "
            f"got max eta_t = {top!r}"
        )
    return 1.0 - 0.5 * gamma * etas


def stability_bound(
    loss_class: str,
    L: float,
    etas: np.ndarray,
    n: int,
    m: int,
    beta: float | None = None,
    gamma: float | None = None,
) -> float:
    """Closed-form on-average stability bound for one loss class:
    2 L / n * sum_t eta_t prod_{j>t} factor_j, with ``growth_factors``.

    The value is independent of the batch size m: the per-step perturbation
    count m cancels against the 1/m in the update.  m participates only in
    validation so callers can assert that invariance.
    """
    if not 1 <= m <= n:
        raise ConfigError(f"batch size m must satisfy 1 <= m <= n, got {m}")
    etas = np.asarray(etas, dtype=float)
    tail = suffix_products(growth_factors(loss_class, etas, beta, gamma))
    return float(2.0 * L / n * (etas * tail).sum())


def nonconvex_step_sum_cap(C: float, beta: float, T: int) -> float:
    """Simplified cap on the series sum_t eta_t prod_{j>t} (1 + beta eta_j)
    for eta_t = C/t, C < 1/beta:

    C e^{C beta} T^{C beta} min{1 + 1/(C beta), log(e T)}.
    """
    if C >= 1.0 / beta:
        raise RegimeError("the decreasing-step cap requires C < 1/beta")
    if T == 0:
        return 0.0
    cb = C * beta
    return float(
        C * np.exp(cb) * T**cb * min(1.0 + 1.0 / cb, float(np.log(np.e * T)))
    )
