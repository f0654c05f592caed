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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from batchstab._series import suffix_products
from batchstab.engine import PairedTrajectory
from batchstab.errors import ConfigError, RegimeError
from batchstab.problems import ABS_SLACK, REL_SLACK
from batchstab.schedule import indicator_matrix

LOSS_CLASSES = ("convex", "nonconvex", "strongly_convex")


@dataclass(eq=False)
class StabilityRecord:
    """Per-step, per-neighbor gaps and their final average.

    ``per_step_gaps`` is (T+1, n): row k holds ||w_{k+1} - w_{k+1}^(i)||.
    """

    per_step_gaps: np.ndarray

    @property
    def final_on_average(self) -> float:
        return float(self.per_step_gaps[-1].mean())


def on_average_stability(pt: PairedTrajectory) -> StabilityRecord:
    """Exact Euclidean gaps between the base run and every neighbor run."""
    if pt.paths is None:
        raise ConfigError("on_average_stability needs a paired run with paths kept")
    diffs = pt.paths[:, 1:, :] - pt.paths[:, :1, :]
    return StabilityRecord(per_step_gaps=np.linalg.norm(diffs, axis=-1))


def final_on_average_gap(pt: PairedTrajectory) -> float:
    """Final-iterate on-average gap; works for runs without stored paths."""
    diffs = pt.finals[1:] - pt.finals[0]
    return float(np.linalg.norm(diffs, axis=-1).mean())


@dataclass(frozen=True)
class RecursionVerdict:
    loss_class: str
    violations: tuple[tuple[int, int, float, float], ...]
    max_slack: float

    def __bool__(self) -> bool:
        return not self.violations


def check_growth_recursion(
    pt: PairedTrajectory,
    loss_class: str,
    L: float,
    beta: float | None = None,
    gamma: float | None = None,
) -> RecursionVerdict:
    """Assert the per-step recursion for every (t, i) of a paired run.

    ``L`` is the gradient bound entering the perturbation term: the Lipschitz
    constant for Lipschitz losses, a path-gradient bound otherwise.
    Violations are reported as (t, i, lhs, rhs) with 1-based t and i;
    max_slack is the largest lhs - rhs over all pairs (negative when all
    hold strictly).
    """
    if loss_class not in LOSS_CLASSES:
        raise ConfigError(f"loss_class must be one of {LOSS_CLASSES}")
    if pt.paths is None:
        raise ConfigError("check_growth_recursion needs a paired run with paths")
    etas = pt.etas
    if loss_class == "convex":
        if beta is None:
            raise ConfigError("convex recursion requires beta")
        if etas.size and etas.max() >= (2.0 / beta) * (1.0 + REL_SLACK):
            raise RegimeError(
                "convex growth recursion requires eta_t < 2/beta; "
                f"got max eta_t = {etas.max()!r}"
            )
        factors = np.ones_like(etas)
    elif loss_class == "nonconvex":
        if beta is None:
            raise ConfigError("nonconvex recursion requires beta")
        factors = 1.0 + beta * etas
    else:
        if gamma is None or beta is None:
            raise ConfigError("strongly_convex recursion requires beta and gamma")
        if etas.size and etas.max() > (2.0 / (beta + gamma)) * (1.0 + REL_SLACK):
            raise RegimeError(
                "strongly-convex growth recursion requires eta_t <= 2/(beta+gamma); "
                f"got max eta_t = {etas.max()!r}"
            )
        factors = 1.0 - 0.5 * gamma * etas

    # One step at a time, so only the previous per-neighbor gap is held.
    paths = pt.paths
    selected = indicator_matrix(pt.schedule)  # (T, n)
    kick_scale = 2.0 * L / pt.m
    gap = np.linalg.norm(paths[0, 1:, :] - paths[0, :1, :], axis=-1)
    violations = []
    slack = np.empty(etas.size)
    for t in range(etas.size):
        rhs = factors[t] * gap + kick_scale * etas[t] * selected[t]
        gap = np.linalg.norm(paths[t + 1, 1:, :] - paths[t + 1, :1, :], axis=-1)
        margin = gap - (rhs * (1.0 + REL_SLACK) + ABS_SLACK)
        violations.extend(
            (t + 1, int(i) + 1, float(gap[i]), float(rhs[i]))
            for i in np.flatnonzero(margin > 0)
        )
        slack[t] = (gap - rhs).max()
    max_slack = float(slack.max()) if slack.size else 0.0
    return RecursionVerdict(
        loss_class=loss_class, violations=tuple(violations), max_slack=max_slack
    )


def stability_bound(
    loss_class: str,
    L: float,
    etas: np.ndarray,
    n: int,
    m: int,
    beta: float | None = None,
    gamma: float | None = None,
) -> float:
    """Closed-form on-average stability bound for one loss class.

    The value is independent of the batch size m: the per-step perturbation
    count m cancels against the 1/m in the update.  m participates only in
    validation so callers can assert that invariance.
    """
    if loss_class not in LOSS_CLASSES:
        raise ConfigError(f"loss_class must be one of {LOSS_CLASSES}")
    if not 1 <= m <= n:
        raise ConfigError(f"batch size m must satisfy 1 <= m <= n, got {m}")
    etas = np.asarray(etas, dtype=float)
    if etas.size == 0:
        return 0.0
    if loss_class == "convex":
        if beta is None:
            raise ConfigError("convex bound requires beta")
        if etas.max() >= (2.0 / beta) * (1.0 + REL_SLACK):
            raise RegimeError("convex stability bound requires eta_t < 2/beta")
        return float(2.0 * L / n * etas.sum())
    if loss_class == "nonconvex":
        if beta is None:
            raise ConfigError("nonconvex bound requires beta")
        tail = suffix_products(1.0 + beta * etas)
        return float(2.0 * L / n * (etas * tail).sum())
    if gamma is None or beta is None:
        raise ConfigError("strongly_convex bound requires beta and gamma")
    if etas.max() > (2.0 / (beta + gamma)) * (1.0 + REL_SLACK):
        raise RegimeError(
            "strongly-convex stability bound requires eta_t <= 2/(beta+gamma)"
        )
    tail = suffix_products(1.0 - 0.5 * gamma * etas)
    return float(2.0 * L / n * (etas * tail).sum())


def contraction_step_sum(C: float, gamma: float, T: int) -> float:
    """Closed form of sum_t C prod_{j>t} (1 - C gamma / 2) for constant steps.

    Equals 2 (1 - (1 - C gamma/2)^T) / gamma; the direct sum agrees to
    floating-point accuracy.
    """
    return float(2.0 * (1.0 - (1.0 - 0.5 * C * gamma) ** T) / gamma)


def nonconvex_step_sum(etas: np.ndarray, beta: float) -> float:
    """sum_t eta_t prod_{j>t} (1 + beta eta_j), the pre-simplification series."""
    etas = np.asarray(etas, dtype=float)
    if etas.size == 0:
        return 0.0
    return float((etas * suffix_products(1.0 + beta * etas)).sum())


def nonconvex_step_sum_cap(C: float, beta: float, T: int) -> float:
    """Simplified cap on :func:`nonconvex_step_sum` for eta_t = C/t, C < 1/beta.

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
