"""Mini-batch gradient descent with pluggable batch schedules.

The update at step t averages the example gradients over the selected batch:

    w_{t+1} = w_t - (eta_t / m) * sum_{z in batch_t} grad f(w_t, z)

``run`` executes a single trajectory; ``run_paired`` executes the same
schedule realization on a dataset and on all n of its single-replacement
neighbors, sharing one index matrix across the n+1 runs.  Both are thin
wrappers over a core loop that is vectorized across stacked trajectories.
Paired runs never copy the dataset per neighbor: by the counting identity,
at step t only the m neighbors whose index is in K_t read a batch that
differs from the base run, so each step gathers the base batch once and
patches those m entries.  Working memory is O((n + T m) d + (n+1) m d)
unless paths are kept.
Closed-form final iterates are available for the built-in constructions and
serve as independent oracles for the iterative path.

The engine never projects or clips: a non-finite iterate raises
``DivergenceError`` naming the step instead of being silently handled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from batchstab._series import affine_steps
from batchstab.errors import AnalyticRegionError, ConfigError, DivergenceError
from batchstab.problems import QUADRATIC_FAMILIES, Dataset, ProblemInstance, REL_SLACK
from batchstab.schedule import RealizedSchedule

PLAN_KINDS = ("constant", "inverse_t", "custom")


@dataclass(frozen=True)
class StepSizePlan:
    """Step-size sequence: constant eta, inverse-time coeff/t, or explicit values."""

    kind: str
    T: int
    eta: float | None = None
    coeff: float | None = None
    values: tuple[float, ...] | None = None

    def validate(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise ConfigError(f"plan kind {self.kind!r} is not one of {PLAN_KINDS}")
        if not isinstance(self.T, (int, np.integer)) or isinstance(self.T, bool):
            raise ConfigError(f"plan horizon T must be an integer, got {self.T!r}")
        if self.T < 0:
            raise ConfigError(f"plan horizon T must be >= 0, got {self.T}")
        # Chained comparisons are False for NaN, so these also refuse NaN.
        if self.kind == "constant" and not 0 < (self.eta or 0) < math.inf:
            raise ConfigError(f"constant plan requires finite eta > 0, got {self.eta}")
        if self.kind == "inverse_t" and not 0 < (self.coeff or 0) < math.inf:
            raise ConfigError(
                f"inverse_t plan requires finite coeff > 0, got {self.coeff}"
            )
        if self.kind == "custom":
            if self.values is None or len(self.values) != self.T:
                raise ConfigError("custom plan requires exactly T values")
            # zero entries are allowed so frozen-step controls stay expressible
            if not all(0 <= v < math.inf for v in self.values):
                raise ConfigError("custom plan requires finite values >= 0")

    def etas(self) -> np.ndarray:
        self.validate()
        if self.kind == "constant":
            return np.full(self.T, float(self.eta))
        if self.kind == "inverse_t":
            return float(self.coeff) / np.arange(1, self.T + 1, dtype=float)
        return np.asarray(self.values, dtype=float)

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "T": self.T}
        if self.eta is not None:
            cfg["eta"] = self.eta
        if self.coeff is not None:
            cfg["coeff"] = self.coeff
        if self.values is not None:
            cfg["values"] = list(self.values)
        return cfg


def constant_plan(eta: float, T: int) -> StepSizePlan:
    return StepSizePlan(kind="constant", T=T, eta=float(eta))


def inverse_t_plan(coeff: float, T: int) -> StepSizePlan:
    """eta_t = coeff / t."""
    return StepSizePlan(kind="inverse_t", T=T, coeff=float(coeff))


def custom_plan(values) -> StepSizePlan:
    vals = tuple(float(v) for v in values)
    return StepSizePlan(kind="custom", T=len(vals), values=vals)


@dataclass(eq=False)
class Trajectory:
    """Iterates w_1 ... w_{T+1}; ``iterates[k]`` is w_{k+1} (0-based k)."""

    iterates: np.ndarray
    schedule: RealizedSchedule
    etas: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def T(self) -> int:
        return self.iterates.shape[0] - 1


@dataclass(eq=False)
class PairedTrajectory:
    """n+1 runs of one schedule realization on a dataset and its neighbors.

    ``paths`` has shape (T+1, n+1, d): column 0 is the run on the base
    dataset, column i the run with example i replaced.  ``paths`` is None
    when only finals were kept; ``finals`` is always (n+1, d).  Kept paths
    are the only part whose size grows with T n d.  All runs share the
    starting point, the step plan, and the realized schedule.
    """

    finals: np.ndarray
    schedule: RealizedSchedule
    etas: np.ndarray
    m: int
    paths: np.ndarray | None = None
    grad_sup: float | None = None

    @property
    def n(self) -> int:
        return self.finals.shape[0] - 1


def _resolve_w1(instance: ProblemInstance, w1) -> np.ndarray:
    if w1 is None:
        return instance.w1.copy()
    w1 = np.asarray(w1, dtype=float)
    if w1.shape != (instance.d,):
        raise ConfigError(f"w1 must have length d={instance.d}")
    if instance.family == "convex_huber" and not np.array_equal(w1, instance.w1):
        raise ConfigError(
            "convex_huber anchors its loss at the instance's initial point; "
            "run with the same w1 the instance was built with"
        )
    return w1.copy()


def _evolve(
    instance: ProblemInstance,
    data: np.ndarray,
    batches: np.ndarray,
    etas: np.ndarray,
    W: np.ndarray,
    keep_path: bool,
    track_grad_sup: bool,
    replacements: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, float | None]:
    """Advance stacked trajectories W (R, d) through all T steps.

    All trajectories read the same (T, m) index matrix from the (n, d) data.
    With ``replacements`` (n, d), W holds the R = n+1 paired runs: row 0 reads
    the data as is, row i reads it with example i-1 swapped for
    ``replacements[i-1]``.  Each step then builds the (R, m, d) batch from the
    m gathered base rows and overwrites only the entries (1 + K_t[k], k).
    """
    T = etas.shape[0]
    R = W.shape[0]
    path = None
    if keep_path:
        path = np.empty((T + 1, R, instance.d))
        path[0] = W
    limit = instance.huber_region_limit(etas)
    w1d = instance.w1[-1]
    sup = None
    if track_grad_sup:
        sup = float(instance.grad_sup_norm(W).max())
    if replacements is not None:
        rows = 1 + batches
        slots = np.arange(batches.shape[1])
        patches = replacements[batches]

    for t in range(T):
        Zb = data[batches[t]]
        if replacements is not None:
            # Batch axis outermost: the layout a gather from an (R, n, d)
            # stack has, so reductions over the batch add in the same order.
            Zb = np.repeat(Zb[:, None, :], R, axis=1)
            Zb[slots, rows[t]] = patches[t]
            Zb = Zb.transpose(1, 0, 2)
        g = instance.batch_grad_mean(W, Zb)
        W = W - etas[t] * g
        if not np.all(np.isfinite(W)):
            raise DivergenceError(f"non-finite iterate produced at step {t + 1}")
        if limit is not None:
            drift = np.abs(W[..., -1] - w1d).max()
            if drift > limit * (1.0 + REL_SLACK):
                raise AnalyticRegionError(
                    f"step {t + 1}: |w^d - w1^d| = {drift!r} exceeded the "
                    f"invariant half-width {limit!r}; this indicates an engine bug"
                )
        if track_grad_sup:
            sup = max(sup, float(instance.grad_sup_norm(W).max()))
        if keep_path:
            path[t + 1] = W
    return W, path, sup


def run(
    instance: ProblemInstance,
    S: Dataset,
    sched: RealizedSchedule,
    plan: StepSizePlan,
    w1=None,
) -> Trajectory:
    """Run the iterate map once, keeping the whole path."""
    etas = plan.etas()
    _check_run_inputs(instance, S, sched, etas)
    W0 = _resolve_w1(instance, w1)[None, :]
    _, path, _ = _evolve(
        instance, S.examples, sched.batches, etas, W0, keep_path=True,
        track_grad_sup=False,
    )
    return Trajectory(iterates=path[:, 0, :], schedule=sched, etas=etas)


def run_final(
    instance: ProblemInstance,
    S: Dataset,
    sched: RealizedSchedule,
    plan_or_etas,
    w1=None,
) -> np.ndarray:
    """Final iterate only; the cheap path used by Monte Carlo loops."""
    etas = (
        plan_or_etas.etas()
        if isinstance(plan_or_etas, StepSizePlan)
        else np.asarray(plan_or_etas, dtype=float)
    )
    _check_run_inputs(instance, S, sched, etas)
    W0 = _resolve_w1(instance, w1)[None, :]
    W, _, _ = _evolve(
        instance, S.examples, sched.batches, etas, W0, keep_path=False,
        track_grad_sup=False,
    )
    return W[0]


def run_paired(
    instance: ProblemInstance,
    S: Dataset,
    replacements: np.ndarray,
    sched: RealizedSchedule,
    plan: StepSizePlan,
    w1=None,
    keep_path: bool = True,
    track_grad_sup: bool = False,
) -> PairedTrajectory:
    """Run on S and on all n single-replacement neighbors, one shared schedule.

    ``replacements`` is (n, d); neighbor i swaps example i for
    ``replacements[i-1]``.  All n+1 runs start from the same point and read
    the identical realized index matrix, so trajectories can only diverge
    after the first step that selects the replaced index.  No neighbor
    dataset is materialized: per step only the m selected rows are gathered
    and patched, so memory is O((n + T m) d + (n+1) m d), plus the
    (T+1, n+1, d) paths when ``keep_path``.  ``track_grad_sup`` records the
    largest ``grad_sup_norm`` along every path; it is honored for the
    quadratic families only and ignored for the others.
    """
    etas = plan.etas()
    _check_run_inputs(instance, S, sched, etas)
    replacements = np.asarray(replacements, dtype=float)
    if replacements.shape != (S.n, instance.d):
        raise ConfigError(
            f"replacements must be shaped (n, d) = {(S.n, instance.d)}, "
            f"got {replacements.shape}"
        )
    W0 = np.repeat(_resolve_w1(instance, w1)[None, :], S.n + 1, axis=0)
    if track_grad_sup and instance.family not in QUADRATIC_FAMILIES:
        track_grad_sup = False
    finals, path, sup = _evolve(
        instance, S.examples, sched.batches, etas, W0, keep_path=keep_path,
        track_grad_sup=track_grad_sup, replacements=replacements,
    )
    return PairedTrajectory(
        finals=finals, schedule=sched, etas=etas, m=sched.m, paths=path,
        grad_sup=sup,
    )


def _check_run_inputs(
    instance: ProblemInstance, S: Dataset, sched: RealizedSchedule, etas: np.ndarray
) -> None:
    if S.examples.shape != (S.n, instance.d):
        raise ConfigError("dataset examples must be shaped (n, d)")
    if sched.n != S.n:
        raise ConfigError(
            f"schedule was realized for n={sched.n} but the dataset has n={S.n}"
        )
    if sched.T != etas.shape[0]:
        raise ConfigError(
            f"plan length {etas.shape[0]} does not match schedule horizon {sched.T}"
        )
    if sched.T and (sched.batches.min() < 0 or sched.batches.max() >= S.n):
        raise ConfigError("schedule indices out of dataset range")


def closed_form_final(
    instance: ProblemInstance,
    S: Dataset,
    sched: RealizedSchedule,
    plan: StepSizePlan,
    w1=None,
) -> np.ndarray:
    """Analytic final iterate for the built-in families; oracle for ``run``.

    With the family's affine form (a, e, c) the update is an affine
    recursion, solved per coordinate:

        c + prod_t (1 - eta_t a) (w1 - c)
          - (e/m) sum_t eta_t prod_{j>t} (1 - eta_j a) sum_{z in K_t} z

    Refused for a convex_huber plan under which iterates could leave the
    Huber region (see ``affine_steps``).
    """
    etas = plan.etas()
    _check_run_inputs(instance, S, sched, etas)
    w1v = _resolve_w1(instance, w1)
    e, c, factors, tail = affine_steps(instance, etas)
    batch_sums = S.examples[sched.batches].sum(axis=1)  # (T, d)
    driven = (etas[:, None] * tail * e * batch_sums).sum(axis=0) / sched.m
    return c + factors.prod(axis=0) * (w1v - c) - driven


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """One CSV row per iterate, T+1 rows of d coordinates."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in traj.iterates:
            writer.writerow([repr(float(v)) for v in row])
