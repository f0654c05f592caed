"""Monte Carlo estimation and orchestrated verification runs.

Estimators draw every random quantity from per-trial substreams of one
master seed (see ``seeding``): trial k always samples the same dataset no
matter which schedule is being estimated, which scheduler parallelism is in
use, or how trials are split into worker blocks.  Reruns with the same
master seed reproduce every number bit-identically.

``run_full_verification`` executes the enabled checks for one configuration
and aggregates a single report with a top-level pass/fail.  The checks run
in this order, which is also the order of ``report["failures"]``:

    regularity           sampled Lipschitz/smoothness/strong-convexity checks
    sandwich             lower <= oracle <= upper for the bound set
    per schedule, in config order:
      counting_lemma       every realized step selects exactly m indices
      oracle_equivalence   iterative runs match the closed-form final iterate
      growth_recursion     per-step gap inequalities on paired runs
      stability_mc         measured on-average stability vs the class bound
      gen_error_mc         Monte Carlo generalization error vs the oracle
    schedule_equivalence all schedules' means agree with the one oracle

A check that cannot run on the configuration raises ``RegimeError`` or
``CapabilityError`` (a step-size regime not met; no bound class, oracle or
gradient bound); the runner records it as ``skipped`` with the message as
its reason, and a skip is not a failure.  ``gen_error_mc`` also skips, with
its estimate attached, when the stderr or the oracle is undefined, or when
the population risk is queried outside its analytic region.  A run that
diverges, whose risk overflows at a finite final iterate, or whose iterates
leave the band the engine asserts, is a ``fail`` with the message as its
reason.  A report passes when no check failed and at least one passed.

Every config object is read by ``read_config`` through one table, which
states each of the object's fields once: its kind, its default and its
minimum.  Each field is read by ``config_field``, which refuses a malformed
one with a ``ConfigError`` naming it, and a field the table does not name is
refused in the same way.  Where an object's fields depend on one of them (an
instance's ``family``, a sweep's ``mode``, a dump's ``what``), that field is
read first and picks the table.  ``ProblemInstance.to_config`` writes the
instance table back, so a report's ``instance`` loads as a config.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import get_args, get_origin

import numpy as np

from batchstab import bounds as bounds_mod
from batchstab import stability as stability_mod
from batchstab.engine import (
    StepSizePlan,
    closed_form_final,
    custom_plan,
    run_final,
    run_paired,
)
from batchstab.errors import (
    AnalyticRegionError,
    CapabilityError,
    ConfigError,
    DivergenceError,
    RegimeError,
)
from batchstab.problems import (
    ABS_SLACK,
    REL_SLACK,
    Dataset,
    ProblemInstance,
    empirical_risk,
    family_class,
    linear_instance,
    sample_examples,
    verify_regularity,
)
from batchstab.schedule import (
    STOCHASTIC_KINDS,
    ScheduleSpec,
    check_counting_lemma,
    realize,
)
from batchstab.seeding import AUDIT, DATA, REPLACEMENTS, SCHEDULE, rng_at, seed_at

_RECURSION_BY_CLASS = {
    "convex": "convex",
    "nonconvex_lipschitz": "nonconvex",
    "nonconvex_smooth": "nonconvex",
    "strongly_convex": "strongly_convex",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One verify run, as ``config_from_dict`` builds it; ``VERIFY_FIELDS``
    states each field's default.  ``bound_class`` is the config's ``class``."""

    name: str
    instance: ProblemInstance
    n: int
    plan: StepSizePlan
    schedules: tuple[ScheduleSpec, ...]
    trials: int
    master_seed: int
    checks: tuple[str, ...]
    stability_trials: int
    regularity_trials: int
    jobs: int
    allow_divergence: bool
    bound_class: str | None


# -- Monte Carlo estimators ---------------------------------------------------


@dataclass(frozen=True)
class MonteCarloEstimate:
    """``mean`` is None when no trial was kept, ``stderr`` when fewer than
    two were."""

    mean: float | None
    stderr: float | None
    trials: int
    excluded: int = 0
    max_value: float | None = None
    grad_sup_max: float | None = None

    def agrees_with(self, value: float) -> bool:
        """The mean lies within 3 standard errors of ``value``, plus the
        rounding slack of the lab's exact comparisons, which decides an
        estimate whose every trial gave one value; needs a stderr."""
        slack = REL_SLACK * abs(value) + ABS_SLACK
        return abs(self.mean - value) <= 3.0 * self.stderr + slack


def _blocks(trials: int, jobs: int) -> list[tuple[int, int]]:
    if jobs <= 1:
        return [(0, trials)]
    size = max(1, -(-trials // (jobs * 4)))
    return [(t0, min(t0 + size, trials)) for t0 in range(0, trials, size)]


def _stderr(values: np.ndarray) -> float | None:
    """Standard error of the mean; undefined below two values."""
    return float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else None


def _parallel_map(fn, items, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # Imported here: the import costs a serial run about 15 ms of start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


def _trial_schedule(
    sspec: ScheduleSpec, master_seed: int, trial: int, s_idx: int
):
    if sspec.kind in STOCHASTIC_KINDS:
        sspec = dataclasses.replace(
            sspec, seed=seed_at(master_seed, trial, SCHEDULE, s_idx)
        )
    return realize(sspec)


def _trial_dataset(instance: ProblemInstance, n: int, master_seed: int, trial: int):
    rng = rng_at(master_seed, trial, DATA)
    return Dataset(examples=sample_examples(instance, n, rng))


def _gen_error_block(args) -> tuple[np.ndarray, int]:
    """Per trial of the block, population minus empirical risk at its final
    iterate, or NaN for a trial excluded as divergent.

    The empirical risk is taken per trial, beside its dataset; the finals
    are kept in an (R, d) array and take the population risk in one call.
    Trial 0's is also taken alone first, so that a config whose finals
    leave the analytic region is refused after one run, not after the block.
    A trial whose final is finite but whose value is not (a risk that
    overflows) diverged too.  A divergence that is not allowed stops the
    block; as in trial order, a trial before it that left the region or
    whose value is not finite is refused first.
    """
    (instance, n, etas, sspec, s_idx, master_seed, t0, t1, allow_div) = args
    finals = np.empty((t1 - t0, instance.d))
    values = np.full(t1 - t0, np.nan)
    ran = np.zeros(t1 - t0, dtype=bool)
    diverged = None
    for k, trial in enumerate(range(t0, t1)):
        S = _trial_dataset(instance, n, master_seed, trial)
        sched = _trial_schedule(sspec, master_seed, trial, s_idx)
        try:
            finals[k] = run_final(instance, S, sched, etas)
        except DivergenceError as e:
            if not allow_div:
                diverged = e
                break
            continue
        if k == 0:
            _population_risk(instance, finals[0])
        values[k] = -empirical_risk(instance, finals[k], S)
        ran[k] = True
    if ran.any():
        values[ran] += _population_risk(instance, finals[ran])
    overflowed = ran & ~np.isfinite(values)
    if overflowed.any() and not allow_div:
        k = int(np.argmax(overflowed))
        raise DivergenceError(
            f"non-finite generalization error {float(values[k])!r} at trial "
            f"{t0 + k}: the risk overflows at its finite final iterate"
        )
    values[overflowed] = np.nan
    if diverged is not None:
        raise diverged
    return values, int(np.isnan(values).sum())


def _population_risk(instance: ProblemInstance, W: np.ndarray) -> np.ndarray:
    """The population risk at each final of W, refused with
    ``CapabilityError`` outside the analytic region."""
    try:
        return instance.population_risk(W)
    except AnalyticRegionError as e:
        raise CapabilityError(str(e)) from e


def estimate_gen_error(
    instance: ProblemInstance,
    n: int,
    plan: StepSizePlan,
    sspec: ScheduleSpec,
    trials: int,
    master_seed: int,
    s_idx: int = 0,
    jobs: int = 1,
    allow_divergence: bool = False,
) -> MonteCarloEstimate:
    """Monte Carlo mean and standard error of the generalization error.

    Per trial: sample a dataset, realize the schedule from the trial's own
    substream, run, and evaluate population risk minus empirical risk at the
    final iterate.  The population side is analytic, so dataset sampling and
    schedule randomness are the only noise sources.  A population risk
    queried outside the analytic region is refused with ``CapabilityError``.
    A trial that diverges, or whose risk overflows, raises
    ``DivergenceError`` unless ``allow_divergence`` excludes it.
    """
    if trials < 1:
        raise ConfigError("estimate_gen_error requires trials >= 1")
    etas = plan.etas()
    tasks = [
        (instance, n, etas, sspec, s_idx, master_seed, t0, t1, allow_divergence)
        for t0, t1 in _blocks(trials, jobs)
    ]
    results = _parallel_map(_gen_error_block, tasks, jobs)
    values = np.concatenate([r[0] for r in results])
    excluded = sum(r[1] for r in results)
    kept = values[np.isfinite(values)]
    mean = float(kept.mean()) if kept.size else None
    return MonteCarloEstimate(
        mean=mean, stderr=_stderr(kept), trials=trials, excluded=excluded
    )


def _stability_block(args) -> tuple[np.ndarray, np.ndarray]:
    (instance, n, plan, sspec, s_idx, master_seed, t0, t1) = args
    finals = np.empty(t1 - t0)
    sups = np.full(t1 - t0, np.nan)
    for trial in range(t0, t1):
        S = _trial_dataset(instance, n, master_seed, trial)
        repl = sample_examples(instance, n, rng_at(master_seed, trial, REPLACEMENTS))
        sched = _trial_schedule(sspec, master_seed, trial, s_idx)
        pt = run_paired(instance, S, repl, sched, plan, track_grad_sup=True)
        finals[trial - t0] = stability_mod.final_on_average_gap(pt)
        if pt.grad_sup is not None:
            sups[trial - t0] = pt.grad_sup
    return finals, sups


def estimate_stability(
    instance: ProblemInstance,
    n: int,
    plan: StepSizePlan,
    sspec: ScheduleSpec,
    trials: int,
    master_seed: int,
    s_idx: int = 0,
    jobs: int = 1,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of final-iterate on-average stability.

    Per trial: sample a dataset and n replacement examples, run the n+1
    paired trajectories under one shared schedule realization, and record
    the mean final gap.  For the families that track it the largest
    gradient norm seen anywhere along any path (against the worst support
    example) is tracked as well.
    """
    if trials < 1:
        raise ConfigError("estimate_stability requires trials >= 1")
    tasks = [
        (instance, n, plan, sspec, s_idx, master_seed, t0, t1)
        for t0, t1 in _blocks(trials, jobs)
    ]
    results = _parallel_map(_stability_block, tasks, jobs)
    finals = np.concatenate([r[0] for r in results])
    sups = np.concatenate([r[1] for r in results])
    sup_max = float(np.nanmax(sups)) if np.isfinite(sups).any() else None
    return MonteCarloEstimate(
        mean=float(finals.mean()),
        stderr=_stderr(finals),
        trials=trials,
        max_value=float(finals.max()),
        grad_sup_max=sup_max,
    )


# -- composite studies --------------------------------------------------------


def _equivalence(oracle: float, estimates: dict[str, MonteCarloEstimate]) -> dict:
    """Every schedule's mean against the one schedule-free oracle: verdicts
    (``MonteCarloEstimate.agrees_with``) and the spread of the defined means.
    Refused with ``CapabilityError`` when fewer than two schedules have a
    standard error, since then nothing is compared."""
    compared = sum(est.stderr is not None for est in estimates.values())
    if compared < 2:
        raise CapabilityError(
            f"{compared} of {len(estimates)} schedules have a standard error; "
            "comparing needs at least two"
        )
    per_schedule = {}
    passed = True
    for label, est in estimates.items():
        if est.stderr is None:
            per_schedule[label] = {"status": "skipped", "reason": "stderr undefined"}
            continue
        ok = est.agrees_with(oracle)
        passed = passed and ok
        per_schedule[label] = {
            "status": "pass" if ok else "fail",
            "mean": est.mean,
            "stderr": est.stderr,
            "deviation": est.mean - oracle,
        }
    means = [e.mean for e in estimates.values() if e.mean is not None]
    return {
        "passed": passed,
        "oracle": oracle,
        "spread": float(max(means) - min(means)),
        "per_schedule": per_schedule,
    }


def uniform_stability_failure_demo(
    ns: list[int],
    epochs: int,
    d: int,
    trials: int,
    master_seed: int,
    jobs: int = 1,
) -> list[dict]:
    """Flat worst-case constant vs 1/n on-average bound vs measured error.

    Linear loss, incremental (round-robin, m = 1) selection, T = epochs * n,
    step sizes 1/t restarting at each epoch.
    Each row reports the n-independent uniform-stability constant, the
    on-average bound (2 d / n) sum_t eta_t, and the measured |gen error|.
    """
    rows = []
    for idx, n in enumerate(ns):
        T = epochs * n
        etas = np.tile(1.0 / np.arange(1, n + 1, dtype=float), epochs)
        plan = custom_plan(etas)
        instance = linear_instance(d)
        flat = bounds_mod.uniform_stability_constant(epochs, d, float(etas[0]))
        decaying = bounds_mod.gen_error_upper(
            instance.bound_class, plan, n, L=instance.params.L, beta=instance.params.beta
        )
        sspec = ScheduleSpec(kind="round_robin", n=n, m=1, T=T)
        est = estimate_gen_error(
            instance, n, plan, sspec, trials, master_seed, s_idx=idx, jobs=jobs
        )
        within = (
            est.stderr is not None
            and abs(est.mean) <= decaying + 3.0 * est.stderr
        )
        rows.append(
            {
                "n": n,
                "T": T,
                "uniform_stability_constant": flat,
                "on_average_bound": decaying,
                "abs_gen_error": abs(est.mean),
                "stderr": est.stderr,
                "within_bound": bool(within),
            }
        )
    return rows


# -- full verification --------------------------------------------------------


class _Context:
    """Facts the checks of one run share, each worked out once."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.cls = config.bound_class or config.instance.bound_class
        self.rec_class = _RECURSION_BY_CLASS.get(self.cls)
        wants_bounds = {"sandwich", "schedule_equivalence"} & set(config.checks)
        self.bound_set = None
        if self.cls is not None and wants_bounds:
            self.bound_set = bounds_mod.assemble_bound_set(
                self.cls, config.instance, config.plan, config.n
            )
            self.oracle = self.bound_set.oracle
        else:
            try:
                self.oracle = bounds_mod.analytic_gen_error(
                    config.instance, config.plan, config.n
                )
            except (RegimeError, CapabilityError):
                self.oracle = None
        self.gen_estimates: dict[str, MonteCarloEstimate] = {}
        self.excluded_trials = 0
        self._audit: tuple[int, dict] = (-1, {})
        self.proven_gradient_bound = bounds_mod.path_gradient_bound(
            self.cls, config.instance.params.L
        )

    def gradient_bound(self, observed: float | None) -> float:
        """Gradient bound of the perturbation term: the class's bound from L,
        else the largest gradient norm observed along the paths."""
        bound = self.proven_gradient_bound
        if bound is None:
            bound = observed
        if bound is None:
            raise CapabilityError("no gradient bound is available for this family")
        return bound

    def _audit_fact(self, s_idx: int, name, make):
        """An audit fact of schedule s_idx, made once.  The checks run
        schedule by schedule, so only one schedule's facts are kept."""
        if self._audit[0] != s_idx:
            self._audit = (s_idx, {})
        facts = self._audit[1]
        if name not in facts:
            facts[name] = make()
        return facts[name]

    def audit_examples(self, s_idx: int, k: int) -> np.ndarray:
        """Audit draws of schedule s_idx: the dataset (k=0), its replacements (k=1)."""
        config = self.config
        return self._audit_fact(
            s_idx, k,
            lambda: sample_examples(
                config.instance, config.n, rng_at(config.master_seed, s_idx, AUDIT, k)
            ),
        )

    def audit_schedule(self, s_idx: int, spec: ScheduleSpec):
        return self._audit_fact(
            s_idx, "schedule",
            lambda: _trial_schedule(spec, self.config.master_seed, 0, s_idx),
        )


def _status(ok) -> str:
    return "pass" if ok else "fail"


def _check_regularity(ctx: _Context):
    config = ctx.config
    seed = seed_at(config.master_seed, 9001)
    rv = verify_regularity(config.instance, config.regularity_trials, seed=seed)
    return _status(rv.passed), dict(
        failures=list(rv.failures),
        max_lipschitz_ratio=rv.max_lipschitz_ratio,
        max_smoothness_ratio=rv.max_smoothness_ratio,
    )


def _check_sandwich(ctx: _Context):
    bs = ctx.bound_set
    if bs is None:
        raise CapabilityError("no bound class for this family")
    if bs.sandwich_ok is None:
        raise CapabilityError(
            "; ".join(f"{k}: {v}" for k, v in bs.reasons.items())
            or "not all of lower/oracle/upper are defined"
        )
    return _status(bs.sandwich_ok), dict(
        lower=bs.lower, oracle=bs.oracle, upper=bs.upper
    )


def _check_counting_lemma(ctx: _Context, s_idx: int, spec: ScheduleSpec):
    verdict = check_counting_lemma(ctx.audit_schedule(s_idx, spec))
    return _status(verdict.passed), dict(first_violation_t=verdict.first_violation_t)


def _check_oracle_equivalence(ctx: _Context, s_idx: int, spec: ScheduleSpec):
    instance, plan = ctx.config.instance, ctx.config.plan
    S = Dataset(examples=ctx.audit_examples(s_idx, 0))
    sched = ctx.audit_schedule(s_idx, spec)
    w_cf = closed_form_final(instance, S, sched, plan)
    w_run = run_final(instance, S, sched, plan)
    dev = float(np.linalg.norm(w_run - w_cf) / (1.0 + np.linalg.norm(w_cf)))
    return _status(dev < 1e-9), dict(max_rel_dev=dev)


def _check_growth_recursion(ctx: _Context, s_idx: int, spec: ScheduleSpec):
    if ctx.rec_class is None:
        raise CapabilityError("no recursion class for this family")
    instance, plan = ctx.config.instance, ctx.config.plan
    sched = ctx.audit_schedule(s_idx, spec)
    # A class refused on this plan still runs the paired run first: a run
    # that diverges fails, and a missing gradient bound skips with its own
    # reason, whatever the class's step-size regime.
    audit = refusal = None
    try:
        audit = stability_mod.GrowthRecursionAudit(
            ctx.rec_class, plan.etas(), sched, instance.params.beta,
            instance.params.gamma,
        )
    except (RegimeError, ConfigError) as e:
        refusal = e
    pt = run_paired(
        instance,
        Dataset(examples=ctx.audit_examples(s_idx, 0)),
        ctx.audit_examples(s_idx, 1),
        sched,
        plan,
        # the observed sup is read only when L proves no bound
        track_grad_sup=ctx.proven_gradient_bound is None,
        on_block=audit,
    )
    L = ctx.gradient_bound(pt.grad_sup)
    if refusal is not None:
        raise refusal
    verdict = audit.verdict(L)
    return _status(verdict), dict(
        violations=len(verdict.violations),
        max_slack=verdict.max_slack,
        gradient_bound=L,
    )


def _check_stability_mc(ctx: _Context, s_idx: int, spec: ScheduleSpec):
    if ctx.rec_class is None:
        raise CapabilityError("no stability class for this family")
    config = ctx.config
    p = config.instance.params
    est = estimate_stability(
        config.instance, config.n, config.plan, spec, config.stability_trials,
        config.master_seed, s_idx=s_idx, jobs=config.jobs,
    )
    L = ctx.gradient_bound(est.grad_sup_max)
    bound = stability_mod.stability_bound(
        ctx.rec_class, L, config.plan.etas(), config.n, spec.m,
        beta=p.beta, gamma=p.gamma,
    )
    ok = est.max_value <= bound * (1.0 + 1e-9) + 1e-12
    cap = None
    if ctx.rec_class == "strongly_convex" and est.grad_sup_max is not None:
        cap = L
        ok = ok and est.grad_sup_max <= cap * (1.0 + 1e-9)
    return _status(ok), dict(
        mean=est.mean,
        stderr=est.stderr,
        max=est.max_value,
        bound=bound,
        gradient_bound=L,
        grad_sup_max=est.grad_sup_max,
        grad_sup_cap=cap,
    )


def _check_gen_error_mc(ctx: _Context, s_idx: int, spec: ScheduleSpec):
    config = ctx.config
    est = estimate_gen_error(
        config.instance, config.n, config.plan, spec, config.trials,
        config.master_seed, s_idx=s_idx, jobs=config.jobs,
        allow_divergence=config.allow_divergence,
    )
    ctx.gen_estimates[spec.label()] = est
    ctx.excluded_trials += est.excluded
    fields = dict(
        mean=est.mean, stderr=est.stderr, trials=est.trials,
        excluded=est.excluded, oracle=ctx.oracle,
    )
    if est.stderr is None:
        kept = est.trials - est.excluded
        reason = (
            f"stderr undefined with {kept} of {est.trials} trials kept "
            f"({est.excluded} excluded as divergent); it needs two"
        )
        return "skipped", dict(reason=reason, **fields)
    if ctx.oracle is None:
        reason = "no analytic oracle for this configuration"
        return "skipped", dict(reason=reason, **fields)
    return _status(est.agrees_with(ctx.oracle)), fields


def _check_schedule_equivalence(ctx: _Context):
    if len(ctx.config.schedules) < 2:
        raise CapabilityError("needs at least two schedules")
    if ctx.oracle is None:
        raise CapabilityError("no analytic oracle for this configuration")
    if "gen_error_mc" not in ctx.config.checks:
        raise CapabilityError("gen_error_mc is disabled")
    missing = [
        spec.label() for spec in ctx.config.schedules
        if spec.label() not in ctx.gen_estimates
    ]
    if missing:
        raise CapabilityError(f"gen_error_mc gave no estimate for {', '.join(missing)}")
    fields = _equivalence(ctx.oracle, ctx.gen_estimates)
    return _status(fields.pop("passed")), fields


# The checks in the order they run and list failures: run-wide, then per
# schedule, then the final cross-schedule check.  Each maps (ctx, ...) to
# (status, fields).
_RUN_CHECKS = (("regularity", _check_regularity), ("sandwich", _check_sandwich))
_SCHEDULE_CHECKS = (
    ("counting_lemma", _check_counting_lemma),
    ("oracle_equivalence", _check_oracle_equivalence),
    ("growth_recursion", _check_growth_recursion),
    ("stability_mc", _check_stability_mc),
    ("gen_error_mc", _check_gen_error_mc),
)
_FINAL_CHECKS = (("schedule_equivalence", _check_schedule_equivalence),)
ALL_CHECKS = tuple(
    name
    for table in (_RUN_CHECKS, _SCHEDULE_CHECKS, _FINAL_CHECKS)
    for name, _ in table
)


def run_full_verification(config: ExperimentConfig) -> dict:
    """Execute every enabled check and aggregate one pass/fail report;
    it passes when no check failed and at least one passed."""
    ctx = _Context(config)
    report: dict = {
        "name": config.name,
        "master_seed": config.master_seed,
        "n": config.n,
        "trials": config.trials,
        "loss_class": ctx.cls,
        "instance": config.instance.to_config(),
        "plan": config.plan.to_config(),
        "checks": {},
        "schedules": {},
    }
    if ctx.bound_set is not None:
        report["bounds"] = ctx.bound_set.to_dict()
    runs = [(report["checks"], _RUN_CHECKS, ())]
    for s_idx, spec in enumerate(config.schedules):
        section = {"spec": {"kind": spec.kind, "m": spec.m, "T": spec.T}}
        report["schedules"][spec.label()] = section
        runs.append((section, _SCHEDULE_CHECKS, (s_idx, spec)))
    runs.append((report["checks"], _FINAL_CHECKS, ()))

    failures: list[str] = []
    passes = 0
    for section, table, args in runs:
        for name, check in table:
            if name not in config.checks:
                continue
            try:
                status, fields = check(ctx, *args)
            except (RegimeError, CapabilityError) as e:
                status, fields = "skipped", {"reason": str(e)}
            except (DivergenceError, AnalyticRegionError) as e:
                status, fields = "fail", {"reason": str(e)}
            section[name] = {"status": status, **fields}
            if status == "fail":
                failures.append(name)
            passes += status == "pass"

    report["excluded_trials"] = ctx.excluded_trials
    report["divergence_flag"] = ctx.excluded_trials > 0
    report["failures"] = failures
    report["passed"] = not failures and passes > 0
    return report


# -- config readers -----------------------------------------------------------

REQUIRED, _REFUSED = object(), object()
_NOUNS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
          list: "a list", dict: "an object"}


def config_field(cfg, name: str, kind, default=REQUIRED, minimum=None):
    """Field ``name`` of the config object ``cfg``, read as ``kind``.

    ``kind`` is bool, int, float, str, list or dict, or ``list[k]`` for a
    list whose items are read as ``k``.  A bool is only a bool, an int is
    never a float or a string, and a float is any number, returned as a
    float.  ``minimum`` bounds a number, or every number of a list.  A
    missing or null field gives ``default``.  Every refusal is a
    ``ConfigError`` naming the field.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected an object holding field {name!r}, got {cfg!r}")
    value = cfg.get(name)
    if value is None:
        if default is REQUIRED:
            raise _missing(name)
        return default
    typed = _typed(value, kind, minimum)
    if typed is _REFUSED:
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(
            f"field {name!r} must be {_describe(kind)}{at_least}, got {value!r}"
        )
    return typed


def _missing(name: str) -> ConfigError:
    return ConfigError(f"config is missing required field {name!r}")


def _typed(value, kind, minimum):
    """``value`` read as ``kind``, or ``_REFUSED`` when it is not one."""
    if get_origin(kind) is list:
        if not isinstance(value, list):
            return _REFUSED
        items = [_typed(v, get_args(kind)[0], minimum) for v in value]
        return _REFUSED if any(v is _REFUSED for v in items) else items
    if isinstance(value, bool) and kind is not bool:
        return _REFUSED
    if kind is float and isinstance(value, int) and abs(value) <= sys.float_info.max:
        value = float(value)
    if not isinstance(value, kind) or (minimum is not None and not value >= minimum):
        return _REFUSED
    return value


def _describe(kind) -> str:
    if get_origin(kind) is list:
        return "a list of items each " + _describe(get_args(kind)[0])
    return _NOUNS[kind]


def read_config(cfg, table: dict, where: str) -> dict:
    """Every field of ``table`` read from the config object ``cfg``.

    ``table`` maps each field the object may hold to the arguments of
    ``config_field`` after its name: ``(kind,)`` for a required field,
    ``(kind, default)`` or ``(kind, default, minimum)``, with ``REQUIRED``
    as the default of a required field that has a minimum.  Any other field is
    refused, naming it and ``where`` the object is: a misspelled field would
    otherwise be ignored and its default used.
    """
    unknown = sorted(set(cfg) - set(table)) if isinstance(cfg, dict) else ()
    if unknown:
        raise ConfigError(
            f"unknown field {unknown[0]!r} in {where}; known fields: {sorted(table)}"
        )
    return {name: config_field(cfg, name, *read) for name, read in table.items()}


# The top level of a verify config.  ``class`` is a bound class overriding
# the family's.
VERIFY_FIELDS = {
    "name": (str, "experiment"),
    "instance": (dict,),
    "n": (int, REQUIRED, 1),
    "plan": (dict,),
    "schedules": (list[dict],),
    "trials": (int, REQUIRED, 1),
    "master_seed": (int, 0, 0),
    "checks": (list[str], ALL_CHECKS),
    "stability_trials": (int, 20, 1),
    "regularity_trials": (int, 200, 1),
    "jobs": (int, 1, 1),
    "allow_divergence": (bool, False),
    "class": (str, None),
}
# Known whatever the kind: the grid sweep rewrites a plan's kind and may
# leave another kind's field set, or null.
_PLAN_FIELDS = {"kind": (str,), "T": (int, REQUIRED, 0), "eta": (float, None),
                "coeff": (float, None), "c": (float, None), "values": (list[float], ())}
# ``m`` defaults to n for full_batch, else to 1.
_SCHEDULE_FIELDS = {"kind": (str,), "m": (int, None), "seed": (int, 0, 0),
                    "custom_indices": (list[list[int]], None)}


def instance_from_config(cfg: dict) -> ProblemInstance:
    """Build an instance from its config object (see README for the schema):
    its family, d, w1 and the family's ``config_fields``."""
    cls = family_class(config_field(cfg, "family", str))
    table = {"family": (str,), "d": (int, REQUIRED, 1), "w1": (list[float], None),
             **cls.config_fields}
    fields = read_config(cfg, table, f"'instance' of family {cls.family!r}")
    del fields["family"]
    return cls(**fields)


def config_from_dict(cfg: dict) -> ExperimentConfig:
    """Build a validated config from a JSON-style mapping.

    Error messages name the offending field and the violated constraint.
    """
    fields = read_config(cfg, VERIFY_FIELDS, "the config")
    instance = instance_from_config(fields["instance"])
    plan = plan_from_dict(fields["plan"], instance)
    schedules = []
    for s in fields["schedules"]:
        if s.get("seed") is not None:
            raise ConfigError(
                "field 'seed' of a schedule is refused: every trial draws its "
                "schedule from master_seed"
            )
        schedules.append(schedule_spec_from_dict(s, n=fields["n"], T=plan.T))
    if not schedules:
        raise ConfigError("field 'schedules' must list at least one schedule")
    labels = set()
    for spec in schedules:
        spec.validate()
        # The report and the Monte Carlo estimates are keyed by label.
        if spec.label() in labels:
            raise ConfigError(
                f"field 'schedules' lists two schedules labelled {spec.label()!r}"
            )
        labels.add(spec.label())
    for c in fields["checks"]:
        if c not in ALL_CHECKS:
            raise ConfigError(f"unknown check {c!r}; valid checks: {ALL_CHECKS}")
    bound_class = fields.pop("class")
    if bound_class not in (None, *bounds_mod.BOUND_CLASSES):
        raise ConfigError(f"field 'class' must be one of "
                          f"{bounds_mod.BOUND_CLASSES}, got {bound_class!r}")
    return ExperimentConfig(**dict(
        fields, instance=instance, plan=plan, schedules=tuple(schedules),
        checks=tuple(fields["checks"]), bound_class=bound_class,
    ))


def plan_from_dict(cfg: dict, instance: ProblemInstance) -> StepSizePlan:
    fields = read_config(cfg, _PLAN_FIELDS, "'plan'")
    kind, T = fields["kind"], fields["T"]
    if kind == "constant":
        if fields["eta"] is None:
            raise _missing("eta")
        plan = StepSizePlan(kind="constant", T=T, eta=fields["eta"])
    elif kind == "inverse_t":
        coeff = fields["coeff"]
        if coeff is None:
            # eta_t = c / (beta t), resolved against the instance smoothness
            if fields["c"] is None:
                raise ConfigError("inverse_t plan requires field 'coeff' or 'c'")
            coeff = fields["c"] / instance.params.beta
        plan = StepSizePlan(kind="inverse_t", T=T, coeff=coeff)
    elif kind == "custom":
        plan = StepSizePlan(kind="custom", T=T, values=tuple(fields["values"]))
    else:
        raise ConfigError(f"plan kind {kind!r} must be constant, inverse_t, or custom")
    plan.validate()
    return plan


def schedule_spec_from_dict(cfg: dict, n: int, T: int) -> ScheduleSpec:
    fields = read_config(cfg, _SCHEDULE_FIELDS, "a schedule")
    kind, m, custom = fields["kind"], fields["m"], fields["custom_indices"]
    if m is None:
        m = n if kind == "full_batch" else 1
    return ScheduleSpec(
        kind=kind, n=n, T=T, m=m, seed=fields["seed"],
        custom_indices=None if custom is None else tuple(map(tuple, custom)),
    )
