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
its estimate attached, when the stderr or the oracle is undefined.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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
    Dataset,
    ProblemInstance,
    empirical_risk,
    instance_from_config,
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

_CLASS_BY_FAMILY = {
    "linear": "convex",
    "convex_huber": "convex",
    "quadratic_nonconvex": "nonconvex_smooth",
    "quadratic_strongly_convex": "strongly_convex",
}

_RECURSION_BY_CLASS = {
    "convex": "convex",
    "nonconvex_lipschitz": "nonconvex",
    "nonconvex_smooth": "nonconvex",
    "strongly_convex": "strongly_convex",
}


def class_for_instance(instance: ProblemInstance) -> str | None:
    return _CLASS_BY_FAMILY.get(instance.family)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    instance: ProblemInstance
    n: int
    plan: StepSizePlan
    schedules: tuple[ScheduleSpec, ...]
    trials: int
    master_seed: int
    # ALL_CHECKS is derived from the check tables at the end of this module.
    checks: tuple[str, ...] = field(default_factory=lambda: ALL_CHECKS)
    stability_trials: int = 20
    regularity_trials: int = 200
    jobs: int = 1
    allow_divergence: bool = False
    bound_class: str | None = None

    def resolved_class(self) -> str | None:
        return self.bound_class or class_for_instance(self.instance)


def config_from_dict(cfg: dict) -> ExperimentConfig:
    """Build a validated config from a JSON-style mapping.

    Error messages name the offending field and the violated constraint.
    """
    try:
        instance = instance_from_config(cfg["instance"])
    except KeyError as e:
        raise ConfigError(f"config is missing required field {e.args[0]!r}")
    n = cfg.get("n")
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"field 'n' must be a positive integer, got {n!r}")
    plan = plan_from_dict(cfg.get("plan"), instance)
    raw_scheds = cfg.get("schedules")
    if not raw_scheds:
        raise ConfigError("field 'schedules' must list at least one schedule")
    schedules = tuple(
        schedule_spec_from_dict(s, n=n, T=plan.T) for s in raw_scheds
    )
    for spec in schedules:
        spec.validate()
    trials = cfg.get("trials", 0)
    if not isinstance(trials, int) or trials < 1:
        raise ConfigError(f"field 'trials' must be >= 1, got {trials!r}")
    checks = tuple(cfg.get("checks", ALL_CHECKS))
    for c in checks:
        if c not in ALL_CHECKS:
            raise ConfigError(f"unknown check {c!r}; valid checks: {ALL_CHECKS}")
    bound_class = cfg.get("class")
    if bound_class is not None and bound_class not in bounds_mod.BOUND_CLASSES:
        raise ConfigError(
            f"field 'class' must be one of {bounds_mod.BOUND_CLASSES}, "
            f"got {bound_class!r}"
        )
    return ExperimentConfig(
        name=cfg.get("name", "experiment"),
        instance=instance,
        n=n,
        plan=plan,
        schedules=schedules,
        trials=trials,
        master_seed=int(cfg.get("master_seed", 0)),
        checks=checks,
        stability_trials=int(cfg.get("stability_trials", 20)),
        regularity_trials=int(cfg.get("regularity_trials", 200)),
        jobs=int(cfg.get("jobs", 1)),
        allow_divergence=bool(cfg.get("allow_divergence", False)),
        bound_class=bound_class,
    )


def plan_from_dict(cfg: dict | None, instance: ProblemInstance) -> StepSizePlan:
    if not isinstance(cfg, dict) or "kind" not in cfg or "T" not in cfg:
        raise ConfigError("field 'plan' must carry 'kind' and 'T'")
    kind, T = cfg["kind"], cfg["T"]
    if kind == "constant":
        if "eta" not in cfg:
            raise ConfigError("constant plan requires field 'eta'")
        plan = StepSizePlan(kind="constant", T=T, eta=float(cfg["eta"]))
    elif kind == "inverse_t":
        if "coeff" in cfg:
            coeff = float(cfg["coeff"])
        elif "c" in cfg:
            # eta_t = c / (beta t), resolved against the instance smoothness
            coeff = float(cfg["c"]) / instance.params.beta
        else:
            raise ConfigError("inverse_t plan requires field 'coeff' or 'c'")
        plan = StepSizePlan(kind="inverse_t", T=T, coeff=coeff)
    elif kind == "custom":
        plan = StepSizePlan(
            kind="custom", T=T, values=tuple(float(v) for v in cfg.get("values", ()))
        )
    else:
        raise ConfigError(f"plan kind {kind!r} must be constant, inverse_t, or custom")
    plan.validate()
    return plan


def schedule_spec_from_dict(cfg: dict, n: int, T: int) -> ScheduleSpec:
    if "kind" not in cfg:
        raise ConfigError("every schedule needs a 'kind'")
    kind = cfg["kind"]
    m = cfg.get("m", n if kind == "full_batch" else 1)
    custom = cfg.get("custom_indices")
    if custom is not None:
        custom = tuple(tuple(int(i) for i in row) for row in custom)
    return ScheduleSpec(
        kind=kind,
        n=n,
        m=int(m),
        T=T,
        seed=int(cfg.get("seed", 0)),
        custom_indices=custom,
    )


# -- Monte Carlo estimators ---------------------------------------------------


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float | None
    trials: int
    excluded: int = 0
    max_value: float | None = None
    grad_sup_max: float | None = None

    def agrees_with(self, value: float) -> bool:
        """The mean lies within 3 standard errors of ``value``; needs a stderr."""
        return abs(self.mean - value) <= 3.0 * self.stderr


def _blocks(trials: int, jobs: int) -> list[tuple[int, int]]:
    if jobs <= 1:
        return [(0, trials)]
    size = max(1, -(-trials // (jobs * 4)))
    return [(t0, min(t0 + size, trials)) for t0 in range(0, trials, size)]


def _parallel_map(fn, items, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
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
    (instance, n, etas, sspec, s_idx, master_seed, t0, t1, allow_div) = args
    values = np.empty(t1 - t0)
    excluded = 0
    for trial in range(t0, t1):
        S = _trial_dataset(instance, n, master_seed, trial)
        sched = _trial_schedule(sspec, master_seed, trial, s_idx)
        try:
            w = run_final(instance, S, sched, etas)
        except DivergenceError:
            if not allow_div:
                raise
            values[trial - t0] = np.nan
            excluded += 1
            continue
        values[trial - t0] = float(instance.population_risk(w)) - empirical_risk(
            instance, w, S
        )
    return values, excluded


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
    schedule randomness are the only noise sources.
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
    mean = float(kept.mean()) if kept.size else math.nan
    stderr = (
        float(kept.std(ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else None
    )
    return MonteCarloEstimate(
        mean=mean, stderr=stderr, trials=trials, excluded=excluded
    )


def _stability_block(args) -> tuple[np.ndarray, np.ndarray]:
    (instance, n, etas, sspec, s_idx, master_seed, t0, t1) = args
    finals = np.empty(t1 - t0)
    sups = np.full(t1 - t0, np.nan)
    plan = custom_plan(etas) if len(etas) else StepSizePlan("custom", 0, values=())
    for trial in range(t0, t1):
        S = _trial_dataset(instance, n, master_seed, trial)
        repl = sample_examples(instance, n, rng_at(master_seed, trial, REPLACEMENTS))
        sched = _trial_schedule(sspec, master_seed, trial, s_idx)
        pt = run_paired(
            instance, S, repl, sched, plan, keep_path=False, track_grad_sup=True
        )
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
    the mean final gap.  For the quadratic families the largest gradient
    norm seen anywhere along any path (against the worst support example)
    is tracked as well.
    """
    if trials < 1:
        raise ConfigError("estimate_stability requires trials >= 1")
    etas = plan.etas()
    tasks = [
        (instance, n, etas, sspec, s_idx, master_seed, t0, t1)
        for t0, t1 in _blocks(trials, jobs)
    ]
    results = _parallel_map(_stability_block, tasks, jobs)
    finals = np.concatenate([r[0] for r in results])
    sups = np.concatenate([r[1] for r in results])
    stderr = (
        float(finals.std(ddof=1) / math.sqrt(finals.size)) if finals.size > 1 else None
    )
    sup_max = float(np.nanmax(sups)) if np.isfinite(sups).any() else None
    return MonteCarloEstimate(
        mean=float(finals.mean()),
        stderr=stderr,
        trials=trials,
        max_value=float(finals.max()),
        grad_sup_max=sup_max,
    )


# -- composite studies --------------------------------------------------------


def schedule_equivalence(
    config: ExperimentConfig,
    estimates: dict[str, MonteCarloEstimate] | None = None,
) -> dict:
    """Check that every schedule's mean matches the one schedule-free oracle.

    Requires at least two schedules and an instance with an analytic oracle.
    Reports per-schedule verdicts (|mean - oracle| <= 3 stderr) and the
    spread between the largest and smallest mean.
    """
    if len(config.schedules) < 2:
        raise ConfigError("schedule_equivalence needs at least two schedules")
    oracle = bounds_mod.analytic_gen_error(config.instance, config.plan, config.n)
    if estimates is None:
        estimates = {
            spec.label(): estimate_gen_error(
                config.instance,
                config.n,
                config.plan,
                spec,
                config.trials,
                config.master_seed,
                s_idx=i,
                jobs=config.jobs,
                allow_divergence=config.allow_divergence,
            )
            for i, spec in enumerate(config.schedules)
        }
    return _equivalence(oracle, estimates)


def _equivalence(oracle: float, estimates: dict[str, MonteCarloEstimate]) -> dict:
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
    means = [e.mean for e in estimates.values()]
    return {
        "passed": passed,
        "oracle": oracle,
        "spread": float(max(means) - min(means)) if means else 0.0,
        "per_schedule": per_schedule,
    }


def uniform_stability_failure_demo(
    ns: list[int],
    epochs: int,
    d: int,
    trials: int,
    master_seed: int,
    jobs: int = 1,
    plans: dict[int, StepSizePlan] | None = None,
) -> list[dict]:
    """Flat worst-case constant vs 1/n on-average bound vs measured error.

    Linear loss, incremental (round-robin, m = 1) selection, T = epochs * n,
    step sizes 1/t restarting at each epoch unless explicit plans are given.
    Each row reports the n-independent uniform-stability constant, the
    on-average bound (2 d / n) sum_t eta_t, and the measured |gen error|.
    """
    rows = []
    for idx, n in enumerate(ns):
        T = epochs * n
        if plans is not None:
            plan = plans[n]
            if plan.T != T:
                raise ConfigError(
                    f"plan for n={n} has T={plan.T}; the incremental demo "
                    f"requires T = epochs * n = {T}"
                )
            etas = plan.etas()
        else:
            etas = np.tile(1.0 / np.arange(1, n + 1, dtype=float), epochs)
            plan = custom_plan(etas)
        instance = linear_instance(d)
        flat = bounds_mod.uniform_stability_constant(
            "linear_epochs", K=epochs, d=d, eta1=float(etas[0])
        )
        decaying = bounds_mod.gen_error_upper(
            "convex", plan, n, L=instance.params.L, beta=instance.params.beta
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
        self.cls = config.resolved_class()
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

    def gradient_bound(self, observed: float | None) -> float:
        """Gradient bound of the perturbation term: the class's bound from L,
        else the largest gradient norm observed along the paths."""
        bound = bounds_mod.path_gradient_bound(self.cls, self.config.instance.params.L)
        if bound is None:
            bound = observed
        if bound is None:
            raise CapabilityError("no gradient bound is available for this family")
        return bound

    def audit_examples(self, s_idx: int, k: int) -> np.ndarray:
        """Audit draws of schedule s_idx: the dataset (k=0), its replacements (k=1)."""
        config = self.config
        rng = rng_at(config.master_seed, s_idx, AUDIT, k)
        return sample_examples(config.instance, config.n, rng)

    def audit_schedule(self, s_idx: int, spec: ScheduleSpec):
        return _trial_schedule(spec, self.config.master_seed, 0, s_idx)


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
    instance = ctx.config.instance
    pt = run_paired(
        instance,
        Dataset(examples=ctx.audit_examples(s_idx, 0)),
        ctx.audit_examples(s_idx, 1),
        ctx.audit_schedule(s_idx, spec),
        ctx.config.plan,
        keep_path=True,
        track_grad_sup=True,
    )
    L = ctx.gradient_bound(pt.grad_sup)
    verdict = stability_mod.check_growth_recursion(
        pt, ctx.rec_class, L=L, beta=instance.params.beta,
        gamma=instance.params.gamma,
    )
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
    try:
        est = estimate_gen_error(
            config.instance, config.n, config.plan, spec, config.trials,
            config.master_seed, s_idx=s_idx, jobs=config.jobs,
            allow_divergence=config.allow_divergence,
        )
    except AnalyticRegionError as e:
        raise CapabilityError(str(e)) from e
    ctx.gen_estimates[spec.label()] = est
    ctx.excluded_trials += est.excluded
    fields = dict(
        mean=est.mean, stderr=est.stderr, trials=est.trials,
        excluded=est.excluded, oracle=ctx.oracle,
    )
    if est.stderr is None:
        return "skipped", dict(reason="stderr undefined with trials < 2", **fields)
    if ctx.oracle is None:
        reason = "no analytic oracle for this configuration"
        return "skipped", dict(reason=reason, **fields)
    return _status(est.agrees_with(ctx.oracle)), fields


def _check_schedule_equivalence(ctx: _Context):
    if len(ctx.config.schedules) < 2:
        raise CapabilityError("needs at least two schedules")
    if ctx.oracle is None:
        raise CapabilityError("no analytic oracle for this configuration")
    if not ctx.gen_estimates:
        raise CapabilityError("gen_error_mc is disabled")
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
    """Execute every enabled check and aggregate one pass/fail report."""
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
    for section, table, args in runs:
        for name, check in table:
            if name not in config.checks:
                continue
            try:
                status, fields = check(ctx, *args)
            except (RegimeError, CapabilityError) as e:
                status, fields = "skipped", {"reason": str(e)}
            section[name] = {"status": status, **fields}
            if status == "fail":
                failures.append(name)

    report["excluded_trials"] = ctx.excluded_trials
    report["divergence_flag"] = ctx.excluded_trials > 0
    report["failures"] = failures
    report["passed"] = not failures
    return report
