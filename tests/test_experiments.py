"""Monte Carlo estimators, seed discipline, and the verification runner."""

import dataclasses
import json

import numpy as np
import pytest

from batchstab.bounds import analytic_gen_error
from batchstab.engine import constant_plan
from batchstab import experiments
from batchstab.errors import CapabilityError, ConfigError, DivergenceError
from batchstab.experiments import (
    config_from_dict,
    estimate_gen_error,
    estimate_stability,
    instance_from_config,
    run_full_verification,
    uniform_stability_failure_demo,
)
from batchstab.problems import (
    ConvexHuberInstance,
    convex_huber_instance,
    custom_smooth_instance,
    empirical_risk,
    linear_instance,
    quadratic_nonconvex_instance,
    quadratic_strongly_convex_instance,
)
from batchstab.schedule import ScheduleSpec


def small_config(**overrides):
    cfg = {
        "name": "mini",
        "instance": {"family": "convex_huber", "d": 4, "L": 1.0, "beta": 1.0},
        "n": 10,
        "plan": {"kind": "constant", "eta": 0.5, "T": 20},
        "schedules": [
            {"kind": "full_batch"},
            {"kind": "round_robin", "m": 1},
            {"kind": "uniform_random", "m": 3},
        ],
        "trials": 150,
        "stability_trials": 5,
        "regularity_trials": 100,
        "master_seed": 7,
    }
    cfg.update(overrides)
    return config_from_dict(cfg)


def test_estimator_is_deterministic_and_parallel_invariant():
    inst = convex_huber_instance(d=4, L=1.0, beta=1.0)
    plan = constant_plan(0.5, 25)
    spec = ScheduleSpec("uniform_random", n=12, m=4, T=25)
    a = estimate_gen_error(inst, 12, plan, spec, trials=64, master_seed=3)
    b = estimate_gen_error(inst, 12, plan, spec, trials=64, master_seed=3)
    c = estimate_gen_error(inst, 12, plan, spec, trials=64, master_seed=3, jobs=3)
    assert a == b == c
    d = estimate_gen_error(inst, 12, plan, spec, trials=64, master_seed=4)
    assert d.mean != a.mean


def test_datasets_shared_across_schedule_kinds():
    # With T = 0 the final iterate ignores the schedule entirely, so equal
    # per-trial data substreams must give bit-identical estimates.
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    plan = constant_plan(0.5, 0)
    est1 = estimate_gen_error(
        inst, 8, plan, ScheduleSpec("full_batch", n=8, m=8, T=0),
        trials=40, master_seed=11, s_idx=0,
    )
    est2 = estimate_gen_error(
        inst, 8, plan, ScheduleSpec("uniform_random", n=8, m=2, T=0),
        trials=40, master_seed=11, s_idx=1,
    )
    assert est1.mean == est2.mean


def test_zero_horizon_mean_is_statistical_zero():
    inst = convex_huber_instance(d=4, L=1.0, beta=1.0)
    plan = constant_plan(0.5, 0)
    spec = ScheduleSpec("full_batch", n=10, m=10, T=0)
    est = estimate_gen_error(inst, 10, plan, spec, trials=400, master_seed=13)
    assert abs(est.mean) <= 4 * est.stderr


def test_gen_error_matches_oracle_across_schedules():
    inst = convex_huber_instance(d=4, L=1.0, beta=1.0)
    n, T = 10, 20
    plan = constant_plan(0.5, T)
    oracle = analytic_gen_error(inst, plan, n)
    for s_idx, (kind, m) in enumerate(
        (("full_batch", n), ("round_robin", 1), ("random_reshuffle", 5))
    ):
        spec = ScheduleSpec(kind, n=n, m=m, T=T)
        est = estimate_gen_error(
            inst, n, plan, spec, trials=600, master_seed=17, s_idx=s_idx
        )
        assert abs(est.mean - oracle) <= 3 * est.stderr, (kind, est.mean, oracle)


def test_stability_estimator_and_gradient_tracking():
    inst = quadratic_strongly_convex_instance(d=3, L=1.0, beta=1.0, gamma=1.0)
    plan = constant_plan(0.5, 30)
    spec = ScheduleSpec("round_robin", n=8, m=1, T=30)
    est = estimate_stability(inst, 8, plan, spec, trials=6, master_seed=19)
    assert est.mean > 0 and est.max_value >= est.mean
    assert est.grad_sup_max is not None and est.grad_sup_max <= 4.0


def test_schedule_equivalence_passes_and_full_batch_seeds_coincide():
    config = small_config(trials=400, checks=["gen_error_mc", "schedule_equivalence"])
    eq = run_full_verification(config)["checks"]["schedule_equivalence"]
    assert eq["status"] == "pass", eq
    assert eq["spread"] >= 0.0
    # two full_batch schedules with different seeds give identical means (a
    # config may not list both: they share the label "full_batch")
    specs = [
        ScheduleSpec("full_batch", n=config.n, m=config.n, T=config.plan.T, seed=seed)
        for seed in (1, 2)
    ]
    ests = {
        i: estimate_gen_error(
            config.instance, config.n, config.plan, spec,
            trials=60, master_seed=config.master_seed, s_idx=i,
        )
        for i, spec in enumerate(specs)
    }
    assert ests[0].mean == ests[1].mean


def test_batch_size_cancels_in_the_oracle_comparison():
    # uniform_random with m in {1, n/2, n} must all match one oracle value
    inst = convex_huber_instance(d=4, L=1.0, beta=1.0)
    n, T = 10, 20
    plan = constant_plan(0.5, T)
    oracle = analytic_gen_error(inst, plan, n)
    for s_idx, m in enumerate((1, n // 2, n)):
        spec = ScheduleSpec("uniform_random", n=n, m=m, T=T)
        est = estimate_gen_error(
            inst, n, plan, spec, trials=500, master_seed=37, s_idx=s_idx
        )
        assert abs(est.mean - oracle) <= 3 * est.stderr, (m, est.mean, oracle)


def test_uniform_stability_demo_rows():
    rows = uniform_stability_failure_demo(
        ns=[10, 50], epochs=2, d=5, trials=150, master_seed=23
    )
    flat = [r["uniform_stability_constant"] for r in rows]
    assert flat[0] == flat[1] == pytest.approx(20.0)
    h10 = sum(1.0 / r for r in range(1, 11))
    assert rows[0]["on_average_bound"] == pytest.approx(2 * 5 / 10 * 2 * h10)
    assert rows[0]["T"] == 20 and rows[1]["T"] == 100
    assert all(r["within_bound"] for r in rows)


def test_run_full_verification_passes_on_a_small_config():
    report = run_full_verification(small_config())
    assert report["passed"], report["failures"]
    assert report["excluded_trials"] == 0
    assert set(report["schedules"]) == {
        "full_batch", "round_robin_m1", "uniform_random_m3"
    }
    for sched in report["schedules"].values():
        assert sched["counting_lemma"]["status"] == "pass"
        assert sched["oracle_equivalence"]["status"] == "pass"
        assert sched["growth_recursion"]["status"] == "pass"
        assert sched["stability_mc"]["status"] == "pass"
        assert sched["gen_error_mc"]["status"] == "pass"
    assert report["checks"]["sandwich"]["status"] == "pass"
    assert report["checks"]["schedule_equivalence"]["status"] == "pass"
    json.dumps(report)  # report must be serializable as-is


def test_report_is_bit_identical_across_reruns_and_jobs():
    r1 = run_full_verification(small_config())
    r2 = run_full_verification(small_config())
    r3 = run_full_verification(small_config(jobs=2))
    s1, s2, s3 = (json.dumps(r, sort_keys=True) for r in (r1, r2, r3))
    assert s1 == s2 == s3


def test_regime_gate_records_refusal_and_skips_sandwich():
    config = small_config(plan={"kind": "constant", "eta": 1.5, "T": 20}, trials=50)
    report = run_full_verification(config)
    assert "lower" in report["bounds"]["reasons"]
    assert report["checks"]["sandwich"]["status"] == "skipped"
    # gen MC has no oracle to compare against, so it is skipped, not failed
    for sched in report["schedules"].values():
        assert sched["gen_error_mc"]["status"] == "skipped"
    assert report["passed"], report["failures"]


def test_single_trial_flags_undefined_stderr():
    config = small_config(trials=1)
    report = run_full_verification(config)
    for sched in report["schedules"].values():
        gen = sched["gen_error_mc"]
        assert gen["status"] == "skipped"
        assert "stderr undefined" in gen["reason"]


def test_divergent_trials_are_excluded_only_when_allowed():
    from batchstab.errors import DivergenceError
    from batchstab.problems import quadratic_nonconvex_instance

    inst = quadratic_nonconvex_instance(d=2, beta=1.0)
    plan = constant_plan(1e6, 400)
    spec = ScheduleSpec("full_batch", n=4, m=4, T=400)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            estimate_gen_error(inst, 4, plan, spec, trials=3, master_seed=43)
        est = estimate_gen_error(
            inst, 4, plan, spec, trials=3, master_seed=43, allow_divergence=True
        )
    assert est.excluded == 3
    assert est.mean is None and est.stderr is None


def test_a_trial_whose_risk_overflows_at_a_finite_final_is_divergent():
    # Iterates near 1e240 stay finite, so the engine raises nothing, but the
    # population risk at them overflows: each trial counts as divergent.
    def gen_error_mc(**overrides):
        config = small_config(
            instance={"family": "quadratic_nonconvex", "d": 3, "beta": 1.0},
            n=8, plan={"kind": "constant", "eta": 1e6, "T": 40},
            schedules=[{"kind": "round_robin", "m": 1}], trials=5, master_seed=1,
            checks=["gen_error_mc"], **overrides,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            final = experiments.run_final(
                config.instance, experiments._trial_dataset(config.instance, 8, 1, 0),
                experiments._trial_schedule(config.schedules[0], 1, 0, 0), config.plan,
            )
            report = run_full_verification(config)
        assert np.isfinite(final).all()
        return report["schedules"]["round_robin_m1"]["gen_error_mc"]

    failed = gen_error_mc()
    assert failed["status"] == "fail"
    assert failed["reason"].startswith("non-finite generalization error ")
    assert "at trial 0: the risk overflows" in failed["reason"]
    excluded = gen_error_mc(allow_divergence=True)
    assert excluded["status"] == "skipped"
    assert (excluded["mean"], excluded["excluded"]) == (None, 5)
    assert excluded["reason"].startswith(
        "stderr undefined with 0 of 5 trials kept (5 excluded as divergent)"
    )


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="'n'"):
        config_from_dict(
            {
                "instance": {"family": "linear", "d": 2},
                "plan": {"kind": "constant", "eta": 0.1, "T": 1},
                "schedules": [{"kind": "full_batch"}],
                "trials": 1,
            }
        )
    with pytest.raises(ConfigError, match="m must satisfy"):
        config_from_dict(
            {
                "instance": {"family": "linear", "d": 2},
                "n": 3,
                "plan": {"kind": "constant", "eta": 0.1, "T": 1},
                "schedules": [{"kind": "uniform_random", "m": 5}],
                "trials": 1,
            }
        )
    with pytest.raises(ConfigError, match="unknown check"):
        config_from_dict(
            {
                "instance": {"family": "linear", "d": 2},
                "n": 3,
                "plan": {"kind": "constant", "eta": 0.1, "T": 1},
                "schedules": [{"kind": "round_robin"}],
                "trials": 1,
                "checks": ["sorcery"],
            }
        )
    # the CLI sets jobs from --jobs, so the config field is checked here
    for jobs in (True, 2.0, "2"):
        with pytest.raises(ConfigError, match="field 'jobs' must be an integer"):
            small_config(jobs=jobs)


def test_linear_demo_gen_error_sits_at_half_the_bound():
    # For the sign-vector linear loss the expected generalization error is
    # exactly (d/n) sum eta, half of the on-average bound.
    d, n, K = 3, 12, 2
    inst = linear_instance(d)
    etas = np.tile(1.0 / np.arange(1.0, n + 1.0), K)
    from batchstab.engine import custom_plan

    plan = custom_plan(etas)
    spec = ScheduleSpec("round_robin", n=n, m=1, T=K * n)
    est = estimate_gen_error(inst, n, plan, spec, trials=800, master_seed=29)
    expected = d / n * etas.sum()
    assert abs(est.mean - expected) <= 3 * est.stderr


def test_skip_reasons_of_a_nonconvex_constant_plan():
    # The constant plan is outside every nonconvex regime: no upper bound,
    # no lower bound and no oracle, so the three oracle-backed checks skip
    # while the per-step checks still run.
    report = run_full_verification(
        small_config(
            instance={"family": "quadratic_nonconvex", "d": 3, "beta": 1.0},
            plan={"kind": "constant", "eta": 0.3, "T": 15},
            trials=20,
            stability_trials=2,
            regularity_trials=20,
        )
    )
    per_schedule = {
        "counting_lemma": "pass",
        "oracle_equivalence": "pass",
        "growth_recursion": "pass",
        "stability_mc": "pass",
        "gen_error_mc": "skipped",
    }
    statuses = {"checks": {k: v["status"] for k, v in report["checks"].items()}}
    for label, section in report["schedules"].items():
        statuses[label] = {k: v["status"] for k, v in section.items() if k != "spec"}
    assert statuses == {
        "checks": {
            "regularity": "pass",
            "sandwich": "skipped",
            "schedule_equivalence": "skipped",
        },
        "full_batch": per_schedule,
        "round_robin_m1": per_schedule,
        "uniform_random_m3": per_schedule,
    }
    assert report["checks"]["sandwich"]["reason"] == (
        "upper: no in-scope upper bound for smooth non-Lipschitz losses; the "
        "full-batch reference rate from prior work is not evaluated here; "
        "lower: nonconvex lower bound requires eta_t = c/(beta t); "
        "oracle: the nonconvex oracle requires the decreasing plan eta_t = coeff/t"
    )
    no_oracle = "no analytic oracle for this configuration"
    assert report["checks"]["schedule_equivalence"]["reason"] == no_oracle
    for section in report["schedules"].values():
        gen = section["gen_error_mc"]
        assert gen["reason"] == no_oracle
        assert gen["oracle"] is None and gen["trials"] == 20
    assert report["failures"] == []


def custom_config(checks, bound_class=None):
    inst = custom_smooth_instance(
        d=2,
        loss_fn=lambda w, z: 0.5 * ((w - z) ** 2).sum(axis=-1),
        grad_fn=lambda w, z: w - z,
        scales=[1.0, 1.0],
        beta=1.0,
    )
    # No config can name custom_smooth: it replaces the instance of a config
    # that takes every other field, defaults included, from the loader.
    config = config_from_dict({
        "name": "custom",
        "instance": {"family": "linear", "d": 2},
        "n": 6,
        "plan": {"kind": "constant", "eta": 0.3, "T": 5},
        "schedules": [{"kind": "round_robin", "m": 1}, {"kind": "full_batch"}],
        "trials": 4,
        "master_seed": 3,
        "checks": list(checks),
        "stability_trials": 2,
        "class": bound_class,
    })
    return dataclasses.replace(config, instance=inst)


def test_missing_gradient_bound_skips_both_paired_checks():
    # No Lipschitz constant and no tracked path gradient for a custom loss:
    # both checks that need a gradient bound skip with the same reason.
    report = run_full_verification(
        custom_config(("growth_recursion", "stability_mc"), "nonconvex_smooth")
    )
    for section in report["schedules"].values():
        for check in ("growth_recursion", "stability_mc"):
            assert section[check] == {
                "status": "skipped",
                "reason": "no gradient bound is available for this family",
            }


@pytest.mark.parametrize(
    "instance, tracked",
    [
        ({"family": "quadratic_nonconvex", "d": 3, "beta": 1.0}, True),
        ({"family": "quadratic_strongly_convex", "d": 2, "L": 1.0, "beta": 1.0,
          "gamma": 1.0}, False),
    ],
    ids=["nonconvex_smooth", "strongly_convex"],
)
def test_growth_recursion_tracks_the_gradient_sup_only_without_a_proven_bound(
    monkeypatch, instance, tracked
):
    # nonconvex_smooth has no L, so its recursion reads the sup observed
    # along its paths; strongly convex takes 4 L and tracks nothing.
    sups = []
    run_paired = experiments.run_paired

    def recorded(*args, **kwargs):
        pt = run_paired(*args, **kwargs)
        assert kwargs["track_grad_sup"] is tracked
        sups.append(pt.grad_sup)
        return pt

    monkeypatch.setattr(experiments, "run_paired", recorded)
    report = run_full_verification(
        small_config(instance=instance, plan={"kind": "constant", "eta": 0.3, "T": 15},
                     checks=["growth_recursion"])
    )
    sections = list(report["schedules"].values())
    assert len(sups) == len(sections) == 3
    for section, sup in zip(sections, sups):
        verdict = section["growth_recursion"]
        assert verdict["status"] == "pass"
        if tracked:
            assert sup is not None and verdict["gradient_bound"] == sup
        else:
            assert sup is None and verdict["gradient_bound"] == 4.0


def test_disabled_sandwich_leaves_no_entry():
    report = run_full_verification(custom_config(("schedule_equivalence",)))
    assert report["checks"] == {
        "schedule_equivalence": {
            "status": "skipped",
            "reason": "no analytic oracle for this configuration",
        }
    }
    assert "bounds" not in report


@pytest.mark.parametrize("T, status", [(20, "skipped"), (200, "fail")])
def test_a_refused_recursion_class_still_reports_a_divergence(T, status):
    # eta = 1e3 is outside the strongly convex regime eta <= 2/(beta+gamma);
    # the growth factor 1 - eta beta = -999 overflows within 200 steps.
    config = small_config(
        instance={"family": "quadratic_strongly_convex", "d": 2, "L": 1.0,
                  "beta": 1.0, "gamma": 1.0},
        plan={"kind": "constant", "eta": 1e3, "T": T},
        schedules=[{"kind": "round_robin", "m": 1}],
        checks=["growth_recursion"],
    )
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_full_verification(config)
    check = report["schedules"]["round_robin_m1"]["growth_recursion"]
    assert check["status"] == status
    reason = "non-finite iterate" if status == "fail" else "requires eta_t <= 2/(beta+gamma)"
    assert reason in check["reason"]


def test_a_failed_gen_error_mc_skips_the_equivalence_naming_its_schedules(monkeypatch):
    # A band no convex_huber iterate keeps: every gen_error_mc run fails.
    config = small_config(trials=10, checks=["gen_error_mc", "schedule_equivalence"])
    with monkeypatch.context() as patch:
        patch.setattr(ConvexHuberInstance, "huber_region_limit", lambda self, etas: 1e-12)
        report = run_full_verification(config)
    for section in report["schedules"].values():
        assert section["gen_error_mc"]["status"] == "fail"
    assert report["checks"]["schedule_equivalence"] == {
        "status": "skipped",
        "reason": "gen_error_mc gave no estimate for "
        "full_batch, round_robin_m1, uniform_random_m3",
    }

    # One schedule failing is enough: the others are not compared on their own.
    estimate = experiments.estimate_gen_error

    def fail_round_robin(instance, n, plan, sspec, *args, **kwargs):
        if sspec.kind == "round_robin":
            raise DivergenceError("non-finite iterate produced at step 1")
        return estimate(instance, n, plan, sspec, *args, **kwargs)

    monkeypatch.setattr(experiments, "estimate_gen_error", fail_round_robin)
    report = run_full_verification(config)
    statuses = [s["gen_error_mc"]["status"] for s in report["schedules"].values()]
    assert statuses == ["pass", "fail", "pass"]
    assert report["checks"]["schedule_equivalence"] == {
        "status": "skipped",
        "reason": "gen_error_mc gave no estimate for round_robin_m1",
    }


def test_verify_realizes_each_audit_schedule_and_draws_its_data_once(monkeypatch):
    # counting_lemma, oracle_equivalence and growth_recursion share one audit
    # schedule and one audit dataset per schedule.
    checks = ["counting_lemma", "oracle_equivalence", "growth_recursion"]
    config = small_config(checks=checks)
    calls = {"realize": 0, "sample_examples": 0}

    def counted(name):
        fn = getattr(experiments, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(experiments, name, counted(name))
    report = run_full_verification(config)
    assert report["passed"]
    for section in report["schedules"].values():
        assert [section[name]["status"] for name in checks] == ["pass"] * 3
    assert calls == {"realize": 3, "sample_examples": 6}


def test_the_equivalence_spread_reads_only_defined_means():
    # A schedule whose every trial diverged has no mean; the spread is that
    # of the others.
    est = experiments.MonteCarloEstimate
    fields = experiments._equivalence(1.0, {
        "a": est(mean=1.0, stderr=0.1, trials=4),
        "b": est(mean=1.25, stderr=0.1, trials=4),
        "c": est(mean=None, stderr=None, trials=4, excluded=4),
    })
    assert fields["passed"] is True and fields["spread"] == 0.25
    assert fields["per_schedule"]["c"] == {"status": "skipped", "reason": "stderr undefined"}


def test_an_estimate_whose_trials_all_agree_passes_within_rounding():
    # One example of two-point signs: every trial has the same generalization
    # error, and the mean misses the oracle by 3 ulps of rounding.
    config = small_config(
        instance={"family": "convex_huber", "d": 3, "L": 1.0, "beta": 1.0},
        n=1, plan={"kind": "constant", "eta": 0.5, "T": 5},
        schedules=[{"kind": "full_batch"}], trials=3, stability_trials=2,
        regularity_trials=3, master_seed=1,
    )
    report = run_full_verification(config)
    gen = report["schedules"]["full_batch"]["gen_error_mc"]
    assert gen["status"] == "pass" and gen["stderr"] < 1e-15
    assert gen["mean"] != gen["oracle"]
    assert report["passed"] and report["failures"] == []
    # The slack is rounding's: a zero-variance mean off by 1e-6 still fails.
    oracle = gen["oracle"]
    est = experiments.MonteCarloEstimate
    assert est(mean=oracle * (1 + 1e-12), stderr=0.0, trials=3).agrees_with(oracle)
    assert not est(mean=oracle * (1 + 1e-6), stderr=0.0, trials=3).agrees_with(oracle)
    assert not est(mean=oracle * (1 - 1e-6), stderr=0.0, trials=3).agrees_with(oracle)


def _per_trial_gen_errors(instance, n, etas, spec, master_seed, trials, s_idx=0):
    """Population minus empirical risk at each trial's final iterate, one
    float per trial, or NaN for a trial that diverged."""
    values = []
    for trial in range(trials):
        S = experiments._trial_dataset(instance, n, master_seed, trial)
        sched = experiments._trial_schedule(spec, master_seed, trial, s_idx)
        try:
            w = experiments.run_final(instance, S, sched, etas)
        except DivergenceError:
            values.append(np.nan)
            continue
        values.append(float(instance.population_risk(w)) - empirical_risk(instance, w, S))
    return np.array(values)


def _every_third_trial_diverges(monkeypatch):
    run_final = experiments.run_final
    calls = []

    def diverging(*args):
        calls.append(len(calls))
        if len(calls) % 3 == 0:
            raise DivergenceError("non-finite iterate produced at step 1")
        return run_final(*args)

    monkeypatch.setattr(experiments, "run_final", diverging)
    return calls


@pytest.mark.parametrize(
    "family", ["linear", "convex_huber", "quadratic_nonconvex", "quadratic_strongly_convex"]
)
def test_gen_error_values_are_the_per_trial_float_path(family, monkeypatch):
    # One population-risk call per block of trials gives each trial's value
    # bit for bit, divergent trials left out as NaN.
    n, T, trials = 9, 12, 23
    inst = {
        "linear": lambda: linear_instance(d=3),
        "convex_huber": lambda: convex_huber_instance(d=8, L=1.0, beta=1.0),
        "quadratic_nonconvex": lambda: quadratic_nonconvex_instance(d=9, beta=1.0),
        "quadratic_strongly_convex": lambda: quadratic_strongly_convex_instance(
            d=4, L=1.0, beta=1.0, gamma=0.5
        ),
    }[family]()
    etas = constant_plan(0.4, T).etas()
    for s_idx, (kind, m) in enumerate(
        (("full_batch", n), ("round_robin", 1), ("random_reshuffle", 4),
         ("uniform_random", 5))
    ):
        spec = ScheduleSpec(kind, n=n, m=m, T=T)
        for allow in (False, True):
            with monkeypatch.context() as patch:
                if allow:
                    calls = _every_third_trial_diverges(patch)
                block = (inst, n, etas, spec, s_idx, 5, 0, trials, allow)
                values, excluded = experiments._gen_error_block(block)
                if allow:
                    calls.clear()
                expected = _per_trial_gen_errors(inst, n, etas, spec, 5, trials, s_idx)
            assert excluded == np.isnan(expected).sum() == (trials // 3 if allow else 0)
            nan = np.isnan(expected)
            assert np.array_equal(np.isnan(values), nan), (kind, allow)
            assert values[~nan].tobytes() == expected[~nan].tobytes(), (kind, allow)


def test_a_final_outside_the_huber_region_skips_with_the_region_reason(monkeypatch):
    # eta = 1e6 drives w^d out of the region where the population risk is
    # the closed form; the reason is the one population_risk raises with,
    # after the first trial's run.
    config = small_config(
        plan={"kind": "constant", "eta": 1e6, "T": 20}, checks=["gen_error_mc"]
    )
    limit = config.instance.tau - config.instance.scales[-1]
    reason = (
        "population risk queried outside the analytic region "
        f"|w^d - w1^d| <= {float(limit)!r}; iterates should never leave it"
    )
    run_final, calls = experiments.run_final, []

    def counted(*args):
        calls.append(args)
        return run_final(*args)

    monkeypatch.setattr(experiments, "run_final", counted)
    report = run_full_verification(config)
    for section in report["schedules"].values():
        assert section["gen_error_mc"] == {"status": "skipped", "reason": reason}
    assert len(calls) == len(config.schedules)


@pytest.mark.parametrize(
    "events, allow, raised, runs",
    [
        ({1: "region", 3: "diverge"}, False, CapabilityError, 4),
        ({1: "diverge", 3: "region"}, False, DivergenceError, 2),
        ({1: "diverge", 3: "region"}, True, CapabilityError, 6),
    ],
)
def test_the_first_of_a_divergence_and_a_region_error_in_trial_order_wins(
    monkeypatch, events, allow, raised, runs
):
    # A block holds a trial whose final leaves the Huber region and one that
    # diverges.  As in trial order, the earlier one is raised, unless the
    # divergence is allowed; a divergence that is not stops the block.
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    run_final = experiments.run_final
    calls = []

    def scripted(*args):
        event = events.get(len(calls))
        calls.append(event)
        if event == "diverge":
            raise DivergenceError("non-finite iterate produced at step 1")
        w = run_final(*args)
        if event == "region":
            w[-1] += 10.0
        return w

    monkeypatch.setattr(experiments, "run_final", scripted)
    spec = ScheduleSpec("round_robin", n=6, m=1, T=5)
    with pytest.raises(raised):
        estimate_gen_error(
            inst, 6, constant_plan(0.5, 5), spec, trials=6, master_seed=3,
            allow_divergence=allow,
        )
    assert len(calls) == runs


@pytest.mark.parametrize(
    "cfg, cls",
    [
        ({"family": "linear", "d": 3}, "convex"),
        ({"family": "convex_huber", "d": 3, "L": 1.0, "beta": 1.0}, "convex"),
        ({"family": "quadratic_nonconvex", "d": 3, "beta": 1.0}, "nonconvex_smooth"),
        ({"family": "quadratic_strongly_convex", "d": 3, "L": 1.0, "beta": 1.0,
          "gamma": 1.0}, "strongly_convex"),
    ],
)
def test_each_family_reads_its_own_fields_and_resolves_its_bound_class(cfg, cls):
    instance = instance_from_config(cfg)
    assert instance.family == cfg["family"] and instance.bound_class == cls
    report = run_full_verification(small_config(instance=cfg, checks=[]))
    assert report["instance"]["family"] == cfg["family"] and report["loss_class"] == cls
    # a field of another family is refused, naming this one
    other = "gamma" if "gamma" not in cfg else "tau"
    with pytest.raises(ConfigError, match=rf"unknown field '{other}' in 'instance' of "
                                          rf"family '{cfg['family']}'"):
        instance_from_config(dict(cfg, **{other: 1.0}))
