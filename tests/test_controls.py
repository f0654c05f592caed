"""Negative controls: seeded known-bad inputs that a check must report as a
``fail``, never as a ``pass`` or ``skipped``, so that a passing check means
something."""

import numpy as np
import pytest

from batchstab import bounds, experiments
from batchstab.experiments import config_from_dict, run_full_verification
from batchstab.problems import ConvexHuberInstance, ProblemInstance, _DiagonalQuadratic
from batchstab.schedule import RealizedSchedule

# small batches, where m / (m + 1) is far from 1
_SCHEDULES = [{"kind": "round_robin", "m": 1}, {"kind": "random_reshuffle", "m": 2}]
_HUBER = {"family": "convex_huber", "d": 4, "L": 1.0, "beta": 1.0}


def _control_config(checks, schedules=_SCHEDULES, instance=_HUBER):
    return config_from_dict({
        "name": "control",
        "instance": instance,
        "n": 10,
        "plan": {"kind": "constant", "eta": 0.5, "T": 20},
        "schedules": schedules,
        "trials": 200,
        "master_seed": 7,
        "checks": checks,
    })


_free_grad_mean = ProblemInstance.free_grad_mean
_step_block = ConvexHuberInstance.step_block


def _free_mean_over_m_plus_1(self, Z):
    """free_grad_mean with each batch mean over m + 1."""
    m = Z.shape[-2]
    return _free_grad_mean(self, Z) * (m / (m + 1))


def _huber_mean_over_m_plus_1(self, block, W, etas, terms):
    """step_block stepping the Huber coordinate by its batch mean over
    m + 1: eta m / (m + 1) times the mean over m."""
    m = terms.shape[-1]
    return _step_block(self, block, W, [e * (m / (m + 1)) for e in etas], terms)


# Each mutant with the class that defines the method it replaces.
_MUTANTS = {
    "free_grad_mean": (ProblemInstance, _free_mean_over_m_plus_1),
    "step_block": (ConvexHuberInstance, _huber_mean_over_m_plus_1),
}


def test_the_controls_pass_without_a_mutant():
    report = run_full_verification(_control_config(["oracle_equivalence", "gen_error_mc"]))
    assert report["passed"] is True


@pytest.mark.parametrize(
    "mutated, checks",
    [
        # The whole batch mean over m + 1: a run_final that keeps to the
        # Huber band takes its first d - 1 coordinates from free_grad_mean
        # and steps its Huber coordinate by step_block, so each of its
        # coordinates is mutated once.
        (("free_grad_mean", "step_block"), ["oracle_equivalence", "gen_error_mc"]),
        # Only the Huber coordinate.  Its share of the generalization error
        # is too small for 200 trials to see, so only the exact check is
        # asked to fail.
        (("step_block",), ["oracle_equivalence"]),
    ],
    ids=["whole-mean", "huber-coordinate"],
)
def test_batch_means_over_m_plus_1_fail_the_checks_that_run_the_engine(
    monkeypatch, mutated, checks
):
    for name in mutated:
        owner, mutant = _MUTANTS[name]
        monkeypatch.setattr(owner, name, mutant)
    report = run_full_verification(_control_config(checks))
    for label, section in report["schedules"].items():
        for check in checks:
            assert section[check]["status"] == "fail", (label, check)
            assert "reason" not in section[check], (label, check)
    assert report["passed"] is False


def test_a_halved_gradient_bound_fails_the_streamed_growth_recursion(monkeypatch):
    # The paired run's kicked pairs come within a factor 2 of the kick
    # 2 L eta / m, so with L halved the recursion fails through the audit
    # that reads the stepped rows as the run streams past.
    checks = ["growth_recursion"]
    sections = run_full_verification(_control_config(checks))["schedules"]
    assert all(s["growth_recursion"]["status"] == "pass" for s in sections.values())
    bound = experiments._Context.gradient_bound
    monkeypatch.setattr(
        experiments._Context, "gradient_bound", lambda self, seen: bound(self, seen) / 2
    )
    report = run_full_verification(_control_config(checks))
    for label, section in report["schedules"].items():
        verdict = section["growth_recursion"]
        assert verdict["status"] == "fail" and "reason" not in verdict, label
        assert verdict["violations"] > 0, label
    assert report["passed"] is False


def test_a_duplicated_index_fails_the_counting_lemma(monkeypatch):
    # Step 7 of every audited schedule selects its first index twice, so it
    # perturbs m - 1 of the neighbors, not m.  Every schedule has m >= 2.
    checks = ["counting_lemma"]
    schedules = [{"kind": "round_robin", "m": 2}, {"kind": "uniform_random", "m": 3}]
    report = run_full_verification(_control_config(checks, schedules))
    assert report["passed"] is True
    audit_schedule = experiments._Context.audit_schedule

    def duplicated(self, s_idx, spec):
        sched = audit_schedule(self, s_idx, spec)
        batches = sched.batches.copy()
        batches[6, -1] = batches[6, 0]
        return RealizedSchedule(batches=batches, n=sched.n, kind=sched.kind)

    monkeypatch.setattr(experiments._Context, "audit_schedule", duplicated)
    report = run_full_verification(_control_config(checks, schedules))
    for label, section in report["schedules"].items():
        verdict = section["counting_lemma"]
        assert verdict["status"] == "fail" and "reason" not in verdict, label
        assert verdict["first_violation_t"] == 7, label
    assert report["passed"] is False


def _run_check_fails(report, check):
    verdict = report["checks"][check]
    assert verdict["status"] == "fail" and "reason" not in verdict
    assert report["passed"] is False


def test_swapped_lower_and_upper_bounds_fail_the_sandwich(monkeypatch):
    checks = ["sandwich"]
    report = run_full_verification(_control_config(checks))
    assert report["checks"]["sandwich"]["status"] == "pass" and report["passed"]
    assemble = bounds.assemble_bound_set

    def swapped(*args, **kwargs):
        bs = assemble(*args, **kwargs)
        bs.lower, bs.upper = bs.upper, bs.lower
        return bs

    monkeypatch.setattr(bounds, "assemble_bound_set", swapped)
    _run_check_fails(run_full_verification(_control_config(checks)), "sandwich")


def test_a_mis_scaled_gradient_fails_the_regularity_check(monkeypatch):
    checks = ["regularity"]
    report = run_full_verification(_control_config(checks))
    assert report["checks"]["regularity"]["status"] == "pass" and report["passed"]
    grad = ConvexHuberInstance.grad
    monkeypatch.setattr(
        ConvexHuberInstance, "grad", lambda self, w, z: grad(self, w, z) * 1.1
    )
    _run_check_fails(run_full_verification(_control_config(checks)), "regularity")


_band_slope = ConvexHuberInstance._band_slope
_quadratic_step_map = _DiagonalQuadratic.step_map


def _band_slope_times_1_001(self, *args):
    slope, band = _band_slope(self, *args)
    return slope * 1.001, band


# Each part of the batch split that ``grad`` runs, scaled by 1.001, with the
# class that defines it and a family whose gradient reads it.
_SPLIT_MUTANTS = {
    "free_grad_mean": (
        ProblemInstance, lambda self, Z: _free_grad_mean(self, Z) * 1.001, _HUBER
    ),
    "_band_slope": (ConvexHuberInstance, _band_slope_times_1_001, _HUBER),
    "step_map": (
        _DiagonalQuadratic,
        lambda self, W, terms: _quadratic_step_map(self, W, terms) * 1.001,
        {"family": "quadratic_strongly_convex", "d": 4, "L": 1.0, "beta": 2.0,
         "gamma": 1.0},
    ),
}


@pytest.mark.parametrize("name", list(_SPLIT_MUTANTS))
def test_a_batch_split_scaled_by_1_001_fails_the_regularity_check(monkeypatch, name):
    # The regularity check takes each gradient from the batch split the
    # engine runs, so a split off by 1.001 is a gradient off by 1.001.
    owner, mutant, instance = _SPLIT_MUTANTS[name]
    checks = ["regularity"]
    report = run_full_verification(_control_config(checks, instance=instance))
    assert report["checks"]["regularity"]["status"] == "pass" and report["passed"]
    monkeypatch.setattr(owner, name, mutant)
    report = run_full_verification(_control_config(checks, instance=instance))
    _run_check_fails(report, "regularity")


def test_a_halved_gradient_bound_fails_the_stability_check(monkeypatch):
    # The largest measured final gap, about 1.27 on both schedules, lies
    # within the on-average stability bound from L and above the bound
    # from L / 2.
    checks = ["stability_mc"]
    sections = run_full_verification(_control_config(checks))["schedules"]
    assert all(s["stability_mc"]["status"] == "pass" for s in sections.values())
    bound = experiments._Context.gradient_bound
    monkeypatch.setattr(
        experiments._Context, "gradient_bound", lambda self, seen: bound(self, seen) / 2
    )
    report = run_full_verification(_control_config(checks))
    for label, section in report["schedules"].items():
        verdict = section["stability_mc"]
        assert verdict["status"] == "fail" and "reason" not in verdict, label
        assert verdict["bound"] < verdict["max"] < 2 * verdict["bound"], label
    assert report["passed"] is False


def _greedy_top_loss_final(instance, S, sched, etas):
    """A data-dependent batch rule, outside the class the paper's claim
    covers: each step takes the m examples of largest loss at the current
    iterate, whatever the schedule realized."""
    w = instance.w1.copy()
    for eta in np.asarray(etas, dtype=float):
        top = np.argsort(-instance.loss(w, S.examples), kind="stable")[: sched.m]
        w = w - eta * instance.batch_grad_mean(w, S.examples[top])
    return w


def test_a_data_dependent_batch_rule_fails_the_schedule_equivalence(monkeypatch):
    checks = ["gen_error_mc", "schedule_equivalence"]
    report = run_full_verification(_control_config(checks))
    assert report["checks"]["schedule_equivalence"]["status"] == "pass" and report["passed"]
    monkeypatch.setattr(experiments, "run_final", _greedy_top_loss_final)
    _run_check_fails(run_full_verification(_control_config(checks)), "schedule_equivalence")
