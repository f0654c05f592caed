"""Negative controls: seeded known-bad inputs that a check must report as a
``fail``, never as a ``pass`` or ``skipped``, so that a passing check means
something."""

import pytest

from batchstab import bounds, experiments
from batchstab.experiments import config_from_dict, run_full_verification
from batchstab.problems import ProblemInstance
from batchstab.schedule import RealizedSchedule

# small batches, where m / (m + 1) is far from 1
_SCHEDULES = [{"kind": "round_robin", "m": 1}, {"kind": "random_reshuffle", "m": 2}]


def _control_config(checks, schedules=_SCHEDULES):
    return config_from_dict({
        "name": "control",
        "instance": {"family": "convex_huber", "d": 4, "L": 1.0, "beta": 1.0},
        "n": 10,
        "plan": {"kind": "constant", "eta": 0.5, "T": 20},
        "schedules": schedules,
        "trials": 200,
        "master_seed": 7,
        "checks": checks,
    })


# The batch axis of each mutated method's last argument: the batches Z
# (..., m, d) of free_grad_mean, convex_huber's z^d terms (..., m) of step_map.
_BATCH_AXIS = {"free_grad_mean": -2, "step_map": -1}


def _over_m_plus_1(name):
    method = getattr(ProblemInstance, name)

    def mutant(self, *args):
        m = args[-1].shape[_BATCH_AXIS[name]]
        return method(self, *args) * (m / (m + 1))

    return mutant


def test_the_controls_pass_without_a_mutant():
    report = run_full_verification(_control_config(["oracle_equivalence", "gen_error_mc"]))
    assert report["passed"] is True


@pytest.mark.parametrize(
    "mutated, checks",
    [
        # The whole batch mean over m + 1: a run_final takes its first d - 1
        # coordinates from free_grad_mean and its Huber coordinate from
        # step_map, so each of its coordinates is mutated once.
        (("free_grad_mean", "step_map"), ["oracle_equivalence", "gen_error_mc"]),
        # Only the Huber coordinate, stepped one step at a time.  Its share of
        # the generalization error is too small for 200 trials to see, so
        # only the exact check is asked to fail.
        (("step_map",), ["oracle_equivalence"]),
    ],
    ids=["whole-mean", "huber-coordinate"],
)
def test_batch_means_over_m_plus_1_fail_the_checks_that_run_the_engine(
    monkeypatch, mutated, checks
):
    for name in mutated:
        monkeypatch.setattr(ProblemInstance, name, _over_m_plus_1(name))
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
    grad = ProblemInstance.grad
    monkeypatch.setattr(
        ProblemInstance, "grad", lambda self, w, z: grad(self, w, z) * 1.1
    )
    _run_check_fails(run_full_verification(_control_config(checks)), "regularity")
