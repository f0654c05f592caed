"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Criteria (tolerances pinned here, nothing deferred):

 1. run == closed_form_final at rel 1e-9 on >= 100 random configs per family
    (d <= 16, n <= 64, T <= 500, all five schedule kinds); <= 1 min.
 2. counting identity on 1000 randomized realized schedules; seconds.
 3. growth recursions pass with zero violations (slack 1e-9) on >= 50 seeded
    configs per loss class; <= 2 min (criterion 7 measured on the same grid).
 4. convex sandwich: lower 0.5, upper 2.0, oracle strictly between; 2000-trial
    Monte Carlo within 3 stderr of the oracle for four schedule kinds; <= 5 min.
 5. nonconvex: oracle exactly T/n = 0.99 >= lower ((T+1)^{ln 2} - 1)/(2n);
    Monte Carlo within 3 stderr; decreasing-step series cap on 200 random
    (C, beta, T); <= 5 min.
 6. strongly convex sandwich: lower 0.01, oracle (1/50)(1 - 2^-200), upper
    1.28; ordering, Monte Carlo within 3 stderr, path gradients <= 4L; <= 5 min.
 7. measured on-average stability below the class bound on the criterion-3
    grid; bound invariant to m in {1, n/2, n}.
 8. incremental-rule demo: worst-case constant flat at 20.0 while the
    on-average bound decays with n and dominates the measurement; <= 2 min.
 9. criteria 4-6 reports reproduce bit-identically on rerun and at jobs=2.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from batchstab.bounds import analytic_gen_error, gen_error_lower
from batchstab.engine import (
    closed_form_final,
    constant_plan,
    inverse_t_plan,
    run_final,
    run_paired,
)
from batchstab.experiments import (
    config_from_dict,
    run_full_verification,
    uniform_stability_failure_demo,
)
from batchstab.problems import (
    convex_huber_instance,
    linear_instance,
    quadratic_nonconvex_instance,
    quadratic_strongly_convex_instance,
    sample_dataset,
    sample_examples,
)
from batchstab.schedule import ScheduleSpec, check_counting_lemma, realize
from batchstab.stability import (
    GrowthRecursionAudit,
    final_on_average_gap,
    nonconvex_step_sum_cap,
    stability_bound,
)
from conftest import assert_pinned_digests, nonconvex_step_sum

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
KINDS = ("full_batch", "round_robin", "random_reshuffle", "single_shuffle", "uniform_random")


def load_config(name, **overrides):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg.update(overrides)
    return config_from_dict(cfg)


def announce(criterion, summary):
    print(f"ACCEPTANCE criterion {criterion}: PASS — {summary}")


@pytest.fixture(scope="module")
def convex_report():
    return run_full_verification(load_config("convex_sandwich.json"))


@pytest.fixture(scope="module")
def nonconvex_report():
    return run_full_verification(load_config("nonconvex_lower.json"))


@pytest.fixture(scope="module")
def strongly_convex_report():
    return run_full_verification(load_config("strongly_convex_sandwich.json"))


@pytest.fixture(scope="module")
def recursion_grid():
    """>= 50 seeded paired configs per loss class, shared by criteria 3 and 7."""
    rng = np.random.default_rng(20260811)
    results = {"convex": [], "nonconvex": [], "strongly_convex": []}
    for cls in results:
        for rep in range(50):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(2, 25))
            T = int(rng.integers(1, 120))
            kind = KINDS[rep % len(KINDS)]
            m = n if kind == "full_batch" else int(rng.integers(1, n + 1))
            beta = float(rng.uniform(0.4, 2.5))
            if cls == "convex":
                inst = convex_huber_instance(
                    d=d, L=float(rng.uniform(0.5, 2.0)), beta=beta
                )
                plan = constant_plan(float(rng.uniform(0.05, 1.95)) / beta, T)
            elif cls == "nonconvex":
                lam = -rng.uniform(0.2, 1.0, size=d) * beta
                inst = quadratic_nonconvex_instance(d=d, beta=beta, lam=lam)
                plan = inverse_t_plan(float(rng.uniform(0.1, 0.99)) / beta, T)
            else:
                gamma = beta * float(rng.uniform(0.4, 1.0))
                d_min = (beta**2 - gamma**2) / (3 * gamma**2)
                d_sc = max(d, math.ceil(d_min))
                inst = quadratic_strongly_convex_instance(
                    d=d_sc, L=float(rng.uniform(0.5, 2.0)), beta=beta, gamma=gamma
                )
                plan = constant_plan(
                    float(rng.uniform(0.05, 2.0)) / (beta + gamma), T
                )
            S = sample_dataset(inst, n, seed=int(rng.integers(0, 2**31)))
            repl = sample_examples(
                inst, n, np.random.default_rng(int(rng.integers(0, 2**31)))
            )
            sched = realize(
                ScheduleSpec(kind, n=n, m=m, T=T, seed=int(rng.integers(0, 2**31)))
            )
            track = inst.family.startswith("quadratic")
            audit = GrowthRecursionAudit(
                cls, plan.etas(), sched, inst.params.beta, inst.params.gamma or None
            )
            pt = run_paired(
                inst, S, repl, sched, plan, track_grad_sup=track, on_block=audit
            )
            L_rec = inst.params.L if cls == "convex" else pt.grad_sup
            verdict = audit.verdict(L_rec)
            bound = stability_bound(
                cls, L_rec, plan.etas(), n, m,
                beta=inst.params.beta, gamma=inst.params.gamma or None,
            )
            results[cls].append(
                {
                    "verdict": verdict,
                    "measured": final_on_average_gap(pt),
                    "bound": bound,
                    "n": n,
                    "etas": plan.etas(),
                    "L": L_rec,
                    "beta": inst.params.beta,
                    "gamma": inst.params.gamma,
                }
            )
    return results


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for family in ("linear", "convex_huber", "quadratic_nonconvex", "quadratic_strongly_convex"):
        for rep in range(100):
            d = int(rng.integers(2, 17))
            n = int(rng.integers(2, 65))
            T = int(rng.integers(0, 501))
            kind = KINDS[rep % len(KINDS)]
            m = n if kind == "full_batch" else int(rng.integers(1, n + 1))
            beta = float(rng.uniform(0.4, 2.5))
            if family == "linear":
                inst = linear_instance(d=d, beta=beta)
                plan = constant_plan(float(rng.uniform(0.01, 1.0)), T)
            elif family == "convex_huber":
                inst = convex_huber_instance(d=d, L=float(rng.uniform(0.5, 2.0)), beta=beta)
                plan = constant_plan(float(rng.uniform(0.01, 1.0)) / beta, T)
            elif family == "quadratic_nonconvex":
                lam = -rng.uniform(0.2, 1.0, size=d) * beta
                inst = quadratic_nonconvex_instance(d=d, beta=beta, lam=lam)
                plan = inverse_t_plan(float(rng.uniform(0.05, 1.0)) / beta, T)
            else:
                gamma = beta * float(rng.uniform(0.4, 1.0))
                d_sc = max(d, math.ceil((beta**2 - gamma**2) / (3 * gamma**2)))
                inst = quadratic_strongly_convex_instance(
                    d=d_sc, L=float(rng.uniform(0.5, 2.0)), beta=beta, gamma=gamma
                )
                plan = constant_plan(float(rng.uniform(0.05, 1.0)) / (beta + gamma), T)
            S = sample_dataset(inst, n, seed=int(rng.integers(0, 2**31)))
            sched = realize(
                ScheduleSpec(kind, n=n, m=m, T=T, seed=int(rng.integers(0, 2**31)))
            )
            w_run = run_final(inst, S, sched, plan)
            w_cf = closed_form_final(inst, S, sched, plan)
            rel = float(np.linalg.norm(w_run - w_cf) / (1 + np.linalg.norm(w_cf)))
            worst = max(worst, rel)
            assert rel < 1e-9, (family, kind, d, n, T, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(1, f"400 configs, worst relative deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_counting_lemma():
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    kinds = KINDS + ("custom",)
    for rep in range(1000):
        kind = kinds[rep % len(kinds)]
        n = int(rng.integers(1, 40))
        T = int(rng.integers(0, 80))
        m = n if kind == "full_batch" else int(rng.integers(1, n + 1))
        if kind == "custom":
            rows = tuple(
                tuple(int(i) + 1 for i in rng.choice(n, size=m, replace=False))
                for _ in range(T)
            )
            spec = ScheduleSpec(kind, n=n, m=m, T=T, custom_indices=rows)
        else:
            spec = ScheduleSpec(kind, n=n, m=m, T=T, seed=int(rng.integers(0, 2**31)))
        verdict = check_counting_lemma(realize(spec))
        assert verdict.passed, (kind, n, m, T, verdict.first_violation_t)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(2, f"1000 randomized schedules, {elapsed:.1f}s")


def test_criterion_3_growth_recursions(recursion_grid):
    start = time.perf_counter()
    for cls, rows in recursion_grid.items():
        assert len(rows) >= 50
        for row in rows:
            verdict = row["verdict"]
            assert verdict, (cls, verdict.violations[:3])
            assert verdict.max_slack <= 1e-9 * max(1.0, row["bound"])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    announce(3, "zero violations across 150 paired configs (50 per loss class)")


def test_criterion_4_convex_sandwich(convex_report):
    report = convex_report
    b = report["bounds"]
    assert b["lower"] == pytest.approx(0.5, rel=1e-12)
    assert b["upper"] == pytest.approx(2.0, rel=1e-12)
    assert b["lower"] < b["oracle"] < b["upper"]
    schedules = report["schedules"]
    assert set(schedules) == {
        "full_batch", "round_robin_m1", "random_reshuffle_m10", "uniform_random_m5"
    }
    for label, sched in schedules.items():
        gen = sched["gen_error_mc"]
        assert gen["status"] == "pass", (label, gen)
        assert gen["trials"] == 2000 and gen["excluded"] == 0
        assert abs(gen["mean"] - b["oracle"]) <= 3 * gen["stderr"]
        assert abs(gen["mean"]) <= b["upper"] + 3 * gen["stderr"]
        assert b["oracle"] >= b["lower"]
    assert report["checks"]["schedule_equivalence"]["status"] == "pass"
    assert report["passed"], report["failures"]
    announce(
        4,
        f"lower 0.5 < oracle {b['oracle']:.6f} < upper 2.0; "
        "2000-trial MC within 3*stderr on all four schedules",
    )


def test_criterion_5_nonconvex_lower(nonconvex_report):
    inst = quadratic_nonconvex_instance(d=4, beta=1.0)
    plan = inverse_t_plan(1.0, 99)
    oracle = analytic_gen_error(inst, plan, 100)
    assert oracle == pytest.approx(0.99, rel=1e-12)
    lower = gen_error_lower("nonconvex_smooth", plan, 100, beta=1.0)
    assert lower == pytest.approx((100.0 ** math.log(2.0) - 1.0) / 200.0, rel=1e-12)
    assert oracle >= lower

    report = nonconvex_report
    assert report["bounds"]["oracle"] == pytest.approx(0.99, rel=1e-12)
    gen = report["schedules"]["round_robin_m1"]["gen_error_mc"]
    assert gen["status"] == "pass" and gen["trials"] == 2000
    assert abs(gen["mean"] - 0.99) <= 3 * gen["stderr"]
    assert report["passed"], report["failures"]

    start = time.perf_counter()
    rng = np.random.default_rng(55)
    for _ in range(200):
        beta = float(rng.uniform(0.2, 3.0))
        C = float(rng.uniform(0.02, 0.99)) / beta
        T = int(rng.integers(1, 10_001))
        etas = C / np.arange(1.0, T + 1.0)
        assert nonconvex_step_sum(etas, beta) <= nonconvex_step_sum_cap(
            C, beta, T
        ) * (1 + 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    announce(
        5,
        f"oracle 0.99 >= lower {lower:.6f}; MC within 3*stderr; "
        f"decreasing-step cap held on 200 draws ({elapsed:.1f}s)",
    )


def test_criterion_6_strongly_convex_sandwich(strongly_convex_report):
    report = strongly_convex_report
    b = report["bounds"]
    assert b["lower"] == pytest.approx(16.0 / 1600.0, rel=1e-12)  # 0.01
    assert b["oracle"] == pytest.approx((1.0 / 50.0) * (1.0 - 2.0**-200), rel=1e-12)
    assert b["upper"] == pytest.approx(1.28, rel=1e-12)
    assert b["lower"] <= b["oracle"] <= b["upper"]
    for label, sched in report["schedules"].items():
        gen = sched["gen_error_mc"]
        assert gen["status"] == "pass", (label, gen)
        assert abs(gen["mean"] - b["oracle"]) <= 3 * gen["stderr"]
        assert abs(gen["mean"]) <= b["upper"] + 3 * gen["stderr"]
        stab = sched["stability_mc"]
        assert stab["status"] == "pass"
        assert stab["grad_sup_max"] is not None and stab["grad_sup_max"] <= 4.0
    assert report["passed"], report["failures"]
    announce(
        6,
        f"lower 0.01 <= oracle {b['oracle']:.6f} <= upper 1.28; MC within "
        "3*stderr; path gradients below 4L",
    )


def test_criterion_7_stability_bounds(recursion_grid):
    for cls, rows in recursion_grid.items():
        for row in rows:
            assert row["measured"] <= row["bound"] * (1 + 1e-9) + 1e-12, (cls, row)
    for cls, rows in recursion_grid.items():
        row = rows[0]
        n = row["n"]
        values = {
            m: stability_bound(
                cls, row["L"], row["etas"], n, m,
                beta=row["beta"], gamma=row["gamma"] or None,
            )
            for m in (1, max(1, n // 2), n)
        }
        assert len(set(values.values())) == 1
    announce(7, "measured stability below the class bound on all 150 configs; "
                "bounds invariant to m")


def test_criterion_8_uniform_stability_failure():
    start = time.perf_counter()
    K, d = 2, 5
    rows = uniform_stability_failure_demo(
        ns=[10, 100, 1000], epochs=K, d=d, trials=400, master_seed=20260811
    )
    harmonic = lambda n: sum(1.0 / r for r in range(1, n + 1))
    for row in rows:
        assert row["uniform_stability_constant"] == pytest.approx(2.0 * K * d * 1.0)
        expected_bound = 2.0 * d / row["n"] * K * harmonic(row["n"])
        assert row["on_average_bound"] == pytest.approx(expected_bound, rel=1e-12)
        assert row["abs_gen_error"] <= row["on_average_bound"] + 3 * row["stderr"]
    decays = [
        rows[i]["on_average_bound"] / rows[i + 1]["on_average_bound"]
        for i in range(2)
    ]
    # (2d/n) sum eta falls by 10 H_n / H_{10n} per decade: ~5.6x and ~6.5x here
    assert all(r >= 5.0 for r in decays)
    assert rows[-1]["on_average_bound"] < rows[0]["uniform_stability_constant"] / 100.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    announce(
        8,
        f"flat constant 20.0 vs decaying bound {[round(r['on_average_bound'], 4) for r in rows]}; "
        f"measurements inside the bound ({elapsed:.1f}s)",
    )


def test_shipped_reports_are_the_pinned_bytes(
    convex_report, nonconvex_report, strongly_convex_report
):
    # A change that moves any value of a shipped report moves its digest;
    # one that means to updates tests/digests.json and says so.
    assert_pinned_digests({
        f"report:{name}": json.dumps(report, sort_keys=True)
        for name, report in (
            ("convex_sandwich", convex_report),
            ("nonconvex_lower", nonconvex_report),
            ("strongly_convex_sandwich", strongly_convex_report),
        )
    })


def test_criterion_9_determinism_at_any_parallelism(
    convex_report, nonconvex_report, strongly_convex_report
):
    for name, reference in (
        ("convex_sandwich.json", convex_report),
        ("nonconvex_lower.json", nonconvex_report),
        ("strongly_convex_sandwich.json", strongly_convex_report),
    ):
        serial = run_full_verification(load_config(name))
        parallel = run_full_verification(load_config(name, jobs=2))
        blob_ref = json.dumps(reference, sort_keys=True)
        assert json.dumps(serial, sort_keys=True) == blob_ref
        assert json.dumps(parallel, sort_keys=True) == blob_ref
    announce(9, "criteria 4-6 reports byte-identical on rerun and at jobs=2")
