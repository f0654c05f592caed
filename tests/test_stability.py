"""Stability measurements, growth recursions, and the closed-form bounds."""

import math

import numpy as np
import pytest

from batchstab._series import suffix_products
from batchstab.engine import (
    PairedTrajectory,
    constant_plan,
    custom_plan,
    inverse_t_plan,
    run_paired,
)
from batchstab.errors import ConfigError, RegimeError
from batchstab.problems import (
    convex_huber_instance,
    linear_instance,
    quadratic_nonconvex_instance,
    quadratic_strongly_convex_instance,
    sample_dataset,
    sample_examples,
)
from batchstab.schedule import RealizedSchedule, ScheduleSpec, indicator_matrix, realize
from batchstab.stability import (
    check_growth_recursion,
    contraction_step_sum,
    growth_factors,
    nonconvex_step_sum,
    nonconvex_step_sum_cap,
    on_average_stability,
    stability_bound,
)


def paired(inst, n, T, kind, m, plan, seed, track=False):
    S = sample_dataset(inst, n, seed=seed)
    repl = sample_examples(inst, n, np.random.default_rng(seed + 1))
    sched = realize(ScheduleSpec(kind, n=n, m=m, T=T, seed=seed + 2))
    return run_paired(inst, S, repl, sched, plan, track_grad_sup=track)


def test_gaps_start_at_zero_and_identical_replacements_stay_zero():
    inst = linear_instance(d=3)
    S = sample_dataset(inst, 4, seed=1)
    sched = realize(ScheduleSpec("round_robin", n=4, m=2, T=6))
    pt = run_paired(inst, S, S.examples.copy(), sched, constant_plan(0.3, 6))
    rec = on_average_stability(pt)
    assert rec.per_step_gaps.shape == (7, 4)
    assert np.all(rec.per_step_gaps == 0.0)
    assert rec.final_on_average == 0.0


def test_one_step_full_batch_gap_by_hand():
    inst = linear_instance(d=2)
    n = 3
    S = sample_dataset(inst, n, seed=2)
    repl = sample_examples(inst, n, np.random.default_rng(3))
    sched = realize(ScheduleSpec("full_batch", n=n, m=n, T=1))
    eta1 = 0.7
    pt = run_paired(inst, S, repl, sched, constant_plan(eta1, 1))
    rec = on_average_stability(pt)
    assert rec.per_step_gaps[0] == pytest.approx([0.0] * n)
    for i in range(n):
        expected = eta1 / n * np.linalg.norm(S.examples[i] - repl[i])
        assert rec.per_step_gaps[1, i] == pytest.approx(expected, abs=1e-15)


def test_measured_stability_below_convex_bound_across_schedules():
    inst = convex_huber_instance(d=4, L=1.0, beta=1.0)
    n, T = 10, 40
    plan = constant_plan(0.8, T)  # inside eta < 2/beta
    bound = stability_bound("convex", 1.0, plan.etas(), n, 1, beta=1.0)
    for kind, m in (
        ("full_batch", n),
        ("round_robin", 1),
        ("random_reshuffle", 2),
        ("single_shuffle", 5),
        ("uniform_random", 3),
    ):
        for seed in (10, 20, 30):
            pt = paired(inst, n, T, kind, m, plan, seed)
            rec = on_average_stability(pt)
            assert rec.final_on_average <= bound * (1 + 1e-9)


def test_convex_recursion_on_seeded_configs():
    rng = np.random.default_rng(4)
    for rep in range(20):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 13))
        T = int(rng.integers(1, 50))
        m = int(rng.integers(1, n + 1))
        beta = float(rng.uniform(0.5, 2.0))
        inst = convex_huber_instance(d=d, L=float(rng.uniform(0.5, 2.0)), beta=beta)
        plan = constant_plan(float(rng.uniform(0.05, 1.9)) / beta, T)
        pt = paired(inst, n, T, "uniform_random", m, plan, seed=100 + rep)
        verdict = check_growth_recursion(pt, "convex", L=inst.params.L, beta=beta)
        assert verdict, verdict.violations[:3]


def test_nonconvex_recursion_with_path_gradient_constant():
    rng = np.random.default_rng(5)
    for rep in range(10):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 10))
        T = int(rng.integers(1, 60))
        beta = float(rng.uniform(0.5, 2.0))
        lam = -rng.uniform(0.3, 1.0, size=d) * beta
        inst = quadratic_nonconvex_instance(d=d, beta=beta, lam=lam)
        plan = inverse_t_plan(float(rng.uniform(0.1, 0.99)) / beta, T)
        pt = paired(inst, n, T, "round_robin", 1, plan, seed=200 + rep, track=True)
        verdict = check_growth_recursion(pt, "nonconvex", L=pt.grad_sup, beta=beta)
        assert verdict, verdict.violations[:3]


def test_strongly_convex_recursion_and_contraction_factor():
    gamma = beta = 1.0
    inst = quadratic_strongly_convex_instance(d=3, L=1.0, beta=beta, gamma=gamma)
    n, T = 6, 30
    eta = 1.0 / (2.0 * gamma)  # inside eta <= 2/(beta+gamma)
    plan = constant_plan(eta, T)
    pt = paired(inst, n, T, "round_robin", 1, plan, seed=300)
    verdict = check_growth_recursion(
        pt, "strongly_convex", L=4.0, beta=beta, gamma=gamma
    )
    assert verdict

    gaps = np.linalg.norm(pt.paths[:, 1:, :] - pt.paths[:, :1, :], axis=-1)
    ind = indicator_matrix(pt.schedule)
    factor = 1.0 - eta * gamma / 2.0
    unperturbed = (~ind) & (gaps[:-1] > 1e-12)
    ratios = gaps[1:][unperturbed] / gaps[:-1][unperturbed]
    assert ratios.size
    assert np.all(ratios <= factor * (1 + 1e-12))


def test_unselected_index_keeps_zero_gap():
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    n, T = 5, 3  # T < n with round robin: indices 4, 5 never selected
    S = sample_dataset(inst, n, seed=6)
    repl = sample_examples(inst, n, np.random.default_rng(7))
    sched = realize(ScheduleSpec("round_robin", n=n, m=1, T=T))
    pt = run_paired(inst, S, repl, sched, constant_plan(0.5, T))
    rec = on_average_stability(pt)
    assert np.all(rec.per_step_gaps[:, 3] == 0.0)
    assert np.all(rec.per_step_gaps[:, 4] == 0.0)


def test_stability_bound_values_and_edge_cases():
    # convex: (2 L / n) sum eta = 2 * 1 / 50 * 50 = 2.0
    etas = np.full(100, 0.5)
    assert stability_bound("convex", 1.0, etas, 50, 1, beta=1.0) == pytest.approx(2.0)
    assert stability_bound("convex", 1.0, np.empty(0), 50, 1, beta=1.0) == 0.0
    with pytest.raises(RegimeError):
        stability_bound("convex", 1.0, np.full(3, 2.1), 50, 1, beta=1.0)
    with pytest.raises(RegimeError):
        stability_bound(
            "strongly_convex", 1.0, np.full(3, 1.5), 50, 1, beta=1.0, gamma=1.0
        )


def test_bound_invariant_to_batch_size():
    etas = inverse_t_plan(0.4, 60).etas()
    n = 30
    for cls, kw in (
        ("convex", dict(beta=1.0)),
        ("nonconvex", dict(beta=1.0)),
        ("strongly_convex", dict(beta=1.0, gamma=0.5)),
    ):
        vals = {
            m: stability_bound(cls, 1.2, etas, n, m, **kw) for m in (1, n // 2, n)
        }
        assert vals[1] == vals[n // 2] == vals[n]


def test_constant_step_contraction_sum_identity():
    # direct sum vs closed form at 100 random (C, gamma, T)
    rng = np.random.default_rng(8)
    for _ in range(100):
        gamma = float(rng.uniform(0.1, 3.0))
        C = float(rng.uniform(0.01, 1.9 / gamma))  # keep 1 - C gamma / 2 in (0, 1)
        T = int(rng.integers(1, 400))
        etas = np.full(T, C)
        tail = suffix_products(1.0 - 0.5 * gamma * etas)
        direct = float((etas * tail).sum())
        closed = contraction_step_sum(C, gamma, T)
        assert abs(direct - closed) <= 1e-12 * max(1.0, abs(closed))


def test_strongly_convex_bound_matches_geometric_identity():
    L, gamma, beta, n, T, C = 4.0, 1.0, 1.0, 50, 200, 0.5
    etas = np.full(T, C)
    bound = stability_bound("strongly_convex", L, etas, n, 1, beta=beta, gamma=gamma)
    assert bound == pytest.approx(2 * L / n * contraction_step_sum(C, gamma, T))


def test_decreasing_step_cap_bounds_the_series():
    rng = np.random.default_rng(9)
    for _ in range(60):
        beta = float(rng.uniform(0.2, 3.0))
        C = float(rng.uniform(0.05, 0.99)) / beta
        T = int(rng.integers(1, 10_000))
        etas = C / np.arange(1.0, T + 1.0)
        series = nonconvex_step_sum(etas, beta)
        cap = nonconvex_step_sum_cap(C, beta, T)
        assert series <= cap * (1 + 1e-12)


def test_measured_stability_below_class_bounds_nonconvex_and_sc():
    inst = quadratic_nonconvex_instance(d=3, beta=1.0)
    n, T = 8, 50
    plan = inverse_t_plan(0.9, T)
    pt = paired(inst, n, T, "uniform_random", 2, plan, seed=400, track=True)
    from batchstab.stability import final_on_average_gap

    bound = stability_bound("nonconvex", pt.grad_sup, plan.etas(), n, 2, beta=1.0)
    assert final_on_average_gap(pt) <= bound * (1 + 1e-9)

    inst2 = quadratic_strongly_convex_instance(d=4, L=1.0, beta=1.0, gamma=1.0)
    plan2 = constant_plan(0.5, T)
    pt2 = paired(inst2, n, T, "random_reshuffle", 4, plan2, seed=500, track=True)
    bound2 = stability_bound(
        "strongly_convex", 4.0, plan2.etas(), n, 4, beta=1.0, gamma=1.0
    )
    assert final_on_average_gap(pt2) <= bound2 * (1 + 1e-9)
    assert pt2.grad_sup <= 4.0 * (1 + 1e-9)


def test_recursion_regime_refusals():
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    pt = paired(inst, 4, 5, "round_robin", 1, constant_plan(0.5, 5), seed=600)
    bad = paired(inst, 4, 5, "round_robin", 1, custom_plan([2.5] * 5), seed=601)
    with pytest.raises(RegimeError, match="2/beta"):
        check_growth_recursion(bad, "convex", L=1.0, beta=1.0)
    with pytest.raises(RegimeError, match="beta\\+gamma"):
        check_growth_recursion(bad, "strongly_convex", L=1.0, beta=1.0, gamma=1.0)
    assert check_growth_recursion(pt, "convex", L=1.0, beta=1.0)


def test_growth_factors_per_class_and_refusals():
    etas = np.array([0.5, 0.25])
    assert np.array_equal(growth_factors("convex", etas, 1.0), [1.0, 1.0])
    assert np.array_equal(growth_factors("nonconvex", etas, 2.0), [2.0, 1.5])
    assert np.array_equal(
        growth_factors("strongly_convex", etas, 1.0, 1.0), [0.75, 0.875]
    )
    beta, gamma = 2.0, 0.5
    with pytest.raises(RegimeError, match="2/beta"):
        growth_factors("convex", np.full(3, 2.0 / beta), beta)
    edge = 2.0 / (beta + gamma)
    assert growth_factors("strongly_convex", np.full(3, edge), beta, gamma).size == 3
    with pytest.raises(RegimeError, match="beta\\+gamma"):
        growth_factors("strongly_convex", np.full(3, edge * (1 + 1e-6)), beta, gamma)
    with pytest.raises(ConfigError, match="gamma > 0"):
        growth_factors("strongly_convex", etas, 1.0, 0.0)


@pytest.mark.parametrize(
    "loss_class, eta, gamma",
    [
        ("convex", 2.5, None),
        ("strongly_convex", 1.5, 1.0),
        ("strongly_convex", 0.1, 0.0),
    ],
)
def test_bound_and_recursion_refuse_with_one_message(loss_class, eta, gamma):
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    pt = paired(inst, 4, 5, "round_robin", 1, custom_plan([eta] * 5), seed=602)
    messages = []
    for call in (
        lambda: stability_bound(
            loss_class, 1.0, pt.etas, 4, 1, beta=1.0, gamma=gamma
        ),
        lambda: check_growth_recursion(pt, loss_class, L=1.0, beta=1.0, gamma=gamma),
    ):
        with pytest.raises((RegimeError, ConfigError)) as info:
            call()
        messages.append((type(info.value), str(info.value)))
    assert messages[0] == messages[1]


def _hand_built_paired(gaps, batches):
    """d = 1 paths with the base run at 0, so neighbor i's gap is its value."""
    gaps = np.asarray(gaps, dtype=float)
    paths = np.zeros((gaps.shape[0], gaps.shape[1] + 1, 1))
    paths[:, 1:, 0] = gaps
    sched = RealizedSchedule(batches=np.asarray(batches).reshape(-1, 1), n=gaps.shape[1])
    return PairedTrajectory(
        finals=paths[-1], schedule=sched, etas=np.full(sched.T, 0.5), m=1, paths=paths
    )


def test_convex_recursion_reports_every_violation_in_step_then_index_order():
    # Convex class, L = 1, m = 1, eta = 1/2: the kick is 1 for the selected
    # index and the bound is rhs = gap_t + kick.
    pt = _hand_built_paired(
        gaps=[
            [0.0, 0.0, 0.0],
            [0.5, 2.0, 0.0],  # t=1 selects i=1; i=2 jumps from 0
            [3.5, 3.0, 0.25],  # t=2 selects i=2; i=1 and i=3 grow unselected
            [3.5, 2.0, 1.0],  # t=3 selects i=3; all hold, i=1 with equality
        ],
        batches=[0, 1, 2],
    )
    verdict = check_growth_recursion(pt, "convex", L=1.0, beta=1.0)
    assert verdict.violations == (
        (1, 2, 2.0, 0.0),
        (2, 1, 3.5, 0.5),
        (2, 3, 0.25, 0.0),
    )
    assert verdict.max_slack == 3.0
    assert not verdict


def test_recursion_over_zero_steps_is_vacuous():
    pt = _hand_built_paired(gaps=[[0.0, 0.0]], batches=np.empty(0, dtype=int))
    verdict = check_growth_recursion(pt, "convex", L=1.0, beta=1.0)
    assert verdict.violations == () and verdict.max_slack == 0.0
