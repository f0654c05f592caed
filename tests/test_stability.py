"""Stability measurements, growth recursions, and the closed-form bounds."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from batchstab import engine
from batchstab._series import suffix_products
from batchstab.engine import (
    constant_plan,
    custom_plan,
    inverse_t_plan,
    run_paired,
)
from batchstab.errors import ConfigError, RegimeError
from batchstab.experiments import config_from_dict, run_full_verification
from batchstab.problems import (
    ABS_SLACK,
    REL_SLACK,
    convex_huber_instance,
    custom_smooth_instance,
    linear_instance,
    quadratic_nonconvex_instance,
    quadratic_strongly_convex_instance,
    sample_examples,
)
from batchstab.schedule import (
    VALID_KINDS,
    RealizedSchedule,
    ScheduleSpec,
    realize,
)
from batchstab.stability import (
    GrowthRecursionAudit,
    RecursionVerdict,
    final_on_average_gap,
    growth_factors,
    nonconvex_step_sum_cap,
    stability_bound,
)
from conftest import (
    audit_path, block_of, nonconvex_step_sum, paired_with_path, sample_dataset,
    selected,
)


def _inputs(inst, n, T, kind, m, seed):
    S = sample_dataset(inst, n, seed=seed)
    repl = sample_examples(inst, n, np.random.default_rng(seed + 1))
    sched = realize(ScheduleSpec(kind, n=n, m=m, T=T, seed=seed + 2))
    return S, repl, sched


def paired(inst, n, T, kind, m, plan, seed, track=False):
    """A paired run and its (T+1, n+1, d) path, collected through on_block."""
    S, repl, sched = _inputs(inst, n, T, kind, m, seed)
    return paired_with_path(inst, S, repl, sched, plan, track_grad_sup=track)


def audited(inst, n, T, kind, m, plan, seed, loss_class, beta, gamma=None, track=False):
    """``paired``, with the growth-recursion audit that streamed through its
    on_block hook."""
    S, repl, sched = _inputs(inst, n, T, kind, m, seed)
    audit = GrowthRecursionAudit(loss_class, plan.etas(), sched, beta, gamma)
    pt, path = paired_with_path(
        inst, S, repl, sched, plan, on_block=audit, track_grad_sup=track
    )
    return pt, path, audit


def _gaps(path):
    """(T+1, n) gaps ||w_t - w_t^(i)|| of a (T+1, n+1, d) path."""
    return np.linalg.norm(path[:, 1:, :] - path[:, :1, :], axis=-1)


def test_gaps_start_at_zero_and_identical_replacements_stay_zero():
    inst = linear_instance(d=3)
    S = sample_dataset(inst, 4, seed=1)
    sched = realize(ScheduleSpec("round_robin", n=4, m=2, T=6))
    _, path = paired_with_path(inst, S, S.examples.copy(), sched, constant_plan(0.3, 6))
    gaps = _gaps(path)
    assert gaps.shape == (7, 4)
    assert np.all(gaps == 0.0)
    assert gaps[-1].mean() == 0.0


def test_one_step_full_batch_gap_by_hand():
    inst = linear_instance(d=2)
    n = 3
    S = sample_dataset(inst, n, seed=2)
    repl = sample_examples(inst, n, np.random.default_rng(3))
    sched = realize(ScheduleSpec("full_batch", n=n, m=n, T=1))
    eta1 = 0.7
    _, path = paired_with_path(inst, S, repl, sched, constant_plan(eta1, 1))
    gaps = _gaps(path)
    assert gaps[0] == pytest.approx([0.0] * n)
    for i in range(n):
        expected = eta1 / n * np.linalg.norm(S.examples[i] - repl[i])
        assert gaps[1, i] == pytest.approx(expected, abs=1e-15)


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
            _, path = paired(inst, n, T, kind, m, plan, seed)
            assert _gaps(path)[-1].mean() <= bound * (1 + 1e-9)


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
        _, _, audit = audited(
            inst, n, T, "uniform_random", m, plan, 100 + rep, "convex", beta
        )
        verdict = audit.verdict(inst.L)
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
        pt, _, audit = audited(
            inst, n, T, "round_robin", 1, plan, 200 + rep, "nonconvex", beta, track=True
        )
        verdict = audit.verdict(pt.grad_sup)
        assert verdict, verdict.violations[:3]


def test_strongly_convex_recursion_and_contraction_factor():
    gamma = beta = 1.0
    inst = quadratic_strongly_convex_instance(d=3, L=1.0, beta=beta, gamma=gamma)
    n, T = 6, 30
    eta = 1.0 / (2.0 * gamma)  # inside eta <= 2/(beta+gamma)
    plan = constant_plan(eta, T)
    pt, path, audit = audited(
        inst, n, T, "round_robin", 1, plan, 300, "strongly_convex", beta, gamma
    )
    assert audit.verdict(4.0)

    gaps = _gaps(path)
    ind = selected(pt.schedule)
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
    _, path = paired_with_path(inst, S, repl, sched, constant_plan(0.5, T))
    gaps = _gaps(path)
    assert np.all(gaps[:, 3] == 0.0)
    assert np.all(gaps[:, 4] == 0.0)


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


def _contraction_step_sum(C, gamma, T):
    """Closed form of sum_t C prod_{j>t} (1 - C gamma / 2) for constant
    steps: 2 (1 - (1 - C gamma/2)^T) / gamma."""
    return 2.0 * (1.0 - (1.0 - 0.5 * C * gamma) ** T) / gamma


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
        closed = _contraction_step_sum(C, gamma, T)
        assert abs(direct - closed) <= 1e-12 * max(1.0, abs(closed))


def test_strongly_convex_bound_matches_geometric_identity():
    L, gamma, beta, n, T, C = 4.0, 1.0, 1.0, 50, 200, 0.5
    etas = np.full(T, C)
    bound = stability_bound("strongly_convex", L, etas, n, 1, beta=beta, gamma=gamma)
    assert bound == pytest.approx(2 * L / n * _contraction_step_sum(C, gamma, T))


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
    pt, _ = paired(inst, n, T, "uniform_random", 2, plan, seed=400, track=True)
    bound = stability_bound("nonconvex", pt.grad_sup, plan.etas(), n, 2, beta=1.0)
    assert final_on_average_gap(pt) <= bound * (1 + 1e-9)

    inst2 = quadratic_strongly_convex_instance(d=4, L=1.0, beta=1.0, gamma=1.0)
    plan2 = constant_plan(0.5, T)
    pt2, _ = paired(inst2, n, T, "random_reshuffle", 4, plan2, seed=500, track=True)
    bound2 = stability_bound(
        "strongly_convex", 4.0, plan2.etas(), n, 4, beta=1.0, gamma=1.0
    )
    assert final_on_average_gap(pt2) <= bound2 * (1 + 1e-9)
    assert pt2.grad_sup <= 4.0 * (1 + 1e-9)


def test_recursion_regime_refusals():
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    bad, _ = paired(inst, 4, 5, "round_robin", 1, custom_plan([2.5] * 5), seed=601)
    with pytest.raises(RegimeError, match="2/beta"):
        GrowthRecursionAudit("convex", bad.etas, bad.schedule, beta=1.0)
    with pytest.raises(RegimeError, match="beta\\+gamma"):
        GrowthRecursionAudit("strongly_convex", bad.etas, bad.schedule, 1.0, 1.0)
    plan = constant_plan(0.5, 5)
    _, _, audit = audited(inst, 4, 5, "round_robin", 1, plan, 600, "convex", 1.0)
    assert audit.verdict(1.0)


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
    pt, _ = paired(inst, 4, 5, "round_robin", 1, custom_plan([eta] * 5), seed=602)
    messages = []
    for call in (
        lambda: stability_bound(
            loss_class, 1.0, pt.etas, 4, 1, beta=1.0, gamma=gamma
        ),
        lambda: GrowthRecursionAudit(
            loss_class, pt.etas, pt.schedule, beta=1.0, gamma=gamma
        ),
    ):
        with pytest.raises((RegimeError, ConfigError)) as info:
            call()
        messages.append((type(info.value), str(info.value)))
    assert messages[0] == messages[1]


def _hand_built_verdict(gaps, batches):
    """The convex verdict, L = 1 and eta = 1/2, of a d = 1 path with the base
    run at 0, so neighbor i's gap is its value, fed to the audit whole."""
    gaps = np.asarray(gaps, dtype=float)
    path = np.zeros((gaps.shape[0], gaps.shape[1] + 1, 1))
    path[:, 1:, 0] = gaps
    sched = RealizedSchedule(batches=np.asarray(batches).reshape(-1, 1), n=gaps.shape[1])
    return audit_path(path, sched, np.full(sched.T, 0.5), "convex", 1.0, beta=1.0)


def test_convex_recursion_reports_every_violation_in_step_then_index_order():
    # Convex class, L = 1, m = 1, eta = 1/2: the kick is 1 for the selected
    # index and the bound is rhs = gap_t + kick.
    verdict = _hand_built_verdict(
        gaps=[
            [0.0, 0.0, 0.0],
            [0.5, 2.0, 0.0],  # t=1 selects i=1; i=2 jumps from 0
            [3.5, 3.0, 0.25],  # t=2 selects i=2; i=1 and i=3 grow unselected
            [3.5, 2.0, 1.0],  # t=3 selects i=3; all hold, i=1 with equality
        ],
        batches=[0, 1, 2],
    )
    assert verdict.violations == (
        (1, 2, 2.0, 0.0),
        (2, 1, 3.5, 0.5),
        (2, 3, 0.25, 0.0),
    )
    assert verdict.max_slack == 3.0
    assert not verdict


def test_recursion_over_zero_steps_is_vacuous():
    verdict = _hand_built_verdict(gaps=[[0.0, 0.0]], batches=np.empty(0, dtype=int))
    assert verdict.violations == () and verdict.max_slack == 0.0


def _recursion_by_steps(pt, paths, loss_class, L, beta=None, gamma=None):
    """Reference: the recursion checked one step at a time over the paired
    run's (T+1, n+1, d) paths, with the selected pairs read from the (T, n)
    indicator matrix."""
    etas = pt.etas
    factors = growth_factors(loss_class, etas, beta, gamma)
    picked = selected(pt.schedule)
    kick_scale = 2.0 * L / pt.schedule.m
    gap = np.linalg.norm(paths[0, 1:, :] - paths[0, :1, :], axis=-1)
    violations = []
    slack = np.empty(etas.size)
    for t in range(etas.size):
        rhs = factors[t] * gap + kick_scale * etas[t] * picked[t]
        gap = np.linalg.norm(paths[t + 1, 1:, :] - paths[t + 1, :1, :], axis=-1)
        margin = gap - (rhs * (1.0 + REL_SLACK) + ABS_SLACK)
        violations.extend(
            (t + 1, int(i) + 1, float(gap[i]), float(rhs[i]))
            for i in np.flatnonzero(margin > 0)
        )
        slack[t] = (gap - rhs).max()
    max_slack = float(slack.max()) if slack.size else 0.0
    return RecursionVerdict(loss_class, tuple(violations), max_slack)


_CLASS_OF = {
    "linear": "convex",
    "convex_huber": "convex",
    "quadratic_nonconvex": "nonconvex",
    "quadratic_strongly_convex": "strongly_convex",
    # no class bounds it; its audit is the nonconvex arithmetic on its paths
    "custom_smooth": "nonconvex",
}


def _instance_of(family, d, beta):
    return {
        "linear": lambda: linear_instance(d=d, beta=beta),
        "convex_huber": lambda: convex_huber_instance(d=max(d, 2), L=1.0, beta=beta),
        "quadratic_nonconvex": lambda: quadratic_nonconvex_instance(d=d, beta=beta),
        "quadratic_strongly_convex": lambda: quadratic_strongly_convex_instance(
            d=d, L=1.0, beta=beta, gamma=beta
        ),
        "custom_smooth": lambda: custom_smooth_instance(
            d=d,
            loss_fn=lambda w, z: np.log(np.cosh(w - z)).sum(axis=-1),
            grad_fn=lambda w, z: np.tanh(w - z),
            scales=np.full(d, 0.7),
            beta=beta,
        ),
    }[family]()


def _schedule(kind, n, m, T, rng, seed):
    """A realized schedule; ``repeated`` is a custom one whose first row
    selects one index twice."""
    if kind in ("custom", "repeated"):
        rows = np.array([rng.permutation(n)[:m] for _ in range(T)], dtype=int)
        rows = rows.reshape(T, m)
        if kind == "repeated" and T and m > 1:
            rows[0, 1] = rows[0, 0]
        return RealizedSchedule(batches=rows, n=n)
    return realize(ScheduleSpec(kind, n=n, m=m, T=T, seed=seed))


@seed(23167080559985265968183206652541421236730145201845428309629156026113843146999484607323736317515516935082816420804354)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(_CLASS_OF)),
    kind=st.sampled_from((*VALID_KINDS, "repeated")),
    n=st.integers(min_value=3, max_value=9),
    d=st.integers(min_value=1, max_value=4),
    T=st.integers(min_value=0, max_value=23),
    m_of=st.sampled_from(("1", "3", "n")),
    bound=st.sampled_from(("given", "observed", "shrunk")),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_streamed_audit_equals_the_step_by_step_check(
    family, kind, n, d, T, m_of, bound, seed
):
    # B = 1 is the step-by-step order; 2 and 7 put block edges inside T, and
    # T + 1 runs every step in one block.
    m = n if kind == "full_batch" else {"1": 1, "3": 3, "n": n}[m_of]
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.5, 2.0))
    inst = _instance_of(family, d, beta)
    d = inst.d
    S = sample_dataset(inst, n, seed=seed)
    repl = sample_examples(inst, n, rng)
    plan = custom_plan(rng.uniform(0.0, 1.0 / beta, size=T))
    sched = _schedule(kind, n, m, T, rng, seed)
    pt, path = paired_with_path(inst, S, repl, sched, plan, track_grad_sup=True)
    args = (_CLASS_OF[family], inst.beta, inst.gamma)
    L = inst.L if inst.L is not None else 1.0
    if bound == "observed" and pt.grad_sup is not None:
        L = pt.grad_sup
    elif bound == "shrunk":
        # a contraction no run obeys and a tiny kick: both the pairs settled
        # as their block arrives and those settled at the end can fail
        L, args = 1e-3 * L, ("strongly_convex", beta, beta)
    expected = _recursion_by_steps(pt, path, args[0], L, *args[1:])
    assert audit_path(path, sched, plan.etas(), args[0], L, *args[1:]) == expected
    for B in (1, 2, 7, T + 1):
        audit = GrowthRecursionAudit(args[0], plan.etas(), sched, *args[1:])
        with block_of(B):
            bare = run_paired(
                inst, S, repl, sched, plan, track_grad_sup=True, on_block=audit
            )
        assert np.array_equal(bare.finals, pt.finals)
        # repr tells every float apart bit for bit, 0.0 from -0.0 too
        assert repr(audit.verdict(L)) == repr(expected), B


def test_a_neighbor_never_selected_holds_the_largest_slack_at_zero():
    # round_robin with T m < n never selects the last two neighbors, so the
    # streamed audit never reads their rows; their gaps are 0.0 against a
    # bound of 0.0.  Every replacement differs from its example, so every
    # selected pair holds strictly and the largest slack is that 0.0, as it
    # is on the whole paths.
    inst = quadratic_strongly_convex_instance(d=3, L=1.0, beta=1.0, gamma=1.0)
    n, m, T = 12, 2, 5
    S = sample_dataset(inst, n, seed=64)
    repl = -S.examples
    sched = realize(ScheduleSpec("round_robin", n=n, m=m, T=T))
    plan = constant_plan(0.5, T)
    pt, path = paired_with_path(inst, S, repl, sched, plan)
    expected = _recursion_by_steps(pt, path, "strongly_convex", 10.0, 1.0, 1.0)
    assert expected.violations == () and repr(expected.max_slack) == "0.0"
    for B in (1, 2, T + 1):
        audit = GrowthRecursionAudit("strongly_convex", plan.etas(), sched, 1.0, 1.0)
        seen = []

        def hook(rows, runs):
            seen.append(runs.size)
            audit(rows, runs)

        with block_of(B):
            run_paired(inst, S, repl, sched, plan, on_block=hook)
        assert max(seen) == 1 + T * m < n + 1, B
        assert repr(audit.verdict(10.0)) == repr(expected), B


def test_violations_settled_in_stream_and_at_the_end_merge_in_step_order():
    # A linear run keeps an unselected pair's gap, so a strongly convex
    # contraction fails it as its block arrives; a tiny L fails the kicked
    # pairs, which are settled at the end.
    inst = linear_instance(d=2)
    n, T = 4, 12
    S = sample_dataset(inst, n, seed=60)
    repl = sample_examples(inst, n, np.random.default_rng(61))
    sched = realize(ScheduleSpec("round_robin", n=n, m=1, T=T))
    plan = constant_plan(0.5, T)
    pt, path = paired_with_path(inst, S, repl, sched, plan)
    expected = _recursion_by_steps(pt, path, "strongly_convex", 1e-3, 1.0, 1.0)
    audit = GrowthRecursionAudit("strongly_convex", plan.etas(), sched, 1.0, 1.0)
    with mock.patch.object(engine, "_BLOCK_ELEMENTS", 3 * (n + 2) * 2):
        run_paired(inst, S, repl, sched, plan, on_block=audit)
    verdict = audit.verdict(1e-3)
    assert verdict == expected
    kicked = {(t, i) for t, i, _, _ in verdict.violations if i == (t - 1) % n + 1}
    assert kicked and len(kicked) < len(verdict.violations)
    assert [v[:2] for v in verdict.violations] == sorted(v[:2] for v in verdict.violations)


def test_an_audit_that_missed_steps_gives_no_verdict():
    inst = linear_instance(d=2)
    pt, path = paired(inst, 4, 5, "round_robin", 1, constant_plan(0.5, 5), seed=62)
    audit = GrowthRecursionAudit("convex", pt.etas, pt.schedule, beta=1.0)
    audit(path[:3], np.arange(pt.n + 1))
    with pytest.raises(ConfigError, match="saw 2 of 5 steps"):
        audit.verdict(1.0)


def test_an_audit_refuses_a_block_that_leaves_out_a_selected_neighbor():
    # round_robin m = 1 selects neighbor 1 at step 1; a block without its run
    # would count its gap as 0.0.
    inst = linear_instance(d=2)
    pt, path = paired(inst, 4, 5, "round_robin", 1, constant_plan(0.5, 5), seed=62)
    audit = GrowthRecursionAudit("convex", pt.etas, pt.schedule, beta=1.0)
    runs = np.array([0, 2, 3, 4])
    with pytest.raises(ConfigError, match="leaves out a neighbor selected in it"):
        audit(path[:2, runs], runs)


def test_growth_recursion_check_does_not_keep_the_paths():
    # The (T+1, n+1, d) paths alone would be 12.3 MiB here.
    cfg = config_from_dict({
        "instance": {"family": "quadratic_strongly_convex", "d": 4, "L": 1.0,
                     "beta": 1.0, "gamma": 1.0},
        "n": 2000,
        "plan": {"kind": "constant", "eta": 0.5, "T": 200},
        "schedules": [{"kind": "round_robin", "m": 1}],
        "checks": ["growth_recursion"],
        "trials": 1,
        "master_seed": 63,
    })
    tracemalloc.start()
    try:
        report = run_full_verification(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["schedules"]["round_robin_m1"]["growth_recursion"]["status"] == "pass"
    assert peak < 4 * 2**20
