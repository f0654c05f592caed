"""Engine: the iterate map, paired execution, and closed-form oracles."""

import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from batchstab import engine
from batchstab.engine import (
    closed_form_final,
    constant_plan,
    custom_plan,
    inverse_t_plan,
    run,
    run_final,
    run_paired,
)
from batchstab.errors import (
    AnalyticRegionError,
    ConfigError,
    DivergenceError,
    RegimeError,
)
from batchstab.problems import (
    ConvexHuberInstance,
    ProblemInstance,
    QuadraticStronglyConvexInstance,
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
from batchstab.stability import GrowthRecursionAudit
from conftest import (
    audit_path,
    block_of,
    chunk_of,
    paired_with_path,
    reference_path,
    sample_dataset,
    selected,
)


def test_linear_final_iterate_coordinatewise():
    inst = linear_instance(d=3)
    S = sample_dataset(inst, 5, seed=1)
    plan = inverse_t_plan(0.7, 8)
    sched = realize(ScheduleSpec("uniform_random", n=5, m=2, T=8, seed=4))
    traj = run(inst, S, sched, plan)
    etas = plan.etas()
    expected = inst.w1.copy()
    for t in range(8):
        batch = S.examples[sched.batches[t]]
        expected = expected - etas[t] / 2 * batch.sum(axis=0)
    assert traj.iterates[-1] == pytest.approx(list(expected), abs=1e-14)


def test_zero_step_sizes_freeze_the_iterates():
    inst = linear_instance(d=2)
    S = sample_dataset(inst, 3, seed=2)
    plan = custom_plan([0.0, 0.0, 0.0])
    sched = realize(ScheduleSpec("round_robin", n=3, m=1, T=3))
    traj = run(inst, S, sched, plan)
    assert np.array_equal(traj.iterates, np.tile(inst.w1, (4, 1)))


def test_nonconvex_run_matches_the_explicit_product_form():
    # Independent route: evaluate the decreasing-step closed form with naive
    # python loops (O(T^2) products) and compare against the engine.
    beta, c, d, n, T = 2.0, 0.8, 3, 6, 12
    w1 = np.array([0.3, -0.2, 0.1])
    inst = quadratic_nonconvex_instance(d=d, beta=beta, lam=(-2.0, -1.0, -0.5), w1=w1)
    S = sample_dataset(inst, n, seed=3)
    m = 2
    sched = realize(ScheduleSpec("random_reshuffle", n=n, m=m, T=T, seed=9))
    plan = inverse_t_plan(c / beta, T)
    lam = np.array(inst.lam)

    expected = np.ones(d)
    for t in range(1, T + 1):
        expected *= 1.0 - (c / (beta * t)) * lam
    expected = expected * w1
    for t in range(1, T + 1):
        prod = np.ones(d)
        for j in range(t + 1, T + 1):
            prod *= 1.0 - (c / (beta * j)) * lam
        batch_sum = S.examples[sched.batches[t - 1]].sum(axis=0)
        expected = expected + (c / (m * beta)) * (1.0 / t) * prod * lam * batch_sum

    traj = run(inst, S, sched, plan)
    rel = np.linalg.norm(traj.iterates[-1] - expected) / (1 + np.linalg.norm(expected))
    assert rel < 1e-10


def test_strongly_convex_closed_form_from_zero_start():
    beta = gamma = 1.0
    inst = quadratic_strongly_convex_instance(d=2, L=1.0, beta=beta, gamma=gamma)
    n, T, m = 4, 9, 2
    c = 0.9
    eta = c / (beta + gamma)
    S = sample_dataset(inst, n, seed=5)
    sched = realize(ScheduleSpec("single_shuffle", n=n, m=m, T=T, seed=2))
    plan = constant_plan(eta, T)
    lam = np.array(inst.lam)
    expected = np.zeros(2)
    for t in range(1, T + 1):
        batch_sum = S.examples[sched.batches[t - 1]].sum(axis=0)
        expected += (
            (c / ((beta + gamma) * m))
            * (1.0 - c * lam / (beta + gamma)) ** (T - t)
            * lam
            * batch_sum
        )
    out = closed_form_final(inst, S, sched, plan)
    assert out == pytest.approx(list(expected), abs=1e-13)
    assert run_final(inst, S, sched, plan) == pytest.approx(list(expected), abs=1e-12)


@pytest.mark.parametrize(
    "family", ["linear", "convex_huber", "quadratic_nonconvex", "quadratic_strongly_convex"]
)
def test_run_equals_closed_form_on_random_configs(family):
    rng = np.random.default_rng(17)
    kinds = ["full_batch", "round_robin", "random_reshuffle", "single_shuffle", "uniform_random"]
    for rep in range(25):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 17))
        T = int(rng.integers(0, 60))
        kind = kinds[rep % len(kinds)]
        m = n if kind == "full_batch" else int(rng.integers(1, n + 1))
        beta = float(rng.uniform(0.5, 3.0))
        if family == "linear":
            inst = linear_instance(d=d, beta=beta)
            plan = constant_plan(float(rng.uniform(0.01, 1.0)), T)
        elif family == "convex_huber":
            inst = convex_huber_instance(d=d, L=float(rng.uniform(0.5, 2.0)), beta=beta)
            plan = constant_plan(float(rng.uniform(0.01, 1.0)) / beta, T)
        elif family == "quadratic_nonconvex":
            lam = -rng.uniform(0.2, 1.0, size=d) * beta
            inst = quadratic_nonconvex_instance(d=d, beta=beta, lam=lam)
            plan = inverse_t_plan(float(rng.uniform(0.1, 1.0)) / beta, T)
        else:
            gamma = beta * float(rng.uniform(0.5, 1.0))
            inst = quadratic_strongly_convex_instance(d=d, L=1.0, beta=beta, gamma=gamma)
            plan = constant_plan(float(rng.uniform(0.1, 1.0)) / (beta + gamma), T)
        S = sample_dataset(inst, n, seed=int(rng.integers(0, 2**31)))
        sched = realize(ScheduleSpec(kind, n=n, m=m, T=T, seed=int(rng.integers(0, 2**31))))
        w_run = run_final(inst, S, sched, plan)
        w_cf = closed_form_final(inst, S, sched, plan)
        rel = np.linalg.norm(w_run - w_cf) / (1 + np.linalg.norm(w_cf))
        assert rel < 1e-9, (family, kind, d, n, T)


def test_paired_run_with_original_replacements_stays_identical():
    # Each neighbor's replacement is its own example, so every paired run is
    # the base run bit for bit, and the base run is the single run, at every
    # block size.  At the default tau = 0.5 the iterates keep to the Huber
    # band; at tau = 0.3 the slope is clipped at steps 3 to 9 and not after.
    d, n, T = 4, 6, 15
    for tau, first, last in ((0.5, None, None), (0.3, 2, 8)):
        inst = convex_huber_instance(d=d, L=1.0, beta=1.0, tau=tau)
        S = sample_dataset(inst, n, seed=7)
        plan = constant_plan(0.4, T)
        sched = realize(ScheduleSpec("uniform_random", n=n, m=3, T=T, seed=8))
        single = reference_path(inst, S, sched, plan.etas())
        u = np.abs(single[:-1, -1:] - inst.w1[-1] - S.examples[sched.batches, -1])
        clipped = np.flatnonzero((u > tau).any(axis=1))
        assert (clipped.min(initial=T), clipped.max(initial=-1)) == (
            (T, -1) if first is None else (first, last)
        )
        for B in (1, 2, 7, T):
            with block_of(B):
                _, path = paired_with_path(inst, S, S.examples.copy(), sched, plan)
                iterates = run(inst, S, sched, plan).iterates
                final = run_final(inst, S, sched, plan)
            case = (tau, B)
            assert np.array_equal(path, np.broadcast_to(path[:, :1], path.shape)), case
            assert np.array_equal(path[:, 0], iterates), case
            assert np.array_equal(path[-1, 0], final), case


def _paired_by_explicit_stack(inst, S, repl, sched, etas, track):
    """Reference: every neighbor holds its own copy of the dataset."""
    n = S.n
    stack = np.repeat(S.examples[None, :, :], n + 1, axis=0)
    stack[np.arange(1, n + 1), np.arange(n)] = repl
    W = np.repeat(inst.w1[None, :], n + 1, axis=0)
    path = [W]
    sup = float(inst.grad_sup_norm(W).max()) if track else None
    for t, eta in enumerate(etas):
        W = W - eta * inst.batch_grad_mean(W, stack[:, sched.batches[t], :])
        path.append(W)
        if track:
            sup = max(sup, float(inst.grad_sup_norm(W).max()))
    return W, np.stack(path), sup


def _smooth_custom_instance(d):
    def loss_fn(w, z):
        return np.log(np.cosh(w - z)).sum(axis=-1)

    def grad_fn(w, z):
        shape = np.broadcast_shapes(w.shape, z.shape)
        return np.broadcast_to(np.tanh(w - z), shape).copy()

    return custom_smooth_instance(
        d=d, loss_fn=loss_fn, grad_fn=grad_fn, scales=np.full(d, 0.7), beta=1.0
    )


@pytest.mark.parametrize(
    "family",
    ["linear", "convex_huber", "quadratic_nonconvex", "quadratic_strongly_convex",
     "custom_smooth"],
)
def test_paired_run_is_bitwise_equal_to_the_explicit_stack(family):
    # m >= 8 matters for convex_huber: its batch mean sums in an order that
    # depends on the memory layout of the batch.
    n, d, T = 12, 9, 17
    inst = {
        "linear": lambda: linear_instance(d=d),
        "convex_huber": lambda: convex_huber_instance(d=d, L=1.5, beta=2.0),
        "quadratic_nonconvex": lambda: quadratic_nonconvex_instance(d=d, beta=1.0),
        "quadratic_strongly_convex": lambda: quadratic_strongly_convex_instance(
            d=d, L=1.0, beta=1.0, gamma=0.5
        ),
        "custom_smooth": lambda: _smooth_custom_instance(d),
    }[family]()
    plan = inverse_t_plan(0.4, T)
    rng = np.random.default_rng(31)
    S = sample_dataset(inst, n, seed=32)
    repl = sample_examples(inst, n, rng)
    track = family.startswith("quadratic")
    cases = [("full_batch", n)] + [
        (kind, m)
        for kind in ("round_robin", "custom", "single_shuffle", "random_reshuffle",
                     "uniform_random")
        for m in (1, 3, 8, 10, n)
    ]
    for kind, m in cases:
        custom = None
        if kind == "custom":
            custom = tuple(
                tuple(int(i) + 1 for i in rng.permutation(n)[:m]) for _ in range(T)
            )
        sched = realize(ScheduleSpec(kind, n=n, m=m, T=T, seed=33, custom_indices=custom))
        finals, paths, sup = _paired_by_explicit_stack(
            inst, S, repl, sched, plan.etas(), track
        )
        pt, path = paired_with_path(inst, S, repl, sched, plan, track_grad_sup=True)
        assert np.array_equal(pt.finals, finals), (kind, m)
        assert np.array_equal(path, paths), (kind, m)
        assert pt.grad_sup == sup, (kind, m)


def test_paired_run_patches_every_slot_of_a_repeated_index():
    # An index held by two, three or all four slots of a batch, with the
    # patched batches built one slot per chunk or all in one.
    repeats = ([[2, 2, 0], [1, 3, 1]], [[2, 2, 0, 1], [1, 3, 1, 1], [0, 0, 0, 0]])
    for family in ("convex_huber", "quadratic_nonconvex", "custom_smooth"):
        inst = _instance_of(family, 3, 1.0)
        S = sample_dataset(inst, 4, seed=34)
        repl = sample_examples(inst, 4, np.random.default_rng(35))
        for batches in repeats:
            sched = RealizedSchedule(batches=np.array(batches), n=4)
            plan = constant_plan(0.5, sched.T)
            finals, paths, _ = _paired_by_explicit_stack(
                inst, S, repl, sched, plan.etas(), False
            )
            for width in (1, sched.m):
                with chunk_of(width):
                    pt, path = paired_with_path(inst, S, repl, sched, plan)
                case = (family, sched.m, width)
                assert np.array_equal(pt.finals, finals), case
                assert np.array_equal(path, paths), case


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_paired_run_memory_does_not_grow_with_n_squared():
    # An (n+1, n, d) copy of the data would be about 128 MiB here.
    d = 4
    inst = quadratic_strongly_convex_instance(d=d, L=1.0, beta=1.0, gamma=1.0)
    n, T = 2000, 5
    S = sample_dataset(inst, n, seed=36)
    repl = sample_examples(inst, n, np.random.default_rng(37))
    sched = realize(ScheduleSpec("round_robin", n=n, m=1, T=T))
    plan = constant_plan(0.5, T)
    assert _peak_bytes(
        lambda: run_paired(inst, S, repl, sched, plan)
    ) < 8 * 2**20

    # Audited through on_block, the run hands over only the T + 1 rows it
    # steps.  A block gathered back to all n + 1 runs, and the audit's gap
    # norms over them, would hold several (n + 1, d) arrays at once.
    def audited():
        audit = GrowthRecursionAudit("strongly_convex", plan.etas(), sched, 1.0, 1.0)
        run_paired(inst, S, repl, sched, plan, on_block=audit)
        assert audit.verdict(1.0)

    assert _peak_bytes(audited) < 3 * (n + 1) * d * 8

    # full_batch steps all n + 1 runs from its first step; one (n + 1, n, d)
    # patched batch per step would be 7.6 MiB here.
    n = 500
    S = sample_dataset(inst, n, seed=38)
    repl = sample_examples(inst, n, np.random.default_rng(39))
    sched = realize(ScheduleSpec("full_batch", n=n, m=n, T=2))
    assert _peak_bytes(
        lambda: run_paired(inst, S, repl, sched, constant_plan(0.5, 2))
    ) < 2 * 2**20


def test_full_batch_linear_paired_gap_closed_form():
    inst = linear_instance(d=3)
    n, T = 5, 7
    S = sample_dataset(inst, n, seed=9)
    repl = sample_examples(inst, n, np.random.default_rng(10))
    plan = inverse_t_plan(0.3, T)
    sched = realize(ScheduleSpec("full_batch", n=n, m=n, T=T))
    pt = run_paired(inst, S, repl, sched, plan)
    total_eta = plan.etas().sum()
    for i in range(n):
        expected = total_eta / n * np.linalg.norm(S.examples[i] - repl[i])
        gap = np.linalg.norm(pt.finals[i + 1] - pt.finals[0])
        assert gap == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_trajectories_diverge_only_after_first_selection():
    inst = quadratic_strongly_convex_instance(d=3, L=1.0, beta=1.0, gamma=1.0)
    n, T = 6, 12
    S = sample_dataset(inst, n, seed=11)
    repl = sample_examples(inst, n, np.random.default_rng(12))
    sched = realize(ScheduleSpec("round_robin", n=n, m=1, T=T))
    plan = constant_plan(0.5, T)
    _, path = paired_with_path(inst, S, repl, sched, plan)
    ind = selected(sched)
    for i in range(n):
        hits = np.nonzero(ind[:, i])[0]
        first = hits[0] if hits.size else T
        base = path[: first + 1, 0, :]
        mine = path[: first + 1, i + 1, :]
        assert np.array_equal(base, mine)
        if hits.size and not np.array_equal(S.examples[i], repl[i]):
            assert not np.allclose(path[first + 1, i + 1], path[first + 1, 0])


def test_huber_iterates_stay_inside_the_invariant_region():
    inst = convex_huber_instance(d=3, L=1.0, beta=2.0)
    tau = inst.tau
    n, T = 8, 200
    S = sample_dataset(inst, n, seed=13)
    plan = constant_plan(1.0 / 2.0, T)  # eta = 1/beta, the regime edge
    sched = realize(ScheduleSpec("uniform_random", n=n, m=2, T=T, seed=14))
    traj = run(inst, S, sched, plan)
    drift = np.abs(traj.iterates[:, -1] - inst.w1[-1]).max()
    assert drift <= tau / 2 * (1 + 1e-12)


def test_divergence_error_names_the_step():
    inst = quadratic_nonconvex_instance(d=2, beta=1.0)
    S = sample_dataset(inst, 3, seed=15)
    sched = realize(ScheduleSpec("full_batch", n=3, m=3, T=500))
    plan = constant_plan(1e6, 500)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=r"step \d+"):
        run(inst, S, sched, plan)


def test_input_validation():
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    S = sample_dataset(inst, 4, seed=16)
    sched = realize(ScheduleSpec("round_robin", n=4, m=1, T=5))
    with pytest.raises(ConfigError, match="does not match"):
        run(inst, S, sched, constant_plan(0.1, 6))
    other = sample_dataset(inst, 5, seed=17)
    with pytest.raises(ConfigError, match="n=4"):
        run(inst, other, sched, constant_plan(0.1, 5))


def test_closed_form_refuses_huber_outside_regime():
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    S = sample_dataset(inst, 4, seed=18)
    sched = realize(ScheduleSpec("full_batch", n=4, m=4, T=3))
    with pytest.raises(RegimeError, match="1/beta"):
        closed_form_final(inst, S, sched, constant_plan(1.5, 3))


def test_custom_smooth_runs_but_has_no_closed_form():
    d = 2

    def loss_fn(w, z):
        return 0.5 * ((w - z) ** 2).sum(axis=-1)

    def grad_fn(w, z):
        return np.broadcast_to(w - z, np.broadcast_shapes(w.shape, z.shape)).copy()

    inst = custom_smooth_instance(
        d=d, loss_fn=loss_fn, grad_fn=grad_fn, scales=np.ones(d), beta=1.0
    )
    S = sample_dataset(inst, 3, seed=19)
    sched = realize(ScheduleSpec("round_robin", n=3, m=1, T=4))
    traj = run(inst, S, sched, constant_plan(0.5, 4))
    assert np.isfinite(traj.iterates[-1]).all()
    from batchstab.errors import CapabilityError

    with pytest.raises(CapabilityError):
        closed_form_final(inst, S, sched, constant_plan(0.5, 4))


def test_t_zero_returns_the_start_point():
    inst = linear_instance(d=2)
    S = sample_dataset(inst, 3, seed=20)
    sched = realize(ScheduleSpec("round_robin", n=3, m=1, T=0))
    plan = constant_plan(0.5, 0)
    assert np.array_equal(run(inst, S, sched, plan).iterates[-1], inst.w1)
    assert np.array_equal(closed_form_final(inst, S, sched, plan), inst.w1)
    # the engine starts from instance.w1 but hands out none of its memory
    assert not np.shares_memory(run_final(inst, S, sched, plan), inst.w1)


def _instance_of(family, d, beta):
    return {
        "linear": lambda: linear_instance(d=d, beta=beta),
        "convex_huber": lambda: convex_huber_instance(d=max(d, 2), L=1.0, beta=beta),
        "quadratic_nonconvex": lambda: quadratic_nonconvex_instance(d=d, beta=beta),
        "quadratic_strongly_convex": lambda: quadratic_strongly_convex_instance(
            d=d, L=1.0, beta=beta, gamma=beta
        ),
        "custom_smooth": lambda: _smooth_custom_instance(d),
    }[family]()


@seed(5552568976131527447537813082421662586647285889278857037232327274745311638918541784517762056797467003552621047065052)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(
        ["linear", "convex_huber", "quadratic_nonconvex", "quadratic_strongly_convex",
         "custom_smooth"]
    ),
    kind=st.sampled_from(VALID_KINDS),
    n=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=5),
    T=st.integers(min_value=0, max_value=23),
    m_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(family="quadratic_nonconvex", kind="uniform_random", n=12, d=1, T=23, m_frac=0.8, seed=5)
@example(family="linear", kind="full_batch", n=12, d=1, T=9, m_frac=1.0, seed=6)
@example(family="custom_smooth", kind="random_reshuffle", n=11, d=1, T=17, m_frac=1.0, seed=7)
def test_block_size_does_not_change_any_result(family, kind, n, d, T, m_frac, seed):
    # B = 1 is the step-by-step order; 2 and 7 put block edges inside T, and
    # T + 1 runs every step in one block.  At d = 1 and m >= 9 a mean whose
    # batch axis were the innermost one would add pairwise, not in order.
    m = n if kind == "full_batch" else 1 + int(m_frac * (n - 1))
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.5, 2.0))
    inst = _instance_of(family, d, beta)
    d = inst.d
    S = sample_dataset(inst, n, seed=seed)
    repl = sample_examples(inst, n, rng)
    plan = custom_plan(rng.uniform(0.0, 1.0 / beta, size=T))
    custom = None
    if kind == "custom":
        custom = tuple(
            tuple(int(i) + 1 for i in rng.permutation(n)[:m]) for _ in range(T)
        )
    sched = realize(ScheduleSpec(kind, n=n, m=m, T=T, seed=seed, custom_indices=custom))
    _, paths, _ = _paired_by_explicit_stack(inst, S, repl, sched, plan.etas(), False)

    results = []
    for B in (1, 2, 7, T + 1):
        # A paired block patches its batches one slot per chunk, two slots
        # per chunk (the last chunk short when m is odd), or all in one.
        for width in (1, 2, m):
            audit = GrowthRecursionAudit("nonconvex", plan.etas(), sched, beta)
            with block_of(B), chunk_of(width):
                iterates = run(inst, S, sched, plan).iterates
                final = run_final(inst, S, sched, plan)
                pt, path = paired_with_path(
                    inst, S, repl, sched, plan, on_block=audit, track_grad_sup=True
                )
            case = (B, width)
            assert np.array_equal(path, paths), case
            verdict = audit.verdict(1.0)
            whole = audit_path(path, sched, plan.etas(), "nonconvex", 1.0, beta)
            assert verdict == whole, case
            results.append((iterates, final, path, pt.finals, pt.grad_sup, verdict))
    for got in results[1:]:
        for a, b in zip(results[0][:-2], got[:-2]):
            assert np.array_equal(a, b)
        assert got[-2:] == results[0][-2:]


def _first_bad_step(path):
    """1-based step of the first non-finite row of a (T+1, d) path."""
    for t in range(1, path.shape[0]):
        if not np.isfinite(path[t]).all():
            return t
    return None


@pytest.mark.parametrize("where", ["first", "mid", "last"])
def test_divergence_names_the_first_non_finite_step_wherever_it_falls(where):
    inst = quadratic_nonconvex_instance(d=2, beta=1.0)
    S = sample_dataset(inst, 3, seed=15)
    sched = realize(ScheduleSpec("full_batch", n=3, m=3, T=120))
    plan = constant_plan(1e6, 120)
    s = _first_bad_step(reference_path(inst, S, sched, plan.etas()))
    assert s is not None and 3 < s < sched.T - 3
    # Step s is 0-based index s - 1: first of its block when B = s - 1,
    # last when B = s, inside it when B = s + 2.
    B = {"first": s - 1, "mid": s + 2, "last": s}[where]
    repl = sample_examples(inst, S.n, np.random.default_rng(16))
    with np.errstate(over="ignore", invalid="ignore"):
        with block_of(B):
            for call in (
                lambda: run(inst, S, sched, plan),
                lambda: run_final(inst, S, sched, plan),
            ):
                with pytest.raises(DivergenceError, match=rf"at step {s}$"):
                    call()
            # the base run of the stack diverges first, at the same step
            with pytest.raises(DivergenceError, match=rf"at step {s}$"):
                run_paired(inst, S, repl, sched, plan)


def _huber_run(T=40):
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    S = sample_dataset(inst, 6, seed=40)
    sched = realize(ScheduleSpec("uniform_random", n=6, m=1, T=T, seed=41))
    return inst, S, sched, np.full(T, 0.5)


def _drift(inst, path):
    return np.abs(path[1:, -1] - inst.w1[-1])


def test_drift_before_the_divergence_raises_the_region_error(monkeypatch):
    inst, S, sched, etas = _huber_run()
    drift = _drift(inst, reference_path(inst, S, sched, etas))
    # A limit the early iterates respect and a later one exceeds.
    limit = float(np.sort(drift)[-4])
    k = int(np.flatnonzero(drift > limit * (1.0 + 1e-9))[0])  # 0-based step
    assert 0 < k < sched.T - 2
    etas[k + 1] = math.inf  # a divergence one step later, in the same block
    assert _first_bad_step(reference_path(inst, S, sched, etas)) == k + 2
    monkeypatch.setattr(ConvexHuberInstance, "huber_region_limit", lambda self, e: limit)
    with np.errstate(invalid="ignore"), pytest.raises(AnalyticRegionError) as info:
        run_final(inst, S, sched, etas)
    assert str(info.value).startswith(
        f"step {k + 1}: |w^d - w1^d| = {float(drift[k])!r} exceeded the "
        f"invariant half-width {limit!r}"
    )


def test_drift_at_the_divergence_step_raises_the_divergence(monkeypatch):
    inst, S, sched, etas = _huber_run()
    limit = float(_drift(inst, reference_path(inst, S, sched, etas)).max())
    s = 17
    etas[s - 1] = math.inf
    path = reference_path(inst, S, sched, etas)
    assert _first_bad_step(path) == s
    assert _drift(inst, path)[s - 1] > limit  # both checks fire at step s
    monkeypatch.setattr(ConvexHuberInstance, "huber_region_limit", lambda self, e: limit)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match=rf"at step {s}$"):
            run_final(inst, S, sched, etas)


def _assert_runs_equal_the_references(inst, S, repl, plan, ms, rng):
    """``run``, ``run_final`` and ``run_paired`` (its finals and the path
    collected through ``on_block``) are bitwise the step-by-step references
    on every kind, m in ``ms`` (n for full_batch) and block size 1, 2, 7 and
    T + 1."""
    n, d, T = S.n, inst.d, plan.T
    for kind in VALID_KINDS:
        for m in (n,) if kind == "full_batch" else ms:
            custom = None
            if kind == "custom":
                custom = tuple(
                    tuple(int(i) + 1 for i in rng.permutation(n)[:m]) for _ in range(T)
                )
            sched = realize(
                ScheduleSpec(kind, n=n, m=m, T=T, seed=53, custom_indices=custom)
            )
            single = reference_path(inst, S, sched, plan.etas())
            _, paired, _ = _paired_by_explicit_stack(
                inst, S, repl, sched, plan.etas(), False
            )
            for B in (1, 2, 7, T + 1):
                case = (kind, m, B)
                with block_of(B):
                    assert np.array_equal(run(inst, S, sched, plan).iterates, single), case
                    assert np.array_equal(run_final(inst, S, sched, plan), single[-1]), case
                    pt, path = paired_with_path(inst, S, repl, sched, plan)
                assert np.array_equal(path, paired), case
                assert np.array_equal(pt.finals, paired[-1]), case


def test_linear_runs_are_bitwise_equal_to_a_per_step_loop():
    # The linear family steps a whole block as one cumulative subtraction;
    # it must give the bits of the step-by-step references at every block size.
    n, d, T = 6, 3, 25
    inst = linear_instance(d=d, w1=np.array([0.25, -1.5, 3.0]))
    rng = np.random.default_rng(51)
    S = sample_dataset(inst, n, seed=52)
    repl = sample_examples(inst, n, rng)
    _assert_runs_equal_the_references(inst, S, repl, inverse_t_plan(0.7, T), (1, 3, n), rng)


def _assert_divergence_names_step(inst, s, where):
    """One example with |z_k| = 1 in every coordinate that does not read w:
    steps s - 1 and s both subtract 1e308 z there, so step s overflows and
    every earlier step stays finite.  Every run function names step s,
    placed first, inside or last in its block."""
    T = 40
    S = sample_dataset(inst, 1, seed=54)
    repl = sample_examples(inst, 1, np.random.default_rng(55))
    etas = np.full(T, 0.5)
    etas[s - 2 : s] = 1e308
    plan = custom_plan(etas)
    sched = realize(ScheduleSpec("round_robin", n=1, m=1, T=T))
    assert _first_bad_step(reference_path(inst, S, sched, plan.etas())) == s
    # Step s is the first of its block when B = s - 1, the last when B = s,
    # inside it when B = s + 2.
    B = {"first": s - 1, "mid": s + 2, "last": s}[where]
    with np.errstate(over="ignore", invalid="ignore"):
        with block_of(B):
            for call in (
                lambda: run(inst, S, sched, plan),
                lambda: run_final(inst, S, sched, plan),
            ):
                with pytest.raises(DivergenceError, match=rf"at step {s}$"):
                    call()
            with pytest.raises(DivergenceError, match=rf"at step {s}$"):
                run_paired(inst, S, repl, sched, plan)


@pytest.mark.parametrize("where", ["first", "mid", "last"])
def test_linear_divergence_names_the_first_non_finite_step(where):
    _assert_divergence_names_step(linear_instance(d=3), 17, where)


def test_linear_run_final_takes_one_batch_mean_per_block():
    # A structural guard on the linear block update: its batch means come
    # from one call on the block's gathered batches, not one call per step.
    d, n, T = 5, 100, 2000
    inst = linear_instance(d=d)
    S = sample_dataset(inst, n, seed=56)
    sched = realize(ScheduleSpec("round_robin", n=n, m=1, T=T))
    B = engine._BLOCK_ELEMENTS // ((1 + 1) * d)
    assert B < T
    shapes = []
    mean = ProblemInstance.free_grad_mean

    def counted(self, Z):
        shapes.append(Z.shape)
        return mean(self, Z)

    with mock.patch.object(ProblemInstance, "free_grad_mean", counted):
        run_final(inst, S, sched, constant_plan(0.1, T))
    assert len(shapes) == -(-T // B)
    assert shapes[0] == (B, 1, d) and shapes[-1] == (T - (len(shapes) - 1) * B, 1, d)


@pytest.mark.parametrize("tau_frac", [1.0, 0.3])
@pytest.mark.parametrize("d", [2, 5])
def test_convex_huber_runs_are_bitwise_equal_to_the_step_by_step_references(d, tau_frac):
    # The first d - 1 coordinates step a block at a time, the Huber one step
    # at a time.  At tau_frac = 1 (the default tau) iterates keep to the
    # Huber band; at 0.3 the slope is clipped along the run.  m = 8 and
    # n = 12 sum in an order that depends on the memory layout of the batch.
    n, T, beta = 12, 25, 1.5
    inst = convex_huber_instance(
        d=d, L=1.0, beta=beta, tau=tau_frac / (math.sqrt(d) * beta),
        w1=np.linspace(-0.5, 0.75, d),
    )
    rng = np.random.default_rng(61)
    S = sample_dataset(inst, n, seed=62)
    repl = sample_examples(inst, n, rng)
    _assert_runs_equal_the_references(inst, S, repl, inverse_t_plan(0.6, T), (1, 3, 8, n), rng)


@seed(34286074268203966056548835370498081176811854711909874822690337571128821704126117725482914115648671415764095869193448)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    beta=st.floats(min_value=1e-3, max_value=1e3),
    tau=st.floats(min_value=1e-3, max_value=1e3),
    us=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(
                ["tau", "-tau", "tau+", "-tau-", "tau-", 0.0, -0.0, math.inf, -math.inf,
                 math.nan]
            ),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_the_clipped_huber_slope_is_the_where_form_bit_for_bit(beta, tau, us):
    # d = 2, w1 = 0 and batches of one example z = 0, so the Huber
    # coordinate's u is w^d exactly.
    inst = convex_huber_instance(d=2, L=tau * math.sqrt(2) * beta, beta=beta, tau=tau)
    named = {
        "tau": tau, "-tau": -tau, "tau+": np.nextafter(tau, math.inf),
        "-tau-": np.nextafter(-tau, -math.inf), "tau-": np.nextafter(tau, 0.0),
    }
    u = np.array([named.get(v, v) if isinstance(v, str) else v for v in us], dtype=float)
    W = np.stack([np.zeros_like(u), u], axis=-1)
    one = np.zeros((len(u), 1))
    with np.errstate(invalid="ignore", over="ignore"):
        slope = np.where(np.abs(u) <= tau, beta * u, beta * tau * np.sign(u))
        by_grad = inst.grad(W, np.zeros(2))[:, -1]
        # The batch slope, with c = w^d - w1^d: in band the slope at the
        # batch mean, otherwise the mean of the where form over the batch.
        c = u - 0.0
        inside = (np.abs(c[:, None] - one) <= tau).all(axis=1)
        batch = np.where(
            inside, (c - np.add.reduce(one, -1) / 1) * beta,
            np.add.reduce(slope[:, None], -1) / 1,
        )
        by_map = inst.step_map(W, one)[:, 0]
        # a one-step block of each w^d with eta = 1 by scalar_steps, clipped
        # or not: step_map's update
        by_steps = np.array([
            inst.scalar_steps(float(v), [1.0], z[None])[0] for v, z in zip(u, one)
        ])
        expected_steps = u - 1.0 * batch
    for got, expected in (
        (by_grad, slope), (by_map, batch), (by_steps, expected_steps)
    ):
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))


_BAND_EDGES = (
    "c-tau", "c+tau", "c-tau-", "c-tau+", "c+tau-", "c+tau+", "c",
    0.0, -0.0, math.inf, -math.inf, math.nan,
)


@seed(21715335210894976360435022723475372310168552053325816299342375769150910782878501843507814634956085374574069684568728)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    beta=st.floats(min_value=1e-3, max_value=1e3),
    tau=st.floats(min_value=1e-3, max_value=1e3),
    w=st.floats(min_value=-10.0, max_value=10.0),
    w1d=st.sampled_from([0.0, -0.0, 0.1234, -3.0]),
    m=st.integers(min_value=1, max_value=9),
    cells=st.lists(
        st.sampled_from(_BAND_EDGES) | st.floats(min_value=-20.0, max_value=20.0),
        min_size=9, max_size=54,
    ),
    etas=st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]), min_size=6, max_size=6),
)
def test_the_min_max_band_test_is_the_per_example_test(beta, tau, w, w1d, m, cells, etas):
    # (b, m) z^d columns with ties, signed zeros, infinities, NaN and values
    # next to both band edges of c = w - w1d.  step_map is the per-example
    # rule row by row at c.  Each of scalar_steps' b iterates is the
    # per-example rule on its row from the iterate before; a zero step size
    # keeps c, and so the band edges, for the row after it.
    inst = convex_huber_instance(
        d=2, L=tau * math.sqrt(2) * beta, beta=beta, tau=tau, w1=(0.0, w1d)
    )
    c = w - w1d
    near = {
        "c": c, "c-tau": c - tau, "c+tau": c + tau,
        "c-tau-": np.nextafter(c - tau, -math.inf), "c-tau+": np.nextafter(c - tau, math.inf),
        "c+tau-": np.nextafter(c + tau, -math.inf), "c+tau+": np.nextafter(c + tau, math.inf),
    }
    b = len(cells) // m
    terms = np.array(
        [near[v] if isinstance(v, str) else v for v in cells[: b * m]], dtype=float
    ).reshape(b, m)
    cap = beta * tau
    zbar = np.add.reduce(terms, -1) / m

    def rule(at, k):
        bu = (at - terms[k]) * beta
        if (np.abs(bu) <= cap).all():
            return (at - zbar[k]) * beta
        return np.add.reduce(np.minimum(np.maximum(bu, -cap), cap)) / m

    steps = [etas[k % len(etas)] for k in range(b)]
    with np.errstate(invalid="ignore", over="ignore"):
        expected = np.array([rule(c, k) for k in range(b)])
        got = inst.step_map(np.tile([0.0, w], (b, 1)), terms)[:, 0]
        path = np.array(inst.scalar_steps(w, steps, terms))
        prev = [w, *path[:-1].tolist()]
        stepped = np.array([
            v - e * rule(v - w1d, k) for k, (v, e) in enumerate(zip(prev, steps))
        ])
    for got, expected in ((got, expected), (path, stepped)):
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))


def test_convex_huber_run_final_takes_one_full_batch_mean_per_block():
    # A structural guard on the convex_huber block update: the first d - 1
    # coordinates, the z^d column and the Huber coordinate's steps come from
    # one call each per block, and step_map is never called.
    d, n, m, T = 4, 50, 5, 2000
    inst = convex_huber_instance(d=d, L=1.0, beta=1.0)
    S = sample_dataset(inst, n, seed=64)
    sched = realize(ScheduleSpec("uniform_random", n=n, m=m, T=T, seed=65))
    B = engine._BLOCK_ELEMENTS // ((1 + m) * d)
    assert B < T
    with _batch_term_calls() as calls:
        run_final(inst, S, sched, constant_plan(0.5, T))
    blocks = [min(t0 + B, T) - t0 for t0 in range(0, T, B)]
    assert len(blocks) > 1
    assert calls["free_grad_mean"] == calls["step_terms"] == [((b, m, d),) for b in blocks]
    assert calls["scalar_steps"] == [(float, (b,), (b, m)) for b in blocks]
    assert calls["step_map"] == []


def test_a_full_batch_huber_run_takes_its_batch_terms_once():
    # A structural guard on the repeated batch: a full_batch run gathers its
    # one (1, n, d) batch once, takes its free means and z^d column once,
    # and each block's scalar_steps reads that (1, n) column for all its
    # steps.  Its blocks are sized by the iterates alone.
    d, n, T = 4, 50, 10_000
    inst = convex_huber_instance(d=d, L=1.0, beta=1.0)
    S = sample_dataset(inst, n, seed=64)
    sched = realize(ScheduleSpec("full_batch", n=n, m=n, T=T))
    B = engine._BLOCK_ELEMENTS // d
    with _batch_term_calls() as calls:
        run_final(inst, S, sched, constant_plan(0.5, T))
    blocks = [min(t0 + B, T) - t0 for t0 in range(0, T, B)]
    assert len(blocks) > 1
    assert calls["free_grad_mean"] == calls["step_terms"] == [((1, n, d),)]
    assert calls["scalar_steps"] == [(float, (b,), (1, n)) for b in blocks]
    assert calls["step_map"] == []


def test_a_full_batch_huber_run_at_the_shipped_shape_is_one_block():
    # The convex_sandwich shape: the one batch is gathered once, so it does
    # not shrink the blocks, and the T steps of a single run fit one block.
    d, n, T = 8, 50, 100
    inst = convex_huber_instance(d=d, L=1.0, beta=1.0)
    S = sample_dataset(inst, n, seed=66)
    sched = realize(ScheduleSpec("full_batch", n=n, m=n, T=T))
    with _batch_term_calls() as calls:
        run_final(inst, S, sched, constant_plan(0.5, T))
    assert calls["scalar_steps"] == [(float, (T,), (1, n))]


@contextlib.contextmanager
def _batch_term_calls():
    """The argument shapes (a float's type) of every call of the batch-term
    methods of convex_huber instances, by name, made inside the block."""
    calls = {"free_grad_mean": [], "step_terms": [], "scalar_steps": [], "step_map": []}

    def counted(name):
        method = getattr(ConvexHuberInstance, name)

        def call(self, *args):
            calls[name].append(tuple(
                type(a) if isinstance(a, float) else np.shape(a) for a in args
            ))
            return method(self, *args)

        return call

    with mock.patch.multiple(
        ConvexHuberInstance, **{name: counted(name) for name in calls}
    ):
        yield calls


def _repeated_schedule(shape, n, m, T, rng):
    """A schedule whose every step, or every step of a stretch, reads the
    same batch: full_batch, round_robin with m = n, a constant custom matrix,
    one constant only in stretches, or a constant batch that holds an index
    twice (a matrix no rule realizes)."""
    if shape == "full_batch":
        return realize(ScheduleSpec("full_batch", n=n, m=n, T=T))
    if shape == "round_robin":
        return realize(ScheduleSpec("round_robin", n=n, m=n, T=T))
    if shape == "repeated_index":
        row = rng.integers(0, n, size=m + 1)
        row[-1] = row[0]
        return RealizedSchedule(batches=np.tile(row, (T, 1)), n=n)
    rows = [rng.permutation(n)[:m]]
    if shape == "stretches":
        rows += [rng.permutation(n)[:m] for _ in range(2)]
    at = np.sort(rng.integers(0, len(rows), size=T))
    custom = tuple(tuple(int(i) + 1 for i in rows[k]) for k in at)
    return realize(ScheduleSpec("custom", n=n, m=m, T=T, custom_indices=custom))


@seed(12383972258120437314733759290234982595508671153543053776075507077323516340393968417633817855701497725847145796705654)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(
        ["linear", "convex_huber", "clipped_huber", "quadratic_nonconvex",
         "quadratic_strongly_convex", "custom_smooth"]
    ),
    shape=st.sampled_from(
        ["full_batch", "round_robin", "constant", "stretches", "repeated_index"]
    ),
    n=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=4),
    T=st.integers(min_value=1, max_value=15),
    m_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(family="convex_huber", shape="full_batch", n=12, d=2, T=15, m_frac=1.0, seed=3)
@example(family="quadratic_nonconvex", shape="repeated_index", n=5, d=3, T=9,
         m_frac=1.0, seed=4)
def test_a_repeated_batch_is_bitwise_the_step_by_step_references(
    family, shape, n, d, T, m_frac, seed
):
    # Single runs against reference_path and paired runs against the
    # explicit stack, at block sizes 1, 2, 7 and T and one or three patched
    # slots per chunk.  ``clipped_huber`` spreads convex_huber's z^d column
    # over [-2, 2] under a tau of at most 2, so that a batch leaves the band
    # on either side, or not, as w^d moves.  n = 12 and d = 2 make the free
    # mean of a full_batch a sum of 12 numbers along the batch axis.
    m = 1 + int(m_frac * (n - 1))
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.5, 2.0))
    clip = family == "clipped_huber"
    if clip:
        d = max(d, 2)
        inst = convex_huber_instance(
            d=d, L=4.0 * math.sqrt(d) * beta, beta=beta, tau=rng.uniform(0.1, 2.0),
            w1=rng.uniform(-0.5, 0.5, size=d),
        )
    else:
        inst = _instance_of(family, d, beta)
    sched = _repeated_schedule(shape, n, m, T, rng)
    S = sample_dataset(inst, n, seed=seed)
    if clip:
        S.examples[:, -1] = rng.uniform(-2.0, 2.0, size=n)
    repl = sample_examples(inst, n, rng)
    plan = custom_plan(rng.uniform(0.0, 1.0 / beta, size=T))
    track = family.startswith("quadratic")
    path = reference_path(inst, S, sched, plan.etas())
    finals, paths, sup = _paired_by_explicit_stack(
        inst, S, repl, sched, plan.etas(), track
    )
    for B in (1, 2, 7, T):
        for width in (1, 3):
            case = (B, width)
            with block_of(B), chunk_of(width):
                assert np.array_equal(run(inst, S, sched, plan).iterates, path), case
                assert np.array_equal(run_final(inst, S, sched, plan), path[-1]), case
                pt, got = paired_with_path(
                    inst, S, repl, sched, plan, track_grad_sup=True
                )
            assert np.array_equal(pt.finals, finals), case
            assert np.array_equal(got, paths), case
            assert pt.grad_sup == sup, case


def _first_clip_tau(inst, S, sched, etas, target):
    """A tau under which the first step whose batch is out of the Huber band
    is the first record of max_j |u_j| at or after step ``target``
    (0-based), or no step for ``target`` None: the path up to that step is
    the in-band one, which a run that is never clipped follows."""
    path = reference_path(inst, S, sched, etas)
    u = np.abs(path[:-1, -1:] - inst.w1[-1] - S.examples[sched.batches, -1])
    top = u.max(axis=1)
    record = np.flatnonzero(top > np.maximum.accumulate(np.r_[0.0, top[:-1]]))
    if target is None or not record.size:
        return 2.0 * float(top.max()) + 1.0
    s = record[np.searchsorted(record, min(target, record[-1]))]
    return float(top[:s].max(initial=0.0) + top[s]) / 2.0


def test_a_single_huber_run_steps_its_clipped_steps_in_scalar_steps():
    # run (the dump path) and run_final are bitwise the step-by-step
    # reference, or name its step of divergence or of leaving the Huber
    # band, wherever a clipped step falls in a block, and never call
    # step_map.  ``seen`` holds where the clipped steps, located from the
    # reference path, fell in the blocks of every run that returned, "none"
    # for a block with none.
    seen, raised, mapped = set(), set(), []
    step_map = ConvexHuberInstance.step_map

    def recorded(self, W, terms):
        mapped.append(W.shape)
        return step_map(self, W, terms)

    @seed(31785483901744109689539607910056927143385848427189122610929684876863886591680875374983534930345879948191497328428247)
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        beta=st.floats(min_value=0.25, max_value=4.0),
        w1d=st.floats(min_value=0.05, max_value=2.0) | st.floats(-2.0, -0.05),
        eta_scale=st.floats(min_value=0.05, max_value=2.5),
        m=st.sampled_from([1, 2, 3, 6]),
        zd=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=6, max_size=6),
        target=st.none() | st.integers(min_value=0, max_value=23),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def check(beta, w1d, eta_scale, m, zd, target, seed):
        n, d, T = 6, 3, 24
        rng = np.random.default_rng(seed)
        etas = rng.uniform(0.0, eta_scale / beta, size=T)
        w1 = (0.5, -0.25, w1d)
        S = sample_dataset(linear_instance(d=d), n, seed=seed)
        S.examples[:, -1] = zd
        sched = realize(ScheduleSpec("uniform_random", n=n, m=m, T=T, seed=seed))
        # never clipped at tau = 1e6: the in-band path
        free = convex_huber_instance(d=d, L=1e6 * math.sqrt(d) * beta, beta=beta, w1=w1)
        tau = _first_clip_tau(free, S, sched, etas, target)
        # A first record of a subnormal |u_j| halves to tau = 0, which the
        # constructor refuses.
        assume(tau > 0.0)
        inst = convex_huber_instance(
            d=d, L=tau * math.sqrt(d) * beta, beta=beta, tau=tau, w1=w1
        )
        path = reference_path(inst, S, sched, etas)
        bad = _first_bad_step(path)
        limit = inst.huber_region_limit(etas)
        out = None
        if limit is not None:
            over = np.flatnonzero(_drift(inst, path) > limit * (1.0 + 1e-9))
            out = 1 + int(over[0]) if over.size else None
        with np.errstate(invalid="ignore"):
            u = path[:-1, -1:] - inst.w1[-1] - S.examples[sched.batches, -1]
            clipped = ~(np.abs(u).max(axis=1) * beta <= beta * tau)
        plan = custom_plan(etas)
        calls = (
            (lambda: run(inst, S, sched, plan).iterates, path),
            (lambda: run_final(inst, S, sched, plan), path[-1]),
        )
        for B in (1, 2, 7, T):
            places = set()
            for t0 in range(0, T, B):
                b = min(B, T - t0)
                ks = np.flatnonzero(clipped[t0 : t0 + b])
                places.update("first" if k == 0 else "last" if k == b - 1 else "mid"
                              for k in ks)
                if not ks.size:
                    places.add("none")
            with block_of(B), mock.patch.object(
                ConvexHuberInstance, "step_map", recorded
            ), np.errstate(over="ignore", invalid="ignore"):
                for call, expected in calls:
                    if out is not None and (bad is None or out < bad):
                        with pytest.raises(AnalyticRegionError, match=rf"^step {out}: "):
                            call()
                        raised.add(AnalyticRegionError)
                    elif bad is not None:
                        with pytest.raises(DivergenceError, match=rf"at step {bad}$"):
                            call()
                        raised.add(DivergenceError)
                    else:
                        assert np.array_equal(call(), expected), B
                        seen.update(places)
                    assert mapped == []

    check()
    assert seen == {"none", "first", "mid", "last"}
    assert AnalyticRegionError in raised


@pytest.mark.parametrize("where", ["first", "mid", "last"])
def test_convex_huber_band_names_its_step_wherever_it_falls(where, monkeypatch):
    # A band limit the early iterates keep; step s is the first whose drift
    # exceeds it on the base run, s_paired on any of the paired runs.
    inst, S, sched, etas = _huber_run()
    repl = sample_examples(inst, S.n, np.random.default_rng(66))
    drift = _drift(inst, reference_path(inst, S, sched, etas))
    limit = float(np.sort(drift)[-4])
    s = 1 + int(np.flatnonzero(drift > limit * (1.0 + 1e-9))[0])
    _, paths, _ = _paired_by_explicit_stack(inst, S, repl, sched, etas, False)
    paired_drift = np.abs(paths[1:, :, -1] - inst.w1[-1]).max(axis=1)
    s_paired = 1 + int(np.flatnonzero(paired_drift > limit * (1.0 + 1e-9))[0])
    assert 3 < s_paired <= s < sched.T - 3
    monkeypatch.setattr(ConvexHuberInstance, "huber_region_limit", lambda self, e: limit)
    plan = custom_plan(etas)
    for R, step, calls in (
        (1, s, (lambda: run(inst, S, sched, plan),
                lambda: run_final(inst, S, sched, plan))),
        (S.n + 1, s_paired, (lambda: run_paired(inst, S, repl, sched, plan),)),
    ):
        # first of its block when B = step - 1, last when B = step, inside
        # it when B = step + 2
        B = {"first": step - 1, "mid": step + 2, "last": step}[where]
        with block_of(B):
            for call in calls:
                with pytest.raises(AnalyticRegionError, match=rf"^step {step}: "):
                    call()


@pytest.mark.parametrize("where", ["first", "mid", "last"])
def test_convex_huber_divergence_names_its_step_wherever_it_falls(where):
    # L = sqrt(d) makes |z_k| = 1 in the first d - 1 coordinates.
    inst = convex_huber_instance(d=3, L=math.sqrt(3), beta=1.0)
    _assert_divergence_names_step(inst, 17, where)


def _paired_schedules():
    """(n, schedule) pairs whose neighbors join the stepped rows at every
    position of a block, or never: round_robin selects a new index at every
    step (and with T m < n leaves one unselected), the custom schedule
    selects one index only, then T = 0, n = 1 and a repeated index."""
    T = 11
    yield 9, realize(ScheduleSpec("round_robin", n=9, m=1, T=T))
    yield 9, realize(ScheduleSpec("round_robin", n=9, m=2, T=4))
    yield 9, realize(ScheduleSpec("custom", n=9, m=1, T=T, custom_indices=((4,),) * T))
    yield 9, realize(ScheduleSpec("uniform_random", n=9, m=3, T=T, seed=71))
    yield 9, realize(ScheduleSpec("random_reshuffle", n=9, m=2, T=T, seed=72))
    yield 9, realize(ScheduleSpec("full_batch", n=9, m=9, T=T))
    yield 9, realize(ScheduleSpec("round_robin", n=9, m=1, T=0))
    yield 1, realize(ScheduleSpec("round_robin", n=1, m=1, T=T))
    yield 4, RealizedSchedule(batches=np.array([[2, 2, 0], [1, 3, 1]] * 3), n=4)


@pytest.mark.parametrize(
    "family",
    ["linear", "convex_huber", "quadratic_nonconvex", "quadratic_strongly_convex",
     "custom_smooth"],
)
def test_paired_runs_that_step_only_the_selected_neighbors_are_bitwise_the_stack(family):
    # Finals, grad_sup and the path collected through on_block, at block
    # sizes that put each neighbor's first selection first, inside and last
    # in its block.
    d = 3
    rng = np.random.default_rng(73)
    beta = 1.5
    inst = _instance_of(family, d, beta)
    track = family.startswith("quadratic")
    for n, sched in _paired_schedules():
        S = sample_dataset(inst, n, seed=74)
        repl = sample_examples(inst, n, rng)
        plan = custom_plan(rng.uniform(0.0, 1.0 / beta, size=sched.T))
        finals, paths, sup = _paired_by_explicit_stack(
            inst, S, repl, sched, plan.etas(), track
        )
        for B in (1, 2, 7, sched.T + 1):
            case = (sched.kind, n, sched.m, sched.T, B)
            with block_of(B):
                pt, path = paired_with_path(
                    inst, S, repl, sched, plan, track_grad_sup=True
                )
            assert np.array_equal(pt.finals, finals), case
            assert np.array_equal(path, paths), case
            assert pt.grad_sup == sup, case


def test_paired_quadratic_run_steps_only_the_selected_neighbors():
    # A structural guard: a round_robin m = 1 paired run steps the base run
    # and the neighbors selected by each block's end.  Each step maps the
    # (P, d) terms of those P rows, and each block takes its batch terms of
    # the base batch and the m patched batches of its steps, never of a
    # (P, m, d) copy of the batch per row.
    d, n, T = 4, 2000, 200
    inst = quadratic_strongly_convex_instance(d=d, L=1.0, beta=1.0, gamma=1.0)
    S = sample_dataset(inst, n, seed=75)
    repl = sample_examples(inst, n, np.random.default_rng(76))
    sched = realize(ScheduleSpec("round_robin", n=n, m=1, T=T))
    # the last block steps the base run and the T neighbors selected
    B = engine._BLOCK_ELEMENTS // ((1 + T + 1) * d)
    maps, terms = [], []
    step_map = QuadraticStronglyConvexInstance.step_map
    step_terms = QuadraticStronglyConvexInstance.step_terms

    def counted_map(self, W, t):
        maps.append((W.shape, t.shape))
        return step_map(self, W, t)

    def counted_terms(self, Z):
        terms.append(Z.shape)
        return step_terms(self, Z)

    with mock.patch.multiple(
        QuadraticStronglyConvexInstance, step_map=counted_map, step_terms=counted_terms
    ):
        run_paired(inst, S, repl, sched, constant_plan(0.5, T))
    blocks = range(0, T, B)
    expected = sum((min(t0 + B, T) - t0) * (1 + min(t0 + B, T)) for t0 in blocks)
    assert len(maps) == T and all(w == t and w[1] == d for w, t in maps)
    assert sum(w[0] for w, _ in maps) == expected
    assert expected < 25_000 < T * (n + 1)
    # each block's base and patched batches, in one chunk
    assert terms == [(min(t0 + B, T) - t0, 1 + 1, 1, d) for t0 in blocks]


def _joining_neighbor(inst, s, z):
    """n = T = 40 under round_robin m = 1: neighbor s (example s - 1) joins
    the stepped rows at step s and reads ``z`` there; every other
    replacement is the example itself."""
    T = 40
    S = sample_dataset(inst, T, seed=77)
    repl = S.examples.copy()
    repl[s - 1] = z
    sched = realize(ScheduleSpec("round_robin", n=T, m=1, T=T))
    return S, repl, sched


def _step_places(s):
    # step s is first in its block when B = s - 1, last when B = s, inside
    # it when B = s + 2
    return {"first": s - 1, "mid": s + 2, "last": s}


@pytest.mark.parametrize("where", ["first", "mid", "last"])
def test_a_neighbor_that_diverges_where_it_joins_names_its_step(where):
    # cosh(z) overflows at the replaced example only, so only neighbor s
    # goes non-finite, at step s.
    d, s = 2, 17

    def loss_fn(w, z):
        return (np.log(np.cosh(w - z)) * np.cosh(z)).sum(axis=-1)

    def grad_fn(w, z):
        return np.tanh(w - z) * np.cosh(z)

    inst = custom_smooth_instance(
        d=d, loss_fn=loss_fn, grad_fn=grad_fn, scales=np.full(d, 0.7), beta=1.0
    )
    S, repl, sched = _joining_neighbor(inst, s, np.full(d, 1e300))
    plan = constant_plan(0.5, sched.T)
    with np.errstate(over="ignore", invalid="ignore"):
        _, paths, _ = _paired_by_explicit_stack(inst, S, repl, sched, plan.etas(), False)
        bad = ~np.isfinite(paths).all(axis=2)
        assert np.flatnonzero(bad.any(axis=1))[0] == s and not bad[:, 0].any()
        with block_of(_step_places(s)[where]):
            with pytest.raises(DivergenceError, match=rf"at step {s}$"):
                run_paired(inst, S, repl, sched, plan)


@pytest.mark.parametrize("where", ["first", "mid", "last"])
def test_a_neighbor_that_leaves_the_huber_band_where_it_joins_names_its_step(
    where, monkeypatch
):
    # A replacement far outside the support clips neighbor s's Huber slope at
    # step s and kicks its last coordinate away from w1^d, past a band limit
    # that every iterate before step s, and the base run at step s, keeps.
    d, s = 3, 17
    inst = convex_huber_instance(d=d, L=1.0, beta=1.0)
    S, repl, sched = _joining_neighbor(inst, s, np.zeros(d))
    etas = np.full(sched.T, 0.5)
    base = reference_path(inst, S, sched, etas)
    repl[s - 1, -1] = 100.0 if base[s - 1, -1] >= inst.w1[-1] else -100.0
    _, paths, _ = _paired_by_explicit_stack(inst, S, repl, sched, etas, False)
    drift = np.abs(paths[1:, :, -1] - inst.w1[-1])
    limit = float(max(drift[: s - 1].max(), drift[s - 1, 0]))
    assert drift[s - 1].argmax() == s and drift[s - 1, s] > limit * (1.0 + 1e-9)
    monkeypatch.setattr(ConvexHuberInstance, "huber_region_limit", lambda self, e: limit)
    plan = custom_plan(etas)
    with block_of(_step_places(s)[where]):
        with pytest.raises(AnalyticRegionError) as info:
            run_paired(inst, S, repl, sched, plan)
    assert str(info.value).startswith(
        f"step {s}: |w^d - w1^d| = {float(drift[s - 1, s])!r} exceeded the "
        f"invariant half-width {limit!r}"
    )
