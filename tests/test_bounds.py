"""Closed-form bound values, the analytic oracles, and the sandwich."""

import math

import numpy as np
import pytest

from batchstab.bounds import (
    analytic_gen_error,
    assemble_bound_set,
    gen_error_lower,
    gen_error_upper,
    uniform_stability_constant,
)
from batchstab.engine import constant_plan, inverse_t_plan
from batchstab.errors import CapabilityError, ConfigError, RegimeError
from batchstab.problems import (
    convex_huber_instance,
    linear_instance,
    quadratic_nonconvex_instance,
    quadratic_strongly_convex_instance,
)
from batchstab.schedule import ScheduleSpec, realize
from batchstab.stability import growth_factors
from conftest import exact_gen_error_by_enumeration, nonconvex_step_sum


def _gen_error_upper_presimplified(plan, n, L, beta):
    """Nonconvex upper bound before the decreasing-step simplification:
    2 L^2 / n * sum_t eta_t prod_{j>t} (1 + beta eta_j); any plan."""
    return 2.0 * L * L / n * nonconvex_step_sum(plan.etas(), beta)


def _uniform_stability_reference(case, **kw):
    """The uniform-stability constants of the incremental (round-robin,
    m = 1) method, by the worst-case-over-datasets technique, for the cases
    beside the linear one:

    convex_single_epoch           2 L^2 eta1                    (L, eta1)
    convex_epochs                 2 L^2 sum_{k<K} eta_{kn+1}    (L, etas, n, K)
    strongly_convex_single_epoch  2 L^2 eta / (1 - eta gamma)   (L, eta, gamma)
    strongly_convex_epochs        2 L^2 eta max_{i*} sum_{k=1..K}
                                  (1 - eta gamma)^{k n - i* - 1}
                                  (L, eta, gamma, n, K)
    """
    if case == "convex_single_epoch":
        return 2.0 * kw["L"] ** 2 * kw["eta1"]
    if case == "convex_epochs":
        etas, n, K = np.asarray(kw["etas"], dtype=float), kw["n"], kw["K"]
        assert etas.shape == (n * K,)
        return 2.0 * kw["L"] ** 2 * etas[np.arange(K) * n].sum()
    eta, gamma = kw["eta"], kw["gamma"]
    if case == "strongly_convex_single_epoch":
        return 2.0 * kw["L"] ** 2 * eta / (1.0 - eta * gamma)
    assert case == "strongly_convex_epochs"
    n, k = kw["n"], np.arange(1, kw["K"] + 1)
    # The maximum over the replaced position i* in [1, n] sits at i* = n.
    best = max(
        float(((1.0 - eta * gamma) ** (k * n - istar - 1)).sum()) for istar in (1, n)
    )
    return 2.0 * kw["L"] ** 2 * eta * best


def test_convex_bound_values():
    plan = constant_plan(0.5, 100)  # sum eta = 50
    assert gen_error_upper("convex", plan, 50, L=1.0, beta=1.0) == pytest.approx(2.0)
    assert gen_error_lower("convex", plan, 50, L=1.0, beta=1.0) == pytest.approx(0.5)


def test_convex_regime_gates():
    plan = constant_plan(1.5, 10)  # 1/beta < eta < 2/beta
    assert gen_error_upper("convex", plan, 10, L=1.0, beta=1.0) > 0
    with pytest.raises(RegimeError, match="1/beta"):
        gen_error_lower("convex", plan, 10, L=1.0, beta=1.0)
    too_big = constant_plan(2.5, 10)
    with pytest.raises(RegimeError, match="2/beta"):
        gen_error_upper("convex", too_big, 10, L=1.0, beta=1.0)


@pytest.mark.parametrize("beta", [1.0, 0.3, 3.0])
def test_convex_bound_and_growth_recursion_share_the_regime_edge(beta):
    edge = constant_plan(2.0 / beta, 5)
    below = constant_plan(np.nextafter(2.0 / beta, 0.0), 5)
    with pytest.raises(RegimeError, match="2/beta"):
        gen_error_upper("convex", edge, 10, L=1.0, beta=beta)
    with pytest.raises(RegimeError, match="2/beta"):
        growth_factors("convex", edge.etas(), beta)
    assert gen_error_upper("convex", below, 10, L=1.0, beta=beta) > 0
    assert np.array_equal(growth_factors("convex", below.etas(), beta), np.ones(5))


def test_nonconvex_lower_value():
    # c = 1, T = 99, n = 100: ((T+1)^{ln 2} - 1) / (2n)
    plan = inverse_t_plan(1.0, 99)
    expected = (100.0 ** math.log(2.0) - 1.0) / 200.0
    got = gen_error_lower("nonconvex_smooth", plan, 100, beta=1.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert 0.99 >= got


def test_nonconvex_upper_cap_and_presimplified_form():
    rng = np.random.default_rng(1)
    for _ in range(40):
        beta = float(rng.uniform(0.3, 2.5))
        C = float(rng.uniform(0.05, 0.95)) / beta
        T = int(rng.integers(1, 2000))
        n = int(rng.integers(5, 200))
        L = float(rng.uniform(0.5, 2.0))
        plan = inverse_t_plan(C, T)
        pre = _gen_error_upper_presimplified(plan, n, L, beta)
        cap = gen_error_upper("nonconvex_lipschitz", plan, n, L=L, beta=beta)
        assert pre <= cap * (1 + 1e-12)
    with pytest.raises(RegimeError, match="C < 1/beta"):
        gen_error_upper(
            "nonconvex_lipschitz", inverse_t_plan(1.2, 10), 10, L=1.0, beta=1.0
        )
    with pytest.raises(RegimeError, match="decreasing"):
        gen_error_upper(
            "nonconvex_lipschitz", constant_plan(0.1, 10), 10, L=1.0, beta=1.0
        )


def test_strongly_convex_bound_values():
    # Ltilde = 4L with L = 1, gamma = 1, n = 50: lower = 16/1600 = 0.01
    T = 200
    plan = constant_plan(0.5, T)
    lower = gen_error_lower(
        "strongly_convex", plan, 50, beta=1.0, gamma=1.0, Ltilde=4.0, d=4
    )
    assert lower == pytest.approx(0.01)
    upper = gen_error_upper(
        "strongly_convex", plan, 50, beta=1.0, gamma=1.0, Ltilde=4.0
    )
    cap = 4.0 * 16.0 / (50.0 * 1.0)  # 4 Lt^2 / (n gamma) = 1.28
    assert upper == pytest.approx(cap * (1.0 - 0.75**T), rel=1e-12)
    assert upper <= cap
    # the infinite-horizon limit approaches the cap
    big = gen_error_upper(
        "strongly_convex", constant_plan(0.5, 10_000), 50, beta=1.0, gamma=1.0,
        Ltilde=4.0,
    )
    assert big == pytest.approx(cap, rel=1e-12)


def test_strongly_convex_lower_regime_gates():
    plan = constant_plan(0.5, 200)
    with pytest.raises(RegimeError, match="d >="):
        gen_error_lower(
            "strongly_convex", plan, 50, beta=10.0, gamma=1.0, Ltilde=4.0, d=2
        )
    # eta below 2/(gamma (T+1)) refused
    with pytest.raises(RegimeError, match="eta in"):
        gen_error_lower(
            "strongly_convex", constant_plan(1e-5, 10), 50, beta=1.0, gamma=1.0,
            Ltilde=4.0, d=4,
        )
    # at T = 0 the admissible interval is empty
    with pytest.raises(RegimeError):
        gen_error_lower(
            "strongly_convex", constant_plan(0.5, 0), 50, beta=1.0, gamma=1.0,
            Ltilde=4.0, d=4,
        )


def test_open_and_out_of_scope_cells_refuse():
    plan = inverse_t_plan(0.5, 10)
    with pytest.raises(CapabilityError, match="open"):
        gen_error_lower("nonconvex_lipschitz", plan, 10, L=1.0, beta=1.0)
    with pytest.raises(CapabilityError, match="prior work"):
        gen_error_upper("nonconvex_smooth", plan, 10, L=1.0, beta=1.0)


def test_nonconvex_oracle_telescopes_to_T_over_n():
    inst = quadratic_nonconvex_instance(d=4, beta=1.0)
    for T, n in ((99, 100), (7, 3), (250, 50)):
        plan = inverse_t_plan(1.0, T)
        got = analytic_gen_error(inst, plan, n)
        assert got == pytest.approx(T / n, rel=1e-12)
        # independent route: direct product evaluation
        direct = 0.0
        for t in range(1, T + 1):
            prod = 1.0
            for j in range(t + 1, T + 1):
                prod *= 1.0 + 1.0 / j
            direct += (1.0 / t) * prod
        assert got == pytest.approx(direct / n, rel=1e-10)


def test_strongly_convex_oracle_closed_form_when_beta_equals_gamma():
    inst = quadratic_strongly_convex_instance(d=4, L=1.0, beta=1.0, gamma=1.0)
    for T in (1, 5, 200):
        plan = constant_plan(0.5, T)
        got = analytic_gen_error(inst, plan, 50)
        assert got == pytest.approx((1.0 / 50.0) * (1.0 - 2.0**-T), rel=1e-12)


def test_convex_oracle_matches_exhaustive_enumeration():
    inst = convex_huber_instance(d=2, L=1.0, beta=1.0)
    n = 2
    plan = constant_plan(1.0, 2)
    for kind, m in (("full_batch", 2), ("round_robin", 1)):
        sched = realize(ScheduleSpec(kind, n=n, m=m, T=2))
        exact = exact_gen_error_by_enumeration(inst, n, sched, plan)
        assert analytic_gen_error(inst, plan, n) == pytest.approx(exact, rel=1e-12)


def test_quadratic_oracles_match_exhaustive_enumeration():
    inst = quadratic_nonconvex_instance(d=2, beta=1.0, lam=(-1.0, -0.5))
    plan = inverse_t_plan(0.8, 3)
    sched = realize(ScheduleSpec("round_robin", n=2, m=1, T=3))
    exact = exact_gen_error_by_enumeration(inst, 2, sched, plan)
    assert analytic_gen_error(inst, plan, 2) == pytest.approx(exact, rel=1e-12)

    inst2 = quadratic_strongly_convex_instance(d=2, L=1.0, beta=1.0, gamma=1.0)
    plan2 = constant_plan(0.5, 3)
    sched2 = realize(ScheduleSpec("uniform_random", n=2, m=1, T=3, seed=7))
    exact2 = exact_gen_error_by_enumeration(inst2, 2, sched2, plan2)
    assert analytic_gen_error(inst2, plan2, 2) == pytest.approx(exact2, rel=1e-12)


def test_linear_oracle_matches_exhaustive_enumeration():
    inst = linear_instance(d=2)
    plan = inverse_t_plan(0.6, 4)
    sched = realize(ScheduleSpec("single_shuffle", n=2, m=1, T=4, seed=3))
    exact = exact_gen_error_by_enumeration(inst, 2, sched, plan)
    got = analytic_gen_error(inst, plan, 2)
    assert got == pytest.approx(exact, rel=1e-12)
    assert got == pytest.approx(2.0 / 2.0 * plan.etas().sum())  # (d/n) sum eta


def test_oracle_regime_gates():
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    with pytest.raises(RegimeError, match="1/beta"):
        analytic_gen_error(inst, constant_plan(1.5, 5), 10)
    inst2 = quadratic_nonconvex_instance(d=3, beta=1.0)
    with pytest.raises(RegimeError, match="decreasing"):
        analytic_gen_error(inst2, constant_plan(0.5, 5), 10)
    inst3 = quadratic_strongly_convex_instance(d=3, L=1.0, beta=1.0, gamma=1.0)
    with pytest.raises(RegimeError, match="constant"):
        analytic_gen_error(inst3, inverse_t_plan(0.5, 5), 10)


def test_convex_sandwich_over_admissible_grid():
    rng = np.random.default_rng(2)
    for _ in range(60):
        d = int(rng.integers(2, 12))
        L = float(rng.uniform(0.3, 3.0))
        beta = float(rng.uniform(0.3, 3.0))
        n = int(rng.integers(2, 200))
        T = int(rng.integers(1, 300))
        if rng.random() < 0.5:
            plan = constant_plan(float(rng.uniform(0.01, 1.0)) / beta, T)
        else:
            plan = inverse_t_plan(float(rng.uniform(0.01, 1.0)) / beta, T)
        inst = convex_huber_instance(d=d, L=L, beta=beta)
        lower = gen_error_lower("convex", plan, n, L=L, beta=beta)
        upper = gen_error_upper("convex", plan, n, L=L, beta=beta)
        oracle = analytic_gen_error(inst, plan, n)
        assert lower <= oracle <= upper


def test_nonconvex_oracle_dominates_lower_bound():
    rng = np.random.default_rng(3)
    trend = []
    for c in (1.0, 0.5, 0.25, 0.1, 0.05):
        beta = 1.3
        inst = quadratic_nonconvex_instance(d=3, beta=beta)
        T = 500
        n = 40
        plan = inverse_t_plan(c / beta, T)
        oracle = analytic_gen_error(inst, plan, n)
        lower = gen_error_lower("nonconvex_smooth", plan, n, beta=beta)
        assert oracle >= lower
        trend.append(oracle / lower)
    # the ratio tightens as c shrinks (recorded, not asserted)
    for _ in range(40):
        beta = float(rng.uniform(0.3, 2.0))
        c = float(rng.uniform(0.05, 1.0))
        T = int(rng.integers(1, 10_000))
        n = int(rng.integers(2, 500))
        inst = quadratic_nonconvex_instance(d=int(rng.integers(1, 6)), beta=beta)
        plan = inverse_t_plan(c / beta, T)
        assert analytic_gen_error(inst, plan, n) >= gen_error_lower(
            "nonconvex_smooth", plan, n, beta=beta
        )


def test_strongly_convex_sandwich_and_intermediate_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        gamma = float(rng.uniform(0.2, 2.0))
        beta = gamma * float(rng.uniform(1.0, 2.0))
        d_min = (beta**2 - gamma**2) / (3 * gamma**2)
        d = max(2, math.ceil(d_min) + int(rng.integers(0, 4)))
        L = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(2, 100))
        T = int(rng.integers(20, 500))
        lo = 2.0 / (gamma * (T + 1))
        hi = 1.0 / (beta + gamma)
        if lo > hi:
            continue
        eta = float(rng.uniform(lo, hi))
        plan = constant_plan(eta, T)
        inst = quadratic_strongly_convex_instance(d=d, L=L, beta=beta, gamma=gamma)
        Lt = 4.0 * L
        lower = gen_error_lower(
            "strongly_convex", plan, n, beta=beta, gamma=gamma, Ltilde=Lt, d=d
        )
        upper = gen_error_upper(
            "strongly_convex", plan, n, beta=beta, gamma=gamma, Ltilde=Lt
        )
        oracle = analytic_gen_error(inst, plan, n)
        assert lower <= oracle <= upper
        # intermediate form: oracle >= (L^2/(gamma n)) (1 - 1/(eta gamma (T+1)))
        intermediate = L * L / (gamma * n) * (1.0 - 1.0 / (eta * gamma * (T + 1)))
        assert oracle >= intermediate - 1e-12


def test_uniform_stability_constants():
    assert uniform_stability_constant(3, 10, 0.1) == pytest.approx(6.0)
    for n in (10, 100, 1000):
        # the constant has no n anywhere
        assert _uniform_stability_reference(
            "convex_single_epoch", L=1.0, eta1=0.2
        ) == pytest.approx(0.4)
    eta, gamma = 0.1, 1.0
    assert _uniform_stability_reference(
        "strongly_convex_single_epoch", L=1.0, eta=eta, gamma=gamma
    ) == pytest.approx(2 * eta / (1 - eta * gamma))
    # restarted 1/t steps: sum of epoch-leading steps is K * eta1
    K, n = 3, 5
    etas = np.tile(1.0 / np.arange(1.0, n + 1.0), K)
    assert _uniform_stability_reference(
        "convex_epochs", L=1.0, etas=etas, n=n, K=K
    ) == pytest.approx(2.0 * K * 1.0)
    multi = _uniform_stability_reference(
        "strongly_convex_epochs", L=1.0, eta=eta, gamma=gamma, n=8, K=1
    )
    single = _uniform_stability_reference(
        "strongly_convex_single_epoch", L=1.0, eta=eta, gamma=gamma
    )
    assert multi == pytest.approx(single)


def test_flat_constant_versus_decaying_bound():
    d, K = 5, 2
    flat = uniform_stability_constant(K, d, 1.0)
    assert flat == pytest.approx(2.0 * K * d)
    previous = None
    for n in (10, 100, 1000):
        etas = np.tile(1.0 / np.arange(1.0, n + 1.0), K)
        plan = constant_plan(1.0, 0)
        upper = 2.0 * d / n * etas.sum()  # (2 L^2 / n) sum eta with L^2 = d
        got = gen_error_upper(
            "convex",
            type(plan)(kind="custom", T=K * n, values=tuple(etas)),
            n,
            L=math.sqrt(d),
            beta=1.0,
        )
        assert got == pytest.approx(upper, rel=1e-12)
        if previous is not None:
            assert previous / got >= 5.0  # strict decade-scale decay
        previous = got


def test_assemble_bound_set_variants():
    inst = convex_huber_instance(d=8, L=1.0, beta=1.0)
    plan = constant_plan(0.5, 100)
    bset = assemble_bound_set("convex", inst, plan, 50)
    assert bset.regime_ok and bset.sandwich_ok
    assert bset.lower == pytest.approx(0.5)
    assert bset.upper == pytest.approx(2.0)
    assert 0.5 < bset.oracle < 2.0

    nc = quadratic_nonconvex_instance(d=4, beta=1.0)
    bset2 = assemble_bound_set("nonconvex_smooth", nc, inverse_t_plan(1.0, 99), 100)
    assert bset2.upper is None and "upper" in bset2.reasons
    assert bset2.lower is not None and bset2.oracle is not None
    assert bset2.sandwich_ok is None
    assert bset2.oracle >= bset2.lower

    # regime gate: eta = 1.5/beta loses the lower bound and the oracle
    bset3 = assemble_bound_set("convex", inst, constant_plan(1.5, 10), 50)
    assert bset3.upper is not None
    assert bset3.lower is None and "lower" in bset3.reasons
    assert bset3.oracle is None and "oracle" in bset3.reasons
    assert bset3.sandwich_ok is None

    # T = 0: everything defined is exactly zero
    bset4 = assemble_bound_set("convex", inst, constant_plan(0.5, 0), 50)
    assert bset4.upper == 0.0 and bset4.lower == 0.0 and bset4.oracle == 0.0


def test_upper_bound_scales_inversely_with_n():
    inst_L, beta = 1.0, 1.0
    plan = constant_plan(0.5, 100)
    values = [
        gen_error_upper("convex", plan, n, L=inst_L, beta=beta)
        for n in (10, 100, 1000)
    ]
    assert values[0] / values[1] == pytest.approx(10.0)
    assert values[1] / values[2] == pytest.approx(10.0)


def test_unknown_class_and_missing_params():
    plan = constant_plan(0.1, 5)
    with pytest.raises(ConfigError):
        gen_error_upper("mystery", plan, 10, L=1.0, beta=1.0)
    with pytest.raises(ConfigError):
        gen_error_upper("convex", plan, 10, L=None, beta=1.0)
