"""Loss families: data laws, gradients, risks, and regularity constants."""

import math

import numpy as np
import pytest

from batchstab import problems
from batchstab.errors import AnalyticRegionError, CapabilityError, ConfigError
from batchstab.experiments import instance_from_config
from batchstab.problems import (
    Dataset,
    convex_huber_instance,
    custom_smooth_instance,
    empirical_risk,
    linear_instance,
    quadratic_nonconvex_instance,
    quadratic_strongly_convex_instance,
    sample_examples,
    verify_regularity,
)
from conftest import exact_population_risk_by_enumeration, sample_dataset


def test_linear_examples_are_sign_vectors():
    inst = linear_instance(d=2)
    S = sample_dataset(inst, 1, seed=0)
    assert S.examples.shape == (1, 2)
    assert set(np.abs(S.examples).ravel().tolist()) == {1.0}
    assert inst.L == pytest.approx(math.sqrt(2))


def test_huber_example_scales():
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    S = sample_dataset(inst, 200, seed=1)
    lead = 1.0 / math.sqrt(3.0)
    assert np.allclose(np.abs(S.examples[:, :2]), lead)
    assert np.allclose(np.abs(S.examples[:, 2]), lead / 2.0)


def test_coordinate_means_vanish_by_law_of_large_numbers():
    inst = convex_huber_instance(d=4, L=2.0, beta=1.5)
    N = 10**5
    S = sample_dataset(inst, N, seed=7)
    normalized = S.examples / inst.scales
    assert np.abs(normalized.mean(axis=0)).max() < 4.0 / math.sqrt(N)


def test_huber_gradient_at_the_start_point():
    beta = 2.0
    inst = convex_huber_instance(d=3, L=1.0, beta=beta)
    tau = inst.tau
    z = inst.scales.copy()
    z[-1] = tau / 2.0
    g = inst.grad(inst.w1, z)
    assert g[:-1] == pytest.approx(list(z[:-1]))
    assert g[-1] == pytest.approx(-beta * tau / 2.0)


def test_huber_gradient_norm_never_exceeds_lipschitz_constant():
    inst = convex_huber_instance(d=5, L=1.3, beta=0.7)
    rng = np.random.default_rng(0)
    for _ in range(400):
        w = rng.normal(scale=5.0, size=5)
        z = inst.scales * rng.choice([-1.0, 1.0], size=5)
        assert np.linalg.norm(inst.grad(w, z)) <= 1.3 * (1 + 1e-12)


def test_diagonal_quadratic_gradient():
    inst = quadratic_strongly_convex_instance(d=2, L=1.0, beta=3.0, gamma=2.0)
    z = np.zeros(2)
    w = np.ones(2)
    assert inst.grad(w, z) == pytest.approx([3.0, 2.0])


@pytest.mark.parametrize(
    "make",
    [
        lambda: linear_instance(d=3),
        lambda: convex_huber_instance(d=4, L=1.0, beta=2.0),
        lambda: quadratic_nonconvex_instance(d=3, beta=1.5),
        lambda: quadratic_strongly_convex_instance(d=3, L=1.0, beta=2.0, gamma=1.0),
    ],
)
def test_gradients_match_central_finite_differences(make):
    inst = make()
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 25:
        w = inst.w1 + rng.normal(size=inst.d)
        z = inst.scales * rng.choice([-1.0, 1.0], size=inst.d)
        if inst.family == "convex_huber":
            u = w[-1] - inst.w1[-1] - z[-1]
            if abs(abs(u) - inst.tau) < 1e-3:
                continue
        h = 1e-6 * (1.0 + np.linalg.norm(w))
        g = inst.grad(w, z)
        for k in range(inst.d):
            e = np.zeros(inst.d)
            e[k] = h
            fd = (inst.loss(w + e, z) - inst.loss(w - e, z)) / (2 * h)
            assert abs(fd - g[k]) <= 1e-5 * (1.0 + abs(g[k]))
        checked += 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: linear_instance(d=3),
        lambda: convex_huber_instance(
            d=4, L=1.0, beta=2.0, w1=[0.1, -0.2, 0.3, 0.4]
        ),
        lambda: quadratic_nonconvex_instance(d=3, beta=1.5, lam=[-1.5, -0.5, -1.0]),
        lambda: quadratic_strongly_convex_instance(d=3, L=1.0, beta=2.0, gamma=1.0),
    ],
)
def test_affine_form_is_the_gradient_on_the_analytic_region(make):
    inst = make()
    a, e, c = inst.affine_form()
    rng = np.random.default_rng(6)
    for _ in range(25):
        w = inst.w1 + rng.normal(size=inst.d)
        if inst.family == "convex_huber":
            half_width = inst.tau - inst.scales[-1]
            w[-1] = inst.w1[-1] + rng.uniform(-1.0, 1.0) * half_width
        z = sample_examples(inst, 1, rng)[0]
        np.testing.assert_allclose(
            a * (w - c) + e * z, inst.grad(w, z), rtol=1e-12, atol=1e-12
        )


@pytest.mark.parametrize(
    "make",
    [
        lambda: linear_instance(d=3),
        lambda: convex_huber_instance(d=4, L=1.0, beta=2.0),
        lambda: quadratic_nonconvex_instance(d=3, beta=1.5),
        lambda: quadratic_strongly_convex_instance(d=3, L=1.0, beta=2.0, gamma=1.0),
        lambda: custom_smooth_instance(
            d=2, loss_fn=lambda w, z: 0.5 * ((w - z) ** 2).sum(axis=-1),
            grad_fn=lambda w, z: w - z, scales=[1.0, 1.0], beta=1.0,
        ),
    ],
)
@pytest.mark.parametrize("m", [1, 7])
def test_step_terms_size_is_the_size_of_the_step_terms_of_a_batch(make, m):
    inst = make()
    Z = sample_examples(inst, m, np.random.default_rng(7))
    terms = inst.step_terms(Z)
    assert inst.step_terms_size(m) == (0 if terms is None else terms.size)


def test_custom_smooth_has_no_affine_form():
    inst = custom_smooth_instance(
        d=2,
        loss_fn=lambda w, z: 0.5 * ((w - z) ** 2).sum(axis=-1),
        grad_fn=lambda w, z: w - z,
        scales=[1.0, 1.0],
        beta=1.0,
    )
    with pytest.raises(CapabilityError):
        inst.affine_form()


def test_empirical_risk_basics():
    lin = linear_instance(d=4)
    S = sample_dataset(lin, 6, seed=3)
    assert empirical_risk(lin, np.zeros(4), S) == 0.0

    quad = quadratic_nonconvex_instance(d=3, beta=1.0)
    point = quad.scales.copy()
    S_same = Dataset(examples=np.tile(point, (4, 1)))
    assert empirical_risk(quad, point, S_same) == 0.0

    S2 = Dataset(examples=np.array([[1.0, -1.0], [-1.0, 1.0]]))
    lin2 = linear_instance(d=2)
    w = np.array([0.3, 0.9])
    by_hand = 0.5 * ((0.3 - 0.9) + (-0.3 + 0.9))
    assert empirical_risk(lin2, w, S2) == pytest.approx(by_hand, abs=1e-15)


def test_population_risk_closed_forms():
    lin = linear_instance(d=5)
    rng = np.random.default_rng(11)
    assert lin.population_risk(rng.normal(size=5)) == 0.0

    quad = quadratic_nonconvex_instance(d=6, beta=2.0)
    # (1/2) sum_k (-beta) * (1/(beta d)) = -1/2 at w = 0
    assert float(quad.population_risk(np.zeros(6))) == pytest.approx(-0.5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: convex_huber_instance(d=4, L=1.0, beta=1.0),
        lambda: quadratic_nonconvex_instance(d=5, beta=2.0),
        lambda: quadratic_strongly_convex_instance(d=4, L=2.0, beta=2.0, gamma=1.0),
        lambda: linear_instance(d=6),
    ],
)
def test_population_risk_equals_full_support_average(make):
    inst = make()
    rng = np.random.default_rng(13)
    for _ in range(5):
        w = inst.w1 + 0.05 * rng.normal(size=inst.d)
        exact = exact_population_risk_by_enumeration(inst, w)
        assert float(inst.population_risk(w)) == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_population_risk_matches_monte_carlo():
    inst = quadratic_strongly_convex_instance(d=3, L=1.0, beta=2.0, gamma=1.0)
    rng = np.random.default_rng(17)
    w = 0.3 * rng.normal(size=3)
    N = 10**6
    Z = inst.scales * rng.choice([-1.0, 1.0], size=(N, 3))
    vals = inst.loss(w, Z)
    stderr = vals.std(ddof=1) / math.sqrt(N)
    assert abs(vals.mean() - float(inst.population_risk(w))) < 4 * stderr


def test_population_risk_errors_outside_huber_region():
    inst = convex_huber_instance(d=3, L=1.0, beta=1.0)
    w = inst.w1.copy()
    w[-1] += inst.tau  # beyond tau/2
    with pytest.raises(AnalyticRegionError):
        inst.population_risk(w)


def test_quadratic_risk_gap_is_zero_mean_over_fresh_datasets():
    inst = quadratic_strongly_convex_instance(d=3, L=1.0, beta=1.0, gamma=1.0)
    rng = np.random.default_rng(23)
    w = 0.2 * rng.normal(size=3)
    trials, n = 4000, 8
    pop = float(inst.population_risk(w))
    gaps = np.empty(trials)
    for k in range(trials):
        S = sample_dataset(inst, n, seed=1000 + k)
        gaps[k] = pop - empirical_risk(inst, w, S)
    stderr = gaps.std(ddof=1) / math.sqrt(trials)
    assert abs(gaps.mean()) < 4 * stderr


def test_verify_regularity_families():
    hub = convex_huber_instance(d=4, L=1.0, beta=1.0)
    verdict = verify_regularity(hub, trials=10_000, seed=29)
    assert verdict.passed, verdict.failures
    assert verdict.max_lipschitz_ratio <= 1.0 + 1e-9

    quad = quadratic_strongly_convex_instance(d=3, L=1.0, beta=2.0, gamma=1.0)
    v2 = verify_regularity(quad, trials=2000, seed=31)
    assert v2.passed, v2.failures
    # smoothness is tight at the largest eigenvalue
    assert v2.max_smoothness_ratio <= 2.0 * (1 + 1e-9)
    assert v2.max_smoothness_ratio > 1.0

    lin = linear_instance(d=4)
    v3 = verify_regularity(lin, trials=2000, seed=37)
    assert v3.passed, v3.failures
    assert v3.max_lipschitz_ratio <= 2.0 * (1 + 1e-12)
    # the constant 2 = sqrt(d) is attained along the example direction
    z = np.ones(4)
    w = inst_dir = z / np.linalg.norm(z)
    ratio = abs(lin.loss(w, z) - lin.loss(np.zeros(4), z)) / np.linalg.norm(w)
    assert ratio == pytest.approx(2.0)


def _per_coordinate_mismatch(instance, w, z, tol):
    """The central-difference check with one pair of loss calls per
    coordinate: the reference for the stacked check."""
    if instance.family == "convex_huber":
        u = w[-1] - instance.w1[-1] - z[-1]
        if abs(abs(u) - instance.tau) < 1e-4:
            return None
    h = 1e-6 * (1.0 + float(np.linalg.norm(w)))
    g = instance.grad(w, z)
    for k in range(instance.d):
        e = np.zeros(instance.d)
        e[k] = h
        fd = (float(instance.loss(w + e, z)) - float(instance.loss(w - e, z))) / (2 * h)
        if abs(fd - g[k]) > tol * (1.0 + abs(g[k])):
            return (
                f"finite-difference mismatch in coordinate {k}: "
                f"analytic {g[k]!r} vs central difference {fd!r}"
            )
    return None


@pytest.mark.parametrize(
    "make",
    [
        lambda: linear_instance(d=3),
        lambda: convex_huber_instance(d=9, L=1.0, beta=2.0, w1=np.linspace(-1, 1, 9)),
        lambda: quadratic_nonconvex_instance(d=3, beta=1.5, lam=[-1.5, -0.5, -1.0]),
        lambda: quadratic_strongly_convex_instance(d=8, L=1.0, beta=2.0, gamma=1.0),
        lambda: custom_smooth_instance(
            d=4, loss_fn=lambda w, z: np.log(np.cosh(w - z)).sum(axis=-1),
            grad_fn=lambda w, z: np.tanh(w - z), scales=np.full(4, 0.7), beta=1.0,
        ),
    ],
)
def test_the_stacked_finite_differences_are_the_per_coordinate_loop(make):
    # The same verdict and message, naming the same first coordinate, at
    # tolerances that pass every coordinate, some or none.
    inst = make()
    rng = np.random.default_rng(41)
    messages = set()
    for _ in range(40):
        w = inst.w1 + rng.normal(size=inst.d)
        z = inst.scales * rng.choice([-1.0, 1.0], size=inst.d)
        for tol in (1e-6, 1e-9, 1e-10, 1e-11, 0.0):
            got = problems._finite_difference_mismatch(inst, w, z, tol)
            assert got == _per_coordinate_mismatch(inst, w, z, tol)
            messages.add(got and got.split(":")[0])
    assert None in messages and len(messages) > 2
    if inst.family == "convex_huber":
        # within 1e-4 of the kink neither differences: no mismatch at tol 0
        w[-1] = inst.w1[-1] + z[-1] + inst.tau - 5e-5
        assert problems._finite_difference_mismatch(inst, w, z, 0.0) is None
        assert _per_coordinate_mismatch(inst, w, z, 0.0) is None


def test_the_methods_the_span_tracer_wraps_are_stated_once_on_the_base_class():
    # perfbench's tracer wraps these in ``vars(ProblemInstance)``: a family
    # class that overrode one would run untraced.
    wrapped = {"batch_grad_mean", "grad_sup_norm", "population_risk"}
    assert wrapped <= set(vars(problems.ProblemInstance))

    def subclasses(cls):
        return [c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))]

    families = subclasses(problems.ProblemInstance)
    assert {getattr(c, "family", None) for c in families} >= set(problems.FAMILIES)
    for cls in families:
        assert not wrapped & set(vars(cls)), cls


def test_an_integer_gamma_keeps_a_fractional_beta_in_the_strongly_convex_spectrum():
    inst = quadratic_strongly_convex_instance(d=3, L=1, beta=2.5, gamma=1)
    assert inst.lam.tolist() == [2.5, 1.0, 1.0]


def test_constructor_invariants():
    with pytest.raises(ConfigError):
        convex_huber_instance(d=4, L=1.0, beta=1.0, tau=10.0)
    with pytest.raises(ConfigError):
        quadratic_nonconvex_instance(d=3, beta=1.0, lam=(0.5, -1.0, -1.0))
    with pytest.raises(ConfigError):
        quadratic_nonconvex_instance(d=3, beta=1.0, lam=(-2.0, -1.0, -1.0))
    with pytest.raises(ConfigError):
        quadratic_strongly_convex_instance(d=1, L=1.0, beta=10.0, gamma=1.0)
    with pytest.raises(ConfigError):
        quadratic_strongly_convex_instance(d=4, L=1.0, beta=1.0, gamma=2.0)
    # a non-positive tau makes the Huber ramp concave; d = 0 has no beta axis
    for tau in (0.0, -0.5):
        with pytest.raises(ConfigError, match="0 < tau"):
            convex_huber_instance(d=4, L=1.0, beta=1.0, tau=tau)
    with pytest.raises(ConfigError, match="d >= 1"):
        quadratic_strongly_convex_instance(d=0, L=1.0, beta=1.0, gamma=1.0)


# Each family's constants as attributes, None where the family has none.
_NO_CONSTANTS = dict(L=None, gamma=None, tau=None, lam=None)


@pytest.mark.parametrize(
    "make, constants",
    [
        (lambda: linear_instance(3), dict(_NO_CONSTANTS, d=3, beta=1.0, L=math.sqrt(3))),
        (
            lambda: linear_instance(2, beta=2.5, w1=[0.5, -1.0]),
            dict(_NO_CONSTANTS, d=2, beta=2.5, L=math.sqrt(2)),
        ),
        (
            lambda: convex_huber_instance(d=4, L=2.0, beta=1.0),
            dict(_NO_CONSTANTS, d=4, beta=1.0, L=2.0, tau=1.0),  # tau resolved
        ),
        (
            lambda: convex_huber_instance(
                d=3, L=1.0, beta=2.0, tau=0.1, w1=[0.0, 0.2, 0.3]
            ),
            dict(_NO_CONSTANTS, d=3, beta=2.0, L=1.0, tau=0.1),
        ),
        (
            lambda: quadratic_nonconvex_instance(d=3, beta=1.0, lam=[-0.5, -1.0, -0.25]),
            dict(_NO_CONSTANTS, d=3, beta=1.0, lam=[-0.5, -1.0, -0.25]),
        ),
        (
            lambda: quadratic_strongly_convex_instance(
                d=4, L=1.0, beta=1.5, gamma=1.0, w1=[0.1, 0.0, -0.2, 0.0]
            ),
            dict(d=4, beta=1.5, L=1.0, gamma=1.0, tau=None, lam=[1.5, 1.0, 1.0, 1.0]),
        ),
    ],
    ids=["linear", "linear-w1", "convex_huber", "convex_huber-tau-w1",
         "quadratic_nonconvex-lam", "quadratic_strongly_convex-w1"],
)
def test_an_instance_rebuilds_from_its_to_config(make, constants):
    # A report's ``instance`` is ``to_config``: it loads back as a config,
    # and both hold the family's constants as attributes.
    inst = make()
    again = instance_from_config(inst.to_config())
    assert type(again) is type(inst) and again.to_config() == inst.to_config()
    for built in (inst, again):
        lam = None if built.lam is None else built.lam.tolist()
        held = dict(d=built.d, beta=built.beta, L=built.L, gamma=built.gamma,
                    tau=built.tau, lam=lam)
        assert held == constants
    np.testing.assert_array_equal(again.scales, inst.scales)
    np.testing.assert_array_equal(again.w1, inst.w1)
    rng = np.random.default_rng(0)
    W = inst.w1 + rng.normal(scale=0.1, size=(6, inst.d))
    Z = sample_examples(inst, 6, rng)
    np.testing.assert_array_equal(again.loss(W, Z), inst.loss(W, Z))
    np.testing.assert_array_equal(again.grad(W, Z), inst.grad(W, Z))


def test_an_instance_keeps_its_own_copy_of_the_arrays_it_is_given():
    w1, lam = np.array([0.1, 0.2, 0.3]), np.array([-0.5, -1.0, -0.25])
    quadratic = quadratic_nonconvex_instance(d=3, beta=1.0, lam=lam, w1=w1)
    huber = convex_huber_instance(d=3, L=1.0, beta=2.0, w1=w1)
    w1[:], lam[:] = 9.0, -0.75
    assert quadratic.w1.tolist() == huber.w1.tolist() == [0.1, 0.2, 0.3]
    assert quadratic.lam.tolist() == [-0.5, -1.0, -0.25]
    assert huber.to_config()["w1"] == [0.1, 0.2, 0.3]
