"""Loss families, data distributions, and their closed-form regularity data.

Four concrete constructions plus a user-supplied escape hatch:

    linear                     f(w, z) = <w, z> with sign-vector examples in
                               {-1, +1}^d; Lipschitz constant sqrt(d).
    convex_huber               linear in the first d-1 coordinates plus a
                               Huberized quadratic in the last one,
                               u = w^d - w1^d - z^d:
                                   (beta/2) u^2             if |u| <= tau
                                   beta tau (|u| - tau/2)   otherwise.
                               Gradients stay bounded by L while the loss
                               remains beta-smooth and convex.
    quadratic_nonconvex        f(w, z) = (w-z)' Lam (w-z) / 2 with every
                               diagonal entry of Lam negative, |lam_k| <= beta.
    quadratic_strongly_convex  same quadratic with Lam = diag(beta, gamma,
                               ..., gamma), beta >= gamma > 0.
    custom_smooth              caller-provided loss/gradient pair; excluded
                               from the analytic-oracle operations.

Examples are drawn coordinatewise from symmetric two-point laws: each
coordinate equals +/- its configured scale with probability 1/2, all
coordinates independent.  That makes the population risk of every built-in
family available in closed form.

Every built-in family has a gradient that is affine in w and z on its
analytic region, grad f(w, z) = a * (w - c) + e * z coordinatewise; the
closed-form final iterate, the exact generalization error and the
population risk are each one formula in (a, e, c):

    family          a                e                   c
    linear          0                1                   0
    convex_huber    (0, ..., 0, b)   (1, ..., 1, -b)     (0, ..., 0, w1^d)
    quadratics      lam              -lam                0

For convex_huber (b = beta) the region is |w^d - w1^d - z^d| <= tau; the
iterates never leave it when every eta_t <= 1/beta and tau >= 2 s_d
(``ProblemInstance.huber_region_limit``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator

from batchstab.errors import AnalyticRegionError, CapabilityError, ConfigError
from batchstab.seeding import rng_at

QUADRATIC_FAMILIES = ("quadratic_nonconvex", "quadratic_strongly_convex")
FAMILIES = ("linear", "convex_huber", *QUADRATIC_FAMILIES, "custom_smooth")

# Relative slack absorbing float rounding in exact-inequality checks.
REL_SLACK = 1e-9
ABS_SLACK = 1e-12


@dataclass(frozen=True)
class LossParams:
    """Scalar parameters of a loss family.

    gamma is 0 for families without strong convexity; tau applies to
    convex_huber only; lam is the diagonal of the quadratic families.
    """

    d: int
    L: float | None = None
    beta: float = 1.0
    gamma: float = 0.0
    tau: float | None = None
    lam: tuple[float, ...] | None = None
    w1: tuple[float, ...] | None = None


class ProblemInstance:
    """A loss family plus its data distribution, immutable after construction.

    ``scales`` holds the per-coordinate magnitude of the symmetric two-point
    example distribution.  All operations are pure.
    """

    def __init__(
        self,
        family: str,
        params: LossParams,
        scales: np.ndarray,
        lam: np.ndarray | None = None,
        loss_fn: Callable | None = None,
        grad_fn: Callable | None = None,
    ):
        if family not in FAMILIES:
            raise ConfigError(f"unknown family {family!r}")
        self.family = family
        self.params = params
        self.scales = np.asarray(scales, dtype=float)
        self.lam = None if lam is None else np.asarray(lam, dtype=float)
        self.loss_fn = loss_fn
        self.grad_fn = grad_fn
        self.d = params.d
        w1 = params.w1 if params.w1 is not None else (0.0,) * params.d
        self.w1 = np.asarray(w1, dtype=float)
        if self.w1.shape != (self.d,):
            raise ConfigError(f"w1 must have length d={self.d}")
        if self.scales.shape != (self.d,):
            raise ConfigError(f"scales must have length d={self.d}")

    # -- loss / gradient -------------------------------------------------

    def loss(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Loss value; w and z broadcast over leading dimensions."""
        w = np.asarray(w, dtype=float)
        z = np.asarray(z, dtype=float)
        if self.family == "linear":
            return (w * z).sum(axis=-1)
        if self.family == "convex_huber":
            beta, tau = self.params.beta, self.params.tau
            lin = (w[..., :-1] * z[..., :-1]).sum(axis=-1)
            u = w[..., -1] - self.w1[-1] - z[..., -1]
            au = np.abs(u)
            quad = 0.5 * beta * u * u
            ramp = beta * tau * (au - 0.5 * tau)
            return lin + np.where(au <= tau, quad, ramp)
        if self.family in QUADRATIC_FAMILIES:
            diff = w - z
            return 0.5 * (diff * diff * self.lam).sum(axis=-1)
        if self.loss_fn is None:
            raise CapabilityError("custom_smooth instance has no loss_fn")
        return self.loss_fn(w, z)

    def grad(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Exact closed-form gradient in w; broadcasts like :meth:`loss`."""
        w = np.asarray(w, dtype=float)
        z = np.asarray(z, dtype=float)
        if self.family == "linear":
            return np.broadcast_to(z, np.broadcast_shapes(w.shape, z.shape)).copy()
        if self.family == "convex_huber":
            beta, tau = self.params.beta, self.params.tau
            shape = np.broadcast_shapes(w.shape, z.shape)
            g = np.empty(shape, dtype=float)
            g[..., :-1] = np.broadcast_to(z[..., :-1], shape[:-1] + (self.d - 1,))
            u = w[..., -1] - self.w1[-1] - z[..., -1]
            # At |u| = tau both branches agree (the loss is C^1); the
            # quadratic branch is used there.
            g[..., -1] = np.where(np.abs(u) <= tau, beta * u, beta * tau * np.sign(u))
            return g
        if self.family in QUADRATIC_FAMILIES:
            return self.lam * (w - z)
        if self.grad_fn is None:
            raise CapabilityError("custom_smooth instance has no grad_fn")
        return self.grad_fn(w, z)

    def batch_grad_mean(self, W: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Mean gradient over a batch: W is (..., d), Z is (..., m, d)."""
        if self.family == "linear":
            return Z.mean(axis=-2)
        if self.family == "convex_huber":
            beta, tau = self.params.beta, self.params.tau
            lin = Z[..., :-1].mean(axis=-2)
            u = W[..., -1:] - self.w1[-1] - Z[..., -1]
            hub = np.where(np.abs(u) <= tau, beta * u, beta * tau * np.sign(u))
            shape = np.broadcast_shapes(W.shape[:-1], lin.shape[:-1])
            g = np.empty(shape + (self.d,), dtype=float)
            g[..., :-1] = lin
            g[..., -1] = hub.mean(axis=-1)
            return g
        if self.family in QUADRATIC_FAMILIES:
            return self.lam * (W - Z.mean(axis=-2))
        return self.grad(W[..., None, :], Z).mean(axis=-2)

    # -- closed-form data --------------------------------------------------

    def affine_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, e, c), each (d,), with grad f(w, z) = a * (w - c) + e * z on
        the analytic region; see the module docstring for the table."""
        d = self.d
        if self.family == "linear":
            return np.zeros(d), np.ones(d), np.zeros(d)
        if self.family == "convex_huber":
            a, e, c = np.zeros(d), np.ones(d), np.zeros(d)
            a[-1], e[-1], c[-1] = self.params.beta, -self.params.beta, self.w1[-1]
            return a, e, c
        if self.family in QUADRATIC_FAMILIES:
            return self.lam, -self.lam, np.zeros(d)
        raise CapabilityError(f"family {self.family!r} has no affine gradient form")

    def huber_region_limit(self, etas: np.ndarray) -> float | None:
        """Half-width tau/2 of the band |w^d - w1^d| that convex_huber iterates
        never leave under the step sizes ``etas``.

        The band is invariant when every eta_t <= 1/beta and tau >= 2 s_d; the
        limit is None when either fails, and for every other family.
        """
        if self.family != "convex_huber":
            return None
        p = self.params
        if etas.size and etas.max() > (1.0 / p.beta) * (1.0 + REL_SLACK):
            return None
        if p.tau < 2.0 * self.scales[-1] * (1.0 - REL_SLACK):
            return None
        return 0.5 * p.tau

    def population_risk(self, w: np.ndarray) -> np.ndarray:
        """Exact expectation of the loss under the example distribution:
        (1/2) [sum_k a_k (w_k - c_k)^2 + sum_k a_k s_k^2]."""
        w = np.asarray(w, dtype=float)
        a, _, c = self.affine_form()
        if self.family == "convex_huber":
            v = w[..., -1] - c[-1]
            limit = self.params.tau - self.scales[-1]
            if np.any(np.abs(v) > limit * (1.0 + REL_SLACK) + ABS_SLACK):
                raise AnalyticRegionError(
                    "population risk queried outside the analytic region "
                    f"|w^d - w1^d| <= {limit!r}; iterates should never leave it"
                )
        return 0.5 * ((a * (w - c) ** 2).sum(axis=-1) + (a * self.scales**2).sum())

    def grad_sup_norm(self, W: np.ndarray) -> np.ndarray:
        """Largest gradient norm over the example support, per point of W.

        Defined for the quadratic families, where the per-coordinate worst
        case is the sign of z opposing w: max_z ||Lam (w - z)||.
        """
        if self.family not in QUADRATIC_FAMILIES:
            raise CapabilityError("grad_sup_norm is defined for quadratic families")
        worst = (np.abs(W) + self.scales) * self.lam
        return np.sqrt((worst * worst).sum(axis=-1))

    def to_config(self) -> dict:
        cfg = {"family": self.family, "d": self.d}
        p = self.params
        for name, val in (
            ("L", p.L),
            ("beta", p.beta),
            ("gamma", p.gamma),
            ("tau", p.tau),
        ):
            if val not in (None, 0.0) or name == "beta":
                cfg[name] = val
        if self.lam is not None:
            cfg["lam"] = [float(v) for v in self.lam]
        if np.any(self.w1 != 0.0):
            cfg["w1"] = [float(v) for v in self.w1]
        return cfg


# -- constructors ----------------------------------------------------------


def linear_instance(d: int, beta: float = 1.0, w1=None) -> ProblemInstance:
    """<w, z> over sign vectors; the Lipschitz constant is forced to sqrt(d)."""
    if d < 1:
        raise ConfigError("linear family requires d >= 1")
    params = LossParams(d=d, L=math.sqrt(d), beta=beta, w1=_w1_tuple(w1, d))
    return ProblemInstance("linear", params, scales=np.ones(d))


def convex_huber_instance(
    d: int, L: float, beta: float, tau: float | None = None, w1=None
) -> ProblemInstance:
    """Convex Lipschitz-and-smooth construction with bounded gradients."""
    if d < 2:
        raise ConfigError("convex_huber requires d >= 2")
    if L <= 0 or beta <= 0:
        raise ConfigError("convex_huber requires L > 0 and beta > 0")
    tau_max = L / (math.sqrt(d) * beta)
    if tau is None:
        tau = tau_max
    if tau > tau_max * (1 + REL_SLACK):
        raise ConfigError(
            f"tau must satisfy tau <= L/(sqrt(d) beta) = {tau_max!r}, got {tau!r}"
        )
    scales = np.full(d, L / math.sqrt(d))
    scales[-1] = L / (2.0 * beta * math.sqrt(d))
    params = LossParams(d=d, L=L, beta=beta, tau=tau, w1=_w1_tuple(w1, d))
    return ProblemInstance("convex_huber", params, scales=scales)


def quadratic_nonconvex_instance(
    d: int, beta: float, lam=None, w1=None
) -> ProblemInstance:
    """Concave diagonal quadratic; every eigenvalue negative with |lam| <= beta."""
    if d < 1 or beta <= 0:
        raise ConfigError("quadratic_nonconvex requires d >= 1 and beta > 0")
    lam = np.full(d, -beta) if lam is None else np.asarray(lam, dtype=float)
    if lam.shape != (d,):
        raise ConfigError(f"lam must have length d={d}")
    if np.any(lam >= 0) or np.any(np.abs(lam) > beta * (1 + REL_SLACK)):
        raise ConfigError("quadratic_nonconvex requires lam_k < 0 and |lam_k| <= beta")
    params = LossParams(
        d=d, L=None, beta=beta, lam=tuple(float(v) for v in lam), w1=_w1_tuple(w1, d)
    )
    return ProblemInstance(
        "quadratic_nonconvex",
        params,
        scales=np.full(d, 1.0 / math.sqrt(beta * d)),
        lam=lam,
    )


def quadratic_strongly_convex_instance(
    d: int, L: float, beta: float, gamma: float, w1=None
) -> ProblemInstance:
    """Diagonal quadratic with spectrum {beta, gamma, ..., gamma}.

    Requires beta >= gamma > 0 and d >= (beta^2 - gamma^2) / (3 gamma^2), the
    dimension at which path gradients stay below 4L.
    """
    if gamma <= 0 or beta < gamma:
        raise ConfigError("strongly-convex family requires beta >= gamma > 0")
    if L <= 0:
        raise ConfigError("strongly-convex family requires L > 0")
    d_min = (beta**2 - gamma**2) / (3.0 * gamma**2)
    if d < d_min:
        raise ConfigError(
            f"dimension d={d} below the path-gradient threshold {d_min!r}"
        )
    lam = np.full(d, gamma)
    lam[0] = beta
    params = LossParams(
        d=d, L=L, beta=beta, gamma=gamma, lam=tuple(float(v) for v in lam),
        w1=_w1_tuple(w1, d),
    )
    return ProblemInstance(
        "quadratic_strongly_convex",
        params,
        scales=np.full(d, L / (gamma * math.sqrt(d))),
        lam=lam,
    )


def custom_smooth_instance(
    d: int,
    loss_fn: Callable,
    grad_fn: Callable,
    scales,
    beta: float,
    L: float | None = None,
    w1=None,
) -> ProblemInstance:
    """User-supplied smooth loss; excluded from analytic-oracle operations."""
    params = LossParams(d=d, L=L, beta=beta, w1=_w1_tuple(w1, d))
    return ProblemInstance(
        "custom_smooth",
        params,
        scales=np.asarray(scales, dtype=float),
        loss_fn=loss_fn,
        grad_fn=grad_fn,
    )


def _w1_tuple(w1, d: int) -> tuple[float, ...]:
    if w1 is None:
        return (0.0,) * d
    arr = np.asarray(w1, dtype=float).reshape(-1)
    if arr.shape != (d,):
        raise ConfigError(f"w1 must have length d={d}")
    return tuple(float(v) for v in arr)


def instance_from_config(cfg: dict) -> ProblemInstance:
    """Build an instance from a config mapping (see README for the schema)."""
    family = cfg.get("family")
    d = cfg.get("d")
    if family is None or d is None:
        raise ConfigError("instance config requires 'family' and 'd'")
    kw = {k: cfg[k] for k in ("w1",) if k in cfg}
    if family == "linear":
        return linear_instance(d, beta=cfg.get("beta", 1.0), **kw)
    if family == "convex_huber":
        return convex_huber_instance(
            d, L=cfg["L"], beta=cfg["beta"], tau=cfg.get("tau"), **kw
        )
    if family == "quadratic_nonconvex":
        return quadratic_nonconvex_instance(
            d, beta=cfg["beta"], lam=cfg.get("lam"), **kw
        )
    if family == "quadratic_strongly_convex":
        return quadratic_strongly_convex_instance(
            d, L=cfg["L"], beta=cfg["beta"], gamma=cfg["gamma"], **kw
        )
    raise ConfigError(f"cannot build family {family!r} from a config file")


# -- datasets ----------------------------------------------------------------


@dataclass(eq=False)
class Dataset:
    """n examples of length d; every coordinate is +/- its configured scale."""

    examples: np.ndarray

    def __post_init__(self) -> None:
        self.examples = np.asarray(self.examples, dtype=float)

    @property
    def n(self) -> int:
        return self.examples.shape[0]


def sample_dataset(
    instance: ProblemInstance,
    n: int,
    seed: int | None = None,
    rng: Generator | None = None,
) -> Dataset:
    """Draw n i.i.d. examples: independent symmetric signs times the scales."""
    if n < 1:
        raise ConfigError(f"dataset size n must be >= 1, got {n}")
    if rng is None:
        if seed is None:
            raise ConfigError("sample_dataset needs a seed or an rng")
        rng = rng_at(seed)
    signs = np.where(rng.random((n, instance.d)) < 0.5, -1.0, 1.0)
    return Dataset(examples=signs * instance.scales)


def sample_examples(instance: ProblemInstance, count: int, rng: Generator) -> np.ndarray:
    signs = np.where(rng.random((count, instance.d)) < 0.5, -1.0, 1.0)
    return signs * instance.scales


def neighbor(dataset: Dataset, i: int, replacement: np.ndarray) -> Dataset:
    """Copy of the dataset with only position i (1-based) replaced."""
    if not 1 <= i <= dataset.n:
        raise ValueError(f"index i must be in [1, {dataset.n}], got {i}")
    examples = dataset.examples.copy()
    examples[i - 1] = np.asarray(replacement, dtype=float)
    return Dataset(examples=examples)


def empirical_risk(instance: ProblemInstance, w: np.ndarray, S: Dataset) -> float:
    """Arithmetic mean of the loss over the dataset."""
    if S.n == 0:
        raise ConfigError("empirical risk of an empty dataset is undefined")
    return float(instance.loss(np.asarray(w, dtype=float), S.examples).mean())


def dataset_to_csv(dataset: Dataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in dataset.examples:
            writer.writerow([repr(float(v)) for v in row])


# -- regularity checks -------------------------------------------------------


@dataclass(frozen=True)
class RegularityVerdict:
    passed: bool
    failures: tuple[str, ...] = ()
    max_lipschitz_ratio: float = 0.0
    max_smoothness_ratio: float = 0.0

    def __bool__(self) -> bool:
        return self.passed


def verify_regularity(
    instance: ProblemInstance, trials: int, seed: int
) -> RegularityVerdict:
    """Sample random point pairs and examples; check the regularity constants.

    Checks, each on every sampled pair:
      * |f(w,z) - f(u,z)| <= L ||w-u||          (Lipschitz families only)
      * ||grad f(w,z) - grad f(u,z)|| <= beta ||w-u||
      * <grad f(w,z) - grad f(u,z), w-u> >= gamma ||w-u||^2   (gamma > 0)
      * gradient vs central finite difference, step 1e-6 (1 + ||w||),
        tolerance 1e-6 relative to (1 + |component|), at points at least
        1e-4 away from any Huber kink.
    """
    if trials < 1:
        raise ConfigError("verify_regularity requires trials >= 1")
    rng = rng_at(seed)
    p = instance.params
    failures: list[str] = []
    max_lip = 0.0
    max_smooth = 0.0
    slack = 1.0 + REL_SLACK

    lipschitz = p.L is not None and instance.family in ("linear", "convex_huber")

    for k in range(trials):
        w = instance.w1 + rng.normal(scale=1.0, size=instance.d)
        u = instance.w1 + rng.normal(scale=1.0, size=instance.d)
        z = sample_examples(instance, 1, rng)[0]
        dw = float(np.linalg.norm(w - u))
        if dw == 0.0:
            continue
        fw = float(instance.loss(w, z))
        fu = float(instance.loss(u, z))
        gw = instance.grad(w, z)
        gu = instance.grad(u, z)
        if lipschitz:
            ratio = abs(fw - fu) / dw
            max_lip = max(max_lip, ratio)
            if ratio > p.L * slack + ABS_SLACK:
                failures.append(
                    f"Lipschitz violated at trial {k}: |df|/||dw|| = {ratio!r} > L"
                )
        sratio = float(np.linalg.norm(gw - gu)) / dw
        max_smooth = max(max_smooth, sratio)
        if sratio > p.beta * slack + ABS_SLACK:
            failures.append(
                f"smoothness violated at trial {k}: ratio {sratio!r} > beta"
            )
        if p.gamma > 0:
            inner = float((gw - gu) @ (w - u))
            if inner < p.gamma * dw * dw * (1.0 - REL_SLACK) - ABS_SLACK:
                failures.append(
                    f"strong convexity violated at trial {k}: "
                    f"<dg, dw> = {inner!r} < gamma ||dw||^2"
                )
        fd_fail = _finite_difference_mismatch(instance, w, z)
        if fd_fail:
            failures.append(f"trial {k}: {fd_fail}")
        if failures:
            break

    return RegularityVerdict(
        passed=not failures,
        failures=tuple(failures),
        max_lipschitz_ratio=max_lip,
        max_smoothness_ratio=max_smooth,
    )


def _finite_difference_mismatch(
    instance: ProblemInstance, w: np.ndarray, z: np.ndarray, tol: float = 1e-6
) -> str | None:
    if instance.family == "convex_huber":
        u = w[-1] - instance.w1[-1] - z[-1]
        if abs(abs(u) - instance.params.tau) < 1e-4:
            return None  # too close to the kink for a two-sided difference
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
