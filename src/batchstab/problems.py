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
population risk are each one formula in (a, e, c).  The last column says
which gradient coordinates read the iterate; every other coordinate is z
itself.  ``ProblemInstance.grad_free_coords`` counts the leading coordinates
that do not read w (custom_smooth's ``grad_fn`` is opaque, so all of its
coordinates are taken to read w):

    family          a                e                   c                  reads w
    linear          0                1                   0                  none
    convex_huber    (0, ..., 0, b)   (1, ..., 1, -b)     (0, ..., 0, w1^d)  the last
    quadratics      lam              -lam                0                  all
    custom_smooth   -                -                   -                  all

For convex_huber (b = beta) the region is |w^d - w1^d - z^d| <= tau; the
iterates never leave it when every eta_t <= 1/beta and tau >= 2 s_d
(``ProblemInstance.huber_region_limit``).

The mean gradient over a batch is stated once, in parts the engine can
compute apart: ``free_grad_mean``, the batch mean of the first
``grad_free_coords`` coordinates of z, and ``step_map``, the coordinates
that read w, as a map of w and of the batch's ``step_terms``, which do not
read w:

    family          step_terms               step_map(w, terms)                   scalar_steps
    linear          none                     none                                 -
    convex_huber    z^d column (m,)          in band: (w^d - w1^d - zbar^d) beta  w^d
                                             else: mean_j slope(w^d - w1^d - z_j^d)
    quadratics      batch mean zbar (d,)     lam (w - zbar)                       -
    custom_smooth   the batch itself (m, d)  mean_j grad_fn(w, z_j)               -

``step_terms_size`` gives the size of the terms of one batch, by which the
engine sizes a paired block.  A paired run takes each run's terms from those
of the base batch and of the m batches with one selected example replaced
(``engine._evolve``).  convex_huber's batch slope has one rule, stated at
``step_map``: a batch is in band when the clip of every example's slope
beta u to [-beta tau, beta tau] is the identity, and then its mean slope is
the slope at the batch mean zbar^d; otherwise it is the mean of the clipped
slopes.  The last column names the family whose step reads a single
coordinate of w (``scalar_step``); ``scalar_steps`` steps that coordinate of
one run through a whole block.  The slope, its band and its cap beta tau are
stated in this class only.
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
        # The leading gradient coordinates that are the example itself: the
        # engine may compute their updates for a block of steps before it
        # steps (see ``engine._evolve``).
        self.grad_free_coords = {"linear": params.d, "convex_huber": params.d - 1}.get(
            family, 0
        )
        # Whether a single run steps its one coordinate that reads w by
        # ``scalar_steps`` (the module docstring's table).
        self.scalar_step = family == "convex_huber"
        w1 = params.w1 if params.w1 is not None else (0.0,) * params.d
        self.w1 = np.asarray(w1, dtype=float)
        if self.w1.shape != (self.d,):
            raise ConfigError(f"w1 must have length d={self.d}")
        if self.scalar_step:
            # the Huber slope's cap beta tau, and w1^d as a float
            self._huber_cap = params.beta * params.tau
            self._w1d = float(self.w1[-1])
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
            shape = np.broadcast_shapes(w.shape, z.shape)
            g = np.empty(shape, dtype=float)
            g[..., :-1] = np.broadcast_to(z[..., :-1], shape[:-1] + (self.d - 1,))
            u = np.asarray(w[..., -1] - self.w1[-1] - z[..., -1])
            g[..., -1] = self._huber_slope(u)
            return g
        if self.family in QUADRATIC_FAMILIES:
            return self.lam * (w - z)
        if self.grad_fn is None:
            raise CapabilityError("custom_smooth instance has no grad_fn")
        return self.grad_fn(w, z)

    def batch_grad_mean(self, W: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Mean gradient over a batch: W is (..., d), Z is (..., m, d).

        The first ``grad_free_coords`` coordinates are :meth:`free_grad_mean`;
        the rest are :meth:`step_map` of the batch's :meth:`step_terms`.  The
        engine computes the parts apart; this is the whole per-step map.
        """
        f = self.grad_free_coords
        if f == self.d:
            return self.free_grad_mean(Z)
        reading = self.step_map(W, self.step_terms(Z))
        if f == 0:
            return reading
        g = np.empty(reading.shape[:-1] + (self.d,))
        g[..., :f] = self.free_grad_mean(Z)
        g[..., f:] = reading
        return g

    def free_grad_mean(self, Z: np.ndarray) -> np.ndarray:
        """The first ``grad_free_coords`` coordinates of the mean gradient over
        each batch of Z (..., m, d): the batch mean of z itself, read from no w.

        Each mean is ``np.add.reduce(., -2) / m``, which is what ``np.mean``
        computes, bit for bit, without its Python-level dispatch.  The order
        of the sum follows the memory layout of Z: along the batch axis when
        it is outermost, pairwise when it is the innermost axis.
        """
        return np.add.reduce(Z[..., : self.grad_free_coords], -2) / Z.shape[-2]

    def step_terms(self, Z: np.ndarray):
        """What :meth:`step_map` reads of each batch of Z (..., m, d); none of it
        reads w: the quadratics' batch mean (..., d), convex_huber's z^d column
        (..., m), custom_smooth's batch itself, None for linear."""
        if self.family == "convex_huber":
            return Z[..., -1]
        if self.family in QUADRATIC_FAMILIES:
            return np.add.reduce(Z, -2) / Z.shape[-2]
        if self.family == "custom_smooth":
            return Z
        return None

    def step_terms_size(self, m: int) -> int:
        """How many numbers :meth:`step_terms` gives for one batch of m."""
        sizes = {"linear": 0, "convex_huber": m, "custom_smooth": m * self.d}
        return sizes.get(self.family, self.d)

    def step_map(self, W: np.ndarray, terms) -> np.ndarray:
        """The mean gradient coordinates that read w, the last d -
        ``grad_free_coords``, at W (..., d) from the :meth:`step_terms` of its
        batch.  Empty for linear.

        convex_huber's batch slope takes one rule, row by row, which
        :meth:`scalar_steps` applies to floats.  With c = w^d - w1^d and
        u_j = c - z_j^d, a batch is in band when every beta u_j lies in
        [-beta tau, beta tau].  The clip is then the identity and the slope
        linear in z^d, so the mean slope is the slope at the batch mean,
        (c - zbar^d) beta with zbar^d = ``np.add.reduce(z^d) / m``.
        Otherwise it is the mean of the clipped slopes.  Rounding is
        monotone, so testing the extreme u_j tests every one: here
        beta max_j |u_j| <= beta tau, in :meth:`scalar_steps`
        (c - max_j z_j^d) beta >= -beta tau and
        (c - min_j z_j^d) beta <= beta tau.  A NaN fails either test.
        """
        if self.family == "convex_huber":
            beta, cap, m = self.params.beta, self._huber_cap, terms.shape[-1]
            c = W[..., -1:] - self._w1d
            g = (c - np.add.reduce(terms, -1, keepdims=True) / m) * beta
            u = c - terms
            reach = np.abs(u)
            # Every row is in band when the largest |u_j| of all rows is.
            if not np.maximum.reduce(reach, None) * beta <= cap:
                band = np.maximum.reduce(reach, -1, keepdims=True) * beta <= cap
                slopes = self._huber_slope(u)
                g = np.where(band, g, np.add.reduce(slopes, -1, keepdims=True) / m)
            return g
        if self.family in QUADRATIC_FAMILIES:
            return self.lam * (W - terms)
        if self.family == "custom_smooth":
            return self.grad(W[..., None, :], terms).mean(axis=-2)
        return np.empty(W.shape[:-1] + (0,))

    def scalar_steps(self, w: float, etas, terms: np.ndarray) -> list[float]:
        """Step the Huber coordinate of one convex_huber run through a block
        from w: the iterates after each of its b steps, :meth:`step_map`'s
        bit for bit, so a single run steps that coordinate here alone.

        ``etas`` holds the block's b step sizes as floats and ``terms`` its
        (b, m) z^d column (:meth:`step_terms`), or the (1, m) column of one
        batch that every step reads.  Each row's zbar^d, min and max are
        taken once, as arrays.  A step whose batch is in band is then
        float operations only, those of :meth:`step_map`'s in-band slope and
        of the update w - eta g, in their order.  A step whose batch is not
        reduces the clipped slopes of its fresh (m,) row u, as
        :meth:`step_map` does for a (1, m) row.
        """
        w1d, beta, cap = self._w1d, self.params.beta, self._huber_cap
        m = terms.shape[-1]
        zbar = (np.add.reduce(terms, -1) / m).tolist()
        lo = np.minimum.reduce(terms, -1).tolist()
        hi = np.maximum.reduce(terms, -1).tolist()
        if len(terms) < len(etas):
            b = len(etas)
            zbar, lo, hi = zbar * b, lo * b, hi * b
            terms = np.broadcast_to(terms, (b, m))
        path = []
        for e, zb, a, b in zip(etas, zbar, lo, hi):
            c = w - w1d
            if (c - b) * beta >= -cap and (c - a) * beta <= cap:
                g = (c - zb) * beta
            else:
                g = float(np.add.reduce(self._huber_slope(c - terms[len(path)])) / m)
            w = w - e * g
            path.append(w)
        return path

    def _huber_slope(self, u: np.ndarray) -> np.ndarray:
        """Derivative of the convex_huber term in u: beta u clipped to
        [-beta tau, beta tau], written over u, which callers pass as a
        temporary.  On that interval, its linear piece, the clip is the
        identity (see :meth:`step_map`).

        Rounding is monotone, so this is ``where(|u| <= tau, beta u,
        beta tau sign(u))`` bit for bit: both give +/- fl(beta tau) from
        |u| = tau on, where the loss is C^1.
        """
        cap = self._huber_cap
        np.multiply(u, self.params.beta, out=u)
        np.maximum(u, -cap, out=u)
        return np.minimum(u, cap, out=u)

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
                    f"|w^d - w1^d| <= {float(limit)!r}; iterates should never leave it"
                )
        return 0.5 * ((a * (w - c) ** 2).sum(axis=-1) + (a * self.scales**2).sum())

    def grad_sup_norm(self, W: np.ndarray) -> np.ndarray:
        """Largest gradient norm over the example support, per point of W.

        Defined for the quadratic families, where the per-coordinate worst
        case is the sign of z opposing w: max_z ||Lam (w - z)||.  It runs
        once per block of every tracked paired run, so it works in place on
        one temporary the size of W.
        """
        if self.family not in QUADRATIC_FAMILIES:
            raise CapabilityError("grad_sup_norm is defined for quadratic families")
        worst = np.abs(W)
        worst += self.scales
        worst *= self.lam
        np.square(worst, out=worst)
        return np.sqrt(worst.sum(axis=-1))

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
    if not 0 < tau <= tau_max * (1 + REL_SLACK):
        raise ConfigError(
            f"tau must satisfy 0 < tau <= L/(sqrt(d) beta) = {tau_max!r}, got {tau!r}"
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
    if d < 1 or gamma <= 0 or beta < gamma:
        raise ConfigError("strongly-convex family requires d >= 1 and beta >= gamma > 0")
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
    return Dataset(examples=sample_examples(instance, n, rng))


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
    # w + h e_k for every k, then w - h e_k: one loss call on the (2d, d) stack
    step = np.eye(instance.d) * h
    f = instance.loss(np.concatenate((w + step, w - step)), z).tolist()
    for k in range(instance.d):
        fd = (f[k] - f[instance.d + k]) / (2 * h)
        if abs(fd - g[k]) > tol * (1.0 + abs(g[k])):
            return (
                f"finite-difference mismatch in coordinate {k}: "
                f"analytic {g[k]!r} vs central difference {fd!r}"
            )
    return None
