"""Loss families, data distributions, and their closed-form regularity data.

Each loss family is a subclass of ``ProblemInstance`` that states every fact
of the family once, in its own class: its constructor checks and the config
fields it reads, its loss and its exact gradient in w (``loss(w, z)`` and
``grad(w, z)``, on float arrays that broadcast over leading dimensions), the
split of its batch gradient, its affine form and analytic region, the plans
its generalization-error oracle admits, its population risk, its bound
class and its regularity facts.  The public constructors
(``linear_instance``, ...) are these classes, and ``family_class`` maps the
family name a config gives to its class.

The constants the bounds are stated in are attributes of the instance: d,
the smoothness beta and the start w1 of every family, and the Lipschitz
constant L, the strong-convexity modulus gamma, the Huber width tau and the
quadratic diagonal lam where the family has one, None where it has not.  So
gamma is None unless the family is strongly convex.

Examples are drawn coordinatewise from symmetric two-point laws: each
coordinate equals +/- its configured scale with probability 1/2, all
coordinates independent.  That makes the population risk of every built-in
family available in closed form.

Every built-in family has a gradient that is affine in w and z on its
analytic region, grad f(w, z) = a * (w - c) + e * z coordinatewise
(``ProblemInstance.affine_form``); the closed-form final iterate, the exact
generalization error and the population risk are each one formula in
(a, e, c).

The mean gradient over a batch is stated once, in parts the engine can
compute apart (``ProblemInstance.batch_grad_mean``): ``free_grad_mean``,
the batch mean of the coordinates of z that do not read w, and ``step_map``,
the coordinates that read w, as a map of w and of the batch's
``step_terms``, which do not read w; ``step_terms_size`` counts the terms
of one batch, by which the engine sizes a paired block.  A family whose
step reads a single coordinate of w (``scalar_step``) steps that
coordinate of one run through a whole block in ``scalar_steps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator

from batchstab.errors import (
    AnalyticRegionError,
    CapabilityError,
    ConfigError,
    RegimeError,
)
from batchstab.seeding import rng_at

# Relative slack absorbing float rounding in exact-inequality checks.
REL_SLACK = 1e-9
ABS_SLACK = 1e-12


class ProblemInstance:
    """A loss family plus its data distribution, immutable after construction.

    ``scales`` holds the per-coordinate magnitude of the symmetric two-point
    example distribution.  All operations are pure.  Each family is a
    subclass; the class attributes below are its facts, with the defaults a
    family keeps unless its class says otherwise.
    """

    family: str
    bound_class: str | None = None  # one of ``bounds.BOUND_CLASSES``
    tracks_grad_sup = False  # paired runs track ``grad_sup_norm``
    lipschitz_checked = False  # ``verify_regularity`` checks L
    scalar_step = False  # a single run steps by ``scalar_steps``
    # A constant the family lacks stays None; each constructor sets its own.
    L: float | None = None
    gamma: float | None = None
    tau: float | None = None
    lam: np.ndarray | None = None
    # The config fields the constructor reads beside family, d and w1, as
    # name -> (kind,) for a required field or (kind, default), each the name
    # of the attribute from which ``to_config`` writes it.
    config_fields: dict = {}

    def __init__(self, d: int, beta: float, scales, w1=None, grad_free_coords: int = 0):
        self.d, self.beta = d, beta
        # copies, which a caller's later change to its arrays does not reach
        self.w1 = np.zeros(d) if w1 is None else np.array(w1, dtype=float).reshape(-1)
        if self.w1.shape != (d,):
            raise ConfigError(f"w1 must have length d={d}")
        self.scales = np.asarray(scales, dtype=float)
        # The leading gradient coordinates that are the example itself, which
        # the engine updates a block of steps at a time (``engine._evolve``).
        self.grad_free_coords = grad_free_coords
        if self.scales.shape != (d,):
            raise ConfigError(f"scales must have length d={d}")

    @property
    def params(self) -> ProblemInstance:
        """The instance itself, which holds the constants (``perfbench``
        reads them through it)."""
        return self

    def batch_grad_mean(self, W: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Mean gradient over a batch: W is (..., d), Z is (..., m, d).

        The first ``grad_free_coords`` coordinates are :meth:`free_grad_mean`;
        the rest are ``step_map`` of the batch's ``step_terms``.  The engine
        computes the parts apart; this is the whole per-step map.
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

    def affine_form(self, etas: np.ndarray | None = None):
        """(a, e, c), each (d,), with grad f(w, z) = a * (w - c) + e * z on the
        analytic region; refused (``RegimeError``) for step sizes ``etas``
        under which the iterates could leave it."""
        raise CapabilityError(f"family {self.family!r} has no affine gradient form")

    def huber_region_limit(self, etas: np.ndarray) -> float | None:
        """The band of |w^d - w1^d| the iterates keep under ``etas``, or None."""
        return None

    def check_analytic_region(self, W: np.ndarray) -> None:
        """Refuse a point of W where the population risk is not exact."""

    def check_oracle_plan(self, plan) -> None:
        """Refuse a plan under which ``bounds.analytic_gen_error`` is unknown."""

    def population_risk(self, w: np.ndarray) -> np.ndarray:
        """Exact expectation of the loss under the example distribution:
        (1/2) [sum_k a_k (w_k - c_k)^2 + sum_k a_k s_k^2]."""
        w = np.asarray(w, dtype=float)
        a, _, c = self.affine_form()
        self.check_analytic_region(w)
        return 0.5 * ((a * (w - c) ** 2).sum(axis=-1) + (a * self.scales**2).sum())

    def grad_sup_norm(self, W: np.ndarray) -> np.ndarray:
        """Largest gradient norm over the example support, per point of W.

        Defined for the families that track it, the quadratics, where the
        per-coordinate worst case is the sign of z opposing w:
        max_z ||Lam (w - z)||.  It runs once per block of every tracked
        paired run, so it works in place on one temporary the size of W.
        """
        if not self.tracks_grad_sup:
            raise CapabilityError("grad_sup_norm is defined for quadratic families")
        worst = np.abs(W)
        worst += self.scales
        worst *= self.lam
        np.square(worst, out=worst)
        return np.sqrt(worst.sum(axis=-1))

    def near_kink(self, w: np.ndarray, z: np.ndarray) -> bool:
        """Whether f(., z) has a kink within 1e-4 of w."""
        return False

    def to_config(self) -> dict:
        """The config object that builds this instance again: its family, d,
        w1 when it is nonzero, and each of its ``config_fields``."""
        cfg = {"family": self.family, "d": self.d}
        if np.any(self.w1 != 0.0):
            cfg["w1"] = self.w1.tolist()
        for name in self.config_fields:
            value = getattr(self, name)
            cfg[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return cfg


class LinearInstance(ProblemInstance):
    """linear: f(w, z) = <w, z> with sign-vector examples in {-1, +1}^d and
    the Lipschitz constant forced to sqrt(d).  The affine form is a = 0,
    e = 1, c = 0 everywhere: no gradient coordinate reads w, so there are no
    ``step_terms`` and ``step_map`` is empty."""

    family = "linear"
    bound_class = "convex"
    lipschitz_checked = True
    config_fields = {"beta": (float, 1.0)}

    def __init__(self, d: int, beta: float = 1.0, w1=None):
        if d < 1:
            raise ConfigError("linear family requires d >= 1")
        self.L = math.sqrt(d)
        super().__init__(d, beta, np.ones(d), w1, grad_free_coords=d)

    def loss(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        return (w * z).sum(axis=-1)

    def grad(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.broadcast_to(z, np.broadcast_shapes(w.shape, z.shape)).copy()

    def step_terms(self, Z: np.ndarray) -> None:
        return None

    def step_terms_size(self, m: int) -> int:
        return 0

    def step_map(self, W: np.ndarray, terms) -> np.ndarray:
        return np.empty(W.shape[:-1] + (0,))

    def affine_form(self, etas: np.ndarray | None = None):
        return np.zeros(self.d), np.ones(self.d), np.zeros(self.d)


class ConvexHuberInstance(ProblemInstance):
    """convex_huber: convex, Lipschitz and smooth, with bounded gradients.

    Linear in the first d-1 coordinates plus a Huberized quadratic in the
    last one, u = w^d - w1^d - z^d:

        (beta/2) u^2             if |u| <= tau
        beta tau (|u| - tau/2)   otherwise.

    Gradients stay bounded by L while the loss remains beta-smooth and
    convex.  Requires d >= 2, L > 0, beta > 0 and
    0 < tau <= L/(sqrt(d) beta), the default tau.  The examples have scale
    L/sqrt(d), and s_d = L/(2 beta sqrt(d)) in the last coordinate.

    With b = beta the affine form is a = (0, ..., 0, b), e = (1, ..., 1, -b),
    c = (0, ..., 0, w1^d), on the analytic region |w^d - w1^d - z^d| <= tau;
    the iterates never leave it when every eta_t <= 1/beta and tau >= 2 s_d
    (:meth:`huber_region_limit`).  Only the last gradient coordinate reads
    w, through the z^d column of the batch, by the one rule of
    :meth:`step_map`, which :meth:`scalar_steps` applies to floats.
    """

    family = "convex_huber"
    bound_class = "convex"
    lipschitz_checked = True
    scalar_step = True
    config_fields = {"beta": (float,), "L": (float,), "tau": (float, None)}

    def __init__(
        self, d: int, L: float, beta: float, tau: float | None = None, w1=None
    ):
        if d < 2:
            raise ConfigError("convex_huber requires d >= 2")
        if L <= 0 or beta <= 0:
            raise ConfigError("convex_huber requires L > 0 and beta > 0")
        tau_max = L / (math.sqrt(d) * beta)
        if tau is None:
            tau = tau_max
        if not 0 < tau <= tau_max * (1 + REL_SLACK):
            raise ConfigError(
                "tau must satisfy 0 < tau <= L/(sqrt(d) beta) = "
                f"{tau_max!r}, got {tau!r}"
            )
        scales = np.full(d, L / math.sqrt(d))
        scales[-1] = L / (2.0 * beta * math.sqrt(d))
        self.L, self.tau = L, tau
        super().__init__(d, beta, scales, w1, grad_free_coords=d - 1)
        # the Huber slope's cap beta tau, and w1^d as a float
        self._huber_cap = beta * tau
        self._w1d = float(self.w1[-1])

    def loss(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        beta, tau = self.beta, self.tau
        lin = (w[..., :-1] * z[..., :-1]).sum(axis=-1)
        u = w[..., -1] - self.w1[-1] - z[..., -1]
        au = np.abs(u)
        quad = 0.5 * beta * u * u
        ramp = beta * tau * (au - 0.5 * tau)
        return lin + np.where(au <= tau, quad, ramp)

    def grad(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        shape = np.broadcast_shapes(w.shape, z.shape)
        g = np.empty(shape, dtype=float)
        g[..., :-1] = np.broadcast_to(z[..., :-1], shape[:-1] + (self.d - 1,))
        u = np.asarray(w[..., -1] - self.w1[-1] - z[..., -1])
        g[..., -1] = self._huber_slope(u)
        return g

    def step_terms(self, Z: np.ndarray) -> np.ndarray:
        return Z[..., -1]

    def step_terms_size(self, m: int) -> int:
        return m

    def step_map(self, W: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """The mean slope of the Huber coordinate at W (..., d), as a (..., 1)
        array, from the z^d column of its batch.

        The batch slope takes one rule, row by row, which
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
        beta, cap, m = self.beta, self._huber_cap, terms.shape[-1]
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

    def scalar_steps(self, w: float, etas, terms: np.ndarray) -> list[float]:
        """Step the Huber coordinate of one run through a block from w: the
        iterates after each of its b steps, :meth:`step_map`'s bit for bit,
        so a single run steps that coordinate here alone.

        ``etas`` holds the block's b step sizes as floats and ``terms`` its
        (b, m) z^d column (:meth:`step_terms`), or the (1, m) column of one
        batch that every step reads.  Each row's zbar^d, min and max are
        taken once, as arrays.  A step whose batch is in band is then
        float operations only, those of :meth:`step_map`'s in-band slope and
        of the update w - eta g, in their order.  A step whose batch is not
        reduces the clipped slopes of its fresh (m,) row u, as
        :meth:`step_map` does for a (1, m) row.
        """
        w1d, beta, cap = self._w1d, self.beta, self._huber_cap
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
        """Derivative of the Huber term in u: beta u clipped to
        [-beta tau, beta tau], written over u, which callers pass as a
        temporary.  On that interval, its linear piece, the clip is the
        identity (see :meth:`step_map`).

        Rounding is monotone, so this is ``where(|u| <= tau, beta u,
        beta tau sign(u))`` bit for bit: both give +/- fl(beta tau) from
        |u| = tau on, where the loss is C^1.
        """
        cap = self._huber_cap
        np.multiply(u, self.beta, out=u)
        np.maximum(u, -cap, out=u)
        return np.minimum(u, cap, out=u)

    def affine_form(self, etas: np.ndarray | None = None):
        d = self.d
        a, e, c = np.zeros(d), np.ones(d), np.zeros(d)
        a[-1], e[-1], c[-1] = self.beta, -self.beta, self.w1[-1]
        if etas is not None and self.huber_region_limit(etas) is None:
            raise RegimeError(
                "the convex_huber closed forms require eta_t <= 1/beta and tau >= "
                "twice the last data scale, so that iterates stay in the Huber region"
            )
        return a, e, c

    def huber_region_limit(self, etas: np.ndarray) -> float | None:
        """tau/2: the band |w^d - w1^d| <= tau/2 is invariant when every
        eta_t <= 1/beta and tau >= 2 s_d; None when either fails."""
        if etas.size and etas.max() > (1.0 / self.beta) * (1.0 + REL_SLACK):
            return None
        if self.tau < 2.0 * self.scales[-1] * (1.0 - REL_SLACK):
            return None
        return 0.5 * self.tau

    def check_analytic_region(self, W: np.ndarray) -> None:
        """Every example keeps |u| <= tau while |w^d - w1^d| <= tau - s_d."""
        v = W[..., -1] - self.w1[-1]
        limit = self.tau - self.scales[-1]
        if np.any(np.abs(v) > limit * (1.0 + REL_SLACK) + ABS_SLACK):
            raise AnalyticRegionError(
                "population risk queried outside the analytic region "
                f"|w^d - w1^d| <= {float(limit)!r}; iterates should never leave it"
            )

    def near_kink(self, w: np.ndarray, z: np.ndarray) -> bool:
        u = w[-1] - self.w1[-1] - z[-1]
        return abs(abs(u) - self.tau) < 1e-4


class _DiagonalQuadratic(ProblemInstance):
    """f(w, z) = (w-z)' Lam (w-z) / 2 with Lam = diag(lam), the formulas the
    two quadratic families share.  Affine form a = lam, e = -lam, c = 0
    everywhere.  Every gradient coordinate reads w: the ``step_terms`` of a
    batch are its mean zbar (d,), and ``step_map`` is lam (w - zbar).  Paired
    runs track the largest gradient norm on the support (``grad_sup_norm``).
    """

    tracks_grad_sup = True

    def loss(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        diff = w - z
        return 0.5 * (diff * diff * self.lam).sum(axis=-1)

    def grad(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.lam * (w - z)

    def step_terms(self, Z: np.ndarray) -> np.ndarray:
        return np.add.reduce(Z, -2) / Z.shape[-2]

    def step_terms_size(self, m: int) -> int:
        return self.d

    def step_map(self, W: np.ndarray, terms: np.ndarray) -> np.ndarray:
        return self.lam * (W - terms)

    def affine_form(self, etas: np.ndarray | None = None):
        return self.lam, -self.lam, np.zeros(self.d)


class QuadraticNonconvexInstance(_DiagonalQuadratic):
    """quadratic_nonconvex: every diagonal entry of Lam is negative, with
    |lam_k| <= beta (default lam_k = -beta); the examples have scale
    1/sqrt(beta d).  Its exact generalization error is known under the
    decreasing plan eta_t = coeff/t."""

    family = "quadratic_nonconvex"
    bound_class = "nonconvex_smooth"
    config_fields = {"beta": (float,), "lam": (list[float], None)}

    def __init__(self, d: int, beta: float, lam=None, w1=None):
        if d < 1 or beta <= 0:
            raise ConfigError("quadratic_nonconvex requires d >= 1 and beta > 0")
        lam = np.full(d, -float(beta)) if lam is None else np.array(lam, dtype=float)
        if lam.shape != (d,):
            raise ConfigError(f"lam must have length d={d}")
        if np.any(lam >= 0) or np.any(np.abs(lam) > beta * (1 + REL_SLACK)):
            raise ConfigError(
                "quadratic_nonconvex requires lam_k < 0 and |lam_k| <= beta"
            )
        self.lam = lam
        super().__init__(d, beta, np.full(d, 1.0 / math.sqrt(beta * d)), w1)

    def check_oracle_plan(self, plan) -> None:
        if plan.kind != "inverse_t":
            raise RegimeError(
                "the nonconvex oracle requires the decreasing plan eta_t = coeff/t"
            )


class QuadraticStronglyConvexInstance(_DiagonalQuadratic):
    """quadratic_strongly_convex: Lam = diag(beta, gamma, ..., gamma) with
    beta >= gamma > 0; the examples have scale L/(gamma sqrt(d)).  Requires
    d >= (beta^2 - gamma^2) / (3 gamma^2), the dimension at which path
    gradients stay below 4L.  Its exact generalization error is known under
    a constant eta <= 1/(beta+gamma)."""

    family = "quadratic_strongly_convex"
    bound_class = "strongly_convex"
    config_fields = {"beta": (float,), "L": (float,), "gamma": (float,)}

    def __init__(self, d: int, L: float, beta: float, gamma: float, w1=None):
        if d < 1 or gamma <= 0 or beta < gamma:
            raise ConfigError(
                "strongly-convex family requires d >= 1 and beta >= gamma > 0"
            )
        if L <= 0:
            raise ConfigError("strongly-convex family requires L > 0")
        d_min = (beta**2 - gamma**2) / (3.0 * gamma**2)
        if d < d_min:
            raise ConfigError(
                f"dimension d={d} below the path-gradient threshold {d_min!r}"
            )
        self.L, self.gamma = L, gamma
        self.lam = np.full(d, float(gamma))
        self.lam[0] = beta
        super().__init__(d, beta, np.full(d, L / (gamma * math.sqrt(d))), w1)

    def check_oracle_plan(self, plan) -> None:
        beta, gamma = self.beta, self.gamma
        if plan.kind != "constant":
            raise RegimeError(
                "the strongly-convex oracle requires a constant step size"
            )
        if not (plan.T == 0 or plan.eta <= (1.0 / (beta + gamma)) * (1.0 + REL_SLACK)):
            raise RegimeError(
                "the strongly-convex oracle requires eta <= 1/(beta+gamma)"
            )


class CustomSmoothInstance(ProblemInstance):
    """custom_smooth: a caller-provided loss/gradient pair, with no bound
    class and no affine form, so excluded from the analytic-oracle
    operations, and not built from a config file.  ``grad_fn`` is opaque, so
    every gradient coordinate is taken to read w: the ``step_terms`` of a
    batch are the batch itself (m, d), and ``step_map`` is
    mean_j grad_fn(w, z_j)."""

    family = "custom_smooth"

    def __init__(
        self, d: int, loss_fn: Callable, grad_fn: Callable, scales, beta: float,
        L: float | None = None, w1=None,
    ):
        self.L = L
        super().__init__(d, beta, scales, w1)
        self.loss_fn, self.grad_fn = loss_fn, grad_fn

    def loss(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        if self.loss_fn is None:
            raise CapabilityError("custom_smooth instance has no loss_fn")
        return self.loss_fn(w, z)

    def grad(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        if self.grad_fn is None:
            raise CapabilityError("custom_smooth instance has no grad_fn")
        return self.grad_fn(w, z)

    def step_terms(self, Z: np.ndarray) -> np.ndarray:
        return Z

    def step_terms_size(self, m: int) -> int:
        return m * self.d

    def step_map(self, W: np.ndarray, terms: np.ndarray) -> np.ndarray:
        return self.grad(W[..., None, :], terms).mean(axis=-2)


# -- constructors ----------------------------------------------------------

# Each family's class is its public constructor.
linear_instance = LinearInstance
convex_huber_instance = ConvexHuberInstance
quadratic_nonconvex_instance = QuadraticNonconvexInstance
quadratic_strongly_convex_instance = QuadraticStronglyConvexInstance
custom_smooth_instance = CustomSmoothInstance

# The families a config file can name; custom_smooth's functions cannot be
# written in one.
_CONFIG_FAMILIES = {cls.family: cls for cls in (
    LinearInstance, ConvexHuberInstance, QuadraticNonconvexInstance,
    QuadraticStronglyConvexInstance,
)}
FAMILIES = (*_CONFIG_FAMILIES, CustomSmoothInstance.family)


def family_class(family: str) -> type[ProblemInstance]:
    """The class of the family a config names."""
    cls = _CONFIG_FAMILIES.get(family)
    if cls is None:
        raise ConfigError(f"cannot build family {family!r} from a config file")
    return cls


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


def sample_examples(instance: ProblemInstance, count: int, rng: Generator) -> np.ndarray:
    """count i.i.d. examples: independent symmetric signs times the scales."""
    signs = np.where(rng.random((count, instance.d)) < 0.5, -1.0, 1.0)
    return signs * instance.scales


def empirical_risk(instance: ProblemInstance, w: np.ndarray, S: Dataset) -> float:
    """Arithmetic mean of the loss over the dataset."""
    if S.n == 0:
        raise ConfigError("empirical risk of an empty dataset is undefined")
    return float(instance.loss(np.asarray(w, dtype=float), S.examples).mean())


# -- regularity checks -------------------------------------------------------


@dataclass(frozen=True)
class RegularityVerdict:
    passed: bool
    failures: tuple[str, ...] = ()
    max_lipschitz_ratio: float = 0.0
    max_smoothness_ratio: float = 0.0


def verify_regularity(
    instance: ProblemInstance, trials: int, seed: int
) -> RegularityVerdict:
    """Sample random point pairs and examples; check the regularity constants.

    Checks, each on every sampled pair:
      * |f(w,z) - f(u,z)| <= L ||w-u||   (``lipschitz_checked`` families with an L)
      * ||grad f(w,z) - grad f(u,z)|| <= beta ||w-u||
      * <grad f(w,z) - grad f(u,z), w-u> >= gamma ||w-u||^2   (families with a gamma)
      * gradient vs central finite difference, step 1e-6 (1 + ||w||),
        tolerance 1e-6 relative to (1 + |component|), at points not
        ``near_kink``.
    """
    if trials < 1:
        raise ConfigError("verify_regularity requires trials >= 1")
    rng = rng_at(seed)
    L, beta, gamma = instance.L, instance.beta, instance.gamma
    failures: list[str] = []
    max_lip = 0.0
    max_smooth = 0.0
    slack = 1.0 + REL_SLACK

    lipschitz = L is not None and instance.lipschitz_checked

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
            if ratio > L * slack + ABS_SLACK:
                failures.append(
                    f"Lipschitz violated at trial {k}: |df|/||dw|| = {ratio!r} > L"
                )
        sratio = float(np.linalg.norm(gw - gu)) / dw
        max_smooth = max(max_smooth, sratio)
        if sratio > beta * slack + ABS_SLACK:
            failures.append(
                f"smoothness violated at trial {k}: ratio {sratio!r} > beta"
            )
        if gamma is not None:
            inner = float((gw - gu) @ (w - u))
            if inner < gamma * dw * dw * (1.0 - REL_SLACK) - ABS_SLACK:
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
    if instance.near_kink(w, z):
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
