"""Closed-form generalization bounds and exact construction-specific oracles.

Four loss classes are covered; each class pins its own step-size regime and
the formulas refuse (``RegimeError``) outside it:

    convex               eta_t < 2/beta (upper), eta_t <= 1/beta (lower)
                         upper  2 L^2 / n * sum eta_t
                         lower  L^2 / (2n) * sum eta_t
    nonconvex_lipschitz  eta_t = C/t with C < 1/beta
                         upper  2 C e^{C beta} L^2 T^{C beta} / n
                                * min{1 + 1/(C beta), log(e T)}
                         lower  open
    nonconvex_smooth     eta_t = c / (beta t), c in (0, 1]
                         upper  out-of-scope prior-work reference only
                         lower  ((T+1)^{log(1+c)} - 1) / (2n)   (natural log)
    strongly_convex      constant eta in [2/(gamma (T+1)), 1/(beta+gamma)]
                         upper  4 Lt^2 / (n gamma) * (1 - (1 - eta gamma/2)^T)
                         lower  Lt^2 / (32 gamma n)

The analytic oracle evaluates the exact expected generalization error of a
built-in construction.  Batch-size and selection-rule terms cancel exactly
(every step perturbs m of the n neighbors, and the update divides by m), so
the oracle takes no schedule argument: every data-independent rule, however
exotic, produces the same expected value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from batchstab._series import affine_steps
from batchstab.engine import StepSizePlan
from batchstab.errors import CapabilityError, ConfigError, RegimeError
from batchstab.problems import ProblemInstance, REL_SLACK
from batchstab.stability import nonconvex_step_sum_cap

BOUND_CLASSES = (
    "convex",
    "nonconvex_lipschitz",
    "nonconvex_smooth",
    "strongly_convex",
)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RegimeError(message)


def _require_constants(what: str, **constants) -> None:
    """ConfigError naming each constant that is None."""
    missing = [k for k, v in constants.items() if v is None]
    if missing:
        raise ConfigError(f"{what} requires {' and '.join(missing)}")


def gen_error_upper(
    cls: str,
    plan: StepSizePlan,
    n: int,
    *,
    L: float | None = None,
    beta: float | None = None,
    gamma: float | None = None,
    Ltilde: float | None = None,
) -> float:
    """Worst-case generalization-error upper bound for one loss class."""
    etas = plan.etas()
    if cls == "convex":
        _require_constants("convex upper bound", L=L, beta=beta)
        _require(
            etas.size == 0 or etas.max() < 2.0 / beta,
            "convex upper bound requires eta_t < 2/beta",
        )
        return float(2.0 * L * L / n * etas.sum())
    if cls == "nonconvex_lipschitz":
        _require_constants("nonconvex upper bound", L=L, beta=beta)
        _require(
            plan.kind == "inverse_t",
            "nonconvex upper bound requires a decreasing step size eta_t = C/t",
        )
        _require(
            plan.coeff < 1.0 / beta,
            "nonconvex upper bound requires C < 1/beta",
        )
        if plan.T == 0:
            return 0.0
        return float(2.0 * L * L / n * nonconvex_step_sum_cap(plan.coeff, beta, plan.T))
    if cls == "strongly_convex":
        _require_constants(
            "strongly-convex upper bound", Ltilde=Ltilde, beta=beta, gamma=gamma
        )
        _require(
            plan.kind == "constant",
            "strongly-convex upper bound requires a constant step size",
        )
        _require(
            plan.T == 0 or plan.eta <= (1.0 / (beta + gamma)) * (1.0 + REL_SLACK),
            "strongly-convex upper bound requires eta <= 1/(beta+gamma)",
        )
        decay = (1.0 - 0.5 * plan.eta * gamma) ** plan.T
        return float(4.0 * Ltilde * Ltilde / (n * gamma) * (1.0 - decay))
    if cls == "nonconvex_smooth":
        raise CapabilityError(
            "no in-scope upper bound for smooth non-Lipschitz losses; the "
            "full-batch reference rate from prior work is not evaluated here"
        )
    raise ConfigError(f"unknown bound class {cls!r}")


def gen_error_lower(
    cls: str,
    plan: StepSizePlan,
    n: int,
    *,
    L: float | None = None,
    beta: float | None = None,
    gamma: float | None = None,
    Ltilde: float | None = None,
    d: int | None = None,
) -> float:
    """Minimax generalization-error lower bound for one loss class."""
    etas = plan.etas()
    if cls == "convex":
        _require_constants("convex lower bound", L=L, beta=beta)
        _require(
            etas.size == 0 or etas.max() <= (1.0 / beta) * (1.0 + REL_SLACK),
            "convex lower bound requires eta_t <= 1/beta",
        )
        return float(L * L / (2.0 * n) * etas.sum())
    if cls == "nonconvex_smooth":
        _require_constants("nonconvex lower bound", beta=beta)
        _require(
            plan.kind == "inverse_t",
            "nonconvex lower bound requires eta_t = c/(beta t)",
        )
        c = plan.coeff * beta
        _require(0.0 < c <= 1.0 + REL_SLACK, "nonconvex lower bound requires c in (0, 1]")
        return float(((plan.T + 1) ** math.log1p(c) - 1.0) / (2.0 * n))
    if cls == "strongly_convex":
        _require_constants(
            "strongly-convex lower bound", Ltilde=Ltilde, beta=beta, gamma=gamma, d=d
        )
        _require(
            d >= (beta * beta - gamma * gamma) / (3.0 * gamma * gamma),
            "strongly-convex lower bound requires d >= (beta^2 - gamma^2)/(3 gamma^2)",
        )
        _require(
            plan.kind == "constant",
            "strongly-convex lower bound requires a constant step size",
        )
        lo = 2.0 / (gamma * (plan.T + 1))
        hi = 1.0 / (beta + gamma)
        _require(
            lo * (1.0 - REL_SLACK) <= plan.eta <= hi * (1.0 + REL_SLACK),
            f"strongly-convex lower bound requires eta in [{lo!r}, {hi!r}]",
        )
        return float(Ltilde * Ltilde / (32.0 * gamma * n))
    if cls == "nonconvex_lipschitz":
        raise CapabilityError(
            "lower bound for Lipschitz-and-smooth nonconvex losses is open"
        )
    raise ConfigError(f"unknown bound class {cls!r}")


def analytic_gen_error(instance: ProblemInstance, plan: StepSizePlan, n: int) -> float:
    """Exact expected generalization error of a built-in construction.

    With the family's affine form (a, e, c) it is one series:

        (1/n) sum_k (s_k e_k)^2 sum_t eta_t prod_{j>t} (1 - eta_j a_k)

    The value is identical for every data-independent schedule and every
    batch size, so no schedule argument exists.  The family refuses a plan
    it admits no oracle under (``check_oracle_plan``), or under which its
    iterates could leave its analytic region (``affine_form``).
    """
    etas = plan.etas()
    instance.check_oracle_plan(plan)
    e, _, _, tail = affine_steps(instance, etas)
    series = (etas[:, None] * tail).sum(axis=0)  # (d,)
    return float((instance.scales**2 * e**2 * series).sum() / n)


def uniform_stability_constant(K: int, d: int, eta1: float) -> float:
    """Uniform-stability constant 2 K d eta1 of the incremental (round-robin,
    m = 1) method on the linear family over K epochs, computed with the
    worst-case-over-datasets technique.

    It stays bounded away from zero as the dataset grows, which is what
    makes that technique vacuous here.
    """
    return float(2.0 * K * d * eta1)


def path_gradient_bound(cls: str, L: float | None) -> float | None:
    """Bound on every gradient met along the iterates, proven from L.

    For the strongly-convex class it is 4 L, the construction's path-gradient
    bound Ltilde; for the other classes the Lipschitz constant L itself.
    None when L is unknown.
    """
    if L is None:
        return None
    return 4.0 * L if cls == "strongly_convex" else L


@dataclass(eq=False)
class BoundSet:
    """Upper/lower bounds and analytic oracle for one configuration.

    Components a class does not define, or whose step-size regime is not
    met, are absent with the refusal reason recorded; they are never
    silently dropped.
    """

    cls: str
    upper: float | None = None
    lower: float | None = None
    oracle: float | None = None
    reasons: dict = field(default_factory=dict)

    @property
    def regime_ok(self) -> bool:
        return not self.reasons

    @property
    def sandwich_ok(self) -> bool | None:
        """lower <= oracle <= upper, or None when any side is absent."""
        if self.upper is None or self.lower is None or self.oracle is None:
            return None
        slack = 1.0 + REL_SLACK
        return bool(
            self.lower <= self.oracle * slack + 1e-15
            and self.oracle <= self.upper * slack + 1e-15
        )

    def to_dict(self) -> dict:
        return {
            "class": self.cls,
            "upper": self.upper,
            "lower": self.lower,
            "oracle": self.oracle,
            "regime_ok": self.regime_ok,
            "reasons": dict(self.reasons),
            "sandwich_ok": self.sandwich_ok,
        }


def assemble_bound_set(
    cls: str,
    instance: ProblemInstance,
    plan: StepSizePlan,
    n: int,
) -> BoundSet:
    """Evaluate whichever of upper/lower/oracle apply to (class, family)."""
    if cls not in BOUND_CLASSES:
        raise ConfigError(f"unknown bound class {cls!r}")
    L, beta, gamma = instance.L, instance.beta, instance.gamma
    Ltilde = path_gradient_bound(cls, L)
    out = BoundSet(cls=cls)
    try:
        out.upper = gen_error_upper(
            cls, plan, n, L=L, beta=beta, gamma=gamma, Ltilde=Ltilde
        )
    except (RegimeError, CapabilityError) as e:
        out.reasons["upper"] = str(e)
    try:
        out.lower = gen_error_lower(
            cls, plan, n, L=L, beta=beta, gamma=gamma, Ltilde=Ltilde, d=instance.d
        )
    except (RegimeError, CapabilityError) as e:
        out.reasons["lower"] = str(e)
    try:
        out.oracle = analytic_gen_error(instance, plan, n)
    except (RegimeError, CapabilityError) as e:
        out.reasons["oracle"] = str(e)
    return out
