"""Running-product helpers shared by the engine and the bound formulas."""

from __future__ import annotations

import numpy as np

from batchstab.errors import RegimeError


def suffix_products(factors: np.ndarray) -> np.ndarray:
    """suffix[t] = product of factors[t+1:], computed in one reverse pass.

    Works on (T,) or (T, d) input; the product runs over axis 0 and
    suffix[-1] is 1.  Total cost O(T d) instead of the naive O(T^2 d).
    """
    factors = np.asarray(factors, dtype=float)
    out = np.ones_like(factors)
    if factors.shape[0] > 1:
        out[:-1] = np.cumprod(factors[::-1], axis=0)[::-1][1:]
    return out


def affine_steps(instance, etas: np.ndarray):
    """The affine form of ``instance`` along a run with step sizes ``etas``.

    Returns (e, c, factors, tail): e and c of ``instance.affine_form()``, the
    per-step factors 1 - eta_t a and their suffix products
    tail[t] = prod_{j>t} (1 - eta_j a), both (T, d).  A convex_huber plan
    under which iterates could leave the Huber region, where the form stops
    holding, is refused with ``RegimeError``.
    """
    a, e, c = instance.affine_form()
    if instance.family == "convex_huber" and instance.huber_region_limit(etas) is None:
        raise RegimeError(
            "the convex_huber closed forms require eta_t <= 1/beta and tau >= "
            "twice the last data scale, so that iterates stay in the Huber region"
        )
    factors = 1.0 - etas[:, None] * a
    return e, c, factors, suffix_products(factors)
