"""Shared test helpers, chiefly independent oracles.

``exact_gen_error_by_enumeration`` computes the expected generalization
error of a built-in construction exactly, by averaging over every one of the
2^(n*d) equiprobable sign datasets.  It exercises the engine but never the
closed-form bound formulas, so it is an independent route against
``analytic_gen_error`` and against Monte Carlo estimates.

``block_of`` patches the engine's block sizing so that a run steps in
blocks of a chosen length, and ``chunk_of`` its chunking of a paired
block's patched batches.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np

from batchstab import engine
from batchstab.engine import run_final
from batchstab.problems import Dataset, empirical_risk


def exact_gen_error_by_enumeration(instance, n, sched, plan) -> float:
    bits = n * instance.d
    assert bits <= 16, "enumeration oracle is for tiny cases only"
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=bits):
        examples = np.array(signs).reshape(n, instance.d) * instance.scales
        S = Dataset(examples=examples)
        w = run_final(instance, S, sched, plan)
        total += float(instance.population_risk(w)) - empirical_risk(instance, w, S)
    return total / 2.0**bits


def exact_population_risk_by_enumeration(instance, w) -> float:
    """Average the loss over all 2^d support atoms (exact expectation)."""
    d = instance.d
    assert d <= 12
    atoms = np.array(list(itertools.product((-1.0, 1.0), repeat=d))) * instance.scales
    return float(instance.loss(np.asarray(w, float), atoms).mean())


def block_of(B):
    """Patch the engine so that every run steps in blocks of B steps."""
    return mock.patch.object(engine, "_block_steps", lambda *args: B)


def chunk_of(width):
    """Patch the engine so that a paired block builds its patched batches
    ``width`` slots at a time."""
    return mock.patch.object(engine, "_chunk_slots", lambda *args: width)
