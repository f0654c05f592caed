"""Shared test helpers, chiefly independent oracles.

``exact_gen_error_by_enumeration`` computes the expected generalization
error of a built-in construction exactly, by averaging over every one of the
2^(n*d) equiprobable sign datasets.  It exercises the engine but never the
closed-form bound formulas, so it is an independent route against
``analytic_gen_error`` and against Monte Carlo estimates.

``reference_path`` steps one run step by step, on the same per-step map as
the engine: the reference that the engine's blocked loop and ``dump`` must
match bit for bit.

``block_of`` patches the engine's block sizing so that a run steps in
blocks of a chosen length, and ``chunk_of`` its chunking of a paired
block's patched batches.

``paired_with_path`` collects the (T+1, n+1, d) path of a paired run through
the engine's ``on_block`` hook, the only way its iterates leave the engine;
``audit_path`` feeds a whole path to the growth-recursion audit, and
``selected`` gives the (T, n) matrix of which index each step selects.

``nonconvex_step_sum`` is the nonconvex series that the decreasing-step
cap simplifies, a reference for the bound tests.

``assert_pinned_digests`` compares the sha256 of outputs with the digests
pinned in ``digests.json``: the shipped reports and sweeps and a dump stay
byte-identical unless a change of numbers is declared by updating them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import platform
from pathlib import Path
from unittest import mock

import numpy as np

from batchstab import engine
from batchstab._series import suffix_products
from batchstab.engine import run_final, run_paired
from batchstab.problems import Dataset, empirical_risk
from batchstab.stability import GrowthRecursionAudit, growth_factors


DIGESTS = Path(__file__).resolve().with_name("digests.json")


def assert_pinned_digests(outputs):
    """Each text of ``outputs`` (name -> str) hashes to the sha256 pinned
    under its name; a mismatch names every new digest and the versions that
    produced it."""
    pinned = json.loads(DIGESTS.read_text())
    moved = [
        f"{name}: sha256 {digest} (pinned {pinned.get(name)})"
        for name, text in outputs.items()
        if (digest := hashlib.sha256(text.encode()).hexdigest()) != pinned.get(name)
    ]
    assert not moved, "\n".join(
        moved + [f"numpy {np.__version__}, Python {platform.python_version()}"]
    )


def nonconvex_step_sum(etas, beta) -> float:
    """sum_t eta_t prod_{j>t} (1 + beta eta_j), the series before the
    decreasing-step simplification of ``nonconvex_step_sum_cap``."""
    etas = np.asarray(etas, dtype=float)
    return float((etas * suffix_products(growth_factors("nonconvex", etas, beta))).sum())


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


def reference_path(inst, S, sched, etas):
    """Step-by-step iterates of one run, on the same per-step map as the engine."""
    W = inst.w1[None, :]
    path = [W]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, eta in enumerate(etas):
            W = W - eta * inst.batch_grad_mean(W, S.examples[sched.batches[t]])
            path.append(W)
    return np.stack(path)[:, 0, :]


def block_of(B):
    """Patch the engine so that every run steps in blocks of B steps."""
    return mock.patch.object(engine, "_block_steps", lambda *args: B)


def chunk_of(width):
    """Patch the engine so that a paired block builds its patched batches
    ``width`` slots at a time."""
    return mock.patch.object(engine, "_chunk_slots", lambda *args: width)


def in_run_order(rows, runs, n):
    """An ``on_block`` block of the stored runs ``runs`` as all n + 1 runs in
    run order, by the hook's contract: a run left out is run 0."""
    assert runs[0] == 0 and len(set(runs.tolist())) == rows.shape[1] == runs.size
    every = np.repeat(rows[:, :1], n + 1, axis=1)
    every[:, runs] = rows
    return every


def paired_with_path(instance, S, repl, sched, plan, on_block=None, **kwargs):
    """``run_paired`` and the (T+1, n+1, d) path of its runs in run order,
    collected through its ``on_block`` hook; ``on_block``, when given, sees
    every block as well."""
    blocks = []

    def collect(rows, runs):
        blocks.append(in_run_order(rows, runs, S.n))
        if on_block is not None:
            on_block(rows, runs)

    pt = run_paired(instance, S, repl, sched, plan, on_block=collect, **kwargs)
    return pt, np.concatenate(blocks)


def audit_path(path, sched, etas, loss_class, L, beta=None, gamma=None):
    """The growth-recursion verdict of a whole (T+1, n+1, d) path, fed to the
    audit as one block in run order."""
    audit = GrowthRecursionAudit(loss_class, etas, sched, beta, gamma)
    audit(path, np.arange(path.shape[1]))
    return audit.verdict(L)


def selected(sched):
    """(T, n) boolean matrix: entry (t, i) is true iff step t selects index i."""
    ind = np.zeros((sched.T, sched.n), dtype=bool)
    ind[np.arange(sched.T)[:, None], sched.batches] = True
    return ind
