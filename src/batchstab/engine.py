"""Mini-batch gradient descent with pluggable batch schedules.

The update at step t averages the example gradients over the selected batch:

    w_{t+1} = w_t - (eta_t / m) * sum_{z in batch_t} grad f(w_t, z)

``run`` executes a single trajectory; ``run_paired`` executes the same
schedule realization on a dataset and on all n of its single-replacement
neighbors, sharing one index matrix across the n+1 runs.  Both are thin
wrappers over one core loop, ``_evolve``, vectorized across stacked
trajectories.  It steps in blocks of about ``_BLOCK_ELEMENTS`` numbers,
takes the batch gradient in the parts ``ProblemInstance`` states, copies
neither a dataset per neighbor nor a batch per stepped run, and steps a
neighbor only from the first step that selects its replaced example, so a
paired run costs sum_t (1 + |K_1 u ... u K_t|) d, not T (n+1) d.  Every
path is the floating-point operations of the per-step update in their
order; ``_evolve`` has the details and the memory bound.  Iterates leave
the loop only through an ``on_block`` hook, which sees each block's stepped
rows once they have passed their checks: ``run`` collects its path through
it, and the growth-recursion audit of ``stability`` streams through it.
Closed-form final iterates are available for the built-in constructions and
serve as independent oracles for the iterative path.

The engine never projects or clips: a non-finite iterate raises
``DivergenceError`` naming the step instead of being silently handled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from batchstab._series import affine_steps
from batchstab.errors import AnalyticRegionError, ConfigError, DivergenceError
from batchstab.problems import Dataset, ProblemInstance, REL_SLACK
from batchstab.schedule import RealizedSchedule

PLAN_KINDS = ("constant", "inverse_t", "custom")

# Elements of one block's (B, P, d) iterates and (B, m, d) batches together,
# and of a paired block's step terms: enough steps per block that the
# per-block gathers and checks cost little per step, few enough numbers that
# the buffers and the block checks' temporaries (a few times the block) add
# no visible memory to a large paired run.
_BLOCK_ELEMENTS = 2**14
# Patched batches of each step that one chunk of a paired block holds at
# least (see ``_stepped_terms``).  A chunk costs some fifteen NumPy calls
# whatever its size, so at large m a chunk of ``_BLOCK_ELEMENTS`` numbers,
# a few batches, would spend more in calls than in sums.
_CHUNK_BATCHES = 16


@dataclass(frozen=True)
class StepSizePlan:
    """Step-size sequence: constant eta, inverse-time coeff/t, or explicit values."""

    kind: str
    T: int
    eta: float | None = None
    coeff: float | None = None
    values: tuple[float, ...] | None = None

    def validate(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise ConfigError(f"plan kind {self.kind!r} is not one of {PLAN_KINDS}")
        if not isinstance(self.T, (int, np.integer)) or isinstance(self.T, bool):
            raise ConfigError(f"plan horizon T must be an integer, got {self.T!r}")
        if self.T < 0:
            raise ConfigError(f"plan horizon T must be >= 0, got {self.T}")
        # Chained comparisons are False for NaN, so these also refuse NaN.
        if self.kind == "constant" and not 0 < (self.eta or 0) < math.inf:
            raise ConfigError(f"constant plan requires finite eta > 0, got {self.eta}")
        if self.kind == "inverse_t" and not 0 < (self.coeff or 0) < math.inf:
            raise ConfigError(
                f"inverse_t plan requires finite coeff > 0, got {self.coeff}"
            )
        if self.kind == "custom":
            if self.values is None or len(self.values) != self.T:
                raise ConfigError("custom plan requires exactly T values")
            # zero entries are allowed so frozen-step controls stay expressible
            if not all(0 <= v < math.inf for v in self.values):
                raise ConfigError("custom plan requires finite values >= 0")

    def etas(self) -> np.ndarray:
        self.validate()
        if self.kind == "constant":
            return np.full(self.T, float(self.eta))
        if self.kind == "inverse_t":
            return float(self.coeff) / np.arange(1, self.T + 1, dtype=float)
        return np.asarray(self.values, dtype=float)

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "T": self.T}
        if self.eta is not None:
            cfg["eta"] = self.eta
        if self.coeff is not None:
            cfg["coeff"] = self.coeff
        if self.values is not None:
            cfg["values"] = list(self.values)
        return cfg


def constant_plan(eta: float, T: int) -> StepSizePlan:
    return StepSizePlan(kind="constant", T=T, eta=float(eta))


def inverse_t_plan(coeff: float, T: int) -> StepSizePlan:
    """eta_t = coeff / t."""
    return StepSizePlan(kind="inverse_t", T=T, coeff=float(coeff))


def custom_plan(values) -> StepSizePlan:
    vals = tuple(float(v) for v in values)
    return StepSizePlan(kind="custom", T=len(vals), values=vals)


@dataclass(eq=False)
class Trajectory:
    """Iterates w_1 ... w_{T+1}; ``iterates[k]`` is w_{k+1} (0-based k)."""

    iterates: np.ndarray
    schedule: RealizedSchedule
    etas: np.ndarray

    @property
    def T(self) -> int:
        return self.iterates.shape[0] - 1


@dataclass(eq=False)
class PairedTrajectory:
    """n+1 runs of one schedule realization on a dataset and its neighbors.

    ``finals`` has shape (n+1, d): row 0 is the run on the base dataset, row
    i the run with example i replaced.  All runs share the starting point,
    the step plan, and the realized schedule.
    """

    finals: np.ndarray
    schedule: RealizedSchedule
    etas: np.ndarray
    grad_sup: float | None = None

    @property
    def n(self) -> int:
        return self.finals.shape[0] - 1


def _stepped_terms(
    instance: ProblemInstance, gathered: np.ndarray, idx: np.ndarray,
    patches: np.ndarray, rows: np.ndarray, P: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The batch terms of the P stepped rows at each of a block's b steps:
    the (b, P, f) ``free_grad_mean`` and the (b, P, ...) ``step_terms``.

    At step k every row reads the base batch gathered[k] (m, d), except the
    row rows[k, j] of each selected index idx[k, j], which reads it with every
    slot holding that index replaced by its entry of patches[k].  So the
    terms of the base batch and of the m patched batches are the terms of
    every row.  The patched batches are built ``_chunk_slots`` slots at a
    time, beside the base batch, with the batch axis outermost: the layout
    a gather from a stack of n+1 datasets has, so every mean adds in the
    order of that gather, and a term that keeps the batch axis keeps it
    outermost in the (b, P, ...) result.
    """
    b, m, d = gathered.shape
    steps = np.arange(b)[:, None]
    width = min(m, _chunk_slots(b, m, d))
    k, j, slot = _matches(idx)
    cuts = np.searchsorted(j, np.arange(0, m + width, width))
    patched, base = patches[k, slot], gathered[k, slot]
    # Entry 0 holds the base batch, entry 1 + q the batch of the row in slot
    # j0 + q, patched for its chunk and restored after it.
    Zq = np.repeat(gathered.transpose(1, 0, 2)[:, :, None, :], 1 + width, axis=2)
    out = None
    for c, j0 in enumerate(range(0, m, width)):
        j1 = min(j0 + width, m)
        e = slice(cuts[c], cuts[c + 1])
        entry = (slot[e], k[e], 1 + j[e] - j0)
        Zq[entry] = patched[e]
        Z = Zq[:, :, : 1 + j1 - j0].transpose(1, 2, 0, 3)
        terms = (instance.free_grad_mean(Z), instance.step_terms(Z))
        if out is None:
            out = tuple(_base_rows(x, P) for x in terms)
        for o, x in zip(out, terms):
            if o is not None:
                o[steps, rows[:, j0:j1]] = x[:, 1:]
        Zq[entry] = base[e]
    return out


def _chunk_slots(b: int, m: int, d: int) -> int:
    """Slots per chunk of a paired block's patched batches: as many as hold
    about ``_BLOCK_ELEMENTS`` numbers over the block's b steps, or
    ``_CHUNK_BATCHES`` if more."""
    return max(_CHUNK_BATCHES, _BLOCK_ELEMENTS // (b * m * d))


def _matches(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (k, j, s) with idx[k, j] == idx[k, s], in order of j: the slots
    s that the batch of step k patched for slot j replaces.

    A row of distinct indices has only s = j.  A block with a repeated index
    compares every pair of its slots, O(b m^2) booleans.
    """
    b, m = idx.shape
    srt = np.sort(idx, axis=1)
    if (srt[:, 1:] != srt[:, :-1]).all():
        j, k = np.divmod(np.arange(m * b), b)
        return k, j, j
    k, j, s = np.nonzero(idx[:, :, None] == idx[:, None, :])
    by = np.argsort(j, kind="stable")
    return k[by], j[by], s[by]


def _base_rows(x: np.ndarray | None, P: int) -> np.ndarray | None:
    """Entry 0 of the (b, 1 + q, ...) terms ``x`` for each of P rows, laid out
    in memory as ``x`` is."""
    if x is None:
        return None
    rows = np.empty_like(x, shape=(x.shape[0], P) + x.shape[2:])
    rows[...] = x[:, :1]
    return rows


def _block_steps(instance: ProblemInstance, m: int, rows: int, paired: bool) -> int:
    """Steps per block: the most, at least 1, for which a block's iterates of
    ``rows`` stepped rows and the m examples it gathers per step together,
    and for a paired block the step terms of each row, hold at most
    ``_BLOCK_ELEMENTS`` numbers.  m is 0 for a batch that every step reads,
    since it is gathered, and its terms taken, once."""
    span = (rows + m) * instance.d
    if paired:
        span = max(span, rows * instance.step_terms_size(m))
    return max(1, _BLOCK_ELEMENTS // span)


def _evolve(
    instance: ProblemInstance,
    data: np.ndarray,
    batches: np.ndarray,
    etas: np.ndarray,
    track_grad_sup: bool,
    replacements: np.ndarray | None = None,
    on_block=None,
) -> tuple[np.ndarray, float | None]:
    """Advance R stacked trajectories from ``instance.w1`` through all T
    steps; return the (R, d) finals and the gradient sup.

    All trajectories read the same (T, m) index matrix from the (n, d) data.
    Without ``replacements`` R = 1.  With ``replacements`` (n, d), R = n+1
    paired runs: run 0 reads the data as is, run i reads it with example i-1
    swapped for ``replacements[i-1]``.

    Run i matches run 0 bit for bit until the first step that selects index
    i-1, so the paired runs are stored in the order of that first step (T
    when no step selects it), and a block steps only a prefix of P rows: run
    0 and the neighbors selected by the block's last step.  A neighbor
    that joins the prefix starts its block as a copy of row 0, which is what
    it would have computed, since it read the unpatched base batch at every
    earlier step.

    The steps run in blocks of B = ``_block_steps`` steps, sized by P_T, the
    rows stepped by the last block (1 without ``replacements``), and by the
    m examples each step gathers, none when the batch repeats (below).
    Per block, the batches of its B steps are gathered at once, and each
    step writes the iterates of the P stepped rows into one (B, P, d)
    buffer.  The batch gradient is split as ``ProblemInstance`` states it:
    the ``free_grad_mean`` of the first f = ``grad_free_coords``
    coordinates, and the other d - f, which read w and the ``step_terms``
    of the batch.  A single run takes both once per block, from the
    gathered (B, m, d) batches.  A paired block takes the terms of its P
    rows from those of the base batch and of the m patched batches of each
    step (``_stepped_terms``), so no step copies its batch per row, unless
    its terms are the batch itself.

    When every row of the index matrix is the same batch (full_batch,
    round_robin with m = n, a constant custom matrix), that batch is
    gathered once and its terms, those of the first step, taken once before
    the first block: they are the terms of every step, and so is the set of
    stepped rows, since every neighbor it selects joins at step 1.  Each
    block reads them for each of its steps.

    The buffer is filled in two parts, by coordinate:

    * the first f coordinates: the buffer first holds their means g_k.  One
      multiply makes them eta_k g_k, the first row becomes W - eta_0 g_0,
      and ``np.subtract.accumulate`` along the step axis finishes
      w_{k+1} = w_k - eta_k g_k;
    * the other d - f coordinates: one ``step_block`` call on the block's
      (B, P, ...) terms, the family's own step.

    Either part is bit for bit the per-step update.  The checks then run
    once over the buffer and raise at the first offending step, with its
    number.  A row left out of the prefix is a copy of row 0, so checking
    the prefix checks every run:

    * a non-finite iterate raises ``DivergenceError``.  Scanning after the
      fact is exact: under w - eta g a non-finite coordinate never becomes
      finite again, so a later step cannot hide an earlier one;
    * an iterate outside the invariant band of ``huber_region_limit``
      raises ``AnalyticRegionError``; at the same step the divergence wins;
    * ``track_grad_sup`` takes the max of ``grad_sup_norm`` over the buffer.

    The hook, when given, sees the iterates in path order as they are
    stored: first the (1, 1, d) start, then each block's (B, P, d) iterates
    once they have passed the checks, each with the (P,) run index of its
    stored rows (run 0 first).  Every run not among them is run 0 at those
    steps.  The buffer is reused by the next block, so the hook must copy
    what it keeps.  Apart from the finals, the hook is the only way
    iterates leave the loop.  One gather puts the finals back in run order,
    with row 0 standing in for every run outside the prefix.

    Working memory is O((n + B m) d + B P d), plus a paired block's step
    terms, bounded with the iterates but at least one step's (P times
    ``step_terms_size``), plus one chunk of its patched batches
    (``_chunk_slots``).  A repeated batch and its terms are held once, so
    there B m is m and the terms are one step's.  Once an iterate is
    non-finite, a custom ``grad_fn`` may still be called on it for the rest
    of its block before ``DivergenceError`` is raised.
    """
    T = etas.shape[0]
    d = instance.d
    m = batches.shape[1]
    R = 1 if replacements is None else 1 + replacements.shape[0]
    # Run r is stored in row rank[r], and row s holds run order[s]; joined[t]
    # counts the neighbors first selected at step t or before.
    rank = np.zeros(R, dtype=np.intp)
    joined = np.zeros(T, dtype=np.intp)
    if replacements is not None:
        # first[i]: the first step that selects example i, T for none.  Rows
        # are independent, so ties may be stored in any order.
        first = np.full(R - 1, T)
        np.minimum.at(first, batches, np.arange(T)[:, None])
        rank[1 + np.argsort(first)] = np.arange(1, R)
        joined = np.bincount(first, minlength=T + 1)[:T].cumsum()
    order = np.empty(R, dtype=np.intp)
    order[rank] = np.arange(R)
    rows_last = 1 + int(joined[-1] if T else 0)
    # Every step reads the same batch: its terms, taken once, stand for all.
    repeated = T > 1 and bool((batches[1:] == batches[0]).all())
    B = _block_steps(instance, 0 if repeated else m, rows_last, replacements is not None)
    work = np.empty(min(B, T) * rows_last * d)
    limit = instance.huber_region_limit(etas)
    w1d = instance.w1[-1]
    # a copy: the finals of a run of T = 0 steps must not alias the instance
    W = instance.w1[None, :].copy()
    sup = None
    if track_grad_sup:
        sup = float(instance.grad_sup_norm(W).max())
    if on_block is not None:
        on_block(W[None], order[:1])
    eta = etas.tolist()
    # Coordinates [:f] step a block at a time, [f:] by ``step_block``.
    f = instance.grad_free_coords

    def batch_terms(idx: np.ndarray, P: int):
        gathered = data[idx]
        if replacements is None:
            free = instance.free_grad_mean(gathered)[:, None] if f else None
            terms = instance.step_terms(gathered)
            return free, None if terms is None else terms[:, None]
        return _stepped_terms(
            instance, gathered, idx, replacements[idx], rank[1 + idx], P
        )

    if repeated:
        free, terms = batch_terms(batches[:1], rows_last)
    for t0 in range(0, T, B):
        t1 = min(t0 + B, T)
        P = 1 + int(joined[t1 - 1])
        if P > W.shape[0]:
            W = np.concatenate((W, np.repeat(W[:1], P - W.shape[0], axis=0)))
        block = work[: (t1 - t0) * P * d].reshape(t1 - t0, P, d)
        if not repeated:
            free, terms = batch_terms(batches[t0:t1], P)
        if f:
            # These coordinates of the means do not read W, so the block holds
            # them for every step at once; scale them to eta_k g_k and run
            # w_{k+1} = w_k - eta_k g_k as one cumulative subtraction.
            head = block[..., :f]
            head[:] = free
            head *= etas[t0:t1, None, None]
            np.subtract(W[:, :f], head[0], out=head[0])
            np.subtract.accumulate(head, axis=0, out=head)
        if f < d:
            instance.step_block(block, W, eta[t0:t1], terms)
        # W must not alias the buffer the next block reuses.
        W = block[-1].copy()

        finite = np.isfinite(block)
        bad = None
        if not finite.all():
            bad = int(np.argmin(finite.reshape(t1 - t0, -1).all(axis=1)))
        if limit is not None:
            drift = np.abs(block[..., -1] - w1d).max(axis=1)
            out = np.flatnonzero(drift > limit * (1.0 + REL_SLACK))
            if out.size and (bad is None or out[0] < bad):
                k = int(out[0])
                raise AnalyticRegionError(
                    f"step {t0 + k + 1}: |w^d - w1^d| = {float(drift[k])!r} "
                    f"exceeded the invariant half-width {float(limit)!r}; "
                    "this indicates an engine bug"
                )
        if bad is not None:
            raise DivergenceError(f"non-finite iterate produced at step {t0 + bad + 1}")
        if track_grad_sup:
            sup = max(sup, float(instance.grad_sup_norm(block).max()))
        if on_block is not None:
            on_block(block, order[:P])
    if replacements is not None:
        # Each run's stored row, or row 0 for a run whose replaced example no
        # step selected.
        W = W[np.where(rank < W.shape[0], rank, 0)]
    return W, sup


def run(
    instance: ProblemInstance,
    S: Dataset,
    sched: RealizedSchedule,
    plan: StepSizePlan,
) -> Trajectory:
    """Run the iterate map once, keeping the whole path."""
    etas = plan.etas()
    _check_run_inputs(instance, S, sched, etas)
    blocks = []
    _evolve(
        instance, S.examples, sched.batches, etas, track_grad_sup=False,
        on_block=lambda rows, runs: blocks.append(rows[:, 0].copy()),
    )
    return Trajectory(iterates=np.concatenate(blocks), schedule=sched, etas=etas)


def run_final(
    instance: ProblemInstance,
    S: Dataset,
    sched: RealizedSchedule,
    plan_or_etas,
) -> np.ndarray:
    """Final iterate only; the cheap path used by Monte Carlo loops."""
    etas = (
        plan_or_etas.etas()
        if isinstance(plan_or_etas, StepSizePlan)
        else np.asarray(plan_or_etas, dtype=float)
    )
    _check_run_inputs(instance, S, sched, etas)
    W, _ = _evolve(instance, S.examples, sched.batches, etas, track_grad_sup=False)
    return W[0]


def run_paired(
    instance: ProblemInstance,
    S: Dataset,
    replacements: np.ndarray,
    sched: RealizedSchedule,
    plan: StepSizePlan,
    track_grad_sup: bool = False,
    on_block=None,
) -> PairedTrajectory:
    """Run on S and on all n single-replacement neighbors, one shared schedule.

    ``replacements`` is (n, d); neighbor i swaps example i for
    ``replacements[i-1]``.  All n+1 runs start from the same point and read
    the identical realized index matrix, so trajectories can only diverge
    after the first step that selects the replaced index.  No neighbor
    dataset or per-run batch is materialized: per step only the m selected
    rows are gathered and patched, and a neighbor is stepped only from the
    block in which its index is first selected, so the work is
    sum_t (1 + |K_1 u ... u K_t|) d and memory that of ``_evolve``.
    ``track_grad_sup`` records the largest ``grad_sup_norm`` along every
    path; it is honored for the families that track it (the quadratics) and
    ignored for the others.  ``on_block(rows, runs)`` sees the iterates in
    path order as ``_evolve`` stores them: the (k, P, d) rows of the P runs
    stepped, with their (P,) run indices, run 0 first; every other run is
    run 0 at those steps.  A check over every step thus need not read rows
    that were not stepped.
    """
    etas = plan.etas()
    _check_run_inputs(instance, S, sched, etas)
    replacements = np.asarray(replacements, dtype=float)
    if replacements.shape != (S.n, instance.d):
        raise ConfigError(
            f"replacements must be shaped (n, d) = {(S.n, instance.d)}, "
            f"got {replacements.shape}"
        )
    finals, sup = _evolve(
        instance, S.examples, sched.batches, etas,
        track_grad_sup=track_grad_sup and instance.tracks_grad_sup,
        replacements=replacements, on_block=on_block,
    )
    return PairedTrajectory(finals=finals, schedule=sched, etas=etas, grad_sup=sup)


def _check_run_inputs(
    instance: ProblemInstance, S: Dataset, sched: RealizedSchedule, etas: np.ndarray
) -> None:
    if S.examples.shape != (S.n, instance.d):
        raise ConfigError("dataset examples must be shaped (n, d)")
    if sched.n != S.n:
        raise ConfigError(
            f"schedule was realized for n={sched.n} but the dataset has n={S.n}"
        )
    if sched.T != etas.shape[0]:
        raise ConfigError(
            f"plan length {etas.shape[0]} does not match schedule horizon {sched.T}"
        )
    if sched.T and (sched.batches.min() < 0 or sched.batches.max() >= S.n):
        raise ConfigError("schedule indices out of dataset range")


def closed_form_final(
    instance: ProblemInstance,
    S: Dataset,
    sched: RealizedSchedule,
    plan: StepSizePlan,
) -> np.ndarray:
    """Analytic final iterate for the built-in families; oracle for ``run``.

    With the family's affine form (a, e, c) the update is an affine
    recursion, solved per coordinate:

        c + prod_t (1 - eta_t a) (w1 - c)
          - (e/m) sum_t eta_t prod_{j>t} (1 - eta_j a) sum_{z in K_t} z

    Refused for a plan under which iterates could leave the family's
    analytic region (see ``affine_steps``).
    """
    etas = plan.etas()
    _check_run_inputs(instance, S, sched, etas)
    e, c, factors, tail = affine_steps(instance, etas)
    batch_sums = S.examples[sched.batches].sum(axis=1)  # (T, d)
    driven = (etas[:, None] * tail * e * batch_sums).sum(axis=0) / sched.m
    return c + factors.prod(axis=0) * (instance.w1 - c) - driven
