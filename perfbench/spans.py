"""Span tracer for batchstab, installed from outside the program.

The tracer wraps every public function of each batchstab module (a module is
a layer) and the per-step ``ProblemInstance`` methods.  A plain function is
rebound at every name it is bound under, in every loaded ``batchstab.*``
module, because ``from x import y`` copies the name into the importer.

Each call of a wrapped function records one span: name, parent, start and
end.  Calls made once per trajectory step (``batch_grad_mean`` and
``grad_sup_norm``) would make the trace grow with the step count, so they are
aggregated into a count and a busy time on their parent span instead.

Spans stay in memory and are written out once, by the launcher, after the
program returns.  ``layer_metrics`` turns a written trace into per-layer
numbers; a layer's self time is its spans' duration minus the time their
child spans and aggregated calls cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "cli",
    "experiments",
    "engine",
    "problems",
    "schedule",
    "stability",
    "bounds",
    "seeding",
)

# Class methods that are layer boundaries, as (layer, class, method).
METHODS = (
    ("problems", "ProblemInstance", "batch_grad_mean"),
    ("problems", "ProblemInstance", "grad_sup_norm"),
    ("problems", "ProblemInstance", "population_risk"),
)

# Called once per trajectory step: counted on the parent span, not stored.
AGGREGATED = ("problems.batch_grad_mean", "problems.grad_sup_norm")

SCHEDULE_KINDS = ("full_batch", "round_robin", "random_reshuffle", "uniform_random")


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _steps_run_final(bound, result) -> int:
    return bound.arguments["sched"].T


def _steps_run_paired(bound, result) -> int:
    return result.finals.shape[0] * result.schedule.T


def _steps_run(bound, result) -> int:
    return result.T


def _estimate_counts(bound, result) -> list[int]:
    return [result.trials, result.excluded]


def _realized_kind(bound, result) -> str:
    return result.kind


# What a span keeps besides its times: trajectory-steps for engine runs,
# (trials, excluded) for the Monte Carlo estimators, the kind of a realize.
EXTRAS = {
    "engine.run_final": _steps_run_final,
    "engine.run_paired": _steps_run_paired,
    "engine.run": _steps_run,
    "experiments.estimate_gen_error": _estimate_counts,
    "experiments.estimate_stability": _estimate_counts,
    "schedule.realize": _realized_kind,
}


def boundary_functions() -> dict:
    """Map each boundary function object to its span name, e.g. 'engine.run_final'.

    Imports every layer module.  A boundary function is a public function
    defined in a layer module; methods come from ``METHODS``.
    """
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"batchstab.{layer}")
        for attr, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                found[fn] = f"{layer}.{attr}"
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"batchstab.{layer}"), cls_name)
        found[vars(cls)[meth]] = f"{layer}.{meth}"
    return found


class Tracer:
    """Records spans of batchstab calls while installed.

    A span is the list ``[name, parent, start, end, aggregated, extra]``;
    ``parent`` is the index of the enclosing span or -1, and ``aggregated``
    maps an aggregated call's name to ``[count, busy seconds]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, name) for fn, name in boundary_functions().items()}
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"batchstab.{layer}"], cls_name)
            self._rebind(cls, meth, wrappers[vars(cls)[meth]])
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "batchstab" and not mod_name.startswith("batchstab."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        if name in AGGREGATED:

            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    busy = clock() - start
                    totals = spans[stack[-1]][4].setdefault(name, [0, 0.0])
                    totals[0] += 1
                    totals[1] += busy

            return aggregated

        extra_of = EXTRAS.get(name)
        signature = inspect.signature(fn) if extra_of is not None else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), None, {}, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if extra_of is not None:
                record[5] = extra_of(signature.bind(*args, **kwargs), result)
            return result

        return span


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers from a written trace.

    Every ``<layer>.self_s`` is listed, so the self times add up to the
    duration of the root spans.  ``<fn>_s`` is the time inside the outermost
    calls of that function (a call nested in a call of itself is not
    counted twice); ``<fn>_calls`` counts every call.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child_time[rec[1]] += rec[3] - rec[2]
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_entries = {layer: [0, 0.0] for layer in LAYERS}
    realize_by_kind = {kind: 0.0 for kind in SCHEDULE_KINDS}
    steps = trials = excluded = 0

    for i, (name, parent, start, end, aggregated, extra) in enumerate(spans):
        duration = end - start
        agg_busy = sum(busy for _, busy in aggregated.values())
        out[f"{layer_of(name)}.self_s"] += duration - child_time[i] - agg_busy
        for agg_name, (count, busy) in aggregated.items():
            out[f"{layer_of(agg_name)}.self_s"] += busy
            calls[agg_name] = calls.get(agg_name, 0) + count
            inclusive[agg_name] = inclusive.get(agg_name, 0.0) + busy
        calls[name] = calls.get(name, 0) + 1
        if not _inside_same_name(spans, i):
            inclusive[name] = inclusive.get(name, 0.0) + duration
        if parent < 0 or layer_of(spans[parent][0]) != layer_of(name):
            entry = layer_entries[layer_of(name)]
            entry[0] += 1
            entry[1] += duration
        if name in ("engine.run_final", "engine.run_paired", "engine.run"):
            steps += extra
        elif name in ("experiments.estimate_gen_error", "experiments.estimate_stability"):
            trials += extra[0]
            excluded += extra[1]
        elif name == "schedule.realize" and extra in realize_by_kind:
            realize_by_kind[extra] += duration

    def t(fn: str) -> float:
        return inclusive.get(fn, 0.0)

    def n(fn: str) -> int:
        return calls.get(fn, 0)

    engine_busy = t("engine.run_final") + t("engine.run_paired") + t("engine.run")
    out.update(
        {
            "engine.run_final_s": t("engine.run_final"),
            "engine.run_final_calls": n("engine.run_final"),
            "engine.run_paired_s": t("engine.run_paired"),
            "engine.run_paired_calls": n("engine.run_paired"),
            "engine.traj_steps": steps,
            "engine.traj_steps_per_s": steps / engine_busy if engine_busy else 0.0,
            "engine.closed_form_final_s": t("engine.closed_form_final"),
            "problems.batch_grad_mean_s": t("problems.batch_grad_mean"),
            "problems.batch_grad_mean_calls": n("problems.batch_grad_mean"),
            "problems.grad_sup_norm_s": t("problems.grad_sup_norm"),
            "problems.grad_sup_norm_calls": n("problems.grad_sup_norm"),
            "problems.sample_examples_s": t("problems.sample_examples"),
            "problems.sample_examples_calls": n("problems.sample_examples"),
            "problems.risk_eval_s": t("problems.population_risk")
            + t("problems.empirical_risk"),
            "problems.verify_regularity_s": t("problems.verify_regularity"),
            "schedule.realize_s": t("schedule.realize"),
            "schedule.realize_calls": n("schedule.realize"),
            "schedule.check_counting_lemma_s": t("schedule.check_counting_lemma"),
            "stability.check_growth_recursion_s": t("stability.check_growth_recursion"),
            "stability.final_on_average_gap_s": t("stability.final_on_average_gap"),
            "seeding.busy_s": layer_entries["seeding"][1],
            "seeding.calls": layer_entries["seeding"][0],
            "experiments.estimate_gen_error_s": t("experiments.estimate_gen_error"),
            "experiments.estimate_stability_s": t("experiments.estimate_stability"),
            "experiments.mc_trials": trials,
            "experiments.excluded_trials": excluded,
            "bounds.assemble_bound_set_s": t("bounds.assemble_bound_set"),
            "bounds.analytic_gen_error_s": t("bounds.analytic_gen_error"),
        }
    )
    for kind, busy in realize_by_kind.items():
        out[f"schedule.realize.{kind}_s"] = busy
    return out


def _inside_same_name(spans: list[list], i: int) -> bool:
    name, parent = spans[i][0], spans[i][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False
