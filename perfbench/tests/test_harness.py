"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/tests

The smoke runs launch the real CLI at the ``smoke`` size, so the whole file
takes well under a minute.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from spans import LAYERS, METHODS, Tracer, boundary_functions, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every metric the benchmark is defined to emit, whatever BENCHMARK.json says.
END_TO_END = {"wall_s", "setup_s", "traj_steps_per_s", "cpu_s", "peak_rss_mib"}
PER_LAYER = {
    "engine.run_final_s", "engine.run_final_calls", "engine.self_s",
    "engine.traj_steps", "engine.traj_steps_per_s",
    "problems.batch_grad_mean_s", "problems.batch_grad_mean_calls",
    "schedule.realize_s", "schedule.realize_calls",
    "schedule.realize.full_batch_s", "schedule.realize.round_robin_s",
    "schedule.realize.random_reshuffle_s", "schedule.realize.uniform_random_s",
    "engine.run_paired_s", "engine.run_paired_calls",
    "problems.grad_sup_norm_s", "problems.grad_sup_norm_calls",
    "stability.check_growth_recursion_s", "stability.final_on_average_gap_s",
    "problems.sample_examples_s", "problems.sample_examples_calls",
    "problems.risk_eval_s", "seeding.busy_s", "seeding.calls",
    "experiments.estimate_gen_error_s", "experiments.estimate_stability_s",
    "experiments.mc_trials", "experiments.excluded_trials", "experiments.self_s",
    "problems.verify_regularity_s", "schedule.check_counting_lemma_s",
    "engine.closed_form_final_s", "bounds.assemble_bound_set_s",
    "bounds.analytic_gen_error_s", "cli.self_s", "cli.report_bytes",
    "trace_overhead_ratio",
}


def test_spec_lists_every_metric_and_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert END_TO_END <= {m["name"] for m in SPEC["end_to_end"]}
    assert PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_tracer_leaves_no_unwrapped_boundary_function():
    originals = boundary_functions()
    assert {name.split(".")[0] for name in originals.values()} == set(LAYERS)
    tracer = Tracer()
    tracer.install()
    try:
        modules = [m for n, m in sys.modules.items() if n == "batchstab" or n.startswith("batchstab.")]
        left = [
            f"{mod.__name__}.{attr}"
            for mod in modules
            for attr, value in vars(mod).items()
            if inspect.isfunction(value) and value in originals
        ]
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"batchstab.{layer}"], cls_name)
            if vars(cls)[meth] in originals:
                left.append(f"{cls_name}.{meth}")
        assert left == []
    finally:
        tracer.uninstall()
    assert boundary_functions() == originals


def test_layer_self_times_add_up_to_the_root_span():
    spans = [
        ["cli.main", -1, 0.0, 10.0, {}, None],
        ["experiments.estimate_gen_error", 0, 1.0, 9.0, {}, [5, 0]],
        ["engine.run_final", 1, 2.0, 6.0, {"problems.batch_grad_mean": [3, 2.0]}, 7],
        ["schedule.realize", 1, 6.0, 7.0, {}, "uniform_random"],
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["experiments.self_s"] == 3.0
    assert m["engine.self_s"] == 2.0
    assert m["problems.self_s"] == 2.0
    assert m["schedule.realize.uniform_random_s"] == 1.0
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == 10.0
    assert (m["engine.traj_steps"], m["problems.batch_grad_mean_calls"]) == (7, 3)
    assert (m["experiments.mc_trials"], m["engine.traj_steps_per_s"]) == (5, 7 / 4.0)
