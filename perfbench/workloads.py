"""The benchmark's workloads: inputs made from a seed, and correctness gates.

Each workload is one batchstab CLI command on one config.  The config is a
shipped config (or the one kept in ``perfbench/configs``) with its trial
counts scaled to the run length (size ``full``) or to a few seconds in all
(size ``smoke``, used by the self-test), and its master seed set to the
benchmark's seed.

A gate compares one run's report with the workload's pinned expectations:
every expected check present with status ``pass`` (skipped or missing counts
as a failure, and so does a check that ran but was not expected), the Monte
Carlo trial counts equal to the config with no trial excluded, and the
reported oracle or bound equal to the value the benchmark recomputes with
``batchstab.bounds``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # batchstab CLI subcommand
    base_config: str  # relative to the checkout root
    sizes: dict  # size name -> overrides of the config (of ``sweep`` for sweeps)
    checks: tuple[str, ...] = ()  # report["checks"] entries expected to pass
    schedule_checks: tuple[str, ...] = ()  # per-schedule entries expected to pass

    def config(self, root: Path, seed: int, size: str) -> dict:
        cfg = json.loads((root / self.base_config).read_text())
        (cfg["sweep"] if self.command == "sweep" else cfg).update(self.sizes[size])
        cfg["master_seed"] = seed
        return cfg

    def traj_steps(self, cfg: dict) -> int:
        """Trajectory-steps the command must execute: one row of W, one step.

        A single run counts T; a paired run counts (n+1) T.
        """
        if self.command == "sweep":
            sw = cfg["sweep"]
            return sum(sw["trials"] * sw["epochs"] * n for n in sw["ns"])
        n, T = cfg["n"], cfg["plan"]["T"]
        per_schedule = 0
        if "gen_error_mc" in self.schedule_checks:
            per_schedule += cfg["trials"] * T
        if "oracle_equivalence" in self.schedule_checks:
            per_schedule += T
        if "growth_recursion" in self.schedule_checks:
            per_schedule += (n + 1) * T
        if "stability_mc" in self.schedule_checks:
            per_schedule += cfg["stability_trials"] * (n + 1) * T
        return per_schedule * len(cfg["schedules"])

    def reference(self, cfg: dict):
        """Values the report must repeat exactly, recomputed with batchstab.bounds.

        verify: the analytic generalization error (None without gen_error_mc);
        sweep: the on-average bound of each row, keyed by n.
        """
        from batchstab import bounds
        from batchstab.engine import custom_plan
        from batchstab.experiments import config_from_dict
        from batchstab.problems import linear_instance

        if self.command == "sweep":
            sw = cfg["sweep"]
            inst = linear_instance(sw["d"])
            return {
                n: bounds.gen_error_upper(
                    "convex",
                    custom_plan(np.tile(1.0 / np.arange(1, n + 1), sw["epochs"])),
                    n,
                    L=inst.params.L,
                    beta=inst.params.beta,
                )
                for n in sw["ns"]
            }
        if "gen_error_mc" not in self.schedule_checks:
            return None
        config = config_from_dict(cfg)
        return bounds.analytic_gen_error(config.instance, config.plan, config.n)

    def gate(self, out_dir: Path, cfg: dict, reference) -> tuple[int, list[str]]:
        """(checks expected, failures) for the outputs of one run."""
        if self.command == "sweep":
            return self._gate_sweep(json.loads((out_dir / "sweep.json").read_text()), cfg, reference)
        return self._gate_verify(json.loads((out_dir / "report.json").read_text()), cfg, reference)

    def _gate_verify(self, report: dict, cfg: dict, oracle) -> tuple[int, list[str]]:
        labels = [
            "full_batch" if s["kind"] == "full_batch" else f"{s['kind']}_m{s['m']}"
            for s in cfg["schedules"]
        ]
        expected = [("checks", c) for c in self.checks]
        expected += [(label, c) for label in labels for c in self.schedule_checks]
        got = {("checks", c): v.get("status") for c, v in report["checks"].items()}
        for label, section in report["schedules"].items():
            got.update({(label, c): v.get("status") for c, v in section.items() if c != "spec"})
        failures = [f"{k}: {got.get(k, 'missing')}" for k in expected if got.get(k) != "pass"]
        failures += [f"{k}: {got[k]} but not enabled" for k in got if k not in expected]
        if report["passed"] is not True or report["failures"]:
            failures.append(f"report not passed: {report['failures']}")
        if report["excluded_trials"] != 0:
            failures.append(f"excluded_trials = {report['excluded_trials']}")
        if oracle is not None:
            if report.get("bounds", {}).get("oracle") != oracle:
                failures.append(f"bounds.oracle != recomputed {oracle!r}")
            for label in labels:
                gen = report["schedules"].get(label, {}).get("gen_error_mc", {})
                if gen.get("trials") != cfg["trials"] or gen.get("excluded") != 0:
                    failures.append(f"{label}: gen_error_mc trials/excluded {gen.get('trials')}/{gen.get('excluded')}")
                if gen.get("oracle") != oracle:
                    failures.append(f"{label}: gen_error_mc oracle != recomputed {oracle!r}")
        return len(expected), failures

    def _gate_sweep(self, rows: list, cfg: dict, bound_by_n: dict) -> tuple[int, list[str]]:
        sw = cfg["sweep"]
        failures = []
        if [r.get("n") for r in rows] != sw["ns"]:
            failures.append(f"rows for n = {[r.get('n') for r in rows]}, expected {sw['ns']}")
        for row in rows:
            n = row.get("n")
            if row.get("within_bound") is not True:
                failures.append(f"n={n}: within_bound {row.get('within_bound')}")
            if row.get("T") != sw["epochs"] * n:
                failures.append(f"n={n}: T = {row.get('T')}")
            if row.get("on_average_bound") != bound_by_n.get(n):
                failures.append(f"n={n}: on_average_bound != recomputed {bound_by_n.get(n)!r}")
        return len(sw["ns"]), failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sandwich-mc",
            command="verify",
            base_config="configs/convex_sandwich.json",
            sizes={
                # every trial count of the shipped config divided by 20, so
                # the shares of time per check stay those of the shipped run
                "full": {"trials": 100, "stability_trials": 1, "regularity_trials": 25},
                "smoke": {"trials": 50, "stability_trials": 1, "regularity_trials": 20},
            },
            checks=("regularity", "sandwich", "schedule_equivalence"),
            schedule_checks=(
                "counting_lemma",
                "oracle_equivalence",
                "growth_recursion",
                "stability_mc",
                "gen_error_mc",
            ),
        ),
        Workload(
            name="incremental-sweep",
            command="sweep",
            base_config="configs/uniform_stability_demo.json",
            sizes={"full": {"trials": 75}, "smoke": {"trials": 4}},
        ),
        Workload(
            name="paired-large-n",
            command="verify",
            base_config="perfbench/configs/paired_large_n.json",
            sizes={"full": {"stability_trials": 5}, "smoke": {"n": 200, "stability_trials": 2}},
            schedule_checks=("counting_lemma", "growth_recursion", "stability_mc"),
        ),
    )
}
