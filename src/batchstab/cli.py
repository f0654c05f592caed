"""Command-line front end: verify / sweep / dump.

All experiment inputs live in one JSON config file; the command line only
selects the subcommand, the output directory, and the master-seed /
parallelism overrides.  Outputs are deterministic: rerunning a manifest
reproduces byte-identical files (wall time goes to stderr, never into a
file).  Exit status is 0 iff every enabled check passed, 1 on check
failures, 2 on config or usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

from batchstab import bounds as bounds_mod
from batchstab.engine import run, trajectory_to_csv
from batchstab.errors import AnalyticRegionError
from batchstab.experiments import (
    class_for_instance,
    config_from_dict,
    estimate_gen_error,
    plan_from_dict,
    run_full_verification,
    schedule_spec_from_dict,
    uniform_stability_failure_demo,
)
from batchstab.problems import (
    Dataset,
    dataset_to_csv,
    instance_from_config,
    sample_examples,
)
from batchstab.schedule import realize, schedule_to_csv
from batchstab.seeding import rng_at


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="batchstab",
        description="Stability and generalization verification for mini-batch "
        "gradient descent under data-independent batch schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("verify", "run every enabled check for one configuration"),
        ("sweep", "evaluate a parameter grid or the uniform-stability demo"),
        ("dump", "export schedules, datasets, or trajectories as CSV"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument(
            "--format", choices=("json", "csv", "both"), default="both",
            help="which report formats to write",
        )
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        if args.command == "verify":
            status = _cmd_verify(cfg, args, out_dir)
        elif args.command == "sweep":
            status = _cmd_sweep(cfg, args, out_dir)
        else:
            status = _cmd_dump(cfg, args, out_dir)
        print(f"wall time: {time.perf_counter() - started:.2f}s", file=sys.stderr)
        return status
    except FileNotFoundError as e:
        print(f"error: config not found: {e.filename}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    cfg["jobs"] = args.jobs
    return cfg


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return "" if v is None else str(v)


def _cmd_verify(cfg: dict, args, out_dir: Path) -> int:
    config = config_from_dict(_apply_overrides(cfg, args))
    report = run_full_verification(config)
    if args.format in ("json", "both"):
        _write_json(out_dir / "report.json", report)
    if args.format in ("csv", "both"):
        _write_summary_csv(report, out_dir / "summary.csv")
    print(
        f"{report['name']}: {'PASS' if report['passed'] else 'FAIL'} "
        f"({len(report['failures'])} failing checks)"
    )
    return 0 if report["passed"] else 1


def _write_summary_csv(report: dict, path: Path) -> None:
    columns = (
        "schedule", "gen_mean", "gen_stderr", "oracle", "lower", "upper",
        "stability_mean", "stability_max", "stability_bound",
        "counting_lemma", "oracle_equivalence", "growth_recursion",
        "stability_mc", "gen_error_mc",
    )
    bounds = report.get("bounds", {})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for label, sched in report["schedules"].items():
            gen = sched.get("gen_error_mc", {})
            stab = sched.get("stability_mc", {})
            writer.writerow(
                [
                    label,
                    _fmt(gen.get("mean")),
                    _fmt(gen.get("stderr")),
                    _fmt(bounds.get("oracle")),
                    _fmt(bounds.get("lower")),
                    _fmt(bounds.get("upper")),
                    _fmt(stab.get("mean")),
                    _fmt(stab.get("max")),
                    _fmt(stab.get("bound")),
                    sched.get("counting_lemma", {}).get("status", ""),
                    sched.get("oracle_equivalence", {}).get("status", ""),
                    sched.get("growth_recursion", {}).get("status", ""),
                    stab.get("status", ""),
                    gen.get("status", ""),
                ]
            )


def _cmd_sweep(cfg: dict, args, out_dir: Path) -> int:
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict) or "mode" not in sweep:
        raise ValueError("sweep config requires a 'sweep' object with a 'mode'")
    cfg = _apply_overrides(cfg, args)
    mode = sweep["mode"]
    if mode == "uniform_stability_demo":
        rows = uniform_stability_failure_demo(
            ns=list(sweep["ns"]),
            epochs=int(sweep["epochs"]),
            d=int(sweep["d"]),
            trials=int(sweep.get("trials", 200)),
            master_seed=int(cfg.get("master_seed", 0)),
            jobs=args.jobs,
        )
        ok = all(r["within_bound"] for r in rows)
    elif mode == "grid":
        rows, ok = _grid_rows(cfg, sweep, args.jobs)
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")
    if not rows:
        raise ValueError("sweep produced no rows; is the grid empty?")
    if args.format in ("json", "both"):
        _write_json(out_dir / "sweep.json", rows)
    if args.format in ("csv", "both"):
        with open(out_dir / "sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_fmt(v) for v in row.values()])
    print(f"sweep: {len(rows)} rows, {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _grid_rows(cfg: dict, sweep: dict, jobs: int) -> tuple[list[dict], bool]:
    """One row per grid cell: bounds, oracle, optional Monte Carlo estimate.

    Swappable axes: n, T, eta (constant plans), c (decreasing plans), and
    schedule kind.  Refusals become per-row fields, never fatal errors; a
    Monte Carlo run that leaves the analytic region leaves mc_mean and
    mc_stderr null, and the verdict then rests on the sandwich alone.
    """
    axes: dict = sweep.get("axes") or {}
    if not axes or any(not vals for vals in axes.values()):
        raise ValueError("grid sweep requires non-empty 'axes'")
    allowed = {"n", "T", "eta", "c", "schedule"}
    unknown = set(axes) - allowed
    if unknown:
        raise ValueError(f"unknown sweep axes {sorted(unknown)}; allowed: {sorted(allowed)}")
    base = dict(sweep.get("base") or {})
    trials = int(sweep.get("trials", 0))
    master_seed = int(cfg.get("master_seed", 0))

    grid: list[dict] = [{}]
    for axis, values in axes.items():
        grid = [dict(cell, **{axis: v}) for cell in grid for v in values]

    rows: list[dict] = []
    all_ok = True
    for cell_idx, cell in enumerate(grid):
        merged = dict(base)
        merged.update({k: v for k, v in cell.items() if k in ("n",)})
        instance = instance_from_config(merged["instance"])
        n = int(cell.get("n", merged.get("n")))
        plan_cfg = dict(merged.get("plan") or {})
        if "T" in cell:
            plan_cfg["T"] = int(cell["T"])
        if "eta" in cell:
            plan_cfg.update(kind="constant", eta=float(cell["eta"]))
        if "c" in cell:
            plan_cfg.update(kind="inverse_t", c=float(cell["c"]))
            plan_cfg.pop("eta", None)
        plan = plan_from_dict(plan_cfg, instance)
        sched_cfg = merged.get("schedule") or {"kind": "full_batch"}
        if "schedule" in cell:
            sched_cfg = dict(sched_cfg, kind=cell["schedule"])
            if cell["schedule"] == "full_batch":
                sched_cfg["m"] = n
        cls = merged.get("class") or class_for_instance(instance)
        bset = bounds_mod.assemble_bound_set(cls, instance, plan, n)
        row = dict(cell)
        row.update(
            lower=bset.lower,
            oracle=bset.oracle,
            upper=bset.upper,
            refusals="; ".join(f"{k}: {v}" for k, v in bset.reasons.items()),
        )
        verdict = bset.sandwich_ok
        if trials > 0:
            spec = schedule_spec_from_dict(sched_cfg, n=n, T=plan.T)
            try:
                est = estimate_gen_error(
                    instance, n, plan, spec, trials, master_seed,
                    s_idx=cell_idx, jobs=jobs,
                )
            except AnalyticRegionError as e:
                # Every row keeps every key: sweep.csv takes its header from row 0.
                row.update(mc_mean=None, mc_stderr=None)
                row["refusals"] = "; ".join(filter(None, (row["refusals"], f"mc: {e}")))
            else:
                row.update(mc_mean=est.mean, mc_stderr=est.stderr)
                if bset.oracle is not None and est.stderr is not None:
                    mc_ok = est.agrees_with(bset.oracle)
                    verdict = mc_ok if verdict is None else (verdict and mc_ok)
        row["verdict"] = "" if verdict is None else ("pass" if verdict else "fail")
        if verdict is False:
            all_ok = False
        rows.append(row)
    return rows, all_ok


def _cmd_dump(cfg: dict, args, out_dir: Path) -> int:
    dump = cfg.get("dump")
    if not isinstance(dump, dict) or "what" not in dump:
        raise ValueError("dump config requires a 'dump' object with 'what'")
    cfg = _apply_overrides(cfg, args)
    what = dump["what"]
    seed = int(cfg.get("master_seed", 0))
    if what == "schedule":
        spec = schedule_spec_from_dict(
            dump["schedule"], n=int(dump["n"]), T=int(dump["T"])
        )
        if "seed" not in dump["schedule"]:
            spec = dataclasses.replace(spec, seed=seed)
        schedule_to_csv(realize(spec), out_dir / "schedule.csv")
        print(f"wrote schedule.csv ({spec.T} rows)")
        return 0
    instance = instance_from_config(dump["instance"])
    n = int(dump["n"])
    dataset = Dataset(examples=sample_examples(instance, n, rng_at(seed, 0)))
    if what == "dataset":
        dataset_to_csv(dataset, out_dir / "dataset.csv")
        print(f"wrote dataset.csv ({n} rows)")
        return 0
    if what == "trajectory":
        plan = plan_from_dict(dump["plan"], instance)
        spec = schedule_spec_from_dict(dump["schedule"], n=n, T=plan.T)
        if "seed" not in dump["schedule"]:
            spec = dataclasses.replace(spec, seed=seed)
        traj = run(instance, dataset, realize(spec), plan)
        trajectory_to_csv(traj, out_dir / "trajectory.csv")
        print(f"wrote trajectory.csv ({plan.T + 1} rows)")
        return 0
    raise ValueError(f"unknown dump target {what!r}")


if __name__ == "__main__":
    sys.exit(main())
