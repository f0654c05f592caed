"""Command-line front end: verify / sweep / dump.

All experiment inputs live in one JSON config file; the command line only
selects the subcommand, the output directory, and the master-seed /
parallelism overrides.  Outputs are deterministic: rerunning a manifest
reproduces byte-identical files (wall time goes to stderr, never into a
file).  Exit status is 0 when no enabled check failed and at least one
passed, 1 when a check failed or every check skipped, and 2 on config or
usage errors, a dumped trajectory that diverges included.  A grid-sweep cell
is a verify run of its own config.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from batchstab.engine import run
from batchstab.errors import ConfigError, DivergenceError
from batchstab.experiments import (
    REQUIRED,
    VERIFY_FIELDS,
    config_field,
    config_from_dict,
    instance_from_config,
    plan_from_dict,
    read_config,
    run_full_verification,
    schedule_spec_from_dict,
    uniform_stability_failure_demo,
)
from batchstab.problems import Dataset, sample_examples
from batchstab.schedule import realize
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
        p.add_argument("--jobs", type=int, default=None, help="worker processes")
        p.add_argument(
            "--format", choices=("json", "csv", "both"), default="both",
            help="which report formats to write",
        )
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        out_dir = _output_dir(args.out)
        started = time.perf_counter()
        # The engine or the report names each overflow; numpy's warnings add nothing.
        command = {"verify": _cmd_verify, "sweep": _cmd_sweep, "dump": _cmd_dump}
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            status = command[args.command](cfg, args, out_dir)
        print(f"wall time: {time.perf_counter() - started:.2f}s", file=sys.stderr)
        return status
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot parse config {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"the config must be a JSON object, not {type(cfg).__name__}")
    return cfg


def _output_dir(path: str) -> Path:
    """The output directory, made with its parents if missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(
            f"cannot create output directory {path}: {e.strerror}"
        ) from None
    return out


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.jobs is not None:
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
        _write_csv(out_dir / "summary.csv", _SUMMARY_HEADER, _summary_rows(report))
    sections = (report["checks"], *report["schedules"].values())
    statuses = [c["status"] for s in sections for k, c in s.items() if k != "spec"]
    print(
        f"{report['name']}: {'PASS' if report['passed'] else 'FAIL'} "
        f"({statuses.count('fail')} failing, {statuses.count('pass')} passing, "
        f"{statuses.count('skipped')} skipped checks)"
    )
    return 0 if report["passed"] else 1


_SUMMARY_STATUSES = (
    "counting_lemma", "oracle_equivalence", "growth_recursion", "stability_mc",
    "gen_error_mc",
)
_SUMMARY_HEADER = (
    "schedule", "gen_mean", "gen_stderr", "oracle", "lower", "upper",
    "stability_mean", "stability_max", "stability_bound", *_SUMMARY_STATUSES,
)


def _summary_rows(report: dict):
    bounds = report.get("bounds", {})
    for label, sched in report["schedules"].items():
        gen, stab = sched.get("gen_error_mc", {}), sched.get("stability_mc", {})
        yield [
            label, gen.get("mean"), gen.get("stderr"), bounds.get("oracle"),
            bounds.get("lower"), bounds.get("upper"), stab.get("mean"),
            stab.get("max"), stab.get("bound"),
            *(sched.get(c, {}).get("status") for c in _SUMMARY_STATUSES),
        ]


def _write_csv(path: Path, header, rows) -> None:
    """The rows, under the header unless it is None (a dump has none)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


# Every command's top level knows name and the fields --seed and --jobs write.
_TOP_FIELDS = {k: VERIFY_FIELDS[k] for k in ("name", "master_seed", "jobs")}
_SWEEP_CONFIG_FIELDS = {**_TOP_FIELDS, "sweep": (dict,)}
_SWEEP_FIELDS = {  # the sweep object, by mode
    "uniform_stability_demo": {"mode": (str,), "ns": (list[int], REQUIRED, 1),
                               "epochs": (int, REQUIRED, 1), "d": (int, REQUIRED, 1),
                               "trials": (int, 200, 1)},
    "grid": {"mode": (str,), "axes": (dict,), "base": (dict, {}), "trials": (int, 0, 0)},
}


def _cmd_sweep(cfg: dict, args, out_dir: Path) -> int:
    top = read_config(_apply_overrides(cfg, args), _SWEEP_CONFIG_FIELDS, "the config")
    mode = config_field(top["sweep"], "mode", str)
    if mode not in _SWEEP_FIELDS:
        raise ConfigError(f"unknown sweep mode {mode!r}")
    sweep = read_config(top["sweep"], _SWEEP_FIELDS[mode], f"'sweep' of mode {mode!r}")
    if mode == "grid":
        rows, ok = _grid_rows(top, sweep)
    else:
        rows = uniform_stability_failure_demo(
            ns=sweep["ns"], epochs=sweep["epochs"], d=sweep["d"], trials=sweep["trials"],
            master_seed=top["master_seed"], jobs=top["jobs"],
        )
        ok = all(r["within_bound"] for r in rows)
    if not rows:
        raise ConfigError("sweep produced no rows; is the grid empty?")
    if args.format in ("json", "both"):
        _write_json(out_dir / "sweep.json", rows)
    if args.format in ("csv", "both"):
        _write_csv(out_dir / "sweep.csv", rows[0].keys(), (row.values() for row in rows))
    print(f"sweep: {len(rows)} rows, {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


_GRID_AXES = {"n": (list[int], None), "T": (list[int], None), "eta": (list[float], None),
              "c": (list[float], None), "schedule": (list[str], None)}
# The verify fields the grid sets in every cell, and where each comes from.
_GRID_CELL_FIELDS = {
    "schedules": "the base's 'schedule' and the 'schedule' axis",
    "checks": "the sweep's 'trials' (sandwich, plus gen_error_mc when trials > 0)",
    "trials": "the sweep's 'trials'",
    "master_seed": "the top level of the config",
    "jobs": "the top level of the config",
}
# A verify config without the fields each cell sets, plus the one schedule
# of every cell; an axis may give n or the plan's fields.
_GRID_BASE_FIELDS = {
    **{k: read for k, read in VERIFY_FIELDS.items() if k not in _GRID_CELL_FIELDS},
    "n": (int, None, 1),
    "plan": (dict, {}),
    "schedule": (dict, {"kind": "full_batch"}),
}


def _grid_rows(top: dict, sweep: dict) -> tuple[list[dict], bool]:
    """One row per grid cell: bounds, oracle, optional Monte Carlo estimate.

    A cell is verified as ``base`` with the cell's axis values (n, T, eta for
    constant plans, c for decreasing plans, schedule kind), one schedule, and
    the checks ``sandwich`` plus, with trials, ``gen_error_mc``.  ``refusals``
    joins the bound reasons and a Monte Carlo skip reason; the verdict is
    that of the checks that ran, empty when none did.
    """
    axes, trials = sweep["axes"], sweep["trials"]
    unknown = set(axes) - set(_GRID_AXES)
    if unknown:
        raise ConfigError(
            f"unknown sweep axes {sorted(unknown)}; allowed: {sorted(_GRID_AXES)}"
        )
    values = read_config(axes, _GRID_AXES, "'axes'")
    if not axes or not all(values[a] for a in axes):
        raise ConfigError("grid sweep requires non-empty 'axes'")
    for name, source in _GRID_CELL_FIELDS.items():
        if name in sweep["base"]:
            raise ConfigError(
                f"field {name!r} is refused in the grid's 'base': every cell "
                f"takes it from {source}"
            )
    base = read_config(sweep["base"], _GRID_BASE_FIELDS, "the grid's 'base'")
    base_schedule = base.pop("schedule")

    # Each row repeats its axis values as the config wrote them.
    grid: list[dict] = [{}]
    for axis, points in axes.items():
        grid = [dict(cell, **{axis: v}) for cell in grid for v in points]

    rows: list[dict] = []
    for cell in grid:
        n = cell.get("n", base["n"])
        plan = dict(base["plan"])
        if "T" in cell:
            plan["T"] = cell["T"]
        if "eta" in cell:
            plan.update(kind="constant", eta=cell["eta"])
        if "c" in cell:
            plan.update(kind="inverse_t", c=cell["c"], eta=None, coeff=None)
        schedule = base_schedule
        if "schedule" in cell:
            schedule = dict(schedule, kind=cell["schedule"])
            if cell["schedule"] == "full_batch":
                schedule["m"] = n
        report = run_full_verification(config_from_dict(dict(
            base, n=n, plan=plan, schedules=[schedule],
            checks=["sandwich", "gen_error_mc"] if trials else ["sandwich"],
            # without gen_error_mc the trial count is never read
            trials=max(trials, 1), master_seed=top["master_seed"], jobs=top["jobs"],
        )))
        bounds = report.get("bounds", {})
        (mc,) = [s.get("gen_error_mc") for s in report["schedules"].values()]
        refusals = [f"{k}: {v}" for k, v in bounds.get("reasons", {}).items()]
        if mc and mc["status"] == "skipped":
            refusals.append(f"mc: {mc['reason']}")
        # Every row keeps every key: sweep.csv takes its header from row 0.
        row = dict(cell, lower=bounds.get("lower"), oracle=bounds.get("oracle"),
                   upper=bounds.get("upper"), refusals="; ".join(refusals))
        if mc:
            row.update(mc_mean=mc.get("mean"), mc_stderr=mc.get("stderr"))
        row["verdict"] = (
            "fail" if report["failures"] else "pass" if report["passed"] else ""
        )
        rows.append(row)
    return rows, all(row["verdict"] != "fail" for row in rows)


_DUMP_CONFIG_FIELDS = {**_TOP_FIELDS, "dump": (dict,)}
_DUMPED = {"what": (str,), "n": (int, REQUIRED, 1)}
_DUMP_FIELDS = {  # the dump object, by what it dumps
    "schedule": {**_DUMPED, "T": (int, REQUIRED, 0), "schedule": (dict,)},
    "dataset": {**_DUMPED, "instance": (dict,)},
    "trajectory": {**_DUMPED, "instance": (dict,), "plan": (dict,), "schedule": (dict,)},
}


def _cmd_dump(cfg: dict, args, out_dir: Path) -> int:
    top = read_config(_apply_overrides(cfg, args), _DUMP_CONFIG_FIELDS, "the config")
    what = config_field(top["dump"], "what", str)
    if what not in _DUMP_FIELDS:
        raise ConfigError(f"unknown dump target {what!r}")
    dump = read_config(top["dump"], _DUMP_FIELDS[what], f"'dump' of target {what!r}")
    seed, n = top["master_seed"], dump["n"]
    # The master seed is the default seed of the dumped schedule; a null seed
    # is absent, as every null field is.
    schedule = dump.get("schedule")
    if schedule is not None and schedule.get("seed") is None:
        schedule = dict(schedule, seed=seed)
    if what == "schedule":
        spec = schedule_spec_from_dict(schedule, n=n, T=dump["T"])
        # one step per row, 1-based indices
        _write_csv(out_dir / "schedule.csv", None, (realize(spec).batches + 1).tolist())
        print(f"wrote schedule.csv ({spec.T} rows)")
        return 0
    instance = instance_from_config(dump["instance"])
    examples = sample_examples(instance, n, rng_at(seed, 0))
    if what == "dataset":
        _write_csv(out_dir / "dataset.csv", None, examples.tolist())
        print(f"wrote dataset.csv ({n} rows)")
        return 0
    plan = plan_from_dict(dump["plan"], instance)
    spec = schedule_spec_from_dict(schedule, n=n, T=plan.T)
    try:
        traj = run(instance, Dataset(examples=examples), realize(spec), plan)
    except DivergenceError as e:
        raise ConfigError(f"the dumped trajectory diverges: {e}") from None
    _write_csv(out_dir / "trajectory.csv", None, traj.iterates.tolist())
    print(f"wrote trajectory.csv ({plan.T + 1} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
