"""CLI subcommands: exit codes, file outputs, and byte-level determinism."""

import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import batchstab
from batchstab import cli
from batchstab.bounds import BOUND_CLASSES
from batchstab.cli import main
from batchstab.engine import PLAN_KINDS
from batchstab.experiments import (
    ALL_CHECKS,
    instance_from_config,
    plan_from_dict,
    run_full_verification,
    schedule_spec_from_dict,
)
from batchstab.problems import FAMILIES, ConvexHuberInstance, Dataset, sample_examples
from batchstab.schedule import VALID_KINDS, realize
from batchstab.seeding import rng_at
from conftest import assert_pinned_digests, block_of, reference_path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def mini_verify_config():
    return {
        "name": "cli-mini",
        "instance": {"family": "convex_huber", "d": 4, "L": 1.0, "beta": 1.0},
        "n": 8,
        "plan": {"kind": "constant", "eta": 0.5, "T": 15},
        "schedules": [{"kind": "full_batch"}, {"kind": "round_robin", "m": 1}],
        "trials": 80,
        "stability_trials": 4,
        "regularity_trials": 50,
        "master_seed": 5,
    }


def test_verify_writes_reports_and_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, mini_verify_config())
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    summary = (out / "summary.csv").read_text()
    assert summary.startswith("schedule,")
    assert "np.float64" not in summary


def _strict_json(text):
    """json.loads that refuses NaN and the infinities, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_an_equivalence_that_compared_nothing_skips_and_the_run_fails(tmp_path, capsys):
    # One trial per schedule gives no standard error, so no schedule's mean
    # is compared with the oracle: the equivalence cannot pass.
    cfg = {
        "name": "one-trial",
        "instance": {"family": "convex_huber", "d": 4, "L": 1.0, "beta": 1.0},
        "n": 10,
        "plan": {"kind": "constant", "eta": 0.5, "T": 20},
        "schedules": [{"kind": "round_robin", "m": 1}, {"kind": "uniform_random", "m": 2}],
        "trials": 1,
        "master_seed": 7,
        "checks": ["gen_error_mc", "schedule_equivalence"],
    }
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert "one-trial: FAIL (0 failing, 0 passing, 3 skipped checks)" in capsys.readouterr().out
    report = _strict_json((out / "report.json").read_text())
    for section in report["schedules"].values():
        assert section["gen_error_mc"]["status"] == "skipped"
    assert report["checks"]["schedule_equivalence"] == {
        "status": "skipped",
        "reason": "0 of 2 schedules have a standard error; comparing needs at least two",
    }
    assert report["passed"] is False and report["failures"] == []


def test_a_run_whose_every_trial_diverges_writes_strict_json(tmp_path):
    cfg = {
        "name": "all-diverge",
        "instance": {"family": "quadratic_nonconvex", "d": 2, "beta": 1.0},
        "n": 10,
        "plan": {"kind": "constant", "eta": 1000.0, "T": 400},
        "schedules": [{"kind": "full_batch"}, {"kind": "round_robin", "m": 1}],
        "trials": 4,
        "allow_divergence": True,
        "master_seed": 7,
        "checks": ["gen_error_mc", "schedule_equivalence"],
    }
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    report = _strict_json((out / "report.json").read_text())
    for section in report["schedules"].values():
        gen = section["gen_error_mc"]
        assert gen["status"] == "skipped" and gen["mean"] is None
        assert gen["trials"] == gen["excluded"] == 4
        assert gen["reason"] == (
            "stderr undefined with 0 of 4 trials kept (4 excluded as divergent); "
            "it needs two"
        )
    assert report["excluded_trials"] == 8 and report["divergence_flag"] is True
    assert report["checks"]["schedule_equivalence"]["status"] == "skipped"


def test_shipped_flagship_config_passes_through_the_cli(tmp_path):
    # the shipped file itself, with the Monte Carlo scale trimmed for speed
    cfg = json.loads((CONFIG_DIR / "convex_sandwich.json").read_text())
    cfg["trials"] = 120
    cfg["stability_trials"] = 4
    path = write_config(tmp_path, cfg)
    out = tmp_path / "flagship"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["bounds"]["lower"] == 0.5 and report["bounds"]["upper"] == 2.0


def test_verify_outputs_are_byte_identical_across_reruns_and_jobs(tmp_path):
    cfg = write_config(tmp_path, mini_verify_config())
    blobs = []
    for run_idx, jobs in ((0, "1"), (1, "1"), (2, "2")):
        out = tmp_path / f"out{run_idx}"
        assert main(["verify", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        blobs.append(
            ((out / "report.json").read_bytes(), (out / "summary.csv").read_bytes())
        )
    assert blobs[0] == blobs[1] == blobs[2]


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config not found" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["config_is_a_directory", "out_is_a_file", "out_under_a_file"])
def test_a_path_that_cannot_be_read_or_made_exits_two_naming_it(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, mini_verify_config())
    afile = tmp_path / "afile"
    afile.write_text("")
    config, out = {
        "config_is_a_directory": (str(tmp_path), str(tmp_path / "o")),
        "out_is_a_file": (cfg, str(afile)),
        "out_under_a_file": (cfg, str(afile / "sub")),
    }[bad]
    assert main(["verify", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert (config if bad == "config_is_a_directory" else out) in err


@pytest.mark.parametrize(
    "content", [b'{"name": 1,', b"\xff\xfe"], ids=["not_json", "not_utf8"]
)
def test_a_config_that_cannot_be_parsed_exits_two_naming_it(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    out = tmp_path / "o"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot parse config {path}: ")
    assert not any(out.glob("*"))


def subprocess_env(**variables):
    """The environment of a fresh interpreter that imports this checkout's
    batchstab, with ``variables`` set, or unset where None."""
    src = str(Path(batchstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for name, value in variables.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return env


def verify_outputs_in_fresh_interpreters(tmp_path, envs):
    """``report.json`` and ``summary.csv`` of ``verify`` on the shipped
    convex_sandwich shape, trial counts cut down, at seed 0, in one fresh
    interpreter per environment."""
    cfg = json.loads((CONFIG_DIR / "convex_sandwich.json").read_text())
    cfg.update(trials=20, stability_trials=1, regularity_trials=5)
    path = write_config(tmp_path, cfg)
    outputs = []
    for i, env in enumerate(envs):
        out = tmp_path / str(i)
        subprocess.run(
            [sys.executable, "-m", "batchstab.cli", "verify", "--config", path,
             "--out", str(out), "--seed", "0"],
            env=env, capture_output=True, check=True,
        )
        outputs.append([(out / f).read_bytes() for f in ("report.json", "summary.csv")])
    return outputs


def test_verify_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Two fresh interpreters whose str hashes differ.
    outputs = verify_outputs_in_fresh_interpreters(
        tmp_path, [subprocess_env(PYTHONHASHSEED=seed) for seed in ("1", "2")]
    )
    assert outputs[0] == outputs[1]


def test_verify_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # batchstab's default of one OpenBLAS thread, and a user's one or two.
    outputs = verify_outputs_in_fresh_interpreters(
        tmp_path, [subprocess_env(OPENBLAS_NUM_THREADS=v) for v in (None, "1", "2")]
    )
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("preset, kept", [(None, "1"), ("2", "2")])
def test_importing_batchstab_starts_no_blas_worker_thread(preset, kept):
    # numpy's OpenBLAS starts one worker thread per further core unless told
    # otherwise; batchstab runs on one BLAS thread unless the user set a count.
    code = (
        "import os, batchstab; "
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(OPENBLAS_NUM_THREADS=preset),
        capture_output=True, text=True, check=True,
    )
    threads, value = done.stdout.split()
    assert value == kept
    if preset is None:
        assert threads == "1"


def test_invariant_violation_names_the_field(tmp_path, capsys):
    bad = mini_verify_config()
    bad["schedules"] = [{"kind": "uniform_random", "m": 99}]
    cfg = write_config(tmp_path, bad)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "m must satisfy" in capsys.readouterr().err


def test_unknown_bound_class_names_the_field(tmp_path, capsys):
    bad = mini_verify_config()
    bad["class"] = "convx"
    bad["checks"] = ["growth_recursion", "stability_mc"]
    cfg = write_config(tmp_path, bad)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "field 'class'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize(
    "schedules, label",
    [
        ([{"kind": "uniform_random", "m": 3},
          {"kind": "uniform_random", "m": 3}], "uniform_random_m3"),
        ([{"kind": "custom", "m": 1, "custom_indices": [[1]] * 15},
          {"kind": "custom", "m": 1, "custom_indices": [[2]] * 15}], "custom_m1"),
    ],
    ids=["uniform_random", "custom"],
)
def test_two_schedules_with_one_label_are_refused_naming_it(
    tmp_path, capsys, schedules, label
):
    # The report and the Monte Carlo estimates are keyed by label: a second
    # schedule with the same label would overwrite the first.
    cfg = dict(
        mini_verify_config(), schedules=schedules,
        checks=["gen_error_mc", "schedule_equivalence"],
    )
    out = tmp_path / "o"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "field 'schedules'" in err and repr(label) in err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("command", ["verify", "sweep"], ids=["verify", "grid-sweep"])
def test_a_schedule_seed_is_refused_naming_it(tmp_path, capsys, command):
    # Every trial draws its schedule from master_seed, so a schedule's own
    # seed would be read and ignored.
    if command == "verify":
        cfg = mini_verify_config()
        cfg["schedules"][1]["seed"] = 1
    else:
        cfg = huber_grid_config()
        cfg["sweep"]["base"]["schedule"]["seed"] = 1
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "field 'seed'" in err and "master_seed" in err
    assert not any(out.glob("*"))


def test_a_config_jobs_reaches_the_run_unless_the_flag_overrides_it(tmp_path, monkeypatch):
    seen = []

    def serially(config):
        seen.append(config.jobs)
        return run_full_verification(dataclasses.replace(config, jobs=1))

    monkeypatch.setattr(cli, "run_full_verification", serially)
    path = write_config(tmp_path, dict(mini_verify_config(), jobs=2, checks=["sandwich"]))
    assert main(["verify", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["verify", "--config", path, "--out", str(tmp_path / "b"), "--jobs", "1"]) == 0
    assert seen == [2, 1]


def test_a_serial_verify_never_imports_the_process_pool(tmp_path):
    cfg = dict(mini_verify_config(), trials=4, stability_trials=2, regularity_trials=5)
    code = (
        "import sys; from batchstab.cli import main; "
        f"code = main(['verify', '--config', {write_config(tmp_path, cfg)!r}, "
        f"'--out', {str(tmp_path / 'o')!r}, '--jobs', '1']); "
        "print(code, 'concurrent.futures' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(), capture_output=True,
        text=True, check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 False"


def test_seed_override_wins_over_config(tmp_path):
    cfg = write_config(tmp_path, mini_verify_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out1), "--seed", "99"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["master_seed"] == 99 and r2["master_seed"] == 5
    assert r1["schedules"]["full_batch"]["gen_error_mc"]["mean"] != (
        r2["schedules"]["full_batch"]["gen_error_mc"]["mean"]
    )


def test_dump_schedule_round_robin(tmp_path):
    cfg = write_config(
        tmp_path,
        {"dump": {"what": "schedule", "n": 3, "T": 5, "schedule": {"kind": "round_robin", "m": 1}}},
    )
    out = tmp_path / "dump"
    assert main(["dump", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "schedule.csv").read_text().strip().splitlines()
    assert lines == ["1", "2", "3", "1", "2"]
    # --seed and --jobs write the top level of every command's config.
    flags = ["--seed", "3", "--jobs", "2"]
    assert main(["dump", "--config", cfg, "--out", str(tmp_path / "f"), *flags]) == 0
    assert (tmp_path / "f" / "schedule.csv").read_text() == (out / "schedule.csv").read_text()


def test_dump_dataset_is_reproducible(tmp_path):
    payload = {
        "master_seed": 21,
        "dump": {
            "what": "dataset",
            "n": 6,
            "instance": {"family": "convex_huber", "d": 3, "L": 1.0, "beta": 1.0},
        },
    }
    cfg = write_config(tmp_path, payload)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["dump", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["dump", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()


def test_dump_trajectory_matches_linear_closed_form(tmp_path):
    payload = {
        "master_seed": 31,
        "dump": {
            "what": "trajectory",
            "n": 4,
            "instance": {"family": "linear", "d": 3},
            "plan": {"kind": "constant", "eta": 0.25, "T": 6},
            "schedule": {"kind": "full_batch", "m": 4},
        },
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "t"
    assert main(["dump", "--config", cfg, "--out", str(out)]) == 0
    traj = np.array(
        [
            [float(v) for v in line.split(",")]
            for line in (out / "trajectory.csv").read_text().strip().splitlines()
        ]
    )
    # final iterate = w1 - sum_t (eta/m) sum_z z = -T * eta * mean(z)
    from batchstab.problems import linear_instance

    examples = sample_examples(linear_instance(3), 4, rng_at(31, 0))
    expected = -6 * 0.25 * examples.mean(axis=0)
    assert traj.shape == (7, 3)
    assert np.allclose(traj[-1], expected, atol=1e-12)


def test_dump_trajectory_is_the_per_step_path_bit_for_bit(tmp_path):
    # convex_huber steps its first d - 1 coordinates a block at a time and
    # its Huber coordinate one step at a time, on the slope's linear piece
    # until a step's slope is clipped; blocks of 7 steps put T = 40 in six
    # blocks, the default in one.  w1^d is not 0, so (w - w1^d) - z^d and
    # w - (w1^d + z^d) round apart, and tau = 0.32 < 2 s_d clips seven steps
    # from step 13 on: a block of 7 hands off at its first, a middle or no
    # step, and the default block at step 13.
    payload = {
        "master_seed": 32,
        "dump": {
            "what": "trajectory",
            "n": 8,
            "instance": {"family": "convex_huber", "d": 5, "L": 1.0, "beta": 1.0,
                         "tau": 0.32, "w1": [0.3, -0.7, 0.1, 0.2, 0.1234]},
            "plan": {"kind": "inverse_t", "coeff": 0.9, "T": 40},
            "schedule": {"kind": "uniform_random", "m": 3},
        },
    }
    dump = payload["dump"]
    instance = instance_from_config(dump["instance"])
    S = Dataset(examples=sample_examples(instance, 8, rng_at(32, 0)))
    plan = plan_from_dict(dump["plan"], instance)
    sched = realize(schedule_spec_from_dict({"seed": 32, **dump["schedule"]}, n=8, T=40))
    path = reference_path(instance, S, sched, plan.etas())
    u = path[:-1, -1:] - instance.w1[-1] - S.examples[sched.batches, -1]
    clipped = np.flatnonzero((np.abs(u) > 0.32).any(axis=1))
    assert clipped.tolist() == [12, 14, 28, 29, 30, 36, 37]
    expected = [[repr(float(v)) for v in row] for row in path]
    cfg = write_config(tmp_path, payload)
    for B in (7, None):
        out = tmp_path / f"B{B}"
        with block_of(B) if B else contextlib.nullcontext():
            assert main(["dump", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            assert list(csv.reader(fh)) == expected, B
    assert_pinned_digests({"dump:convex_huber_trajectory": (out / "trajectory.csv").read_text()})


def test_a_diverging_dump_trajectory_exits_two_naming_the_step(tmp_path, capsys):
    payload = {
        "master_seed": 1,
        "dump": {
            "what": "trajectory", "n": 5,
            "instance": {"family": "quadratic_nonconvex", "d": 2, "beta": 1.0},
            "plan": {"kind": "constant", "eta": 1e200, "T": 400},
            "schedule": {"kind": "round_robin", "m": 1},
        },
    }
    out = tmp_path / "o"
    assert main(["dump", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "non-finite iterate produced at step 2" in err
    assert not any(out.glob("*"))


def test_sweep_uniform_stability_demo(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "master_seed": 41,
            "sweep": {
                "mode": "uniform_stability_demo",
                "ns": [10, 30],
                "epochs": 2,
                "d": 5,
                "trials": 120,
            },
        },
    )
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads((out / "sweep.json").read_text())
    assert [r["uniform_stability_constant"] for r in rows] == [20.0, 20.0]
    assert rows[0]["on_average_bound"] > rows[1]["on_average_bound"]
    csv_text = (out / "sweep.csv").read_text()
    assert csv_text.splitlines()[0].startswith("n,")


def test_sweep_grid_nonconvex_T(tmp_path):
    out = tmp_path / "g"
    assert (
        main(
            [
                "sweep",
                "--config",
                str(CONFIG_DIR / "sweep_nonconvex_T.json"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = json.loads((out / "sweep.json").read_text())
    oracles = [r["oracle"] for r in rows]
    lowers = [r["lower"] for r in rows]
    assert oracles == sorted(oracles) and lowers == sorted(lowers)
    assert all(o >= lo for o, lo in zip(oracles, lowers))
    # c = 1: the oracle telescopes to T/n exactly
    assert oracles[0] == pytest.approx(10 / 100)
    assert all(r["upper"] is None for r in rows)


@pytest.mark.parametrize(
    "name, reduced",
    [
        ("uniform_stability_demo.json", {"ns": [10, 30], "trials": 40}),
        ("sweep_nonconvex_T.json", {"axes": {"T": [10, 30, 100]}}),
    ],
)
def test_shipped_sweeps_at_a_reduced_size_are_the_pinned_bytes(tmp_path, name, reduced):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["sweep"].update(reduced)
    out = tmp_path / "s"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert_pinned_digests({f"sweep:{Path(name).stem}": (out / "sweep.csv").read_text()})


def test_sweep_empty_grid_exits_nonzero(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"sweep": {"mode": "grid", "axes": {"T": []}, "base": {}}},
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "axes" in capsys.readouterr().err


def test_shipped_flagship_config_parses():
    from batchstab.experiments import config_from_dict

    cfg = json.loads((CONFIG_DIR / "convex_sandwich.json").read_text())
    config = config_from_dict(cfg)
    assert config.n == 50 and config.trials == 2000
    assert math.isclose(config.plan.etas().sum(), 50.0)


PAIRED_LARGE_N = CONFIG_DIR.parent / "perfbench" / "configs" / "paired_large_n.json"


class Loaded(Exception):
    """Raised in place of the experiments layer, once a command has read its config."""


def command_of(cfg: dict) -> str:
    return "sweep" if "sweep" in cfg else "dump" if "dump" in cfg else "verify"


@pytest.mark.parametrize(
    "path",
    [CONFIG_DIR / f"{name}.json"
     for name in ("convex_sandwich", "nonconvex_lower", "strongly_convex_sandwich",
                  "sweep_nonconvex_T", "uniform_stability_demo")]
    + [PAIRED_LARGE_N],
    ids=lambda p: p.stem,
)
def test_every_kept_verify_config_loads(tmp_path, monkeypatch, path):
    def loaded(*args, **kwargs):
        raise Loaded

    monkeypatch.setattr(cli, "run_full_verification", loaded)
    monkeypatch.setattr(cli, "uniform_stability_failure_demo", loaded)
    command = command_of(json.loads(path.read_text()))
    with pytest.raises(Loaded):
        main([command, "--config", str(path), "--out", str(tmp_path / "o")])


def huber_grid_config():
    return {
        "master_seed": 1,
        "sweep": {
            "mode": "grid",
            "axes": {"eta": [0.3, 0.5, 1.5]},
            "trials": 40,
            "base": {
                "instance": {"family": "convex_huber", "d": 3, "L": 1.0, "beta": 1.0},
                "n": 8,
                "plan": {"kind": "constant", "eta": 0.3, "T": 10},
                "schedule": {"kind": "round_robin", "m": 1},
            },
        },
    }


@pytest.mark.parametrize(
    "command, config, files",
    [
        ("verify", mini_verify_config, {"json": "report.json", "csv": "summary.csv"}),
        ("sweep", huber_grid_config, {"json": "sweep.json", "csv": "sweep.csv"}),
    ],
)
def test_format_writes_only_its_file_the_bytes_both_writes(tmp_path, command, config, files):
    path = write_config(tmp_path, config())
    written = {}
    for fmt in ("both", "json", "csv"):
        out = tmp_path / fmt
        assert main([command, "--config", path, "--out", str(out), "--format", fmt]) == 0
        written[fmt] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert set(written["both"]) == set(files.values())
    for fmt, name in files.items():
        assert written[fmt] == {name: written["both"][name]}


def test_grid_cell_leaving_the_huber_region_refuses_its_monte_carlo(tmp_path):
    cfg = write_config(tmp_path, huber_grid_config())
    out = tmp_path / "g"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads((out / "sweep.json").read_text())
    assert all(list(r) == list(rows[0]) for r in rows)
    assert [r["verdict"] for r in rows] == ["pass", "pass", ""]
    assert rows[0]["mc_mean"] is not None
    outside = rows[2]
    assert outside["mc_mean"] is None and outside["mc_stderr"] is None
    assert "; mc: population risk queried outside the analytic region" in (
        outside["refusals"]
    )
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "eta,lower,oracle,upper,refusals,mc_mean,mc_stderr,verdict"


@pytest.mark.parametrize(
    "instance, bound_class, plan, missing",
    [
        (
            {"family": "convex_huber", "d": 4, "L": 1.0, "beta": 1.0},
            "strongly_convex",
            {"kind": "constant", "eta": 0.5, "T": 15},
            "gamma",
        ),
        (
            {"family": "quadratic_nonconvex", "d": 3, "beta": 1.0},
            "nonconvex_lipschitz",
            {"kind": "inverse_t", "coeff": 0.5, "T": 15},
            "L",
        ),
    ],
)
def test_class_override_without_its_constants_names_the_missing_one(
    tmp_path, capsys, instance, bound_class, plan, missing
):
    cfg = dict(mini_verify_config(), instance=instance, plan=plan)
    cfg["class"] = bound_class
    out = tmp_path / "o"
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"requires {missing}" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "plan, field",
    [
        ({"kind": "constant", "eta": 0.5, "T": 10.0}, "T"),
        ({"kind": "constant", "eta": math.nan, "T": 10}, "eta"),
        ({"kind": "constant", "eta": math.inf, "T": 10}, "eta"),
        ({"kind": "inverse_t", "coeff": math.nan, "T": 10}, "coeff"),
        ({"kind": "custom", "values": [0.5] * 9 + [math.nan], "T": 10}, "values"),
    ],
)
def test_malformed_plan_names_its_field(tmp_path, capsys, plan, field):
    cfg = dict(mini_verify_config(), plan=plan)
    out = tmp_path / "o"
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert field in err
    assert not (out / "report.json").exists()


def test_region_skip_reason_prints_a_plain_float(tmp_path):
    cfg = json.loads((CONFIG_DIR / "convex_sandwich.json").read_text())
    cfg["plan"]["eta"] = 1e6
    cfg["checks"] = ["gen_error_mc"]
    out = tmp_path / "o"
    main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    text = (out / "report.json").read_text()
    reasons = [
        s["gen_error_mc"]["reason"] for s in json.loads(text)["schedules"].values()
    ]
    assert reasons and all("<= 0.17677669529663687;" in r for r in reasons)
    assert "np.float64" not in text


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", True),
        ("stability_trials", True),
        ("regularity_trials", "50"),
        ("regularity_trials", 50.0),
        ("checks", "sandwich"),
        ("checks", ["sandwich", 3]),
    ],
)
def test_malformed_count_or_check_field_names_it(tmp_path, capsys, field, value):
    cfg = dict(mini_verify_config(), **{field: value})
    out = tmp_path / "o"
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"field {field!r}" in err
    assert not (out / "report.json").exists()


def demo_sweep_config():
    return {
        "master_seed": 41,
        "sweep": {
            "mode": "uniform_stability_demo", "ns": [10, 30], "epochs": 2, "d": 5,
            "trials": 120,
        },
    }


def dump_schedule_config():
    return {"dump": {"what": "schedule", "n": 3, "T": 5, "schedule": {"kind": "round_robin"}}}


DELETE = object()


def changed(cfg, path, value):
    """``cfg`` with the field at ``path`` set to ``value``, or deleted for DELETE."""
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


CUSTOM_ROWS = [["1"]] * 15

# (command, base config, path of the malformed field, its value, what the
# error must name).  Each of these once ended in a traceback, ran on a
# silently coerced value, or failed with a message that did not name the field.
MALFORMED = [
    ("verify", mini_verify_config, ("instance", "d"), "3", "field 'd'"),
    ("verify", mini_verify_config, ("instance", "beta"), "1", "field 'beta'"),
    ("verify", mini_verify_config, ("instance", "d"), 8.0, "field 'd'"),
    ("verify", mini_verify_config, ("instance", "L"), True, "field 'L'"),
    ("verify", mini_verify_config, ("schedules",), {"kind": "full_batch"}, "field 'schedules'"),
    ("verify", mini_verify_config, ("instance",), [1], "field 'instance'"),
    ("verify", list, (), None, "JSON object"),
    ("verify", mini_verify_config, ("schedules", 1, "m"), 2.7, "field 'm'"),
    ("verify", mini_verify_config, ("schedules", 1, "m"), "2", "field 'm'"),
    ("verify", mini_verify_config, ("schedules", 1, "seed"), 1.5, "field 'seed'"),
    ("verify", mini_verify_config, ("allow_divergence",), "no", "field 'allow_divergence'"),
    ("verify", mini_verify_config, ("master_seed",), "5", "field 'master_seed'"),
    ("verify", mini_verify_config, ("plan", "eta"), "0.5", "field 'eta'"),
    ("verify", mini_verify_config, ("plan",), {"kind": "inverse_t", "coeff": "0.5", "T": 15},
     "field 'coeff'"),
    ("verify", mini_verify_config, ("schedules",),
     [{"kind": "custom", "m": 1, "custom_indices": CUSTOM_ROWS}], "field 'custom_indices'"),
    ("sweep", demo_sweep_config, ("sweep", "ns"), 10, "field 'ns'"),
    ("sweep", demo_sweep_config, ("sweep", "ns"), DELETE, "field 'ns'"),
    ("sweep", demo_sweep_config, ("sweep", "trials"), "3", "field 'trials'"),
    ("sweep", demo_sweep_config, ("sweep", "epochs"), 2.5, "field 'epochs'"),
    ("sweep", demo_sweep_config, ("sweep", "d"), 5.0, "field 'd'"),
    ("sweep", huber_grid_config, ("sweep", "axes"), {"T": [10.5]}, "field 'T'"),
    ("sweep", huber_grid_config, ("sweep", "axes"), {"eta": ["0.3"]}, "field 'eta'"),
    ("sweep", huber_grid_config, ("sweep", "trials"), "2", "field 'trials'"),
    ("dump", dump_schedule_config, ("dump", "n"), "3", "field 'n'"),
    ("dump", dump_schedule_config, ("dump", "T"), 2.5, "field 'T'"),
    # A field that nothing reads, once ignored in favour of its default.
    ("verify", mini_verify_config, ("stability_trial",), 1, "field 'stability_trial'"),
    ("verify", mini_verify_config, ("plan", "etaa"), 9, "field 'etaa'"),
    ("verify", mini_verify_config, ("instance", "gamma"), 1.0, "field 'gamma'"),
    ("verify", mini_verify_config, ("schedules", 1, "mm"), 2, "field 'mm'"),
    ("sweep", huber_grid_config, ("sweep", "base", "trails"), 5, "field 'trails'"),
    ("dump", dump_schedule_config, ("dump", "schedule", "M"), 2, "field 'M'"),
    # A family that no config can build, named as the config wrote it.
    ("verify", mini_verify_config, ("instance", "family"), "custom_smooth",
     "cannot build family 'custom_smooth' from a config file"),
    ("verify", mini_verify_config, ("instance", "family"), "Linear",
     "cannot build family 'Linear' from a config file"),
    # A field that no reader read in an object that had no list of its
    # fields, or one that the grid overwrote in each cell.
    ("sweep", demo_sweep_config, ("sweep", "trails"), 3, "field 'trails'"),
    ("sweep", huber_grid_config, ("sweep", "trails"), 4, "field 'trails'"),
    ("sweep", huber_grid_config, ("sweep", "base", "master_seed"), 7, "field 'master_seed'"),
    ("sweep", huber_grid_config, ("sweep", "base", "trials"), 500, "field 'trials'"),
    ("sweep", huber_grid_config, ("sweep", "base", "checks"), ["regularity"], "field 'checks'"),
    ("sweep", demo_sweep_config, ("seeed",), 9, "field 'seeed'"),
    ("dump", dump_schedule_config, ("dump", "nn"), 40, "field 'nn'"),
    ("dump", dump_schedule_config, ("dump", "instance"), {"family": "linear", "d": 3},
     "field 'instance'"),
    ("dump", dump_schedule_config, ("seeed",), 9, "field 'seeed'"),
]


@pytest.mark.parametrize(
    "command, base, path, value, named", MALFORMED,
    ids=[f"{i:02d}-{c[0]}-{'.'.join(map(str, c[2])) or 'top'}" for i, c in enumerate(MALFORMED)],
)
def test_malformed_field_exits_two_naming_it(tmp_path, capsys, command, base, path, value, named):
    cfg = changed(base(), path, value) if path else base()
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err
    assert not any(out.glob("*"))


@pytest.mark.parametrize(
    "instance, plan",
    [
        # every schedule leaves the Huber region: gen_error_mc skips throughout
        ({"family": "convex_huber", "d": 8, "L": 1.0, "beta": 1.0},
         {"kind": "constant", "eta": 1e6, "T": 100}),
        # no nonconvex oracle for a constant plan: gen_error_mc skips throughout
        ({"family": "quadratic_nonconvex", "d": 3, "beta": 1.0},
         {"kind": "constant", "eta": 0.3, "T": 15}),
    ],
)
def test_a_run_whose_every_check_skipped_does_not_pass(tmp_path, capsys, instance, plan):
    cfg = dict(mini_verify_config(), instance=instance, plan=plan, checks=["gen_error_mc"])
    out = tmp_path / "o"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    statuses = [s["gen_error_mc"]["status"] for s in report["schedules"].values()]
    assert statuses == ["skipped", "skipped"]
    assert report["passed"] is False and report["failures"] == []
    assert "cli-mini: FAIL (0 failing, 0 passing, 2 skipped checks)" in capsys.readouterr().out


def test_divergence_during_verify_is_a_recorded_failure(tmp_path):
    cfg = dict(
        mini_verify_config(),
        instance={"family": "quadratic_nonconvex", "d": 3, "beta": 1.0},
        plan={"kind": "constant", "eta": 1e6, "T": 400},
        checks=["gen_error_mc"],
    )
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    for section in report["schedules"].values():
        assert section["gen_error_mc"]["status"] == "fail"
        assert section["gen_error_mc"]["reason"].startswith("non-finite iterate produced at step")
    assert report["failures"] == ["gen_error_mc", "gen_error_mc"]
    assert (out / "summary.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "changes",
    [
        # every check that runs the engine diverges at step 1 or 2
        {"plan": {"kind": "constant", "eta": 1e300, "T": 5}},
        # finite iterates near 1e240 whose risk overflows
        {"plan": {"kind": "constant", "eta": 1e6, "T": 40}, "trials": 5,
         "master_seed": 1, "checks": ["gen_error_mc"]},
    ],
    ids=["divergence", "overflowing-risk"],
)
def test_a_diverging_verify_prints_no_numpy_warnings(tmp_path, changes, jobs):
    # The engine names the step of a divergence and the report the trial
    # whose risk overflows: numpy's warnings, from the command or from a
    # worker, would add nothing to stderr.
    cfg = dict(
        mini_verify_config(),
        instance={"family": "quadratic_nonconvex", "d": 3, "beta": 1.0},
        **changes,
    )
    out = tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-m", "batchstab.cli", "verify", "--config",
         write_config(tmp_path, cfg), "--out", str(out), "--jobs", jobs],
        env=subprocess_env(), capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("wall time: ")
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] and "gen_error_mc" in report["failures"]

    cfg["allow_divergence"] = True
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["excluded_trials"] > 0 and report["divergence_flag"] is True
    assert {s["gen_error_mc"]["status"] for s in report["schedules"].values()} == {"skipped"}


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize(
    "command, config",
    [
        ("verify", mini_verify_config),
        ("sweep", lambda: json.loads((CONFIG_DIR / "sweep_nonconvex_T.json").read_text())),
        ("sweep", demo_sweep_config),
    ],
    ids=["verify", "grid-sweep", "demo-sweep"],
)
def test_jobs_below_one_is_refused_naming_it(tmp_path, capsys, command, config, jobs):
    out = tmp_path / "o"
    path = write_config(tmp_path, config())
    assert main([command, "--config", path, "--out", str(out), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "field 'jobs'" in err
    assert not any(out.glob("*"))


def test_an_engine_region_violation_is_a_recorded_failure(tmp_path, monkeypatch):
    # A band no convex_huber iterate keeps: the engine's own assertion fires
    # in every check that runs it, as it would on an engine bug.
    monkeypatch.setattr(ConvexHuberInstance, "huber_region_limit", lambda self, etas: 1e-12)
    out = tmp_path / "o"
    path = write_config(tmp_path, mini_verify_config())
    assert main(["verify", "--config", path, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    engine_checks = ["oracle_equivalence", "growth_recursion", "stability_mc", "gen_error_mc"]
    for section in report["schedules"].values():
        for name in engine_checks:
            assert section[name]["status"] == "fail", name
            assert "this indicates an engine bug" in section[name]["reason"]
    assert report["failures"] == 2 * engine_checks
    assert (out / "summary.csv").exists()


def test_a_grid_cell_is_the_verify_run_of_its_config(tmp_path):
    grid = huber_grid_config()
    out = tmp_path / "g"
    assert main(["sweep", "--config", write_config(tmp_path, grid), "--out", str(out)]) == 0
    row = json.loads((out / "sweep.json").read_text())[1]
    # The base's one schedule becomes the cell's list of schedules.
    cell = dict(grid["sweep"]["base"])
    cell = dict(
        cell, plan={"kind": "constant", "eta": 0.5, "T": 10},
        schedules=[cell.pop("schedule")], checks=["sandwich", "gen_error_mc"],
        trials=grid["sweep"]["trials"], master_seed=grid["master_seed"],
    )
    out = tmp_path / "v"
    assert main(["verify", "--config", write_config(tmp_path, cell), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    mc = report["schedules"]["round_robin_m1"]["gen_error_mc"]
    assert (row["lower"], row["oracle"], row["upper"]) == tuple(
        report["bounds"][k] for k in ("lower", "oracle", "upper")
    )
    assert (row["mc_mean"], row["mc_stderr"], row["verdict"]) == (mc["mean"], mc["stderr"], "pass")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
FUZZ_BASES = {
    "verify": lambda: dict(
        mini_verify_config(), n=4, trials=3, stability_trials=2, regularity_trials=5,
        plan={"kind": "constant", "eta": 0.5, "T": 5},
        schedules=[{"kind": "full_batch"}, {"kind": "uniform_random", "m": 2}],
    ),
    "sweep": demo_sweep_config,
    "grid": huber_grid_config,
    "dump": dump_schedule_config,
    "trajectory": lambda: {
        "dump": {
            "what": "trajectory", "n": 4, "instance": {"family": "linear", "d": 3},
            "plan": {"kind": "inverse_t", "c": 0.5, "T": 6},
            "schedule": {"kind": "random_reshuffle", "m": 2},
        },
    },
}
COMMANDS = {"grid": "sweep", "trajectory": "dump"}
NAMES = sorted({
    *VALID_KINDS, *PLAN_KINDS, *FAMILIES, *ALL_CHECKS, *BOUND_CLASSES,
    "grid", "uniform_stability_demo", "schedule", "dataset", "trajectory",
})


def nearby(value):
    """Values of the JSON type of ``value``: a well-typed field with a new value."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-3, 30)
    if isinstance(value, float):
        return st.floats()
    if isinstance(value, str):
        return st.sampled_from(NAMES)
    return JSON_VALUES


def field_paths(node, prefix=()):
    """Every path into a config, containers included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from field_paths(child, prefix + (key,))
        else:
            yield prefix + (key,)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_main_never_raises_on_a_config_with_one_field_replaced(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(FUZZ_BASES)))
    cfg = FUZZ_BASES[name]()
    if name == "sweep":
        cfg["sweep"].update(ns=[4, 6], trials=4)
    if name == "grid":
        cfg["sweep"].update(trials=4)
    path = data.draw(st.sampled_from(list(field_paths(cfg))))
    old = functools.reduce(lambda node, key: node[key], path, cfg)
    value = data.draw(st.one_of(nearby(old), JSON_VALUES))
    cfg = changed(cfg, path, value) if path else value
    tmp = tmp_path_factory.mktemp("fuzz")
    with np.errstate(all="ignore"):
        status = main([COMMANDS.get(name, name), "--config", write_config(tmp, cfg),
                       "--out", str(tmp / "o")])
    assert status in (0, 1, 2)


def dump_dataset_config():
    return {"dump": {"what": "dataset", "n": 4, "instance": {"family": "linear", "d": 3}}}


def object_paths(node, prefix=()):
    """The path of every JSON object in a config, the config itself included."""
    if isinstance(node, dict):
        yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from object_paths(child, prefix + (key,))


KEPT_CONFIGS = {
    **{path.stem: lambda path=path: json.loads(path.read_text())
       for path in [*sorted(CONFIG_DIR.glob("*.json")), PAIRED_LARGE_N]},
    "test-verify": mini_verify_config,
    "test-demo": demo_sweep_config,
    "test-grid": huber_grid_config,
    "test-dump-schedule": dump_schedule_config,
    "test-dump-dataset": dump_dataset_config,
    "test-dump-trajectory": FUZZ_BASES["trajectory"],
}
INJECTIONS = [
    (name, path) for name, config in KEPT_CONFIGS.items() for path in object_paths(config())
]


@pytest.mark.parametrize(
    "name, path", INJECTIONS,
    ids=[f"{name}-{'.'.join(map(str, path)) or 'top'}" for name, path in INJECTIONS],
)
def test_every_object_of_every_kept_config_refuses_an_unknown_field(
    tmp_path, capsys, name, path
):
    cfg = KEPT_CONFIGS[name]()
    functools.reduce(lambda node, key: node[key], path, cfg)["bogus"] = 1
    out = tmp_path / "o"
    assert main([command_of(cfg), "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "'bogus'" in err
    assert not any(out.glob("*"))
