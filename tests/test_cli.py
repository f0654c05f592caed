"""CLI subcommands: exit codes, file outputs, and byte-level determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from batchstab.cli import main

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
    from batchstab.problems import linear_instance, sample_examples
    from batchstab.seeding import rng_at

    examples = sample_examples(linear_instance(3), 4, rng_at(31, 0))
    expected = -6 * 0.25 * examples.mean(axis=0)
    assert traj.shape == (7, 3)
    assert np.allclose(traj[-1], expected, atol=1e-12)


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
