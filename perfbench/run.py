"""Benchmark of batchstab: end-to-end metrics per workload, or per-layer ones.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program measured is ``src/batchstab``
of that checkout.  NAME is a workload of ``workloads.py`` or ``all`` (the
default), which runs every workload in turn and exits 1 if any gate failed.

A run writes the workload's config from the seed, warms up (one import-only
launch), then launches the batchstab CLI in a fresh subprocess, one at a
time with ``--jobs 1``, until the next launch would pass S seconds.  Every
launch is gated on correct output (``Workload.gate``) and all launches of a
run must write byte-identical reports.

``--trace 0`` reports the end-to-end metrics, each the median over the
launches.  ``--trace 1`` alternates untraced and traced launches and reports
the per-layer metrics of the traced launch of median wall time, and the
tracing overhead.

Human-readable lines and a ``provenance`` line come first; the last line of
standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``, where attempted counts
the checks expected over all launches and failed the checks with another
status plus every gate failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from spans import clock, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
LAUNCH_TIMEOUT_S = 150.0


def unit_of(metric: str) -> str:
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


@dataclass
class Launch:
    mode: str
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    marks: dict
    digests: dict
    report_bytes: int
    failures: list = field(default_factory=list)


def launch(mode: str, work: Path, cli_args: list[str]) -> Launch:
    """Run the CLI once in a child process and reap it with its resource usage."""
    out, sidecar = work / "out", work / "sidecar.json"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    sidecar.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "launch.py"), str(ROOT / "src"),
        str(sidecar), mode, "--", *cli_args, "--out", str(out),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(work / "stdout.txt", "wb") as so, open(work / "stderr.txt", "wb") as se:
        start = clock()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT)
        killer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
            end = clock()
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    marks = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    marks.update(start=start, end=end)
    files = sorted(p for p in out.iterdir() if p.is_file())
    return Launch(
        mode=mode,
        status=proc.returncode,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        marks=marks,
        digests={p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
        report_bytes=sum(p.stat().st_size for p in files),
    )


def traced_metrics(run: Launch) -> dict:
    """Per-layer metrics of one traced launch; checks that the spans add up."""
    m = layer_metrics(run.marks["spans"])
    m["process.startup_s"] = run.marks["main_start"] - run.marks["start"]
    m["process.exit_s"] = run.marks["end"] - run.marks["main_end"]
    m["cli.report_bytes"] = run.report_bytes
    m["trace.wall_s"] = run.wall_s
    attributed = sum(v for k, v in m.items() if k.endswith(".self_s"))
    attributed += m["process.startup_s"] + m["process.exit_s"]
    if abs(attributed - run.wall_s) > 0.03 * run.wall_s:
        run.failures.append(f"layer self times add up to {attributed:.4f} s, wall {run.wall_s:.4f} s")
    negative = [k for k, v in m.items() if k.endswith("self_s") and v < -1e-6]
    if negative:
        run.failures.append(f"negative self time: {negative}")
    return m


def check(run: Launch, workload, out: Path, cfg: dict, reference, first: Launch) -> int:
    """Gate one launch; returns the number of checks it was expected to report."""
    if run.status != 0:
        run.failures.append(f"exit status {run.status}")
    if "setup_end" not in run.marks:
        run.failures.append("the experiments layer was never entered")
    if run.digests != first.digests:
        run.failures.append("outputs differ from the first launch of this run")
    try:
        expected_checks, failures = workload.gate(out, cfg, reference)
    except (OSError, ValueError, KeyError, TypeError) as e:
        expected_checks, failures = 1, [f"unreadable outputs: {e!r}"]
    run.failures.extend(failures)
    return expected_checks


def provenance(seed: int, cfg_path: Path, runs: list[Launch]) -> dict:
    import numpy

    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        ).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            commit = top[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "config_sha256": hashlib.sha256(cfg_path.read_bytes()).hexdigest(),
        "output_sha256": runs[0].digests if runs else {},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    workload = WORKLOADS[name]
    missing = [p for p in ("src/batchstab/__init__.py", workload.base_config) if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"error: {ROOT} is not a batchstab checkout; missing {missing}")
    work = ROOT / "perfbench" / ".work" / f"{name}-{size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = workload.config(ROOT, seed, size)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    cli_args = [workload.command, "--config", str(cfg_path), "--seed", str(seed), "--jobs", "1"]

    sys.path.insert(0, str(ROOT / "src"))
    reference = workload.reference(cfg)
    expected_steps = workload.traj_steps(cfg)
    if launch("warmup", work, cli_args).status != 0:
        raise SystemExit(f"error: batchstab does not import; see {work / 'stderr.txt'}")

    modes = ("plain", "traced") if trace else ("plain",)
    runs: list[Launch] = []
    layers = []
    attempted = 0
    begun = clock()
    while True:
        for mode in modes:
            run = launch(mode, work, cli_args)
            attempted += check(run, workload, work / "out", cfg, reference, runs[0] if runs else run)
            if run.mode == "traced" and "spans" in run.marks:
                m = traced_metrics(run)
                if m["engine.traj_steps"] != expected_steps:
                    run.failures.append(
                        f"traced {m['engine.traj_steps']} trajectory-steps, expected {expected_steps}"
                    )
                layers.append(m)
            runs.append(run)
        elapsed = clock() - begun
        if elapsed * (1 + len(modes) / len(runs)) > seconds:
            break
    failed = sum(len(r.failures) for r in runs)

    plain = [r for r in runs if r.mode == "plain"]
    wall = statistics.median(r.wall_s for r in plain)
    if trace:
        # every layer number from one launch, the traced launch of median wall time
        by_wall = sorted(layers, key=lambda m: m["trace.wall_s"])
        metrics = dict(by_wall[(len(by_wall) - 1) // 2]) if layers else {}
        metrics["trace_overhead_ratio"] = metrics.get("trace.wall_s", 0.0) / wall
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(
                r.marks.get("setup_end", r.marks["end"]) - r.marks["start"] for r in plain
            ),
            "traj_steps_per_s": expected_steps / wall,
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mib": statistics.median(r.peak_rss_mib for r in plain),
        }

    prov = provenance(seed, cfg_path, runs)
    (work / "provenance.json").write_text(json.dumps(prov, indent=2) + "\n")
    print(f"workload {name}: seed {seed}, {len(plain)} untraced + {len(runs) - len(plain)} traced "
          f"launches, {expected_steps} trajectory-steps per launch")
    for run in runs:
        for failure in run.failures:
            print(f"  FAILED ({run.mode}): {failure}")
    print(f"  {'check_fail_ratio':40s} {failed / max(attempted, 1):16.6f} ratio ({failed} of {attempted})")
    print(f"  untraced wall_s of {len(plain)} launches: " + " ".join(f"{r.wall_s:.3f}" for r in plain))
    for key, value in metrics.items():
        print(f"  {key:40s} {value:16.6f} {unit_of(key)}")
    if trace and layers:
        selfs = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
        print("  largest layer self times: " + ", ".join(f"{k} {v / metrics['trace.wall_s']:.1%}" for v, k in selfs[:3]))
    print("provenance " + json.dumps(prov, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke shrinks every workload to seconds in all (self-test only)",
    )
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        print(json.dumps(result))
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
