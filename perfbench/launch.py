"""Run one batchstab CLI command in this process, as the benchmark's child.

    python3 launch.py SRC SIDECAR MODE -- <batchstab CLI arguments>

SRC is the ``src`` directory whose ``batchstab`` is measured; importing any
other copy is an error.  MODE is one of

    warmup  import the CLI, which imports every layer, and exit without
            running a command (compiles bytecode, fills the page cache);
    plain   run the command; only the entry into the experiments layer is
            timed, which ends the set-up phase;
    traced  run the command with every layer boundary traced (``spans``).

SIDECAR receives a JSON object with the clock readings (``spans.clock``) at
``main`` entry and exit, the end of set-up, and in traced mode the spans.
The exit status is the CLI's.
"""

import json
import sys
from pathlib import Path

from spans import Tracer, clock

# Called by the CLI once its config is parsed; their entry ends set-up.
FIRST_EXPERIMENT_CALLS = ("run_full_verification", "uniform_stability_failure_demo")


def main() -> int:
    src, sidecar, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("warmup", "plain", "traced"):
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import batchstab.cli

    if Path(batchstab.__file__).resolve().parent != src / "batchstab":
        print(f"error: imported batchstab from {batchstab.__file__}, not {src}",
              file=sys.stderr)
        return 3
    if mode == "warmup":
        return 0

    marks: dict = {}
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    for attr in FIRST_EXPERIMENT_CALLS:
        setattr(batchstab.cli, attr, _mark_entry(getattr(batchstab.cli, attr), marks))

    marks["main_start"] = clock()
    status = batchstab.cli.main(cli_args)
    marks["main_end"] = clock()
    if tracer is not None:
        tracer.uninstall()
        marks["spans"] = tracer.spans
    Path(sidecar).write_text(json.dumps(marks))
    return status


def _mark_entry(fn, marks: dict):
    def entered(*args, **kwargs):
        marks.setdefault("setup_end", clock())
        return fn(*args, **kwargs)

    return entered


if __name__ == "__main__":
    sys.exit(main())
