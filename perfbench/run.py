"""End-to-end regression benchmark with a per-layer ledger.

    python3 perfbench/run.py --workload matrix_cold --seed 1 \
        --seconds 12 --trace 0

Run from the repository root.  The program under test is ``src/repro``
of that checkout, run as the user runs it (``python3 -m repro.cli``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import ledger
from inputs import make_inputs
from procs import Context
from workloads import WORKLOADS, run_workload

WORK_DIR = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(
            f"perfbench: no program under test at {root / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    # Compile the program's bytecode once, outside every timed interval.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")],
        check=True,
    )
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = Context.create(root, work, sys.executable)
        outcome = run_workload(
            args.workload, ctx, make_inputs(args.seed), args.seed,
            args.seconds, bool(args.trace),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    for problem in outcome.problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if len(outcome.problems) > 10:
        more = len(outcome.problems) - 10
        print(f"perfbench: ... {more} more", file=sys.stderr)
    if args.trace:
        names = {name: unit for name, (unit, _) in ledger.PER_LAYER.items()}
    else:
        names = ledger.END_TO_END
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics.get(name, 0), "unit": unit}
            for name, unit in names.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
