"""Run one ``advm`` command with every layer's entry point traced.

Usage (environment, not flags, so the ``advm`` argv passes through
untouched)::

    PERFBENCH_SPAWNED=<time.monotonic() at spawn> \\
    PERFBENCH_SPANS=<output file> \\
    PYTHONPATH=src python3 perfbench/traced_cli.py regress <workspace> ...

``cli.import`` runs from the parent's spawn stamp to the end of
``import repro.cli``; the monotonic clock is system-wide, so the two
processes' stamps compare.  The output file holds two JSON lines: the
spans, then a meta object that includes the tracer's own cost inside
this process (probe installation and span serialisation).
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    out_path = os.environ["PERFBENCH_SPANS"]
    import repro.cli

    imported = time.monotonic()
    import probes
    import spans

    tracer = spans.Tracer()
    argv = sys.argv[1:]
    probes.install(tracer, argv[0] if argv else "")
    installed = time.monotonic()
    code = 1
    try:
        code = repro.cli.main(argv)
    finally:
        finished = time.monotonic()
        text = json.dumps(tracer.spans)
        meta = {
            "spawned": spawned,
            "imported": imported,
            "registry_size": probes.registry_size(),
            "tracer_s": (installed - imported) + (time.monotonic() - finished),
        }
        with open(out_path, "w") as handle:
            handle.write(text + "\n" + json.dumps(meta) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
