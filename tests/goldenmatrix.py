"""The pinned regression matrix: every verdict of the ``init --nvm-tests 6
--uart-tests 3`` workspace on all four derivatives.

``golden_matrix.json`` holds, per derivative, the
:func:`~repro.core.scheduler.matrix_digest` and one entry per
``(environment, cell, target)``: its status, signature and cycle
count, a digest of its trace, and the SHA-256 of its whole cache
payload.  ``tests/test_golden_matrix.py`` compares a fresh regression
against it and names the first entry and field that differ.

Regenerate it (only when a verdict is meant to change) with::

    PYTHONPATH=src python tests/goldenmatrix.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.core.environment import GlobalLayer
from repro.core.scheduler import (
    RegressionScheduler,
    matrix_digest,
    result_to_payload,
)
from repro.core.system_env import make_default_system
from repro.core.workspace import load_module_environment, write_system_environment
from repro.soc.derivatives import all_derivatives

GOLDEN = Path(__file__).with_name("golden_matrix.json")

#: The workspace the matrix is pinned for (``advm init``'s options).
WORKSPACE = {"nvm_tests": 6, "uart_tests": 3}

#: The entry fields a mismatch is reported by, in the order checked;
#: ``payload`` covers every other field of the verdict.
FIELDS = ("status", "signature", "cycles", "trace", "payload")


def write_workspace(directory: Path) -> Path:
    """The pinned workspace under *directory*; returns its system dir."""
    return write_system_environment(
        make_default_system(**WORKSPACE), directory / "ws"
    )


def load_environments(system_dir: Path) -> dict:
    """Every module environment of *system_dir*, as ``advm regress``
    loads them."""
    layer = GlobalLayer()
    return {
        path.name: load_module_environment(path, global_layer=layer)
        for path in sorted(system_dir.iterdir())
        if path.is_dir() and path.name != "Global_Libraries"
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def matrix(environments: dict, derivative) -> dict:
    """``{"matrix_digest", "entries"}`` of one regression of
    *environments* on *derivative*; entries are keyed
    ``environment/cell/target``."""
    report = RegressionScheduler().run_system(environments, derivative)
    entries = {}
    for key in sorted(report.results):
        payload = result_to_payload(report.results[key])
        entries["/".join(key)] = {
            "status": payload["status"],
            "signature": payload["signature"],
            "cycles": payload["cycles"],
            "trace": _sha256(json.dumps(payload["trace"]))[:16],
            "payload": _sha256(json.dumps(payload, sort_keys=True)),
        }
    return {"matrix_digest": matrix_digest(report), "entries": entries}


def first_difference(expected: dict, actual: dict) -> str | None:
    """The first entry and field where *actual* differs from
    *expected* (both :func:`matrix` results), or ``None``."""
    for name in sorted(expected["entries"].keys() | actual["entries"].keys()):
        want = expected["entries"].get(name)
        got = actual["entries"].get(name)
        if want is None or got is None:
            return f"{name}: {'missing' if got is None else 'unexpected'}"
        for field in FIELDS:
            if want[field] != got[field]:
                return f"{name}: {field} {want[field]!r} -> {got[field]!r}"
    if expected["matrix_digest"] != actual["matrix_digest"]:
        return "matrix_digest (every entry matches)"
    return None


def _render(golden: dict) -> str:
    """*golden* as JSON with one line per entry, so a diff of the file
    names the entries that changed."""
    derivatives = []
    for name, pinned in sorted(golden["derivatives"].items()):
        entries = ",\n".join(
            f"    {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
            for key, entry in pinned["entries"].items()
        )
        derivatives.append(
            f'  {json.dumps(name)}: {{\n   "entries": {{\n{entries}\n   }},\n'
            f'   "matrix_digest": {json.dumps(pinned["matrix_digest"])}\n  }}'
        )
    return (
        '{\n "derivatives": {\n' + ",\n".join(derivatives) + "\n },\n"
        f' "workspace": {json.dumps(golden["workspace"], sort_keys=True)}\n}}\n'
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="golden_matrix_") as tmp:
        environments = load_environments(write_workspace(Path(tmp)))
        golden = {
            "workspace": WORKSPACE,
            "derivatives": {
                derivative.name: matrix(environments, derivative)
                for derivative in all_derivatives()
            },
        }
    GOLDEN.write_text(_render(golden))
    for name, pinned in golden["derivatives"].items():
        print(f"{name}: {pinned['matrix_digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
