"""An engine edit never reads a result cache or artifact store primed by
other code.

Verdict keys and decode-snapshot names hash the model digest
(:func:`repro.core.durable.model_digest`).  A copy of ``src/`` whose
generated ``ADDI`` executor adds one too many runs over a cache and a
store primed by the unmutated tree: it must execute every run, print
the digest of its own fresh-store run and count nothing as corrupt,
and the unmutated tree must still be served every verdict afterwards.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The line ``_addi`` in ``isa/semantics.py`` emits for the sum.
ADDI_SUM = 'f"_r = _l + {o.imm_s}",'


def advm(src: Path, *args) -> str:
    """``python -m repro.cli *args`` over the package under *src*."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def line(out: str, name: str) -> str:
    return next(
        text.split(": ", 1)[1]
        for text in out.splitlines()
        if text.startswith(f"{name}: ")
    )


def counters(out: str, name: str) -> dict[str, int]:
    return {
        key: int(value)
        for key, value in (pair.split("=") for pair in line(out, name).split())
    }


@pytest.fixture
def mutant(tmp_path) -> Path:
    """A copy of ``src/`` whose ``ADDI`` executor adds one more."""
    root = tmp_path / "mutant-src"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    semantics = root / "repro" / "isa" / "semantics.py"
    text = semantics.read_text()
    assert text.count(ADDI_SUM) == 1
    semantics.write_text(
        text.replace(ADDI_SUM, 'f"_r = _l + {o.imm_s} + 1",')
    )
    return root


def test_engine_edit_never_reads_a_primed_cache_or_store(tmp_path, mutant):
    workspace = tmp_path / "ws"
    advm(SRC, "init", workspace, "--nvm-tests", 6, "--uart-tests", 3)
    primed = (
        "--cache-dir", tmp_path / "cache",
        "--store-dir", tmp_path / "store",
        "--engine-stats",
    )
    cold = advm(SRC, "regress", workspace, *primed)
    edited = advm(mutant, "regress", workspace, *primed)
    fresh = advm(
        mutant, "regress", workspace, "--no-cache",
        "--store-dir", tmp_path / "fresh", "--engine-stats",
    )
    again = advm(SRC, "regress", workspace, *primed)

    # Every run executed: no verdict and no decode snapshot of the
    # unmutated tree was read, and none was taken for corruption.
    assert "174 run(s) executed, 0 served from cache" in edited
    cache = counters(edited, "cache-stats")
    store = counters(edited, "store-stats")
    assert (cache["hits"], cache["misses"]) == (0, 174)
    assert store["hits"] == 0
    for stats in (cache, store):
        assert (stats["corrupt"], stats["quarantined"]) == (0, 0)
    digest = line(edited, "matrix-digest")
    assert digest == line(fresh, "matrix-digest")
    assert digest != line(cold, "matrix-digest")
    # The unmutated tree still finds everything it primed.
    assert "0 run(s) executed, 174 served from cache" in again
    assert line(again, "matrix-digest") == line(cold, "matrix-digest")
