"""Shared timing and JSON-emission plumbing for the benchmark scripts.

Every ``bench_*`` module used to carry its own copy of the same three
pieces: a best-of-N wall-clock helper, a module-level results dict, and
the ``BENCH_<name>.json`` emission next to the repository root.  They
live here once; CI uploads every ``BENCH_*.json`` as a single artifact
so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: Benchmarks emit their JSON next to the repository root.
REPO_ROOT = Path(__file__).resolve().parents[1]


def strip_result(result):
    """The comparable engine-visible outcome of a run — the tuple the
    equivalence benches diff between engine configurations."""
    return (
        result.status,
        result.signature,
        result.result_word,
        result.instructions,
        result.cycles,
        result.uart_output,
        result.done_pin,
        result.pass_pin,
        None
        if result.trace is None
        else [(t.pc, t.opcode, t.mnemonic, t.cycles) for t in result.trace],
    )


def assert_identical(pairs, label: str = "") -> None:
    """Byte-identity gate: every ``(candidate, reference)`` result pair
    must strip to the same tuple.  Benches call this on the full
    platform matrix *before* any speed claim — a fast engine that
    diverges is a broken engine, not a fast one."""
    for index, (candidate, reference) in enumerate(pairs):
        assert strip_result(candidate) == strip_result(reference), (
            f"{label}[{index}]: engine results diverge from the reference"
        )


def engine_matrix(**configurations) -> dict:
    """The engine-flag matrix a bench compared, embedded in its JSON so
    every figure is traceable to the exact engine configurations that
    produced it (e.g. ``engine_matrix(candidate={'use_superblocks':
    True}, reference={'use_superblocks': False})``)."""
    return {name: dict(flags) for name, flags in configurations.items()}


def best_of(repeats: int, fn):
    """Run *fn* *repeats* times; returns ``(best_elapsed_s, value)``
    where *value* is the result of the best (fastest) run."""
    best = None
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best, value = elapsed, result
    return best, value


def interleaved_best(repeats: int, *fns):
    """Best-of-N wall clock for several configurations sampled
    round-robin, so machine drift (frequency scaling, page cache,
    background load) lands on every side of a comparison instead of
    biasing whichever ran last.  Returns ``(bests, values)`` aligned
    with *fns*."""
    bests = [None] * len(fns)
    values = [None] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - start
            if bests[index] is None or elapsed < bests[index]:
                bests[index] = elapsed
                values[index] = value
    return bests, values


def best_rate(repeats: int, fn):
    """Run *fn* (which returns ``(rate, *extras)``) *repeats* times;
    returns ``(best_rate, extras)`` from the highest-rate run."""
    best = None
    extras = None
    for _ in range(repeats):
        rate, *rest = fn()
        if best is None or rate > best:
            best, extras = rate, rest
    return best, extras


class BenchResults:
    """Accumulates one benchmark module's numbers and emits the JSON.

    Behaves like a dict (the benches fill sections test by test); the
    final test of the module calls :meth:`emit`.
    """

    def __init__(self, name: str):
        self.name = name
        self.path = REPO_ROOT / f"BENCH_{name}.json"
        self.data: dict = {}

    def __setitem__(self, key: str, value) -> None:
        self.data[key] = value

    def __getitem__(self, key: str):
        return self.data[key]

    def emit(self) -> Path:
        """Write ``BENCH_<name>.json``; returns the path."""
        self.path.write_text(json.dumps(self.data, indent=2) + "\n")
        return self.path
