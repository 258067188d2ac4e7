"""The three workloads: set-up, timed loop, checks and figures.

``matrix_cold`` and ``rerun_edit`` time ``advm regress`` as a fresh
process from spawn to exit.  ``daemon_warm`` boots ``advm serve`` and
times a closed loop of one client submitting module packs over HTTP,
one connection at a time.  With ``trace`` set, the
timed loop alternates untraced and traced runs of the same command, so
the traced figures and the tracing overhead come from one invocation.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import ledger
import spans as spanlib
import surface
from inputs import INIT_ARGS, Inputs, edit_line
from procs import (
    REFERENCE_PROBE_S, Context, Daemon, check_cli, probe_host, run_cli,
)
from reference import module_dirs, reference_verdicts

SYSTEM_DIR = "ADVM_System_Verification_Environment"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: Why the result is not correct: failed runs, count drift.
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _init(ctx: Context, directory: Path) -> Path:
    check_cli(run_cli(ctx, ["init", _fresh(directory), *INIT_ARGS]))
    return directory / SYSTEM_DIR


def _cells(system_dir: Path) -> list[Path]:
    return [
        cell
        for module in module_dirs(system_dir)
        for cell in sorted(module.iterdir())
        if cell.is_dir() and cell.name != "Abstraction_Layer"
    ]


def _apply_edit(system_dir: Path, inputs: Inputs, seed: int) -> None:
    cells = _cells(system_dir)
    source = cells[inputs.edit_pick % len(cells)] / "test.asm"
    with open(source, "a") as handle:
        handle.write(edit_line(seed))


# -- the CLI workloads -----------------------------------------------------

class CliWorkload:
    """One ``advm regress`` invocation per timed run."""

    #: Set-up repetitions per invocation; ``setup_s`` is their median.
    setup_reps = 3

    def __init__(self, ctx: Context, inputs: Inputs, seed: int):
        self.ctx = ctx
        self.inputs = inputs
        self.seed = seed
        self.system: Path | None = None

    def set_up(self, rep: int) -> None:
        raise NotImplementedError

    def reference(self) -> dict:
        return reference_verdicts(self.system, self.inputs.derivative)

    def prepare(self, index: int) -> list:
        """Untimed per-run preparation; returns the ``advm`` argv."""
        raise NotImplementedError

    def _run_dir(self, index: int) -> Path:
        shutil.rmtree(self.ctx.work / f"run{index - 1}", ignore_errors=True)
        return _fresh(self.ctx.work / f"run{index}")


class MatrixCold(CliWorkload):
    """First full regression: empty result cache and artifact store."""

    def set_up(self, rep: int) -> None:
        self.system = _init(self.ctx, self.ctx.work / f"setup{rep}")

    def prepare(self, index: int) -> list:
        run = self._run_dir(index)
        return [
            "regress", self.system,
            "--derivative", self.inputs.derivative,
            "--cache-dir", run / "cache",
            "--store-dir", run / "store",
            "--engine-stats",
        ]


class RerunEdit(CliWorkload):
    """Edit one cell of a primed workspace and regress again."""

    def set_up(self, rep: int) -> None:
        base = self.primed = _fresh(self.ctx.work / f"setup{rep}")
        self.system = _init(self.ctx, base / "ws")
        check_cli(run_cli(self.ctx, [
            "regress", self.system,
            "--derivative", self.inputs.derivative,
            "--cache-dir", base / "cache",
            "--store-dir", base / "store",
        ]))

    def reference(self) -> dict:
        edited = _fresh(self.ctx.work / "reference")
        shutil.copytree(self.system, edited)
        _apply_edit(edited, self.inputs, self.seed)
        return reference_verdicts(edited, self.inputs.derivative)

    def prepare(self, index: int) -> list:
        run = self._run_dir(index)
        shutil.copytree(self.primed, run, dirs_exist_ok=True)
        system = run / "ws" / SYSTEM_DIR
        _apply_edit(system, self.inputs, self.seed)
        return [
            "regress", system,
            "--derivative", self.inputs.derivative,
            "--cache-dir", run / "cache",
            "--store-dir", run / "store",
            "--engine-stats",
        ]


def _scaled(wall_s: float, probes: list[float]) -> float:
    """*wall_s* at the reference host's speed: times the reference probe
    time over the mean of the probes taken just before and after it."""
    return wall_s * REFERENCE_PROBE_S / statistics.fmean(probes)


def _timed_setup(set_up, reps: int) -> list[float]:
    times = []
    for rep in range(reps):
        start = time.monotonic()
        set_up(rep)
        times.append(time.monotonic() - start)
    return times


def tally_cli(reference: dict, runs: list) -> Outcome:
    """Check every ``advm regress`` run against the reference and the
    runs' surface counts against each other."""
    outcome = Outcome()
    surface_counts = []
    for run in runs:
        outcome.attempted += 1
        failures = surface.regress_failures(
            reference, run.output, run.returncode
        )
        if failures:
            outcome.failed += 1
            outcome.problems.append(
                f"run {run.argv[1]} failed: " + "; ".join(failures[:5])
            )
        surface_counts.append(surface.parse_regress(run.output)[1])
    drift = ledger.count_drift(surface_counts, set().union(*surface_counts))
    if drift:
        outcome.problems.append(f"surface counts differ between runs: {drift}")
    return outcome


def run_cli_workload(
    workload: CliWorkload, seconds: float, trace: bool
) -> Outcome:
    ctx = workload.ctx
    setup_times = _timed_setup(workload.set_up, workload.setup_reps)
    reference = workload.reference()

    # The host probe runs before the first run and after every run, so
    # each run is scaled by the probes on either side of it.
    untraced, traced = [], []
    scaled: dict[bool, list[float]] = {False: [], True: []}
    probes = [probe_host(ctx)]
    deadline = time.monotonic() + seconds
    while True:
        index = len(untraced) + len(traced)
        traced_turn = trace and len(traced) < len(untraced)
        argv = workload.prepare(index)
        spans_path = ctx.work / f"spans{index}.json" if traced_turn else None
        run = run_cli(ctx, argv, spans_path)
        probes.append(probe_host(ctx))
        (traced if traced_turn else untraced).append(run)
        scaled[traced_turn].append(_scaled(run.wall_s, probes[-2:]))
        if time.monotonic() >= deadline and (traced or not trace):
            break

    outcome = tally_cli(reference, untraced + traced)
    if not trace:
        outcome.metrics = {
            "wall_ref_s": statistics.median(scaled[False]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(run.rss_mb for run in untraced),
            "success_rate": 1.0 - outcome.failed / outcome.attempted,
        }
        return outcome

    figures = []
    for run in traced:
        meta, span_list = spanlib.load(run.spans_path)
        figures.append(ledger.cli_figures(meta, span_list, run.wall_s))
    drift = ledger.count_drift(figures, ledger.DETERMINISTIC)
    if drift:
        outcome.problems.append(f"traced counts differ between runs: {drift}")
    metrics = ledger.median_figures(figures)
    metrics["trace_overhead_s"] = (
        statistics.median(scaled[True]) - statistics.median(scaled[False])
    )
    metrics["wall_raw_s"] = statistics.median(run.wall_s for run in untraced)
    metrics["probe_s"] = statistics.median(probes)
    outcome.metrics = metrics
    return outcome


# -- the daemon workload ---------------------------------------------------

#: Module packs per pass: 20 cycles of the six packs, each cycle the
#: whole 174-run matrix.  The warm-up pass after each boot is one such
#: pass, long enough for every block a pack executes to cross the JIT
#: threshold, so timed passes start from steady state and repeat the
#: same counts.
PASS_CYCLES = 20

#: Figures that are ratios, not per-pass sums.
_RATIOS = ("session.ms_per_run", "session.minstr_per_s", "jit.steps_per_chain")


@dataclass
class Pass:
    start: float
    end: float
    #: (module, start, latency_s, events) per request, in submission order.
    requests: list
    #: The host probe's times just before and after the pass.
    probes: list

    def cycle_walls(self, packs: int) -> list[float]:
        """Wall time of each cycle through the *packs* module packs."""
        walls = []
        for first in range(0, len(self.requests), packs):
            cycle = self.requests[first:first + packs]
            walls.append(cycle[-1][1] + cycle[-1][2] - cycle[0][1])
        return walls

    def scaled_cycle_walls(self, packs: int) -> list[float]:
        return [_scaled(w, self.probes) for w in self.cycle_walls(packs)]


class DaemonWarm:
    """``advm serve`` on a shared artifact store: each boot after the
    first rehydrates what the previous daemon persisted."""

    setup_reps = 3

    def __init__(self, ctx: Context, inputs: Inputs):
        self.ctx = ctx
        self.inputs = inputs
        self.store = ctx.work / "store"
        self.reference_system = _init(ctx, ctx.work / "reference")
        modules = [path.name for path in module_dirs(self.reference_system)]
        self.order = [modules[i] for i in inputs.pack_order]

    def pack(self, module: str) -> dict:
        return {
            "schema": 1,
            "name": f"perfbench-{module}",
            "modules": [module],
            "derivative": self.inputs.derivative,
            "executor": "serial",
        }

    def boot(self, rep: int, spans_path: Path | None = None) -> Daemon:
        """Write a workspace, boot a daemon on it and run the warm-up
        pass."""
        system = _init(self.ctx, self.ctx.work / f"ws{rep}")
        daemon = Daemon(self.ctx, [
            "serve", system,
            "--port", "0",
            "--journal-dir", _fresh(self.ctx.work / f"journal{rep}"),
            "--store-dir", self.store,
        ], spans_path)
        try:
            self.warm_up_start = time.monotonic()
            for _ in range(PASS_CYCLES):
                for module in self.order:
                    _latency, events = daemon.submit(self.pack(module))
                    if not events or events[-1].get("event") != "done":
                        raise RuntimeError(f"warm-up {module}: {events[-1:]}")
        except BaseException:
            daemon.stop()
            raise
        return daemon

    def passes(self, daemon: Daemon, seconds: float) -> list[Pass]:
        """Timed passes, with the host probe run between them."""
        done = []
        probes = [probe_host(self.ctx)]
        deadline = time.monotonic() + seconds
        while not done or time.monotonic() < deadline:
            requests = []
            start = time.monotonic()
            for _ in range(PASS_CYCLES):
                for module in self.order:
                    sent = time.monotonic()
                    latency, events = daemon.submit(self.pack(module))
                    requests.append((module, sent, latency, events))
            end = time.monotonic()
            probes.append(probe_host(self.ctx))
            done.append(Pass(start, end, requests, probes[-2:]))
        return done


def tally_daemon(reference: dict, passes: list[Pass]) -> Outcome:
    """Check every submission against the reference and the passes'
    surface counts against each other."""
    outcome = Outcome()
    pass_counts = []
    for record in passes:
        counts = {"cells": 0, "executed_runs": 0, "cached_runs": 0}
        for module, _sent, _latency, events in record.requests:
            outcome.attempted += 1
            failures = surface.stream_failures(reference, events, module)
            if failures:
                outcome.failed += 1
                outcome.problems.append(
                    f"request {module} failed: " + "; ".join(failures[:5])
                )
            for event in events:
                if event.get("event") == "cell":
                    counts["cells"] += 1
                elif event.get("event") == "done":
                    counts["executed_runs"] += event.get("executed_runs", 0)
                    counts["cached_runs"] += event.get("cached_runs", 0)
        pass_counts.append(counts)
    drift = ledger.count_drift(pass_counts, pass_counts[0])
    if drift:
        outcome.problems.append(
            f"daemon counts differ between passes: {drift}"
        )
    return outcome


def _traced_pass_figures(span_list, record: Pass) -> dict:
    """One traced pass's ledger; ``daemon.http_s`` is what the client
    waited beyond the time the daemon spent inside traced layers."""
    window = (record.start, record.end)
    figures = ledger.layer_figures(span_list, window)
    latency = sum(request[2] for request in record.requests)
    figures["daemon.http_s"] = latency - spanlib.top_level_time(
        span_list, window
    )
    figures["unattributed_s"] = (
        record.end
        - record.start
        - figures["named_s"]
        - figures["daemon.http_s"]
    )
    return figures


def run_daemon_workload(
    workload: DaemonWarm, seconds: float, trace: bool
) -> Outcome:
    reference = reference_verdicts(
        workload.reference_system, workload.inputs.derivative
    )
    # Boots share one artifact store, so every boot after the first is
    # a warm restart.  Untraced: the last boot runs the timed passes.
    # Traced: the second-last runs untraced passes and the last traced
    # ones, half the time each.
    setup_times = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    spans_path = workload.ctx.work / "daemon-spans.json"
    rss = 0.0
    last = workload.setup_reps - 1
    for rep in range(workload.setup_reps):
        traced_rep = trace and rep == last
        start = time.monotonic()
        daemon = workload.boot(rep, spans_path if traced_rep else None)
        setup_times.append(time.monotonic() - start)
        try:
            if traced_rep:
                boot_window = (start, workload.warm_up_start)
                traced = workload.passes(daemon, seconds / 2)
            elif trace and rep == last - 1:
                untraced = workload.passes(daemon, seconds / 2)
            elif rep == last:
                untraced = workload.passes(daemon, seconds)
                rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()

    outcome = tally_daemon(reference, untraced + traced)
    packs = len(workload.order)
    walls = [w for record in untraced for w in record.scaled_cycle_walls(packs)]
    if not trace:
        outcome.metrics = {
            "wall_ref_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss,
            "success_rate": 1.0 - outcome.failed / outcome.attempted,
        }
        return outcome

    meta, span_list = spanlib.load(spans_path)
    figures = [_traced_pass_figures(span_list, record) for record in traced]
    drift = ledger.count_drift(figures, ledger.DETERMINISTIC)
    if drift:
        outcome.problems.append(
            f"traced counts differ between passes: {drift}"
        )
    # Per matrix cycle, like wall_ref_s.
    metrics = {
        key: value if key in _RATIOS else value / PASS_CYCLES
        for key, value in ledger.median_figures(figures).items()
    }
    boot = ledger.layer_figures(span_list, boot_window)
    metrics["store.load_s"] = boot["store.load_s"]
    metrics["store.hits"] = boot["store.hits"]
    metrics["cli.import_s"] = meta["imported"] - meta["spawned"]
    metrics["decodecache.registry_size"] = meta["registry_size"]
    metrics["jit.steps_per_chain"] = ledger.layer_figures(span_list)[
        "jit.steps_per_chain"
    ]
    traced_walls = [
        w for record in traced for w in record.scaled_cycle_walls(packs)
    ]
    metrics["trace_overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(walls)
    )
    metrics["wall_raw_s"] = statistics.median(
        w for record in untraced for w in record.cycle_walls(packs)
    )
    metrics["probe_s"] = statistics.median(
        p for record in untraced + traced for p in record.probes
    )
    latencies = [r[2] for record in untraced for r in record.requests]
    metrics["daemon.req_p50_ms"] = 1000.0 * statistics.median(latencies)
    metrics["daemon.req_p90_ms"] = 1000.0 * ledger.percentile(latencies, 0.9)
    outcome.metrics = metrics
    return outcome


CLI_WORKLOADS = {
    "matrix_cold": MatrixCold,
    "rerun_edit": RerunEdit,
}
WORKLOADS = (*CLI_WORKLOADS, "daemon_warm")


def run_workload(
    name: str, ctx: Context, inputs: Inputs, seed: int, seconds: float,
    trace: bool,
) -> Outcome:
    if name == "daemon_warm":
        return run_daemon_workload(DaemonWarm(ctx, inputs), seconds, trace)
    return run_cli_workload(
        CLI_WORKLOADS[name](ctx, inputs, seed), seconds, trace
    )
