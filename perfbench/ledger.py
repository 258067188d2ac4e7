"""The per-layer ledger: end-to-end and per-layer metric definitions and
the arithmetic that turns recorded spans into per-layer figures."""

from __future__ import annotations

import math
import statistics

import spans as spanlib

#: End-to-end metrics: name -> unit (every workload reports each).
END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "workspace.load_s": ("s", "lower"),
    "environment.build_self_s": ("s", "lower"),
    "environment.builds": ("count", "lower"),
    "assembler.busy_s": ("s", "lower"),
    "assembler.calls": ("count", "lower"),
    "linker.busy_s": ("s", "lower"),
    "linker.calls": ("count", "lower"),
    "jit.compile_s": ("s", "lower"),
    "jit.chains": ("count", "lower"),
    "jit.steps_per_chain": ("steps/chain", "higher"),
    "session.execute_self_s": ("s", "lower"),
    "session.instructions": ("count", "lower"),
    "session.minstr_per_s": ("Minstr/s", "higher"),
    "session.ms_per_run": ("ms", "lower"),
    "session.runs": ("count", "lower"),
    "tier.jit_steps": ("count", "higher"),
    "tier.sb_replays": ("count", "higher"),
    "tier.ff_warps": ("count", "higher"),
    "tier.fallback_steps": ("count", "lower"),
    "decodecache.busy_s": ("s", "lower"),
    "decodecache.registry_size": ("count", "lower"),
    "result_cache.key_s": ("s", "lower"),
    "result_cache.get_s": ("s", "lower"),
    "result_cache.hits": ("count", "higher"),
    "result_cache.misses": ("count", "lower"),
    "result_cache.put_s": ("s", "lower"),
    "result_cache.puts": ("count", "lower"),
    "store.persist_s": ("s", "lower"),
    "store.saved": ("count", "lower"),
    "store.unchanged": ("count", "higher"),
    "store.load_s": ("s", "lower"),
    "store.hits": ("count", "higher"),
    "scheduler.self_s": ("s", "lower"),
    "reporting.render_s": ("s", "lower"),
    "protocol.resolve_s": ("s", "lower"),
    "pool.lease_s": ("s", "lower"),
    "pool.leases": ("count", "lower"),
    "journal.accept_s": ("s", "lower"),
    "journal.settle_s": ("s", "lower"),
    "daemon.http_s": ("s", "lower"),
    "daemon.req_p50_ms": ("ms", "lower"),
    "daemon.req_p90_ms": ("ms", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
    "wall_raw_s": ("s", "lower"),
    "probe_s": ("s", "lower"),
}

#: Span self-time sums reported directly: metric -> layers.
SELF_TIMES = {
    "workspace.load_s": ("workspace.load",),
    "environment.build_self_s": ("environment.build",),
    "assembler.busy_s": ("assembler",),
    "linker.busy_s": ("linker",),
    "jit.compile_s": ("jit.compile",),
    "session.execute_self_s": ("session.run",),
    "decodecache.busy_s": ("decodecache",),
    "result_cache.key_s": ("result_cache.key",),
    "result_cache.get_s": ("result_cache.get",),
    "result_cache.put_s": ("result_cache.put",),
    "store.persist_s": ("store.persist",),
    "store.load_s": ("store.load",),
    "scheduler.self_s": ("scheduler",),
    "reporting.render_s": ("reporting.render",),
    "protocol.resolve_s": ("protocol.resolve",),
    "pool.lease_s": ("pool.lease", "pool.release"),
    "journal.accept_s": ("journal.accept",),
    "journal.settle_s": ("journal.settle",),
}

#: Call counts reported directly: metric -> layer.
CALLS = {
    "environment.builds": "environment.build",
    "assembler.calls": "assembler",
    "linker.calls": "linker",
    "session.runs": "session.run",
    "result_cache.puts": "result_cache.put",
    "pool.leases": "pool.lease",
}

#: Counts summed from span counters: metric -> (layer, counter).
COUNTERS = {
    "jit.chains": ("jit.compile", "chains"),
    "session.instructions": ("session.run", "instructions"),
    "tier.jit_steps": ("session.run", "jit_steps"),
    "tier.sb_replays": ("session.run", "sb_replays"),
    "tier.ff_warps": ("session.run", "ff_warps"),
    "tier.fallback_steps": ("session.run", "fallback_steps"),
    "result_cache.hits": ("result_cache.get", "hits"),
    "result_cache.misses": ("result_cache.get", "misses"),
    "store.saved": ("store.persist", "saved"),
    "store.unchanged": ("store.persist", "unchanged"),
    "store.hits": ("store.load", "hits"),
}

#: Counts that must repeat exactly across the runs of one invocation.
DETERMINISTIC = (
    "assembler.calls",
    "jit.chains",
    "store.saved",
    "result_cache.hits",
    "session.runs",
    "tier.jit_steps",
    "tier.sb_replays",
    "tier.ff_warps",
    "tier.fallback_steps",
)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    *fraction* of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def layer_figures(span_list, window=None) -> dict[str, float]:
    """Per-layer figures of the spans that started inside *window*."""
    totals = spanlib.layer_totals(span_list, window)

    def entry(layer):
        return totals.get(layer, {"self_s": 0.0, "calls": 0, "counts": {}})

    figures: dict[str, float] = {}
    for metric, layers in SELF_TIMES.items():
        figures[metric] = sum(entry(layer)["self_s"] for layer in layers)
    for metric, layer in CALLS.items():
        figures[metric] = entry(layer)["calls"]
    for metric, (layer, counter) in COUNTERS.items():
        figures[metric] = entry(layer)["counts"].get(counter, 0)
    run_wall = sum(
        span[4] - span[3]
        for span in span_list
        if span[2] == "session.run" and spanlib.in_window(span, window)
    )
    runs = figures["session.runs"]
    figures["session.ms_per_run"] = 1000.0 * run_wall / runs if runs else 0.0
    execute = figures["session.execute_self_s"]
    figures["session.minstr_per_s"] = (
        figures["session.instructions"] / execute / 1e6 if execute else 0.0
    )
    chains = figures["jit.chains"]
    figures["jit.steps_per_chain"] = (
        figures["tier.jit_steps"] / chains if chains else 0.0
    )
    figures["named_s"] = sum(entry["self_s"] for entry in totals.values())
    return figures


def cli_figures(meta: dict, span_list, wall_s: float) -> dict[str, float]:
    """Figures of one traced ``advm`` process, timed from spawn to exit."""
    figures = layer_figures(span_list)
    figures["cli.import_s"] = meta["imported"] - meta["spawned"]
    figures["decodecache.registry_size"] = meta["registry_size"]
    figures["unattributed_s"] = (
        wall_s
        - figures["cli.import_s"]
        - figures["named_s"]
        - meta["tracer_s"]
    )
    return figures


def median_figures(runs: list[dict]) -> dict[str, float]:
    """Median of each figure across runs."""
    return {
        key: statistics.median(run[key] for run in runs) for key in runs[0]
    }


def count_drift(runs: list[dict], keys) -> list[str]:
    """Names of the counts that differ between runs."""
    return [
        key
        for key in sorted(keys)
        if len({run.get(key) for run in runs}) > 1
    ]
