"""Wrap the public entry point of each repro layer with a span.

Nothing inside ``src/`` changes: :func:`install` replaces attributes on
the imported modules and classes.  Functions imported by name into a
caller are patched at that call site (``decode_cache_for`` inside
``repro.platforms.session``, ``compile_chain`` inside
``repro.platforms.cpu``), so the span sits exactly where the layer is
entered.  An entry point a later version of the program no longer has
is skipped, and the layer then reads zero.
"""

from __future__ import annotations

import importlib


def _patch(tracer, owner, name: str, layer: str, before=None, after=None):
    fn = getattr(owner, name, None)
    if fn is None:
        return False
    setattr(owner, name, tracer.wrap(layer, fn, before=before, after=after))
    return True


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _attr(module, name: str):
    return getattr(module, name, None) if module is not None else None


# -- counts -----------------------------------------------------------------

#: ``ExecutionSession.stats()`` key -> per-layer counter name.
TIER_KEYS = {
    "jit_exec_steps": "jit_steps",
    "sb_replays": "sb_replays",
    "ff_warps": "ff_warps",
    "sb_fallback_steps": "fallback_steps",
}


def _run_counts(args, _kwargs, result, _state):
    counts = {"instructions": getattr(result, "instructions", 0)}
    stats = args[0].stats()
    for key, name in TIER_KEYS.items():
        counts[name] = stats.get(key, 0)
    return counts


def _chain_counts(_args, _kwargs, result, _state):
    return {"chains": int(result or 0)}


def _get_counts(_args, _kwargs, result, _state):
    return {"hits": 1} if result is not None else {"misses": 1}


def _store_counters(*names):
    """``before``/``after`` hooks turning an ArtifactStore's own
    counters into per-call deltas."""

    def before(args, _kwargs):
        return [getattr(args[0], name, 0) for name in names]

    def after(args, _kwargs, _result, state):
        return {
            name: getattr(args[0], name, 0) - old
            for name, old in zip(names, state)
        }

    return before, after


# -- installation -----------------------------------------------------------

def install(tracer, command: str) -> None:
    """Wrap every layer the ``advm`` *command* can enter."""
    cli = _module("repro.cli")
    _patch(tracer, cli, "load_module_environment", "workspace.load")
    _patch(tracer, cli, "regression_matrix", "reporting.render")

    environment = _module("repro.core.environment")
    _patch(tracer, _attr(environment, "ModuleTestEnvironment"),
           "build_image", "environment.build")

    assembler_cls = _attr(_module("repro.assembler.assembler"), "Assembler")
    _patch(tracer, assembler_cls, "assemble_file", "assembler")
    _patch(tracer, assembler_cls, "assemble_source", "assembler")
    _patch(tracer, _attr(_module("repro.assembler.linker"), "Linker"),
           "link", "linker")

    session = _module("repro.platforms.session")
    _patch(tracer, session, "decode_cache_for", "decodecache")
    _patch(tracer, _attr(session, "ExecutionSession"), "run", "session.run",
           after=_run_counts)
    _patch(tracer, _module("repro.platforms.cpu"), "_jit_compile_chain",
           "jit.compile", after=_chain_counts)

    scheduler = _module("repro.core.scheduler")
    _patch(tracer, _attr(scheduler, "RegressionScheduler"), "run_system",
           "scheduler")
    cache_cls = _attr(scheduler, "ResultCache")
    _patch(tracer, cache_cls, "key_for", "result_cache.key")
    _patch(tracer, cache_cls, "get", "result_cache.get", after=_get_counts)
    _patch(tracer, cache_cls, "put", "result_cache.put")

    _patch(tracer, _module("repro.isa.decodecache"), "persist_registry",
           "store.persist")
    store_cls = _attr(_module("repro.store.artifacts"), "ArtifactStore")
    before, after = _store_counters("saved", "unchanged")
    _patch(tracer, store_cls, "save_decode_cache", "store.persist",
           before=before, after=after)
    before, after = _store_counters("hits")
    _patch(tracer, store_cls, "load_decode_cache", "store.load",
           before=before, after=after)
    _patch(tracer, store_cls, "warm_registry", "store.load",
           before=before, after=after)

    if command != "serve":
        return
    _patch(tracer, _module("repro.service.protocol"),
           "load_module_environment", "workspace.load")
    _patch(tracer, _module("repro.service.daemon"), "resolve_pack",
           "protocol.resolve")
    pool_cls = _attr(_module("repro.service.pool"), "WarmSessionPool")
    _patch(tracer, pool_cls, "lease", "pool.lease")
    _patch(tracer, pool_cls, "release", "pool.release")
    journal_cls = _attr(_module("repro.service.journal"), "JobJournal")
    _patch(tracer, journal_cls, "accept", "journal.accept")
    _patch(tracer, journal_cls, "settle", "journal.settle")


def registry_size() -> int:
    """Occupancy of the shared decode-cache registry, or 0."""
    stats = _attr(_module("repro.isa.decodecache"), "registry_stats")
    return stats().get("registry_size", 0) if stats is not None else 0
