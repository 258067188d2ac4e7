"""Declarative scenario-pack submissions for the serving daemon.

A *scenario pack* is the wire format of one regression job: a small
versioned JSON document naming what to run (modules, test cells), where
to run it (derivative, targets) and how (retry budget, instruction
bound, per-request deadline).  Packs are declarative on purpose — the
daemon, the CLI client and the journal all pass the same plain dict
around, and :func:`resolve_pack` is the single place a pack turns into
concrete :class:`~repro.core.scheduler.RegressionScheduler` inputs
against an on-disk workspace.

Example::

    {
      "schema": 1,
      "name": "nvm-smoke",
      "modules": ["NVM"],
      "derivative": "sc88a",
      "targets": ["golden", "rtl"],
      "executor": "serial",
      "deadline": 30.0
    }

Validation is strict: unknown keys, wrong types and unresolvable names
raise :class:`PackError` with a message naming the offending field, so
a malformed submission is a 400 with a reason — never a daemon-side
traceback mid-job.

``executor``, ``jobs`` and ``run_timeout`` are still accepted and
validated, so packs written for older daemons parse unchanged, but they
select nothing: the daemon runs every job serially on its warm pool.
``executor`` is ``auto`` or ``serial``; the removed ``process`` pool
(like ``thread`` and ``batch`` before it) is a :class:`PackError`, and
a journaled pack naming it settles ``failed`` on replay.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from pathlib import Path

from repro.core.environment import GlobalLayer
from repro.core.targets import all_targets, target as lookup_target
from repro.core.workspace import load_module_environment
from repro.soc.derivatives import derivative as lookup_derivative

#: Bump when pack semantics change incompatibly.  Parsers reject other
#: schemas outright: a daemon must never guess at a job's meaning.
PACK_SCHEMA = 1

#: Values a pack's legacy ``executor`` field may hold; both mean serial.
PACK_EXECUTORS = ("auto", "serial")


class PackError(ValueError):
    """A scenario pack failed validation or resolution."""


@dataclass(frozen=True)
class ScenarioPack:
    """One parsed, validated scenario-pack submission."""

    name: str
    #: Module environment names under the workspace system tree;
    #: ``None`` means every module.
    modules: tuple[str, ...] | None = None
    derivative: str = "sc88a"
    #: Target names; ``None`` means the full platform matrix.
    targets: tuple[str, ...] | None = None
    #: Test-cell names to keep; ``None`` means every cell of the
    #: selected modules.
    cells: tuple[str, ...] | None = None
    retries: int = 2
    max_instructions: int | None = None
    #: Wall-clock seconds the whole job may take before the daemon
    #: fails it explicitly and reclaims its leased sessions.
    deadline: float | None = None


#: Accepted and validated, but carried by no :class:`ScenarioPack` field.
_LEGACY_FIELDS = {"executor", "jobs", "run_timeout"}
_PACK_FIELDS = (
    {f.name for f in fields(ScenarioPack)} | {"schema"} | _LEGACY_FIELDS
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PackError(message)


def _str_tuple(data: dict, key: str) -> tuple[str, ...] | None:
    value = data.get(key)
    if value is None:
        return None
    _require(
        isinstance(value, (list, tuple))
        and value
        and all(isinstance(item, str) and item for item in value),
        f"pack field {key!r} must be a non-empty list of names",
    )
    return tuple(value)


def _number(data: dict, key: str, default=None):
    value = data.get(key, default)
    if value is None:
        return None
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and value > 0,
        f"pack field {key!r} must be a positive number",
    )
    return value


def parse_pack(data) -> ScenarioPack:
    """Validate a submission dict into a :class:`ScenarioPack`."""
    _require(isinstance(data, dict), "scenario pack must be a JSON object")
    unknown = sorted(set(data) - _PACK_FIELDS)
    _require(not unknown, f"unknown pack field(s): {', '.join(unknown)}")
    schema = data.get("schema")
    _require(
        schema == PACK_SCHEMA,
        f"unsupported pack schema {schema!r} (this daemon speaks "
        f"schema {PACK_SCHEMA})",
    )
    name = data.get("name")
    _require(
        isinstance(name, str) and name.strip(),
        "pack field 'name' must be a non-empty string",
    )
    executor = data.get("executor", "serial")
    _require(
        executor in PACK_EXECUTORS,
        f"pack field 'executor' must be one of {PACK_EXECUTORS}",
    )
    derivative = data.get("derivative", "sc88a")
    _require(
        isinstance(derivative, str) and derivative,
        "pack field 'derivative' must be a name",
    )
    jobs = data.get("jobs", 1)
    _require(
        isinstance(jobs, int) and not isinstance(jobs, bool) and jobs >= 1,
        "pack field 'jobs' must be an integer >= 1",
    )
    _number(data, "run_timeout")
    retries = data.get("retries", 2)
    _require(
        isinstance(retries, int) and not isinstance(retries, bool)
        and retries >= 0,
        "pack field 'retries' must be an integer >= 0",
    )
    max_instructions = data.get("max_instructions")
    if max_instructions is not None:
        _require(
            isinstance(max_instructions, int)
            and not isinstance(max_instructions, bool)
            and max_instructions > 0,
            "pack field 'max_instructions' must be a positive integer",
        )
    return ScenarioPack(
        name=name.strip(),
        modules=_str_tuple(data, "modules"),
        derivative=derivative,
        targets=_str_tuple(data, "targets"),
        cells=_str_tuple(data, "cells"),
        retries=retries,
        max_instructions=max_instructions,
        deadline=_number(data, "deadline"),
    )


def pack_to_dict(pack: ScenarioPack) -> dict:
    """The journal/wire form of a pack (round-trips through
    :func:`parse_pack`)."""
    data: dict = {"schema": PACK_SCHEMA, "name": pack.name}
    for key in (
        "modules",
        "targets",
        "cells",
        "max_instructions",
        "deadline",
    ):
        value = getattr(pack, key)
        if value is not None:
            data[key] = list(value) if isinstance(value, tuple) else value
    data["derivative"] = pack.derivative
    data["retries"] = pack.retries
    return data


#: *env_cache* entry holding the shared global layer; a tuple, so no
#: module name can collide with it.
_GLOBAL_LAYER_KEY = ("global-layer",)


def resolve_pack(pack: ScenarioPack, system_dir: str | Path, env_cache=None):
    """Resolve a pack against a workspace into scheduler inputs.

    Returns ``(environments, derivative, targets)``; every name is
    checked here so a dangling module/derivative/target/cell fails the
    submission up front instead of mid-matrix.

    *env_cache* (a plain dict the caller owns) is the serving daemon's
    warm-environment store: module sources are re-read from disk every
    time (cheap, and a daemon must notice edits), but when their
    fingerprint matches the cached environment the cached instance is
    reused — carrying its memoised image/object build caches, which is
    most of a small request's cold cost.  A changed fingerprint
    replaces the cache entry, so stale builds can never serve.  Every
    environment loaded here shares one :class:`GlobalLayer` — kept in
    *env_cache* across calls — so the global layer assembles once.
    """
    system_dir = Path(system_dir)
    try:
        derivative = lookup_derivative(pack.derivative)
    except KeyError:
        raise PackError(f"unknown derivative {pack.derivative!r}") from None
    if pack.targets is None:
        targets = all_targets()
    else:
        targets = []
        for name in pack.targets:
            try:
                targets.append(lookup_target(name))
            except KeyError:
                raise PackError(f"unknown target {name!r}") from None

    if pack.modules is None:
        module_names = sorted(
            path.name
            for path in system_dir.iterdir()
            if path.is_dir() and path.name != "Global_Libraries"
        )
    else:
        module_names = list(pack.modules)
    layer = None if env_cache is None else env_cache.get(_GLOBAL_LAYER_KEY)
    if layer is None:
        layer = GlobalLayer()
        if env_cache is not None:
            env_cache[_GLOBAL_LAYER_KEY] = layer
    environments = {}
    for name in module_names:
        module_dir = system_dir / name
        if not module_dir.is_dir():
            raise PackError(f"unknown module {name!r}")
        env = load_module_environment(module_dir, global_layer=layer)
        if env_cache is not None:
            fingerprint = env.source_fingerprint()
            cached = env_cache.get(name)
            if cached is not None and cached[0] == fingerprint:
                env = cached[1]
            else:
                env_cache[name] = (fingerprint, env)
        environments[name] = env

    if pack.cells is not None:
        wanted = set(pack.cells)
        found: set[str] = set()
        for name in list(environments):
            env = environments[name]
            keep = {
                cell_name: cell
                for cell_name, cell in env.cells.items()
                if cell_name in wanted
            }
            found.update(keep)
            if keep:
                # Shallow clone: the filtered view must not mutate a
                # (possibly cached and shared) environment; the clone
                # still shares the warm build caches.
                filtered = copy.copy(env)
                filtered.cells = keep
                environments[name] = filtered
            else:
                del environments[name]
        missing = sorted(wanted - found)
        _require(not missing, f"unknown test cell(s): {', '.join(missing)}")
    _require(bool(environments), "pack selects no test cells")
    return environments, derivative, targets
