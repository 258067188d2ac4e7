"""Deterministic fault injection for the regression execution layer.

The paper's regression matrix is only useful unattended if a single
faulty cell cannot take the whole matrix down.  This module provides
the *chaos half* of that contract: a seeded, fully deterministic fault
plan that the scheduler, the execution sessions, the result cache, the
artifact store, the fleet work-list and the serving layer consult at
a small catalogue of **named injection sites**, so every
fault-tolerance test reproduces bit-for-bit from its seed.

Design constraints (mirrored by the supervision layer in
:mod:`repro.core.scheduler`):

- **zero overhead when disabled** — every call site guards with
  ``if injector is not None``; a scheduler without a fault plan never
  constructs an injector, so the hot path pays one attribute load;
- **deterministic per seed** — which occurrence of a site fires is
  fixed by the spec (``after``/``times`` windows over per-spec hit
  counters) and payload corruption bytes derive from
  ``(seed, site, key)``, never from wall clock or global RNG state;
- **picklable** — a :class:`FaultPlan` is plain data, so every fleet
  worker process builds its own :class:`FaultInjector` from the same
  plan (hit counters are per-process by design: a restarted worker
  sees the same deterministic world).

Injection sites
---------------

=================  ========================================================
site               fired from
=================  ========================================================
``session-run``    :meth:`ExecutionSession.begin`, key
                   ``{platform}#run{n}``
``cache-read``     :meth:`ResultCache.get` that finds a verdict, key =
                   cache key (also a fleet's :meth:`WorkList.fetch`;
                   its re-check after a claim is targeted); build-index
                   loads, key ``index/{environment}/{derivative}``
                   (targeted)
``cache-write``    :meth:`ResultCache.put`, key = cache key (also a
                   fleet's :meth:`WorkList.publish`; a verdict the log
                   holds writes nothing); build-index saves, same key
                   (targeted)
``service-accept`` :meth:`RegressionService.submit` (admission), key
                   ``{job id}``
``pool-lease``     :meth:`WarmSessionPool.lease` (checkout), key
                   ``{target}/{derivative}``
``journal-write``  :meth:`JobJournal.accept` / :meth:`JobJournal.settle`
                   (one durable record each), key ``{job id}``;
                   compaction fires no site
``store-read``     :class:`ArtifactStore` lookups that find a record
                   (:meth:`~ArtifactStore.load_decode_cache`, once per
                   snapshot; ``load_code``; ``load_object``), key =
                   snapshot name / record key
``store-write``    :class:`ArtifactStore` appends (one per decode pack,
                   executor table and batch of objects), key = record
                   key
``lease-renew``    :meth:`WorkList.renew` (heartbeat extension of a
                   held cell lease), key = the cell's cache key
=================  ========================================================

Actions
-------

``raise`` raises :class:`InjectedFault`; ``hang`` sleeps
``hang_seconds`` (simulating a wedged simulator — in a fleet,
``--run-timeout`` lets its lease lapse and a peer steals the cell);
``kill`` SIGKILLs the current *worker* process (in the main process it
degrades to ``raise`` so a mis-targeted spec cannot take the scheduler
down); ``corrupt`` mangles
payload bytes at the payload sites (cache read/write, store
read/write, journal write) through :meth:`FaultInjector.mangle`.

*Targeted* occurrences (the build index's reads and writes, a fleet's
post-claim re-check) only answer specs whose ``match`` names them:
auxiliary I/O added to a site never shifts the hit windows of existing
untargeted plans.
"""

from __future__ import annotations

import hashlib
import os
import random
import time

SITE_SESSION_RUN = "session-run"
SITE_CACHE_READ = "cache-read"
SITE_CACHE_WRITE = "cache-write"
SITE_SERVICE_ACCEPT = "service-accept"
SITE_POOL_LEASE = "pool-lease"
SITE_JOURNAL_WRITE = "journal-write"
SITE_STORE_READ = "store-read"
SITE_STORE_WRITE = "store-write"
SITE_LEASE_RENEW = "lease-renew"

ALL_SITES = (
    SITE_SESSION_RUN,
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_SERVICE_ACCEPT,
    SITE_POOL_LEASE,
    SITE_JOURNAL_WRITE,
    SITE_STORE_READ,
    SITE_STORE_WRITE,
    SITE_LEASE_RENEW,
)

ACTION_RAISE = "raise"
ACTION_HANG = "hang"
ACTION_KILL = "kill"
ACTION_CORRUPT = "corrupt"

ALL_ACTIONS = (ACTION_RAISE, ACTION_HANG, ACTION_KILL, ACTION_CORRUPT)


class InjectedFault(RuntimeError):
    """An exception deliberately raised by a fault plan."""

    def __init__(self, site: str, key: str):
        super().__init__(f"injected fault at {site} ({key})")
        self.site = site
        self.key = key

    def __reduce__(self):
        # args holds the rendered message, not (site, key); without
        # this a pickled InjectedFault fails to unpickle.
        return (InjectedFault, (self.site, self.key))


class FaultSpec:
    """One deterministic fault: fire *action* at *site* on the hits
    selected by the ``after``/``times`` window.

    ``match`` is a substring filter over the site key (``None`` matches
    every key); the spec's hit counter only advances on matching hits,
    so ``after=2, times=1`` means "the third matching occurrence, once".
    ``corrupt_bytes`` is how many payload bytes a ``corrupt`` spec flips.
    """

    __slots__ = (
        "site", "action", "match", "after", "times", "hang_seconds",
        "corrupt_bytes",
    )

    def __init__(
        self,
        site: str,
        action: str,
        match: str | None = None,
        after: int = 0,
        times: int = 1,
        hang_seconds: float = 30.0,
        corrupt_bytes: int = 4,
    ):
        if site not in ALL_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; known: {ALL_SITES}"
            )
        if action not in ALL_ACTIONS:
            raise ValueError(
                f"unknown fault action {action!r}; known: {ALL_ACTIONS}"
            )
        self.site = site
        self.action = action
        self.match = match
        self.after = after
        self.times = times
        self.hang_seconds = hang_seconds
        self.corrupt_bytes = corrupt_bytes

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultSpec):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in FaultSpec.__slots__
        )

    def matches(self, key: str) -> bool:
        return self.match is None or self.match in key


class FaultPlan:
    """A seeded, picklable set of :class:`FaultSpec`\\ s.

    The seed pins payload-corruption bytes (and nothing else: firing
    windows are explicit in the specs), so two runs of the same plan
    inject byte-identical chaos.
    """

    __slots__ = ("seed", "specs")

    def __init__(self, seed: int = 0, specs=()):
        self.seed = seed
        # Accept any iterable of specs but store a tuple.
        self.specs: tuple[FaultSpec, ...] = tuple(specs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return (self.seed, self.specs) == (other.seed, other.specs)


def _in_worker_process() -> bool:
    """True when running inside a multiprocessing child — the only
    place a ``kill`` action is allowed to SIGKILL."""
    try:
        import multiprocessing

        return multiprocessing.parent_process() is not None
    except Exception:
        return False


class FaultInjector:
    """Runtime evaluator of a :class:`FaultPlan`.

    Holds one hit counter per spec; :meth:`fire` services the
    control-flow actions (raise/hang/kill) and :meth:`mangle` the
    payload-corruption action.  Both are deterministic: call order at
    each site is fixed by the (deterministic) execution order of the
    scheduler, and corruption bytes derive from ``(seed, site, key)``.
    """

    def __init__(self, plan: FaultPlan, sleep=time.sleep):
        self.plan = plan
        self._sleep = sleep
        self._hits = [0] * len(plan.specs)
        #: (site, key, action) log of every fault performed, for tests.
        self.fired: list[tuple[str, str, str]] = []

    def _due(
        self, index: int, spec: FaultSpec, key: str, targeted: bool
    ) -> bool:
        if targeted and spec.match is None:
            return False
        if not spec.matches(key):
            return False
        self._hits[index] += 1
        hit = self._hits[index]
        return spec.after < hit <= spec.after + spec.times

    def fire(self, site: str, key: str, targeted: bool = False) -> None:
        """Service raise/hang/kill specs armed at *site* for *key*.

        A due ``hang`` sleeps before any due ``raise`` propagates, so a
        spec pair can model "wedge, then die".  Raises at most once.
        """
        due_raise: FaultSpec | None = None
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site or spec.action == ACTION_CORRUPT:
                continue
            if not self._due(index, spec, key, targeted):
                continue
            self.fired.append((site, key, spec.action))
            if spec.action == ACTION_HANG:
                self._sleep(spec.hang_seconds)
            elif spec.action == ACTION_KILL:
                if _in_worker_process():
                    import signal

                    os.kill(os.getpid(), signal.SIGKILL)
                # Outside a worker a kill degrades to a contained raise:
                # chaos must never take the supervising process down.
                due_raise = spec
            elif due_raise is None:
                due_raise = spec
        if due_raise is not None:
            raise InjectedFault(site, key)

    def mangle(
        self, site: str, key: str, data: bytes, targeted: bool = False
    ) -> bytes:
        """Pass payload *data* through any due ``corrupt`` specs."""
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site or spec.action != ACTION_CORRUPT:
                continue
            if not self._due(index, spec, key, targeted):
                continue
            self.fired.append((site, key, spec.action))
            data = corrupt_bytes(
                data, self.plan.seed, site, key, spec.corrupt_bytes
            )
        return data


def corrupt_bytes(
    data: bytes, seed: int, site: str, key: str, count: int
) -> bytes:
    """Flip *count* deterministically chosen bytes of *data*.

    The RNG is seeded from ``(seed, site, key)`` so the same plan
    corrupts the same payload identically on every run — chaos tests
    replay bit-for-bit.  Empty payloads gain one poison byte so the
    corruption is never a silent no-op.
    """
    digest = hashlib.sha256(
        f"{seed}\0{site}\0{key}".encode()
    ).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    if not data:
        return bytes([rng.randrange(1, 256)])
    mangled = bytearray(data)
    for _ in range(max(1, count)):
        position = rng.randrange(len(mangled))
        mangled[position] ^= rng.randrange(1, 256)
    return bytes(mangled)
