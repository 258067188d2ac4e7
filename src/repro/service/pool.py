"""Warm :class:`ExecutionSession` pools for the serving daemon.

Cold-start is the tax the service exists to amortise: device
construction, predecode and superblock formation are all paid by the
first run and free afterwards.  The pool keeps finished
sessions *warm* between requests, keyed by platform target, derivative
and the engine-flag tuple, because those are exactly the axes along
which a session is interchangeable.  The image-digest half of the
warmth (predecoded entries, superblock chains, observation templates)
lives in the shared digest-keyed registry of
:mod:`repro.isa.decodecache` and survives across leases of *any*
session, so a warm pool plus the registry give a request the same hot
path the tail of a long serial regression enjoys.

Robustness over throughput:

- **lease/return checkout** — a leased session belongs to exactly one
  job; :meth:`release` returns it warm only when the job vouches for it
  *and* the session's own :meth:`ExecutionSession.health_check` passes.
  A session poisoned by a faulting run (the PR 7 degradation ladder
  marks it) is discarded and rebuilt cold, never re-leased;
- **supervision** — :meth:`lease` health-checks each idle session
  before handing it out and discards a wedged one, so a broken device
  never reaches the next tenant;
- **bounded** — idle capacity is LRU-bounded like the decode-cache
  digest registry: returning a session beyond ``max_idle`` evicts the
  least-recently-used idle session, so a traffic spike cannot grow the
  pool without limit;
- **observable** — :meth:`probe` performs a real lease + health-check
  + return, which is what ``/readyz`` reports: a pool that cannot
  produce a healthy session (including under injected ``pool-lease``
  chaos) is *not ready*, full stop.
"""

from __future__ import annotations

import threading

from repro.core.faults import SITE_POOL_LEASE
from repro.platforms.session import ExecutionSession
from repro.soc.derivatives import Derivative


class WarmSessionPool:
    """Keyed warm pools with checkout, supervision and LRU bounds.

    Implements the scheduler's ``session_provider`` protocol
    (``lease(target, derivative)`` / ``release(session, healthy)``), so
    a :class:`~repro.core.scheduler.RegressionScheduler` built with
    ``session_provider=pool`` runs its cells on warm devices.
    """

    def __init__(self, max_idle: int = 12, injector=None):
        self.max_idle = max(1, int(max_idle))
        #: Optional :class:`repro.core.faults.FaultInjector` driving
        #: the ``pool-lease`` chaos site.
        self.injector = injector
        self._lock = threading.Lock()
        #: key -> stack of idle sessions (most recently returned last).
        self._idle: dict[tuple, list[ExecutionSession]] = {}
        #: Idle sessions in return order, oldest first (LRU eviction).
        self._order: list[ExecutionSession] = []
        #: id(session) -> pool key, for every live session we built.
        self._keys: dict[int, tuple] = {}
        self._leased: set[int] = set()
        self.warm_hits = 0
        self.cold_builds = 0
        self.recycled = 0
        self.evicted = 0
        self.lease_failures = 0
        self._closed = False

    # -- keys --------------------------------------------------------------
    def _key(self, target, derivative: Derivative) -> tuple:
        return (target.name, derivative.name)

    # -- checkout ----------------------------------------------------------
    def lease(self, target, derivative: Derivative) -> ExecutionSession:
        """Check a healthy session out, warm when possible.

        Raises whatever the cold build raises (after firing the
        ``pool-lease`` chaos site); callers with a retry ladder — the
        scheduler's supervised run — treat that like any
        other attempt failure.
        """
        key = self._key(target, derivative)
        try:
            if self.injector is not None:
                self.injector.fire(
                    SITE_POOL_LEASE, f"{target.name}/{derivative.name}"
                )
            with self._lock:
                stack = self._idle.get(key, [])
                while stack:
                    session = stack.pop()
                    self._order.remove(session)
                    if session.health_check():
                        self.warm_hits += 1
                        self._leased.add(id(session))
                        return session
                    # Wedged or poisoned while idle: drop it here
                    # rather than lease a broken device.
                    self.recycled += 1
                    self._keys.pop(id(session), None)
            session = ExecutionSession(
                target.make_platform(), derivative, injector=self.injector
            )
        except Exception:
            with self._lock:
                self.lease_failures += 1
            raise
        with self._lock:
            self.cold_builds += 1
            self._keys[id(session)] = key
            self._leased.add(id(session))
        return session

    def release(self, session: ExecutionSession, healthy: bool = True) -> None:
        """Return a leased session; unhealthy or poisoned ones are
        discarded (the next lease rebuilds cold)."""
        with self._lock:
            self._leased.discard(id(session))
            key = self._keys.get(id(session))
            if (
                self._closed
                or key is None
                or not healthy
                or session.poisoned
            ):
                self.recycled += 1
                self._keys.pop(id(session), None)
                return
            self._idle.setdefault(key, []).append(session)
            self._order.append(session)
            self._evict_to_bound_locked()

    def _evict_to_bound_locked(self) -> None:
        """Drop least-recently-returned idle sessions past ``max_idle``.
        Caller holds :attr:`_lock`."""
        while len(self._order) > self.max_idle:
            victim = self._order.pop(0)
            victim_key = self._keys.pop(id(victim), None)
            if victim_key is not None:
                try:
                    self._idle[victim_key].remove(victim)
                except (KeyError, ValueError):
                    pass
            self.evicted += 1

    def probe(self, target, derivative: Derivative) -> bool:
        """Readiness: can the pool produce one healthy session right
        now?  A real lease + health-check + return, so injected
        ``pool-lease`` chaos and broken device builds report not-ready
        instead of being discovered by the next tenant."""
        try:
            session = self.lease(target, derivative)
        except Exception:
            return False
        try:
            return session.health_check()
        finally:
            self.release(session)

    def close(self) -> None:
        """Drop every idle session and refuse to warm new ones."""
        with self._lock:
            self._closed = True
            self._idle.clear()
            self._order.clear()
            self._keys = {
                sid: key
                for sid, key in self._keys.items()
                if sid in self._leased
            }

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "idle": len(self._order),
                "leased": len(self._leased),
                "warm_hits": self.warm_hits,
                "cold_builds": self.cold_builds,
                "recycled": self.recycled,
                "evicted": self.evicted,
                "lease_failures": self.lease_failures,
            }
