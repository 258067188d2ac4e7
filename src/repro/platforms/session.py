"""Reusable execution sessions: build a platform's device once, run many.

Historically every :meth:`Platform.run` call constructed a fresh
:class:`~repro.soc.device.SystemOnChip` (memory maps, register layouts,
peripherals) and a fresh :class:`~repro.platforms.cpu.CpuCore`.  For a
regression matrix that cost is paid (cells × platforms) times even
though nothing about the device depends on the test cell.

:class:`ExecutionSession` splits the platform's run loop into the three
phases a lab bench actually has — *reset*, *run*, *observe* — over one
long-lived device:

- ``reset``: :meth:`SystemOnChip.full_reset` restores the
  just-constructed state (peripherals, RAM, ROM, NVM) between images,
  paying for what the last run touched: ROM is restored by the extents
  its image loads wrote (``reset_full`` in :meth:`ExecutionSession.stats`
  counts the whole-ROM exceptions), and the bus forgets the pages it
  memoised;
- ``run``: load an image, attach the shared predecode cache for its ROM,
  and execute to HALT/timeout/fault exactly as ``Platform.run`` did;
- ``observe``: the platform's ``judge``/``collect`` hooks derive the
  verdict from whatever that platform can legitimately see.

The run phase drives the core in **blocks bounded by the SoC's
peripheral event horizon**: instead of ticking every peripheral after
every retired instruction, the SoC reports the cycle distance to the
next observable peripheral event (timer underflow, watchdog expiry,
NVM completion, level-sensitive interrupt re-raise), the core executes
up to that many cycles in one :meth:`CpuCore.run` block, and the
deferred peripheral time is settled in one linear ``tick`` at the
boundary.  Peripheral register accesses and SoC probes settle the debt
early (and an SFR write that brings the next event nearer lowers the
current block's deadline to it), which makes block and per-step
driving byte-identical.

Within a block the core executes superblock-at-a-time (straight-line
fusion, chaining across taken branches, analytic fast-forward of idle
``DJNZ`` spins — see :mod:`repro.isa.decodecache` and
:meth:`CpuCore._run_superblocks`).  Observed runs — instruction traces,
bus-trace recording, wait-state charging — take the same loop, which
replays each block's precomputed fetch-event and retire-record
templates in bulk.  :meth:`ExecutionSession.stats` exposes the
fast-path telemetry (warps, blocks executed, template replays,
fallbacks) so silent fast-path coverage regressions are visible to
tests and benchmarks.

Two engines exist, selected per session:

- ``use_superblocks=True`` (the default): the event-horizon block loop
  over the shared predecode cache and the superblock engine above.
- ``use_superblocks=False``: the **reference interpreter** — no decode
  cache, so every instruction is fetched over the bus, decoded and run
  by :meth:`CpuCore._execute`, with one walk of every peripheral per
  step.  It is the oracle every fast path must match byte for byte.

``Platform.run`` now delegates to a throwaway session, so its
fresh-device-per-call semantics (``last_soc``/``last_cpu`` inspection)
are unchanged; the :class:`~repro.core.scheduler.RegressionScheduler`
keeps one session per (target, derivative) alive for the whole matrix.
"""

from __future__ import annotations

from repro.assembler.linker import MemoryImage
from repro.isa.decodecache import decode_cache_for
from repro.platforms.cpu import CpuCore, CpuFault
from repro.soc.bus import BusTrace
from repro.soc.derivatives import Derivative

# Injection-site name from :mod:`repro.core.faults` (a string literal
# here: importing that module would initialise ``repro.core`` while
# ``repro.platforms`` may itself still be mid-import).
_SITE_SESSION_RUN = "session-run"


class _RunContext:
    """State of one in-flight run between the session phases."""

    __slots__ = (
        "image",
        "max_instructions",
        "bus_trace",
        "fault_reason",
    )

    def __init__(
        self,
        image: MemoryImage,
        max_instructions: int,
        bus_trace: BusTrace | None,
    ):
        self.image = image
        self.max_instructions = max_instructions
        self.bus_trace = bus_trace
        self.fault_reason: str | None = None


class ExecutionSession:
    """One (platform, derivative) device reused across many runs."""

    def __init__(
        self,
        platform,
        derivative: Derivative,
        use_superblocks: bool = True,
        injector=None,
    ):
        self.platform = platform
        self.derivative = derivative
        #: Optional :class:`repro.core.faults.FaultInjector`; consulted
        #: at run begin so chaos tests can fail a specific run of a
        #: specific platform deterministically.
        self.injector = injector
        self.soc = platform.build_soc(derivative)
        self.cpu = CpuCore(
            self.soc.bus,
            intc=self.soc.intc,
            charge_wait_states=platform.cycle_accurate,
        )
        platform.configure_cpu(self.cpu, self.soc)
        #: False selects the reference interpreter (module docstring).
        self.use_superblocks = use_superblocks
        self.runs_completed = 0
        #: Latched when a run escaped through an exception: the device
        #: is in an unknown state, so pools and schedulers must discard
        #: the session instead of reusing it (:meth:`health_check`).
        self.poisoned = False
        #: Device resets that prepared the most recent run (including a
        #: pool's health-check reset) and had to rewrite all of ROM,
        #: from the SoC's running count at the previous run.
        self.reset_full = 0
        self._reset_fallbacks = 0

    def stats(self) -> dict:
        """Fast-path telemetry of the most recent :meth:`run`.

        ``ff_warps`` counts analytic idle-spin warps, ``sb_blocks``
        superblocks executed through the block engine, ``sb_replays``
        bulk observation-template replays, and ``sb_fallback_steps``
        legacy per-step fallbacks taken inside the superblock loop —
        a nonzero fallback count on a ROM-resident workload means the
        fast path silently lost coverage.  ``decode_hits`` /
        ``decode_misses`` report the shared (cross-run, cross-platform)
        decode cache; ``registry_size``/``registry_evictions`` are
        gauges of the shared digest-keyed decode registry
        (LRU-bounded).  ``reset_full`` (0 or 1 per run) flags a device
        reset before the run that had to rewrite all of ROM.
        """
        from repro.isa.decodecache import registry_stats

        cpu = self.cpu
        cache = cpu.decode_cache
        stats = {
            "ff_warps": cpu.ff_warps,
            "sb_blocks": cpu.sb_blocks,
            "sb_replays": cpu.sb_replays,
            "sb_fallback_steps": cpu.sb_fallback_steps,
            "decode_hits": 0 if cache is None else cache.hits,
            "decode_misses": 0 if cache is None else cache.misses,
            "reset_full": self.reset_full,
        }
        stats.update(registry_stats())
        return stats

    def _count_resets(self) -> None:
        fallbacks = self.soc.reset_fallbacks
        self.reset_full = fallbacks - self._reset_fallbacks
        self._reset_fallbacks = fallbacks

    # -- run phases --------------------------------------------------------
    #
    # ``run`` is begin -> drive -> finish -> observe.

    def begin(
        self,
        image: MemoryImage,
        max_instructions: int | None = None,
        entry_symbol: str = "_main",
    ) -> _RunContext:
        """Reset the device, load *image*, arm observation, reset the
        core and attach the predecode cache."""
        from repro.platforms.base import DEFAULT_MAX_INSTRUCTIONS

        if max_instructions is None:
            max_instructions = DEFAULT_MAX_INSTRUCTIONS
        platform = self.platform
        soc = self.soc
        cpu = self.cpu
        if self.injector is not None:
            self.injector.fire(
                _SITE_SESSION_RUN,
                f"{platform.name}#run{self.runs_completed}",
            )

        if self.runs_completed:
            soc.full_reset()
        self._count_resets()
        soc.load_image(image)
        bus_trace: BusTrace | None = None
        if platform.record_bus_trace:
            bus_trace = BusTrace()
            soc.bus.trace_buffer = bus_trace
        if platform.sees_trace:
            cpu.enable_trace()
        entry = image.entry
        if entry is None:
            entry = image.symbol(entry_symbol)
        cpu.reset(entry, soc.memory_map.stack_top)

        # The predecode cache stays enabled under tracing: the core
        # replays the elided fetch events into the trace, so coverage
        # collectors and divergence hunts see the same access stream as
        # a real bus fetch — at predecoded speed.  The reference
        # interpreter runs without it.
        self._attach_decode_cache(image)

        ctx = _RunContext(image, max_instructions, bus_trace)
        if self.use_superblocks:
            soc.attach_cpu(cpu)
        return ctx

    def _attach_decode_cache(self, image: MemoryImage) -> None:
        soc = self.soc
        if self.use_superblocks:
            rom = soc.memory_map.rom
            mapping = soc.bus.mapping_for(rom.base, 4)
            self.cpu.decode_cache = decode_cache_for(
                image, rom.base, rom.base + rom.size, mapping.wait_states
            )
        else:
            self.cpu.decode_cache = None

    def drive(self, ctx: _RunContext) -> None:
        """Execute until HALT/limit/watchdog/fault."""
        soc = self.soc
        cpu = self.cpu
        max_instructions = ctx.max_instructions
        try:
            if self.use_superblocks:
                # Event-horizon loop: run the core in blocks bounded by
                # the next observable peripheral event, then settle the
                # deferred peripheral time in one linear tick.  An SFR
                # write that moves the horizon nearer ends it there.
                while not cpu.halted and (
                    cpu.instructions_retired < max_instructions
                ):
                    cpu.run(soc.run_budget(), max_instructions)
                    soc.flush_ticks()
                    if soc.wdt.expired:
                        break
            else:
                # Reference interpreter: one instruction, one walk of
                # every peripheral.
                while not cpu.halted:
                    if cpu.instructions_retired >= max_instructions:
                        break
                    consumed = cpu.step()
                    soc.tick(max(consumed, 1))
                    if soc.watchdog_expired:
                        break
        except CpuFault as fault:
            ctx.fault_reason = str(fault)

    def finish(self, ctx: _RunContext) -> None:
        """Detach the core and disarm run-scoped observation."""
        if self.use_superblocks:
            self.soc.detach_cpu()
        if ctx.bus_trace is not None:
            self.soc.bus.trace_buffer = None
        self.runs_completed += 1

    def observe(self, ctx: _RunContext):
        """Derive a verdict from the finished run through the
        platform's visibility."""
        from repro.platforms.base import RunStatus

        platform = self.platform
        soc = self.soc
        cpu = self.cpu
        platform.last_soc = soc
        platform.last_cpu = cpu
        platform.last_bus_trace = (
            ctx.bus_trace if platform.record_bus_trace else None
        )

        if ctx.fault_reason is not None:
            status = RunStatus.FAULT
        elif soc.watchdog_expired:
            status = RunStatus.WATCHDOG
        elif not cpu.halted:
            status = RunStatus.TIMEOUT
        else:
            status = platform.judge(cpu, soc)

        return platform.collect(
            cpu, soc, self.derivative, status, ctx.fault_reason
        )

    def run(
        self,
        image: MemoryImage,
        max_instructions: int | None = None,
        entry_symbol: str = "_main",
    ):
        """Reset the device, load *image*, execute, observe a verdict."""
        try:
            ctx = self.begin(image, max_instructions, entry_symbol)
            try:
                self.drive(ctx)
            finally:
                self.finish(ctx)
            return self.observe(ctx)
        except BaseException:
            # An escaping exception (engine bug, injected chaos, a
            # platform hook blowing up) leaves the device mid-run: mark
            # the session so pool owners rebuild instead of reuse.
            self.poisoned = True
            raise

    # -- pool-visible health hook ------------------------------------------
    #
    # A warm pool (:mod:`repro.service.pool`) keeps sessions alive
    # across requests; this hook is its contract for telling a
    # reusable device from one wedged or poisoned by a faulting run.

    def health_check(self) -> bool:
        """Cheap liveness probe for pool supervisors.

        A healthy session is not poisoned and its device still resets
        cleanly (a wedged peripheral model that raises out of
        ``full_reset`` fails the probe rather than the next tenant's
        run).  Non-destructive for a healthy session: :meth:`begin`
        resets again before the next run anyway.
        """
        if self.poisoned:
            return False
        try:
            if self.runs_completed:
                self.soc.full_reset()
            return not self.soc.watchdog_expired
        except Exception:
            self.poisoned = True
            return False
