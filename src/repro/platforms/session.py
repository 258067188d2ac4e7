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
  its image loads wrote, and the bus page table is kept unless a
  mapping changed (``reset_full`` / ``dispatch_rebuilds`` in
  :meth:`ExecutionSession.stats` count the exceptions);
- ``run``: load an image, attach the shared predecode cache for its ROM,
  and execute to HALT/timeout/fault exactly as ``Platform.run`` did;
- ``observe``: the platform's ``judge``/``collect`` hooks derive the
  verdict from whatever that platform can legitimately see.

The run phase drives the core in **blocks bounded by the SoC's
peripheral event horizon**: instead of ticking every peripheral after
every retired instruction, the SoC reports the cycle distance to the
next observable peripheral event (timer underflow, watchdog expiry,
NVM completion, level-sensitive interrupt re-raise), the core executes
up to that many cycles in one :meth:`CpuCore.run` block with the
per-step invariant checks hoisted out of the inner loop, and the
deferred peripheral time is settled in one linear ``tick`` at the
boundary.  Peripheral register accesses and SoC probes settle the debt
early (and SFR writes end the current block so a moved horizon is
picked up), which makes batched and per-step driving byte-identical —
the legacy step/tick loop survives behind ``use_block_run=False`` as
the reference baseline.

Within a block the core executes superblock-at-a-time (straight-line
fusion, chaining across taken branches, and analytic fast-forward of
idle ``DJNZ`` spins — see :mod:`repro.isa.decodecache` and
:meth:`CpuCore._run_superblocks`); ``use_superblocks=False`` selects
the per-instruction hoisted loop and ``use_fast_forward=False`` just
the warp, both for ablation benchmarks.  Observed runs — instruction
traces, bus-trace recording, wait-state charging — take the same
superblock path through :meth:`CpuCore._run_superblocks_observed`,
which replays each block's precomputed fetch-event and retire-record
templates in bulk, so coverage and cycle-accurate runs no longer drop
to per-instruction execution.  :meth:`ExecutionSession.stats` exposes
the fast-path telemetry (warps, blocks executed, template replays,
legacy fallbacks) so silent fast-path coverage regressions are
visible to tests and benchmarks.

``Platform.run`` now delegates to a throwaway session, so its
fresh-device-per-call semantics (``last_soc``/``last_cpu`` inspection)
are unchanged; the :class:`~repro.core.scheduler.RegressionScheduler`
keeps one session per (target, derivative) alive for the whole matrix.

The batched lock-step engine
----------------------------

:class:`BatchSession` runs N matrix cells — the same image across many
platform instances, or a per-lane stimulus sweep — through **one**
engine pass.  Lanes whose execution is byte-identical by construction
(same derivative, same timing fidelity, same engine flags, no platform
hooks) form a *cohort*: the cohort's leader executes once on the scalar
engine above, every superblock/decoded entry replayed a single time for
the whole cohort, and the converged lanes inherit the leader's
architectural state at sync points through N-wide
:class:`~repro.isa.batch.LaneRows`.

Per-lane stimulus makes lanes differ only in *data*: the differing RAM
bytes are marked **dirty** and the RAM mapping is wrapped so every
access routes through the bus's device path (byte-identical to the
word-buffer fast path: same wait states, same access counting, same
trace records).  A leader **write** to dirty bytes *heals* them — every
converged lane now agrees with the leader — while a leader **read** of
unhealed dirty bytes is the moment lanes truly diverge: the affected
lanes are **peeled** off to the scalar engine, which remains the
byte-identity oracle.  A peel is *surgical* when the divergent read is
a simple load the decode cache can identify unambiguously: the follower
device is cloned from the leader at the fork point (lane-indexed SoC +
core snapshots), the lane's remaining dirty bytes are applied, and the
load's register effect is re-applied lane-wise through
:data:`~repro.isa.batch.BATCH_EXECUTORS` — the shared prefix is
executed once, not N times.  Otherwise (ambiguous site, armed bus
trace, instruction fetch from dirty RAM, faulted leader) the lane
conservatively re-runs from reset with its own stimulus.  Peeled lanes
re-join the batch at the next :meth:`BatchSession.run_batch` boundary —
the reset sync point.
"""

from __future__ import annotations

from repro.assembler.linker import MemoryImage
from repro.isa.batch import (
    BATCH_EXECUTORS,
    LaneRows,
    load_footprint,
)
from repro.isa.decodecache import decode_cache_for
from repro.platforms.cpu import CpuCore, CpuFault
from repro.soc.bus import BusTrace
from repro.soc.derivatives import Derivative

# Injection-site names from :mod:`repro.core.faults` (string literals
# here: importing that module would initialise ``repro.core`` while
# ``repro.platforms`` may itself still be mid-import).
_SITE_SESSION_RUN = "session-run"
_SITE_BATCH_PEEL = "batch-peel"


class _RunContext:
    """State of one in-flight run between the session phases."""

    __slots__ = (
        "image",
        "max_instructions",
        "bus_trace",
        "fault_reason",
        "use_block",
    )

    def __init__(
        self,
        image: MemoryImage,
        max_instructions: int,
        bus_trace: BusTrace | None,
        use_block: bool,
    ):
        self.image = image
        self.max_instructions = max_instructions
        self.bus_trace = bus_trace
        self.fault_reason: str | None = None
        self.use_block = use_block


class ExecutionSession:
    """One (platform, derivative) device reused across many runs."""

    def __init__(
        self,
        platform,
        derivative: Derivative,
        use_decode_cache: bool | None = None,
        use_block_run: bool | None = None,
        use_superblocks: bool | None = None,
        use_fast_forward: bool | None = None,
        use_jit: bool | None = None,
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
        self.use_decode_cache = (
            platform.use_decode_cache
            if use_decode_cache is None
            else use_decode_cache
        )
        self.use_block_run = (
            getattr(platform, "use_block_run", True)
            if use_block_run is None
            else use_block_run
        )
        self.cpu.use_superblocks = (
            getattr(platform, "use_superblocks", True)
            if use_superblocks is None
            else use_superblocks
        )
        self.cpu.use_fast_forward = (
            getattr(platform, "use_fast_forward", True)
            if use_fast_forward is None
            else use_fast_forward
        )
        self.cpu.use_jit = (
            getattr(platform, "use_jit", True)
            if use_jit is None
            else use_jit
        )
        self.runs_completed = 0
        #: Latched when a run escaped through an exception: the device
        #: is in an unknown state, so pools and schedulers must discard
        #: the session instead of reusing it (:meth:`health_check`).
        self.poisoned = False
        #: Batch telemetry of the most recent run this session led
        #: (scalar runs leave all three at zero).
        self.batch_lanes = 0
        self.batch_steps = 0
        self.peel_events = 0
        #: Device resets that prepared the most recent run (including a
        #: pool's health-check reset): whole-ROM restores and page-table
        #: rebuilds, from the SoC's running counts at the previous run.
        self.reset_full = 0
        self.dispatch_rebuilds = 0
        self._reset_counts = (0, 0)
        #: True while the trace was armed beyond the platform's own
        #: visibility (a batch leader observing for its whole cohort).
        self._trace_forced = False

    def stats(self) -> dict:
        """Fast-path telemetry of the most recent :meth:`run`.

        ``ff_warps`` counts analytic idle-spin warps, ``sb_blocks``
        superblocks executed through the block engine, ``sb_replays``
        bulk observation-template replays, and ``sb_fallback_steps``
        legacy per-step fallbacks taken inside the superblock loops —
        a nonzero fallback count on a ROM-resident workload means the
        fast path silently lost coverage.  ``decode_hits`` /
        ``decode_misses`` report the shared (cross-run, cross-platform)
        decode cache.  ``batch_lanes``/``batch_steps``/``peel_events``
        mirror that telemetry for the batched lock-step engine: lanes
        this session led in its last batch cohort, leader blocks driven
        for them, and lanes peeled off to the scalar oracle.
        ``jit_chains`` counts chain compiles this core triggered and
        ``jit_exec_steps`` instructions retired inside compiled chain
        bodies; ``registry_size``/``registry_evictions`` are gauges of
        the shared digest-keyed decode registry (LRU-bounded).
        ``reset_full`` and ``dispatch_rebuilds`` (0 or 1 per run) flag
        a device reset before the run that had to rewrite all of ROM
        or rebuild the bus page table.
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
            "batch_lanes": self.batch_lanes,
            "batch_steps": self.batch_steps,
            "peel_events": self.peel_events,
            "jit_chains": cpu.jit_chains,
            "jit_exec_steps": cpu.jit_exec_steps,
            "reset_full": self.reset_full,
            "dispatch_rebuilds": self.dispatch_rebuilds,
        }
        stats.update(registry_stats())
        return stats

    def _count_resets(self) -> None:
        soc = self.soc
        fallbacks, rebuilds = self._reset_counts
        self._reset_counts = (soc.reset_fallbacks, soc.dispatch_rebuilds)
        self.reset_full = soc.reset_fallbacks - fallbacks
        self.dispatch_rebuilds = soc.dispatch_rebuilds - rebuilds

    # -- run phases --------------------------------------------------------
    #
    # ``run`` is begin -> drive -> finish -> observe.  The phases are
    # public so the batch engine can interleave its own work between
    # leader blocks (``drive(on_block=...)``) and materialise per-lane
    # verdicts from one device (``observe(platform=...)``).

    def apply_stimulus(self, stimulus: dict[int, int] | None) -> None:
        """Backdoor-poke per-run stimulus words into RAM (sorted by
        address; later words win on overlap)."""
        if not stimulus:
            return
        soc = self.soc
        ram = soc.memory_map.ram
        for address in sorted(stimulus):
            if not (ram.base <= address and address + 4 <= ram.base + ram.size):
                raise ValueError(
                    f"stimulus word at {address:#010x} is outside RAM"
                )
            soc.bus.poke_word(address, stimulus[address])

    def begin(
        self,
        image: MemoryImage,
        max_instructions: int | None = None,
        entry_symbol: str = "_main",
        stimulus: dict[int, int] | None = None,
        force_trace: bool = False,
        force_bus_trace: bool = False,
    ) -> _RunContext:
        """Reset the device, load *image* (+ optional stimulus), arm
        observation, reset the core and attach the predecode cache.

        ``force_trace``/``force_bus_trace`` arm observation beyond the
        platform's own visibility — a batch leader records whatever any
        lane of its cohort is entitled to see.
        """
        from repro.platforms.base import DEFAULT_MAX_INSTRUCTIONS

        if max_instructions is None:
            max_instructions = DEFAULT_MAX_INSTRUCTIONS
        platform = self.platform
        soc = self.soc
        cpu = self.cpu
        self.batch_lanes = 0
        self.batch_steps = 0
        self.peel_events = 0
        if self.injector is not None:
            self.injector.fire(
                _SITE_SESSION_RUN,
                f"{platform.name}#run{self.runs_completed}",
            )

        if self.runs_completed:
            soc.full_reset()
        self._count_resets()
        soc.load_image(image)
        self.apply_stimulus(stimulus)
        bus_trace: BusTrace | None = None
        if platform.record_bus_trace or force_bus_trace:
            bus_trace = BusTrace()
            soc.bus.trace_buffer = bus_trace
        if platform.sees_trace or force_trace:
            cpu.enable_trace()
            self._trace_forced = not platform.sees_trace
        elif self._trace_forced:
            cpu.trace = None
            self._trace_forced = False
        entry = image.entry
        if entry is None:
            entry = image.symbol(entry_symbol)
        cpu.reset(entry, soc.memory_map.stack_top)

        # The predecode cache stays enabled under tracing: the core
        # replays the elided fetch events into the trace, so coverage
        # collectors and divergence hunts see the same access stream as
        # a real bus fetch — at predecoded speed.
        self._attach_decode_cache(image)

        ctx = _RunContext(image, max_instructions, bus_trace, self.use_block_run)
        if ctx.use_block:
            soc.attach_cpu(cpu)
        return ctx

    def begin_forked(
        self,
        image: MemoryImage,
        max_instructions: int | None,
        soc_state: dict,
        cpu_state: dict,
    ) -> _RunContext:
        """Start a run from a leader's mid-run fork point instead of
        from reset: the device and core are seeded from lane-state
        snapshots (:meth:`SystemOnChip.snapshot_lane_state` /
        :meth:`CpuCore.snapshot_lane_state`) taken at a block boundary.
        """
        from repro.platforms.base import DEFAULT_MAX_INSTRUCTIONS

        if max_instructions is None:
            max_instructions = DEFAULT_MAX_INSTRUCTIONS
        soc = self.soc
        cpu = self.cpu
        self.batch_lanes = 0
        self.batch_steps = 0
        self.peel_events = 0
        if self.injector is not None:
            self.injector.fire(
                _SITE_SESSION_RUN,
                f"{self.platform.name}#run{self.runs_completed}",
            )
        if self.runs_completed:
            soc.full_reset()
        self._count_resets()
        soc.restore_lane_state(soc_state)
        cpu.restore_lane_state(cpu_state)
        self._trace_forced = (
            cpu.trace is not None and not self.platform.sees_trace
        )
        self._attach_decode_cache(image)
        ctx = _RunContext(image, max_instructions, None, self.use_block_run)
        if ctx.use_block:
            soc.attach_cpu(cpu)
        return ctx

    def _attach_decode_cache(self, image: MemoryImage) -> None:
        soc = self.soc
        if self.use_decode_cache:
            rom = soc.memory_map.rom
            mapping = soc.bus.mapping_for(rom.base, 4)
            self.cpu.decode_cache = decode_cache_for(
                image, rom.base, rom.base + rom.size, mapping.wait_states
            )
        else:
            self.cpu.decode_cache = None

    def drive(self, ctx: _RunContext, on_block=None) -> None:
        """Execute until HALT/limit/watchdog/fault.

        *on_block* (block-run mode only) is called after every settled
        core block — the batch engine's hook for servicing lane peels
        between leader blocks.
        """
        soc = self.soc
        cpu = self.cpu
        max_instructions = ctx.max_instructions
        try:
            if ctx.use_block:
                # Event-horizon loop: run the core in blocks bounded by
                # the next observable peripheral event, then settle the
                # deferred peripheral time in one linear tick.  An SFR
                # write that moves the horizon ends the block early.
                while not cpu.halted and (
                    cpu.instructions_retired < max_instructions
                ):
                    cpu.run(soc.run_budget(), max_instructions)
                    soc.flush_ticks()
                    if on_block is not None:
                        on_block()
                    if soc.wdt.expired:
                        break
            else:
                # Reference per-step loop: one instruction, one walk of
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
        if ctx.use_block:
            self.soc.detach_cpu()
        if ctx.bus_trace is not None:
            self.soc.bus.trace_buffer = None
        self.runs_completed += 1

    def observe(self, ctx: _RunContext, platform=None):
        """Derive a verdict from the finished run through *platform*'s
        visibility (default: the session's own).  A batch cohort calls
        this once per lane against the shared leader device."""
        from repro.platforms.base import RunStatus

        if platform is None:
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
        stimulus: dict[int, int] | None = None,
    ):
        """Reset the device, load *image*, execute, observe a verdict."""
        try:
            ctx = self.begin(image, max_instructions, entry_symbol, stimulus)
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

    # -- pool-visible health/reset hooks -----------------------------------
    #
    # A warm pool (:mod:`repro.service.pool`) keeps sessions alive
    # across requests; these hooks are its contract for telling a
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

    def recycle(self) -> None:
        """Restore the just-constructed device state between tenants.

        Raises if the device cannot be restored — the pool then
        discards the session.  A poisoned session cannot be recycled:
        its device state is unknown by definition.
        """
        if self.poisoned:
            raise RuntimeError("cannot recycle a poisoned session")
        self.soc.full_reset()
        self.cpu.trace = None
        self._trace_forced = False


# --------------------------------------------------------------------------
# batched lock-step engine
# --------------------------------------------------------------------------

class BatchLane:
    """One matrix cell of a batch run."""

    __slots__ = (
        "index",
        "platform",
        "stimulus",
        "dirty",
        "peeled",
        "batched",
        "degraded",
        "quarantined",
        "result",
    )

    def __init__(self, index: int, platform, stimulus: dict[int, int] | None):
        self.index = index
        self.platform = platform
        self.stimulus = dict(stimulus or {})
        #: Absolute byte address -> this lane's byte value, where the
        #: lane's RAM differs from the cohort leader's.  Shrinks as
        #: leader writes heal bytes; consulted on dirty reads to decide
        #: which lanes must peel.
        self.dirty: dict[int, int] = {}
        self.peeled = False
        self.batched = False
        #: The lane hit an execution-layer error and was demoted to a
        #: from-reset scalar run on a fresh device.
        self.degraded = False
        #: Even the degraded run failed; ``result`` is a synthesized
        #: :data:`RunStatus.FAULT` verdict.
        self.quarantined = False
        self.result = None


def _stimulus_bytes(stimulus: dict[int, int]) -> dict[int, int]:
    """Byte-granular overlay of a word stimulus (poke order: sorted by
    address, matching :meth:`ExecutionSession.apply_stimulus`)."""
    overlay: dict[int, int] = {}
    for address in sorted(stimulus):
        word = stimulus[address] & 0xFFFF_FFFF
        for i, byte in enumerate(word.to_bytes(4, "little")):
            overlay[address + i] = byte
    return overlay


class _DirtyWatcher:
    """Tracks unhealed dirty bytes of the converged lanes and turns
    leader accesses into heal/peel decisions."""

    __slots__ = ("cpu", "lanes", "watch", "peels")

    def __init__(self, cpu: CpuCore, lanes: list[BatchLane]):
        self.cpu = cpu
        self.lanes = list(lanes)
        #: Lanes peel-destined since the last service, with the read
        #: that split them: ``(lane, address, size)``.
        self.peels: list[tuple[BatchLane, int, int]] = []
        self.watch: set[int] = set()
        self._recompute()

    def _recompute(self) -> None:
        watch: set[int] = set()
        for lane in self.lanes:
            watch.update(lane.dirty)
        self.watch = watch

    def on_read(self, address: int, size: int) -> None:
        watch = self.watch
        span = [address + i for i in range(size)]
        if not any(a in watch for a in span):
            return
        hit = [
            lane
            for lane in self.lanes
            if any(a in lane.dirty for a in span)
        ]
        self.lanes = [lane for lane in self.lanes if lane not in hit]
        for lane in hit:
            self.peels.append((lane, address, size))
        self._recompute()
        # Two-phase: the leader keeps its own value and merely ends the
        # current block, so peel servicing sees the post-load state.
        self.cpu.cut_block()

    def on_write(self, address: int, size: int) -> None:
        watch = self.watch
        healed = [address + i for i in range(size) if (address + i) in watch]
        if not healed:
            return
        for lane in self.lanes:
            for a in healed:
                lane.dirty.pop(a, None)
        self._recompute()

    def drain(self) -> list[tuple[BatchLane, int, int]]:
        peels, self.peels = self.peels, []
        return peels


class _WatchedMemory:
    """Bus device wrapping a :class:`~repro.soc.bus.Memory` so leader
    accesses are observable.  Not a ``Memory`` subclass on purpose: the
    mapping's word-buffer fast path disables itself (``word_buf`` stays
    ``None`` after ``rebuild_dispatch``) and every access routes through
    the bus's device path, which charges the same wait states, counts
    and traces identically."""

    __slots__ = ("memory", "base", "watcher")

    def __init__(self, memory, base: int, watcher: _DirtyWatcher):
        self.memory = memory
        self.base = base
        self.watcher = watcher

    def read(self, offset: int, size: int) -> int:
        value = self.memory.read(offset, size)
        if self.watcher.watch:
            self.watcher.on_read(self.base + offset, size)
        return value

    def write(self, offset: int, value: int, size: int) -> None:
        self.memory.write(offset, value, size)
        if self.watcher.watch:
            self.watcher.on_write(self.base + offset, size)


class _ArmedWatch:
    """The RAM mapping swap while a cohort watch is armed."""

    __slots__ = ("bus", "mapping", "original", "armed")

    def __init__(self, bus, mapping, original):
        self.bus = bus
        self.mapping = mapping
        self.original = original
        self.armed = True

    def disarm(self) -> None:
        if not self.armed:
            return
        self.mapping.device = self.original
        self.bus.rebuild_dispatch()
        self.armed = False


class BatchSession:
    """Run N matrix cells in lock-step through one engine pass.

    Construct with one platform per lane (all on one derivative); each
    :meth:`run_batch` call executes one image across every lane, with an
    optional per-lane RAM word stimulus.  Results come back in lane
    order and are byte-identical to N scalar
    :meth:`ExecutionSession.run` calls — the scalar engine remains the
    oracle, and any lane the lock-step argument cannot cover is peeled
    onto it.

    Engine-flag keyword arguments are applied uniformly to every lane
    session (leader and peeled), mirroring :class:`ExecutionSession`.
    """

    def __init__(
        self,
        derivative: Derivative,
        platforms,
        use_decode_cache: bool | None = None,
        use_block_run: bool | None = None,
        use_superblocks: bool | None = None,
        use_fast_forward: bool | None = None,
        use_jit: bool | None = None,
        injector=None,
    ):
        self.derivative = derivative
        self.platforms = list(platforms)
        if not self.platforms:
            raise ValueError("BatchSession needs at least one lane")
        self._engine_overrides = {
            "use_decode_cache": use_decode_cache,
            "use_block_run": use_block_run,
            "use_superblocks": use_superblocks,
            "use_fast_forward": use_fast_forward,
            "use_jit": use_jit,
        }
        #: Optional :class:`repro.core.faults.FaultInjector`, shared by
        #: every lane session this batch creates.
        self.injector = injector
        #: lane index -> scalar session (leaders + peeled lanes only;
        #: converged followers never need a device of their own).
        self._sessions: dict[int, ExecutionSession] = {}
        self._leader_sessions: list[ExecutionSession] = []
        #: Every session that ran in the last batch (leaders, forks,
        #: peels and degraded re-runs), for the reset counters.
        self._run_sessions: list[ExecutionSession] = []
        self.lane_rows: LaneRows | None = None
        self.last_lanes: list[BatchLane] = []
        self.batch_lanes = 0
        self.batch_steps = 0
        self.peel_events = 0
        self.degraded_lanes = 0

    # -- telemetry ---------------------------------------------------------
    def stats(self) -> dict:
        """Batch + aggregated engine telemetry of the last
        :meth:`run_batch` (engine counters summed over cohort leader
        sessions; the reset counters over every session that ran)."""
        totals = {
            "ff_warps": 0,
            "sb_blocks": 0,
            "sb_replays": 0,
            "sb_fallback_steps": 0,
            "decode_hits": 0,
            "decode_misses": 0,
            "jit_chains": 0,
            "jit_exec_steps": 0,
        }
        for session in self._leader_sessions:
            stats = session.stats()
            for key in totals:
                totals[key] += stats[key]
        from repro.isa.decodecache import registry_stats

        totals.update(registry_stats())
        totals["batch_lanes"] = self.batch_lanes
        totals["batch_steps"] = self.batch_steps
        totals["peel_events"] = self.peel_events
        totals["degraded_lanes"] = self.degraded_lanes
        totals["reset_full"] = sum(s.reset_full for s in self._run_sessions)
        totals["dispatch_rebuilds"] = sum(
            s.dispatch_rebuilds for s in self._run_sessions
        )
        return totals

    def lane_divergences(self, reference: int = 0) -> dict[int, list[str]]:
        """Per-lane architectural divergence vs the *reference* lane
        after the last batch: lane index -> row names that differ."""
        rows = self.lane_rows
        if rows is None:
            return {}
        return {
            lane.index: rows.lane_divergences(reference, lane.index)
            for lane in self.last_lanes
            if lane.index != reference
        }

    # -- public API --------------------------------------------------------
    def run_batch(
        self,
        image: MemoryImage,
        stimuli=None,
        max_instructions: int | None = None,
        entry_symbol: str = "_main",
    ):
        """Execute *image* on every lane; returns per-lane RunResults.

        *stimuli* is an optional per-lane list of RAM word overlays
        (``{address: word}`` or ``None``), poked after image load —
        the batched equivalent of :meth:`ExecutionSession.run`'s
        ``stimulus`` argument.

        Argument errors (lane/stimulus mismatch, stimulus outside RAM)
        raise up front; past that point ``run_batch`` never raises —
        an execution-layer failure demotes the affected lanes down the
        degradation ladder (lock-step → from-reset scalar run flagged
        ``degraded`` → synthesized FAULT verdict flagged
        ``quarantined``) and the batch still returns a result per lane.
        """
        if stimuli is None:
            stimuli = [None] * len(self.platforms)
        if len(stimuli) != len(self.platforms):
            raise ValueError(
                f"{len(self.platforms)} lanes but {len(stimuli)} stimuli"
            )
        ram = self.derivative.memory_map().ram
        for stimulus in stimuli:
            for address in stimulus or ():
                if not (
                    ram.base <= address
                    and address + 4 <= ram.base + ram.size
                ):
                    raise ValueError(
                        f"stimulus word at {address:#010x} is outside RAM"
                    )
        lanes = [
            BatchLane(i, platform, stimulus)
            for i, (platform, stimulus) in enumerate(
                zip(self.platforms, stimuli)
            )
        ]
        self.last_lanes = lanes
        self.lane_rows = LaneRows(len(lanes))
        self.batch_lanes = len(lanes)
        self.batch_steps = 0
        self.peel_events = 0
        self.degraded_lanes = 0
        self._leader_sessions = []
        self._run_sessions = []

        cohorts: dict[tuple, list[BatchLane]] = {}
        static_peels: list[BatchLane] = []
        for lane in lanes:
            key = self._cohort_key(lane.platform)
            if key is None:
                static_peels.append(lane)
            else:
                cohorts.setdefault(key, []).append(lane)
        for lane in static_peels:
            # Platform hooks (fault injection, custom devices) make a
            # lane's execution lane-local by definition: scalar oracle.
            try:
                self._peel_from_reset(
                    lane, image, max_instructions, entry_symbol
                )
            except Exception as exc:
                self._degrade_lane(
                    lane, image, max_instructions, entry_symbol, exc
                )
        for cohort in cohorts.values():
            try:
                self._run_cohort(
                    image, cohort, max_instructions, entry_symbol
                )
            except Exception as exc:
                # The shared leader device is in an unknown state:
                # every lane of the cohort that has no verdict yet
                # walks the degradation ladder on its own device.
                for lane in cohort:
                    if lane.result is None:
                        self._degrade_lane(
                            lane, image, max_instructions,
                            entry_symbol, exc,
                        )
        return [lane.result for lane in lanes]

    def _degrade_lane(
        self,
        lane: BatchLane,
        image: MemoryImage,
        max_instructions: int | None,
        entry_symbol: str,
        error: BaseException,
    ) -> None:
        """Bottom half of the degradation ladder: re-run the lane from
        reset on a fresh device (byte-identical to a scalar
        :meth:`ExecutionSession.run`); if even that fails, synthesize a
        quarantined FAULT verdict so the batch always completes."""
        from repro.platforms.base import RunResult, RunStatus

        lane.degraded = True
        self.degraded_lanes += 1
        # The lane's session (if any) saw the failure: its device state
        # is unknown, so it is discarded and rebuilt.
        self._sessions.pop(lane.index, None)
        try:
            session = self._session_for(lane)
            lane.result = session.run(
                image,
                max_instructions=max_instructions,
                entry_symbol=entry_symbol,
                stimulus=lane.stimulus,
            )
            self.lane_rows.capture(lane.index, session.cpu)
        except Exception as exc:
            self._sessions.pop(lane.index, None)
            lane.quarantined = True
            lane.result = RunResult(
                platform=lane.platform.name,
                derivative=self.derivative.name,
                status=RunStatus.FAULT,
                fault_reason=(
                    f"quarantined: batch lane degraded after {error}; "
                    f"degraded re-run failed: {exc}"
                ),
            )

    # -- cohort formation --------------------------------------------------
    def _cohort_key(self, platform):
        """Lanes sharing a key execute byte-identically until data
        diverges; ``None`` marks a lane the lock-step argument cannot
        cover (platform hooks may install fault hooks, trace hooks or
        custom devices)."""
        from repro.platforms.base import Platform

        cls = type(platform)
        if (
            cls.configure_cpu is not Platform.configure_cpu
            or cls.build_soc is not Platform.build_soc
        ):
            return None
        overrides = self._engine_overrides

        def effective(name, default):
            value = overrides[name]
            return default if value is None else value

        return (
            platform.cycle_accurate,
            effective("use_decode_cache", platform.use_decode_cache),
            effective(
                "use_block_run", getattr(platform, "use_block_run", True)
            ),
            effective(
                "use_superblocks",
                getattr(platform, "use_superblocks", True),
            ),
            effective(
                "use_fast_forward",
                getattr(platform, "use_fast_forward", True),
            ),
            effective("use_jit", getattr(platform, "use_jit", True)),
        )

    def _session_for(self, lane: BatchLane) -> ExecutionSession:
        session = self._sessions.get(lane.index)
        if session is None:
            session = ExecutionSession(
                lane.platform,
                self.derivative,
                injector=self.injector,
                **self._engine_overrides,
            )
            self._sessions[lane.index] = session
        self._run_sessions.append(session)
        return session

    # -- cohort execution --------------------------------------------------
    def _run_cohort(
        self,
        image: MemoryImage,
        cohort: list[BatchLane],
        max_instructions: int | None,
        entry_symbol: str,
    ) -> None:
        leader = cohort[0]
        followers = cohort[1:]
        session = self._session_for(leader)
        self._leader_sessions.append(session)
        ctx = session.begin(
            image,
            max_instructions,
            entry_symbol,
            stimulus=None,
            force_trace=any(l.platform.sees_trace for l in cohort),
            force_bus_trace=any(l.platform.record_bus_trace for l in cohort),
        )
        soc = session.soc

        watcher: _DirtyWatcher | None = None
        armed: _ArmedWatch | None = None
        if any(lane.stimulus for lane in cohort):
            # Stimulus bounds were validated up front in run_batch.
            ram = soc.memory_map.ram
            baseline = bytes(soc.ram.data)
            session.apply_stimulus(leader.stimulus)
            leader_ram = soc.ram.data
            leader_overlay = _stimulus_bytes(leader.stimulus)
            for lane in followers:
                overlay = _stimulus_bytes(lane.stimulus)
                dirty: dict[int, int] = {}
                for a in set(overlay) | set(leader_overlay):
                    byte = overlay.get(a, baseline[a - ram.base])
                    if byte != leader_ram[a - ram.base]:
                        dirty[a] = byte
                lane.dirty = dirty
            watcher = _DirtyWatcher(
                session.cpu, [l for l in followers if l.dirty]
            )
            if watcher.watch:
                mapping = soc.bus.mapping_for(ram.base, 1)
                original = mapping.device
                mapping.device = _WatchedMemory(
                    original, mapping.base, watcher
                )
                soc.bus.rebuild_dispatch()
                armed = _ArmedWatch(soc.bus, mapping, original)

        def on_block():
            self.batch_steps += 1
            session.batch_steps += 1
            if watcher is not None and watcher.peels:
                self._service_peels(
                    session,
                    ctx,
                    watcher,
                    armed,
                    image,
                    max_instructions,
                    entry_symbol,
                )

        try:
            session.drive(ctx, on_block=on_block)
        finally:
            session.finish(ctx)
            if armed is not None:
                armed.disarm()

        # Peels the drive loop could not service in-line (a leader
        # fault aborts mid-block; the per-step reference loop has no
        # block boundaries): sound but conservative from-reset re-runs.
        if watcher is not None:
            for lane, _address, _size in watcher.drain():
                self._peel_from_reset(
                    lane, image, max_instructions, entry_symbol
                )

        rows = self.lane_rows
        for lane in cohort:
            if lane.peeled:
                continue
            lane.result = session.observe(ctx, platform=lane.platform)
            lane.batched = True
            rows.capture(lane.index, session.cpu)
        session.batch_lanes = len(cohort)
        session.peel_events = sum(1 for lane in cohort if lane.peeled)

    # -- peeling -----------------------------------------------------------
    def _service_peels(
        self,
        session: ExecutionSession,
        ctx: _RunContext,
        watcher: _DirtyWatcher,
        armed: _ArmedWatch | None,
        image: MemoryImage,
        max_instructions: int | None,
        entry_symbol: str,
    ) -> None:
        peels = watcher.drain()
        cpu = session.cpu
        entry = self._identify_load(cpu)
        footprint = (
            None if entry is None else load_footprint(cpu.regs, entry)
        )
        surgical: list[tuple[BatchLane, int, int]] = []
        fallback: list[BatchLane] = []
        for lane, address, size in peels:
            if (
                entry is not None
                and ctx.bus_trace is None
                and footprint == (address, size)
            ):
                surgical.append((lane, address, size))
            else:
                fallback.append(lane)
        if surgical:
            soc_state = session.soc.snapshot_lane_state()
            cpu_state = cpu.snapshot_lane_state()
            for lane, address, size in surgical:
                self._surgical_fork(
                    lane,
                    entry,
                    address,
                    size,
                    image,
                    max_instructions,
                    soc_state,
                    cpu_state,
                )
        for lane in fallback:
            self._peel_from_reset(lane, image, max_instructions, entry_symbol)
        if armed is not None and not watcher.watch:
            armed.disarm()

    def _identify_load(self, cpu: CpuCore):
        """The decoded simple load that just retired on the leader, or
        ``None`` when the site is not unambiguously identifiable (the
        fork then falls back to a from-reset re-run).

        After the divergent read the leader sits right behind the
        instruction that made it (the dirty trip cut the block at the
        retire boundary), so the entry is found by looking back one
        instruction width (4 bytes, 8 with a literal word) and
        requiring ``next_pc`` to land on the current pc."""
        cache = cpu.decode_cache
        if cache is None:
            return None
        pc = cpu.regs.pc
        candidates = []
        for back in (4, 8):
            entry = cache.get(pc - back)
            if entry is None or entry.next_pc != pc:
                continue
            if entry.mem_kind not in BATCH_EXECUTORS:
                continue
            candidates.append(entry)
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _surgical_fork(
        self,
        lane: BatchLane,
        entry,
        address: int,
        size: int,
        image: MemoryImage,
        max_instructions: int | None,
        soc_state: dict,
        cpu_state: dict,
    ) -> None:
        """Clone the leader at the fork point, apply the lane's dirty
        bytes, re-apply the divergent load lane-wise, run on."""
        if self.injector is not None:
            self.injector.fire(
                _SITE_BATCH_PEEL,
                f"{lane.platform.name}#lane{lane.index}",
            )
        session = self._session_for(lane)
        ctx = session.begin_forked(
            image, max_instructions, soc_state, cpu_state
        )
        try:
            soc = session.soc
            ram = soc.memory_map.ram
            data = soc.ram.data
            for a, byte in lane.dirty.items():
                data[a - ram.base] = byte
            offset = address - ram.base
            value = int.from_bytes(data[offset : offset + size], "little")
            rows = self.lane_rows
            rows.capture(lane.index, session.cpu)
            BATCH_EXECUTORS[entry.mem_kind](rows, lane.index, entry, value)
            rows.restore(lane.index, session.cpu)
            session.drive(ctx)
        finally:
            session.finish(ctx)
        lane.result = session.observe(ctx)
        lane.peeled = True
        lane.batched = True  # rode the cohort up to the fork point
        self.peel_events += 1
        self.lane_rows.capture(lane.index, session.cpu)

    def _peel_from_reset(
        self,
        lane: BatchLane,
        image: MemoryImage,
        max_instructions: int | None,
        entry_symbol: str,
    ) -> None:
        if self.injector is not None:
            self.injector.fire(
                _SITE_BATCH_PEEL,
                f"{lane.platform.name}#lane{lane.index}",
            )
        session = self._session_for(lane)
        lane.result = session.run(
            image,
            max_instructions=max_instructions,
            entry_symbol=entry_symbol,
            stimulus=lane.stimulus,
        )
        lane.peeled = True
        self.peel_events += 1
        self.lane_rows.capture(lane.index, session.cpu)
