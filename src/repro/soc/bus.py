"""System bus: routes CPU accesses to memories and peripherals.

The bus is deliberately simple — single master, flat decode — but it
models the two properties the execution platforms differ on:

- **wait states** per device (the cycle-accurate "RTL" platform charges
  them; the functional golden model ignores them), and
- an **access trace** used by functional coverage and by the platforms
  with bus visibility.

Routing is O(1) after first touch: :meth:`Bus.mapping_for` memoises
each page (page index → :class:`Mapping`) it resolves in a page-granular
dispatch table when one mapping fully covers that page, so the hot path
is one shift and one dict probe.  Only the pages a run touches are ever
entered — a fresh bus builds nothing up front.  Accesses that land on a
page no mapping fully covers — partial pages of an unaligned test
mapping, or straddles past a region end — take the binary search over
the sorted mapping list every time.  Mappings backed by a plain
:class:`Memory` additionally expose their byte buffer to the bus, which
reads/writes aligned words with :mod:`struct` directly instead of paying
a method call plus a bytes-slice allocation per access.

Tracing is allocation-free on the hot path: when a :class:`BusTrace`
buffer is installed, each access appends one ``(kind, address, size,
value)`` tuple; consumers drain the buffer lazily into
:class:`BusAccess` views.  The buffer is the one way to watch the bus.

Unmapped or misaligned accesses raise :class:`BusError`; the CPU converts
them into the architectural bus-error trap so a runaway test dies the
same way on every platform.
"""

from __future__ import annotations

from bisect import bisect_right
from struct import Struct
from typing import Iterator, NamedTuple, Protocol

#: Dispatch-table granularity.  256-byte pages cover every real mapping
#: exactly (memory regions are 64 KiB-aligned and SFR peripheral blocks
#: are 0x100-sized at 0x100-aligned bases).
PAGE_SHIFT = 8
PAGE_SIZE = 1 << PAGE_SHIFT

_U32 = Struct("<I")
_U16 = Struct("<H")
#: Shared little-endian word/halfword codecs — the bus, the Memory
#: device and the core's inline accessors all read/write buffers
#: through these.
u32_unpack_from = _U32.unpack_from
u32_pack_into = _U32.pack_into
u16_unpack_from = _U16.unpack_from
u16_pack_into = _U16.pack_into


class BusError(Exception):
    """Unmapped or malformed bus access."""

    def __init__(self, message: str, address: int):
        super().__init__(message)
        self.address = address


class BusDevice(Protocol):
    """Anything mappable on the bus."""

    def read(self, offset: int, size: int) -> int: ...

    def write(self, offset: int, value: int, size: int) -> None: ...


class Mapping:
    __slots__ = (
        "name", "base", "size", "device", "wait_states", "end", "word_buf",
        "word_wbuf",
    )

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        device: BusDevice,
        wait_states: int = 0,
    ):
        self.name = name
        self.base = base
        self.size = size
        self.device = device
        self.wait_states = wait_states
        self.refresh()

    def refresh(self) -> None:
        """Derive the routing state: the exclusive end address, and —
        for plain :class:`Memory` devices — the raw byte buffer the bus
        may read/write words from directly (``word_wbuf`` stays
        ``None`` for read-only memories so writes route through
        :meth:`Memory.write` and raise).

        Whoever swaps a mapping's device calls this again, so stale
        word buffers are dropped, not just overwritten — a non-Memory
        device (e.g. a watching wrapper) must route every access
        through its read/write methods."""
        self.end = self.base + self.size
        self.word_buf: bytearray | None = None
        self.word_wbuf: bytearray | None = None
        if type(self.device) is Memory:
            self.word_buf = self.device.data
            if not self.device.read_only:
                self.word_wbuf = self.device.data

    def contains(self, address: int, length: int) -> bool:
        return self.base <= address and address + length <= self.end


class BusAccess(NamedTuple):
    """One observed bus transaction (for traces and coverage)."""

    kind: str  # "read" | "write"
    address: int
    size: int
    value: int


class BusTrace:
    """Flat ring buffer of bus events: ``(kind, address, size, value)``.

    Recording appends one small tuple per access — no dataclass, no
    ``__dict__`` — so a traced run stays close to untraced speed.
    Consumers that want object views iterate the buffer, which yields
    :class:`BusAccess` lazily; bulk consumers (coverage) read
    :meth:`raw` and destructure tuples directly.

    With a *capacity*, the buffer wraps: the oldest events are
    overwritten and counted in :attr:`dropped`.  The default is
    unbounded, which coverage and trace-equivalence checks rely on.
    """

    __slots__ = ("_events", "_capacity", "_head", "dropped")

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("BusTrace capacity must be positive")
        self._events: list[tuple[str, int, int, int]] = []
        self._capacity = capacity
        self._head = 0
        self.dropped = 0

    def record(self, kind: str, address: int, size: int, value: int) -> None:
        events = self._events
        capacity = self._capacity
        if capacity is None or len(events) < capacity:
            events.append((kind, address, size, value))
        else:
            events[self._head] = (kind, address, size, value)
            self._head = (self._head + 1) % capacity
            self.dropped += 1

    def extend_raw(
        self, events: "list[tuple] | tuple[tuple, ...]"
    ) -> None:
        """Bulk append: semantically identical to calling :meth:`record`
        once per event, but O(1) Python-level operations — one
        ``list.extend`` on the unbounded/filling path, at most two slice
        assignments on the wrap path.  The superblock engine uses this
        to emit a whole block's replayed fetch events in one shot."""
        n = len(events)
        if n == 0:
            return
        evs = self._events
        capacity = self._capacity
        if capacity is None:
            evs.extend(events)
            return
        fill = capacity - len(evs)
        if fill:
            if fill >= n:
                evs.extend(events)
                return
            evs.extend(events[:fill])
            events = events[fill:]
            n -= fill
        # Ring is full: overwrite n events starting at the head.
        head = self._head
        self.dropped += n
        if n >= capacity:
            # Only the last ring's worth survives; everything earlier
            # is a pure head rotation plus the dropped count above.
            tail = events[n - capacity :]
            head = (head + n) % capacity
            split = capacity - head
            evs[head:] = tail[:split]
            evs[:head] = tail[split:]
            self._head = head
        else:
            first = capacity - head
            if first >= n:
                evs[head : head + n] = events
            else:
                evs[head:] = events[:first]
                evs[: n - first] = events[first:]
            self._head = (head + n) % capacity

    def extend_repeat(
        self, events: tuple[tuple, ...], count: int
    ) -> None:
        """Append *events* repeated *count* times — the access stream a
        warped idle spin would have produced one iteration at a time.
        Identical to ``count`` :meth:`record` loops over *events*, but
        clamped so a huge warp costs at most one ring's worth of
        work: with a capacity, only the surviving tail window is
        synthesized; unbounded buffers take one C-level repetition."""
        unit = len(events)
        if unit == 0 or count <= 0:
            return
        capacity = self._capacity
        evs = self._events
        total = unit * count
        if capacity is None:
            evs.extend(events * count)
            return
        if total <= 2 * capacity:
            self.extend_raw(events * count)
            return
        # Huge warp: all but the final ring's worth of events is pure
        # head rotation + dropped accounting.  Synthesize the surviving
        # window (the last *capacity* events of the repeated stream) and
        # lay it down rotated so slot order matches a per-event replay.
        space = capacity - len(evs)
        if space > 0:
            head0 = 0
            overwrites = total - space
        else:
            head0 = self._head
            overwrites = total
        new_head = (head0 + overwrites) % capacity
        start = total - capacity  # stream index of the oldest survivor
        offset = start % unit
        reps = -(-(capacity + offset) // unit)
        window = (list(events) * reps)[offset : offset + capacity]
        split = capacity - new_head
        self._events = window[split:] + window[:split]
        self._head = new_head
        self.dropped += overwrites

    def raw(self) -> list[tuple[str, int, int, int]]:
        """Events oldest-first as raw tuples.  When the buffer has not
        wrapped this is the live list — treat it as read-only."""
        head = self._head
        if head:
            return self._events[head:] + self._events[:head]
        return self._events

    def clear(self) -> None:
        self._events.clear()
        self._head = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[BusAccess]:
        for kind, address, size, value in self.raw():
            yield BusAccess(kind, address, size, value)

    def __getitem__(self, index):
        raw = self.raw()[index]
        if isinstance(index, slice):
            return [BusAccess(*event) for event in raw]
        return BusAccess(*raw)


#: Most :meth:`Memory.load` extents a memory remembers for
#: :meth:`Memory.restore`.  A linked image puts a handful of segments
#: in ROM; past the cap the next restore rewrites the whole region.
LOAD_EXTENT_CAP = 32


class Memory:
    """Plain byte-addressable memory device (RAM, ROM, NVM array)."""

    def __init__(self, size: int, read_only: bool = False, fill: int = 0x00):
        self.data: bytearray = bytearray([fill]) * size
        self.read_only = read_only
        self.fill = fill
        #: ``(offset, length)`` of every :meth:`load` since the last
        #: restore, or ``None`` once a load covered the whole region or
        #: the list passed :data:`LOAD_EXTENT_CAP`.
        self.loaded_extents: list[tuple[int, int]] | None = []

    def read(self, offset: int, size: int) -> int:
        return int.from_bytes(self.data[offset : offset + size], "little")

    def write(self, offset: int, value: int, size: int) -> None:
        if self.read_only:
            raise BusError("write to read-only memory", offset)
        self.data[offset : offset + size] = (
            value & ((1 << (8 * size)) - 1)
        ).to_bytes(size, "little")

    def load(self, offset: int, payload: bytes) -> None:
        """Backdoor load (image loading bypasses read-only protection)."""
        length = len(payload)
        self.data[offset : offset + length] = payload
        extents = self.loaded_extents
        if extents is not None:
            if length >= len(self.data) or len(extents) >= LOAD_EXTENT_CAP:
                self.loaded_extents = None
            else:
                extents.append((offset, length))

    def restore(self) -> bool:
        """Return every byte :meth:`load` wrote since the last restore
        to the construction fill.  Sound only where ``load`` is the sole
        writer — a read-only memory, whose bus writes raise.  Returns
        True when it fell back to rewriting the whole region."""
        extents = self.loaded_extents
        if extents is None:
            self.wipe()
            return True
        data = self.data
        fill = bytes((self.fill,))
        for offset, length in extents:
            data[offset : offset + length] = fill * length
        extents.clear()
        return False

    def wipe(self) -> None:
        """Rewrite the whole region with the construction fill."""
        self.data[:] = bytes((self.fill,)) * len(self.data)
        self.loaded_extents = []


class Bus:
    """Single-master system bus with O(1) device decode and tracing."""

    def __init__(self) -> None:
        self.mappings: list[Mapping] = []
        #: Allocation-free access recording; ``None`` when not tracing.
        self.trace_buffer: BusTrace | None = None
        self.access_count = 0
        self._bases: list[int] = []
        #: Page index -> the mapping that fully covers it, for the pages
        #: :meth:`mapping_for` has resolved.
        self.page_table: dict[int, Mapping] = {}

    def attach(
        self,
        name: str,
        base: int,
        size: int,
        device: BusDevice,
        wait_states: int = 0,
    ) -> Mapping:
        mapping = Mapping(name, base, size, device, wait_states)
        # The mapping list is kept sorted by base, so only the two
        # neighbours of the insertion point can overlap.
        index = bisect_right(self._bases, mapping.base)
        if index and self.mappings[index - 1].end > mapping.base:
            raise ValueError(
                f"bus mapping {name!r} overlaps "
                f"{self.mappings[index - 1].name!r}"
            )
        if index < len(self.mappings) and (
            mapping.end > self.mappings[index].base
        ):
            raise ValueError(
                f"bus mapping {name!r} overlaps {self.mappings[index].name!r}"
            )
        self.mappings.insert(index, mapping)
        self._bases.insert(index, mapping.base)
        return mapping

    def mapping_for(self, address: int, length: int) -> Mapping:
        """The mapping containing ``[address, address+length)``.

        Binary search over the sorted mapping list — the slow path
        behind the page table, and the API for one-off queries.  The
        page of *address* is memoised in :attr:`page_table` when the
        mapping covers all of it (a new mapping cannot overlap it, so
        the entry stays true until a reset clears the table)."""
        index = bisect_right(self._bases, address) - 1
        if index >= 0:
            mapping = self.mappings[index]
            if address + length <= mapping.end:
                page = address >> PAGE_SHIFT
                first = page << PAGE_SHIFT
                if mapping.base <= first and first + PAGE_SIZE <= mapping.end:
                    self.page_table[page] = mapping
                return mapping
        raise BusError(f"unmapped address {address:#010x}", address)

    # -- access API -------------------------------------------------------
    #
    # An aligned 4-byte access can never cross a 256-byte page, so a
    # page-table hit proves the whole word is inside the mapping — the
    # word-specialised accessors need no end check.  The generic
    # accessors keep one for exotic sizes.

    def read(self, address: int, size: int) -> tuple[int, int]:
        """Read *size* bytes; returns ``(value, wait_states)``."""
        if address % size:
            raise BusError(f"misaligned read at {address:#010x}", address)
        mapping = self.page_table.get(address >> PAGE_SHIFT)
        if mapping is None or address + size > mapping.end:
            mapping = self.mapping_for(address, size)
        buf = mapping.word_buf
        if buf is not None and size == 4:
            value = u32_unpack_from(buf, address - mapping.base)[0]
        else:
            value = mapping.device.read(address - mapping.base, size)
        self.access_count += 1
        trace = self.trace_buffer
        if trace is not None:
            trace.record("read", address, size, value)
        return value, mapping.wait_states

    def write(self, address: int, value: int, size: int) -> int:
        """Write *size* bytes; returns wait states charged."""
        if address % size:
            raise BusError(f"misaligned write at {address:#010x}", address)
        mapping = self.page_table.get(address >> PAGE_SHIFT)
        if mapping is None or address + size > mapping.end:
            mapping = self.mapping_for(address, size)
        buf = mapping.word_wbuf
        if buf is not None and size == 4:
            u32_pack_into(buf, address - mapping.base, value & 0xFFFF_FFFF)
        else:
            mapping.device.write(address - mapping.base, value, size)
        self.access_count += 1
        trace = self.trace_buffer
        if trace is not None:
            trace.record("write", address, size, value)
        return mapping.wait_states

    # Word-specialised accessors for the CPU's hottest operations
    # (fetch fallback, stack pushes/pops, word loads/stores).
    def read_word(self, address: int) -> tuple[int, int]:
        """:meth:`read` specialised for a 4-byte access."""
        if address & 3:
            raise BusError(f"misaligned read at {address:#010x}", address)
        mapping = self.page_table.get(address >> PAGE_SHIFT)
        if mapping is None:
            mapping = self.mapping_for(address, 4)
        buf = mapping.word_buf
        if buf is not None:
            value = u32_unpack_from(buf, address - mapping.base)[0]
        else:
            value = mapping.device.read(address - mapping.base, 4)
        self.access_count += 1
        trace = self.trace_buffer
        if trace is not None:
            trace.record("read", address, 4, value)
        return value, mapping.wait_states

    def write_word(self, address: int, value: int) -> int:
        """:meth:`write` specialised for a 4-byte access."""
        if address & 3:
            raise BusError(f"misaligned write at {address:#010x}", address)
        mapping = self.page_table.get(address >> PAGE_SHIFT)
        if mapping is None:
            mapping = self.mapping_for(address, 4)
        buf = mapping.word_wbuf
        if buf is not None:
            u32_pack_into(buf, address - mapping.base, value & 0xFFFF_FFFF)
        else:
            mapping.device.write(address - mapping.base, value, 4)
        self.access_count += 1
        trace = self.trace_buffer
        if trace is not None:
            trace.record("write", address, 4, value)
        return mapping.wait_states

    # Convenience word accessors used by platforms/debug ports; they do
    # not charge wait states, count accesses, or record trace events.
    def peek_word(self, address: int) -> int:
        mapping = self.page_table.get(address >> PAGE_SHIFT)
        if mapping is None or address + 4 > mapping.end:
            mapping = self.mapping_for(address, 4)
        buf = mapping.word_buf
        if buf is not None:
            return u32_unpack_from(buf, address - mapping.base)[0]
        return mapping.device.read(address - mapping.base, 4)

    def poke_word(self, address: int, value: int) -> None:
        mapping = self.page_table.get(address >> PAGE_SHIFT)
        if mapping is None or address + 4 > mapping.end:
            mapping = self.mapping_for(address, 4)
        buf = mapping.word_wbuf
        if buf is not None:
            u32_pack_into(buf, address - mapping.base, value & 0xFFFF_FFFF)
        else:
            mapping.device.write(address - mapping.base, value, 4)
