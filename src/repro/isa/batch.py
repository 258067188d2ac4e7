"""N-wide architectural rows and batch executors for the lock-step engine.

The batched interpreter (:class:`~repro.platforms.session.BatchSession`)
runs N matrix cells — same image across platforms, or a stimulus sweep —
through one engine pass.  This module owns its data layout:

- :class:`LaneRows` holds the architectural state of every lane as
  N-wide *rows* (one row per architectural register, one column per
  lane): plain :mod:`array`-module rows by default, numpy vectors when
  numpy is importable (``HAVE_NUMPY``).  Rows make the cross-lane
  questions the batch engine asks — *which lanes diverge from the
  leader?  on which registers?* — single-row comparisons instead of
  per-lane object walks.

- ``BATCH_EXECUTORS`` are the lane-wise counterparts of the scalar
  executor table (:data:`repro.isa.decodecache.EXECUTORS`).  A scalar
  executor applies one decoded entry to one core; a batch executor
  applies the same entry's register effect across lane columns with a
  per-lane operand.  Only the *divergent* micro-ops need them: while
  lanes are converged the leader core executes every entry once for the
  whole batch, so the only per-lane work is re-applying the memory read
  that split the lanes (a simple load with a lane-local value).  Stores,
  stack ops and flag-setting ops never appear here — loads on this ISA
  write exactly one register and no PSW bits, which is what makes the
  surgical lane fork sound.

- :func:`load_footprint` recovers the byte span a decoded simple load
  read, from the *post-retire* register file: loads never modify their
  base address register, so the effective address is still computable
  after the instruction completed on the leader.
"""

from __future__ import annotations

import importlib.util
from array import array

from repro.isa.decodecache import (
    DecodedInstruction,
    MEM_LD_B,
    MEM_LD_H,
    MEM_LD_W,
    MEM_LDABS_A,
    MEM_LDABS_D,
)
from repro.isa.registers import WORD_MASK

#: numpy is imported on first use by a numpy-backed :class:`LaneRows`,
#: so processes that never batch never pay its import.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

#: Row order: 16 data registers, 16 address registers, then the
#: non-register architectural columns every lane carries.
ROW_NAMES: tuple[str, ...] = (
    tuple(f"d{i}" for i in range(16))
    + tuple(f"a{i}" for i in range(16))
    + ("pc", "psw", "cycles", "retired", "halted")
)


class LaneRows:
    """Architectural state of N lanes as per-register rows.

    Values are stored as signed 64-bit integers (every architectural
    value is an unsigned 32-bit word; cycle/retire counters fit with
    room to spare).  The numpy backend stores each row as an
    ``int64`` vector and answers divergence queries vectorised; the
    fallback uses :mod:`array` rows with the same layout.
    """

    __slots__ = ("lanes", "rows", "backend")

    def __init__(self, lanes: int, backend: str | None = None):
        if lanes <= 0:
            raise ValueError("LaneRows needs at least one lane")
        if backend is None:
            backend = "numpy" if HAVE_NUMPY else "array"
        if backend == "numpy" and not HAVE_NUMPY:
            raise ValueError("numpy backend requested but numpy is missing")
        self.lanes = lanes
        self.backend = backend
        if backend == "numpy":
            import numpy as np

            self.rows = {
                name: np.zeros(lanes, dtype=np.int64)
                for name in ROW_NAMES
            }
        else:
            zero = array("q", bytes(8 * lanes))
            self.rows = {name: array("q", zero) for name in ROW_NAMES}

    # -- scalar-core interchange -------------------------------------------
    def capture(self, lane: int, cpu) -> None:
        """Copy *cpu*'s architectural state into column *lane*."""
        rows = self.rows
        regs = cpu.regs
        data = regs.data
        address = regs.address
        for i in range(16):
            rows[f"d{i}"][lane] = data[i]
            rows[f"a{i}"][lane] = address[i]
        rows["pc"][lane] = regs.pc
        rows["psw"][lane] = regs.psw.value
        rows["cycles"][lane] = cpu.cycles
        rows["retired"][lane] = cpu.instructions_retired
        rows["halted"][lane] = int(cpu.halted)

    def broadcast(self, cpu, lanes: list[int] | None = None) -> None:
        """Copy *cpu*'s state into every listed column (default: all) —
        the converged half of a batch inherits the leader's state in one
        sweep at each sync point."""
        targets = range(self.lanes) if lanes is None else lanes
        for lane in targets:
            self.capture(lane, cpu)

    def restore(self, lane: int, cpu) -> None:
        """Write column *lane* back into a scalar core's register file
        (the fork half of a peel: the clone starts from its row)."""
        rows = self.rows
        regs = cpu.regs
        for i in range(16):
            regs.data[i] = int(rows[f"d{i}"][lane]) & WORD_MASK
            regs.address[i] = int(rows[f"a{i}"][lane]) & WORD_MASK
        regs.pc = int(rows["pc"][lane]) & WORD_MASK
        regs.psw.value = int(rows["psw"][lane]) & WORD_MASK
        cpu.cycles = int(rows["cycles"][lane])
        cpu.instructions_retired = int(rows["retired"][lane])
        cpu.halted = bool(rows["halted"][lane])

    def column(self, lane: int) -> dict[str, int]:
        """One lane's architectural state as a name -> value dict."""
        return {name: int(row[lane]) for name, row in self.rows.items()}

    # -- cross-lane queries -------------------------------------------------
    def diverging_lanes(self, reference: int = 0) -> list[int]:
        """Lanes whose column differs from *reference* in any row."""
        if self.backend == "numpy":
            import numpy as np

            matrix = np.stack([self.rows[name] for name in ROW_NAMES])
            mask = np.any(
                matrix != matrix[:, reference : reference + 1], axis=0
            )
            return [int(i) for i in np.nonzero(mask)[0] if i != reference]
        out = []
        for lane in range(self.lanes):
            if lane == reference:
                continue
            for row in self.rows.values():
                if row[lane] != row[reference]:
                    out.append(lane)
                    break
        return out

    def lane_divergences(self, a: int, b: int) -> list[str]:
        """Row names on which lanes *a* and *b* disagree."""
        return [
            name for name in ROW_NAMES if self.rows[name][a] != self.rows[name][b]
        ]


# --------------------------------------------------------------------------
# batch executors: lane-wise application of divergent simple loads
# --------------------------------------------------------------------------
#
# Signature mirrors the scalar table's ``exec(cpu, entry)`` shifted to
# rows: ``(rows, lane, entry, value)`` applies *entry*'s register effect
# to one lane column with that lane's loaded *value*.  The pc/cycles/
# retired columns are not touched here — the load already retired on the
# leader, and its control/timing effect is lane-uniform (loads are not
# flag- or pc-relative-dependent on the loaded value).

def _bx_load_data(rows: LaneRows, lane: int, entry, value: int) -> None:
    rows.rows[f"d{entry.r1}"][lane] = value & WORD_MASK


def _bx_load_address(rows: LaneRows, lane: int, entry, value: int) -> None:
    rows.rows[f"a{entry.r1}"][lane] = value & WORD_MASK


BATCH_EXECUTORS = {
    MEM_LD_W: _bx_load_data,
    MEM_LD_H: _bx_load_data,
    MEM_LD_B: _bx_load_data,
    MEM_LDABS_D: _bx_load_data,
    MEM_LDABS_A: _bx_load_address,
}

#: Byte width of each batch-executable load.
_LOAD_SIZES = {
    MEM_LD_W: 4,
    MEM_LD_H: 2,
    MEM_LD_B: 1,
    MEM_LDABS_D: 4,
    MEM_LDABS_A: 4,
}


def load_footprint(
    regs, entry: DecodedInstruction
) -> tuple[int, int] | None:
    """(address, size) the simple load *entry* read, recovered from the
    post-retire register file; ``None`` for non-batch-executable kinds.

    Sound after retirement because none of these loads writes its base
    register: ``LD``'s destination is a data register and its base an
    address register (disjoint files), and the absolute forms take their
    address from the instruction word.
    """
    kind = entry.mem_kind
    size = _LOAD_SIZES.get(kind)
    if size is None:
        return None
    if kind in (MEM_LDABS_D, MEM_LDABS_A):
        return entry.mem_disp & WORD_MASK, size
    return (regs.address[entry.r2] + entry.mem_disp) & WORD_MASK, size
