"""The verdict of one test image on one platform.

:class:`RunResult` carries only what the platform can legitimately
observe — the regression layer treats missing observability as "no
data", exactly as a real lab bring-up would.  The platforms
(:mod:`repro.platforms`) produce verdicts; the regression layer
(:mod:`repro.core`) caches, compares and reports them.  This module
sits below both and imports nothing, so a regression served from the
result cache never loads an engine.
"""

from __future__ import annotations

import enum

DEFAULT_MAX_INSTRUCTIONS = 1_000_000


class RunStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    TIMEOUT = "timeout"
    FAULT = "fault"
    WATCHDOG = "watchdog-reset"
    NO_DATA = "no-data"  # platform cannot observe a verdict source


class RunResult:
    """Outcome of one test image on one platform.

    ``signature`` is the d0 signature and ``registers`` a register
    snapshot, where register visibility (or a debug port) exists;
    ``result_word`` is the RAM result word, where memory visibility
    exists.  ``trace`` is the retired-instruction log where trace
    visibility exists: the live
    :class:`~repro.platforms.cpu.InstructionTrace` from a run, or one
    over the cached rows when rehydrated from the result cache.

    ``payload_text`` is this verdict's result-cache JSON text, when the
    cache has already stored or verified (read back) it, so the
    matrix digest hashes that text instead of encoding the verdict
    again.  It is not part of the verdict: no constructor argument, no
    comparison, and a copy (``copy.copy``, made to be changed) drops it.
    """

    __slots__ = (
        "platform", "derivative", "status", "instructions", "cycles",
        "signature", "result_word", "uart_output", "done_pin", "pass_pin",
        "fault_reason", "trace", "registers", "payload_text",
    )

    def __init__(
        self,
        platform: str,
        derivative: str,
        status: RunStatus,
        instructions: int = 0,
        cycles: int = 0,
        signature: int | None = None,
        result_word: int | None = None,
        uart_output: str | None = None,
        done_pin: int | None = None,
        pass_pin: int | None = None,
        fault_reason: str | None = None,
        trace=None,
        registers: dict[str, int] | None = None,
    ):
        self.platform = platform
        self.derivative = derivative
        self.status = status
        self.instructions = instructions
        self.cycles = cycles
        self.signature = signature
        self.result_word = result_word
        self.uart_output = uart_output
        self.done_pin = done_pin
        self.pass_pin = pass_pin
        self.fault_reason = fault_reason
        self.trace = trace
        self.registers = registers
        self.payload_text: str | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in VERDICT_FIELDS
        )

    def __copy__(self) -> RunResult:
        return RunResult(*(getattr(self, name) for name in VERDICT_FIELDS))

    @property
    def passed(self) -> bool:
        return self.status is RunStatus.PASS

    def verdict_key(self) -> tuple:
        """The cross-platform comparison key used by divergence checks:
        only fields every platform can report."""
        return (self.status.value,)


#: Every constructor field of :class:`RunResult`, in order.
VERDICT_FIELDS = RunResult.__slots__[:-1]
