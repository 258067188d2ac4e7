"""The ``Globals.inc`` generator — the heart of the abstraction layer.

The paper's rule: *anywhere in the test code that would have previously
used a hardwired value will now be referenced in this global defines
file*, and the file *contains derivative specific information which can
be controlled using a macro*.  This module generates exactly that file:

- one **canonical define name** per fact (register address, field
  position, field size, magic value, ...) that tests and base functions
  use forever;
- a ``.IFDEF DERIVATIVE_*`` block per derivative carrying that
  derivative's values — including **re-mapped names** where the global
  layer renamed a register (sc88c's ``NVM_CONTROL`` still surfaces as
  ``NVM_CTRL_ADDR``);
- a ``.IFDEF TARGET_*`` block per simulation target (poll budgets etc.);
- module-specific extra defines (the paper's ``TEST1_TARGET_PAGE``) with
  optional per-derivative overrides;
- an ``.ERROR`` guard that fires when a build selects no known
  derivative, so misconfigured regressions die loudly instead of
  silently assembling garbage.

Selection happens purely through assembler predefines
(``DERIVATIVE_SC88B`` / ``TARGET_RTL``), which is the mechanism the paper
describes for adapting "automatically depending on the derivative".
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.targets import Target, all_targets
from repro.soc.derivatives import Derivative, all_derivatives
from repro.soc.layouts import (
    CMD_ERASE,
    CMD_PROG,
    LINE_NVM,
    LINE_TIMER,
    LINE_UART,
    LINE_WDT,
)
from repro.soc.memorymap import FAIL_MAGIC, NVM_PAGE_BYTES, PASS_MAGIC

#: Scratch-register convention: base functions may clobber these freely.
SCRATCH_DATA_REGS = ("d11", "d13")
SCRATCH_ADDR_REG = "a11"
#: The paper's indirect-call register alias (Figure 7).
CALL_ADDR_REGISTER = "A12"

GUARD_DEFINE = "ADVM_GLOBALS_INCLUDED"


class DefineEntry(NamedTuple):
    """One generated define with provenance, for audits and diffing."""

    name: str
    value: int
    comment: str = ""

    def render(self) -> str:
        line = f"{self.name} .EQU {self.value:#x}"
        if self.comment:
            line += f"    ;; {self.comment}"
        return line


def derivative_entries(derivative: Derivative) -> list[DefineEntry]:
    """Canonical defines for one derivative (the per-``.IFDEF`` block)."""
    register_map = derivative.register_map()
    memory_map = derivative.memory_map()
    nvm_instance = register_map.instance("NVM")
    ctrl_name = derivative.nvm_ctrl_name
    ctrl = nvm_instance.layout.register_named(ctrl_name)
    page = ctrl.field_named("PAGE")
    cmd = ctrl.field_named("CMD")
    start = ctrl.field_named("START")
    stat = nvm_instance.layout.register_named("NVM_STAT")
    timer_count = register_map.register_def("TIMER.TIM_CNT").field_named(
        "COUNT"
    )
    uart_stat = register_map.register_def("UART.UART_STAT")
    uart_ctrl = register_map.register_def("UART.UART_CTRL")

    def addr(name: str) -> int:
        return register_map.register_address(name)

    uart_loop_value = 0
    for flag in ("EN", "TXEN", "RXEN", "LOOP"):
        uart_loop_value = uart_ctrl.field_named(flag).insert(
            uart_loop_value, 1
        )
    uart_plain_value = 0
    for flag in ("EN", "TXEN", "RXEN"):
        uart_plain_value = uart_ctrl.field_named(flag).insert(
            uart_plain_value, 1
        )

    entries = [
        # --- NVM controller (the Figure 6 registers) ---------------------
        DefineEntry(
            "NVM_CTRL_ADDR",
            nvm_instance.register_address(ctrl_name),
            f"re-mapped from global-layer register {ctrl_name!r}",
        ),
        DefineEntry("NVM_STAT_ADDR", nvm_instance.register_address("NVM_STAT")),
        DefineEntry("NVM_ADDRREG_ADDR", nvm_instance.register_address("NVM_ADDR")),
        DefineEntry("NVM_DATA_ADDR", nvm_instance.register_address("NVM_DATA")),
        DefineEntry(
            "PAGE_FIELD_START_POSITION", page.pos, "Figure 6 define"
        ),
        DefineEntry("PAGE_FIELD_SIZE", page.width, "Figure 6 define"),
        DefineEntry("NVM_CMD_FIELD_POS", cmd.pos),
        DefineEntry("NVM_CMD_FIELD_SIZE", cmd.width),
        DefineEntry("NVM_START_BIT_POS", start.pos),
        DefineEntry("NVM_STAT_BUSY_BIT", stat.field_named("BUSY").pos),
        DefineEntry("NVM_STAT_DONE_BIT", stat.field_named("DONE").pos),
        DefineEntry("NVM_STAT_ERR_BIT", stat.field_named("ERR").pos),
        DefineEntry("NVM_PAGE_COUNT", derivative.nvm_pages),
        DefineEntry("NVM_ARRAY_BASE", memory_map.nvm.base),
        # --- UART -----------------------------------------------------------
        DefineEntry("UART_CTRL_ADDR", addr("UART.UART_CTRL")),
        DefineEntry("UART_STAT_ADDR", addr("UART.UART_STAT")),
        DefineEntry("UART_DATA_ADDR", addr("UART.UART_DATA")),
        DefineEntry("UART_BAUD_ADDR", addr("UART.UART_BAUD")),
        DefineEntry(
            "UART_STAT_TXRDY_BIT", uart_stat.field_named("TXRDY").pos
        ),
        DefineEntry(
            "UART_STAT_RXAVL_BIT", uart_stat.field_named("RXAVL").pos
        ),
        DefineEntry("UART_STAT_OVR_BIT", uart_stat.field_named("OVR").pos),
        DefineEntry(
            "UART_CTRL_LOOPBACK_VALUE",
            uart_loop_value,
            "EN|TXEN|RXEN|LOOP",
        ),
        DefineEntry(
            "UART_CTRL_PLAIN_VALUE", uart_plain_value, "EN|TXEN|RXEN"
        ),
        # --- timer ------------------------------------------------------------
        DefineEntry("TIM_CTRL_ADDR", addr("TIMER.TIM_CTRL")),
        DefineEntry("TIM_CNT_ADDR", addr("TIMER.TIM_CNT")),
        DefineEntry("TIM_RELOAD_ADDR", addr("TIMER.TIM_RELOAD")),
        DefineEntry("TIM_STAT_ADDR", addr("TIMER.TIM_STAT")),
        DefineEntry("TIMER_COUNTER_WIDTH", timer_count.width),
        DefineEntry("TIMER_MAX_COUNT", timer_count.max_value),
        DefineEntry("TIMER_CTRL_EN_VALUE", 0x1, "EN"),
        DefineEntry("TIMER_CTRL_ONESHOT_VALUE", 0x5, "EN|ONESHOT"),
        DefineEntry("TIMER_CTRL_IRQ_VALUE", 0x3, "EN|IE"),
        # --- interrupt controller ---------------------------------------------
        DefineEntry("INT_EN_ADDR", addr("INTC.INT_EN")),
        DefineEntry("INT_PEND_ADDR", addr("INTC.INT_PEND")),
        DefineEntry("INT_VECT_ADDR", addr("INTC.INT_VECT")),
        # --- GPIO ----------------------------------------------------------------
        DefineEntry("GPIO_OUT_ADDR", addr("GPIO.GPIO_OUT")),
        DefineEntry("GPIO_IN_ADDR", addr("GPIO.GPIO_IN")),
        DefineEntry("GPIO_DIR_ADDR", addr("GPIO.GPIO_DIR")),
        # --- watchdog ---------------------------------------------------------------
        DefineEntry("WDT_CTRL_ADDR", addr("WDT.WDT_CTRL")),
        DefineEntry("WDT_SERVICE_ADDR", addr("WDT.WDT_SERVICE")),
        DefineEntry("WDT_CNT_ADDR", addr("WDT.WDT_CNT")),
        DefineEntry(
            "WDT_SERVICE_KEY",
            derivative.wdt_service_key,
            "derivative-specific service key",
        ),
        # --- embedded software --------------------------------------------------------
        DefineEntry("ES_VERSION", derivative.es_version),
    ]
    return entries


def common_entries(derivative_sample: Derivative) -> list[DefineEntry]:
    """Defines shared by every derivative (architecture constants)."""
    memory_map = derivative_sample.memory_map()
    return [
        DefineEntry("PASS_MAGIC", PASS_MAGIC, "test passed signature"),
        DefineEntry("FAIL_MAGIC", FAIL_MAGIC, "test failed signature"),
        DefineEntry("RESULT_ADDR", memory_map.result_address),
        DefineEntry(
            "IRQ_COUNT_ADDR",
            memory_map.result_address + 4,
            "incremented by the global IRQ handlers",
        ),
        DefineEntry(
            "TRAP_ID_ADDR",
            memory_map.result_address + 8,
            "last trap number taken",
        ),
        DefineEntry(
            "SCRATCH_ADDR", memory_map.result_address + 16, "test scratch"
        ),
        DefineEntry("NVM_PAGE_BYTES", NVM_PAGE_BYTES),
        DefineEntry("NVM_CMD_PROG", CMD_PROG),
        DefineEntry("NVM_CMD_ERASE", CMD_ERASE),
        DefineEntry("GPIO_DONE_MASK", 0x1, "test-done pin"),
        DefineEntry("GPIO_PASS_MASK", 0x2, "test-pass pin"),
        DefineEntry("GPIO_REPORT_MASK", 0x3, "done|pass direction bits"),
        DefineEntry("IRQ_LINE_UART_MASK", 1 << LINE_UART),
        DefineEntry("IRQ_LINE_TIMER_MASK", 1 << LINE_TIMER),
        DefineEntry("IRQ_LINE_NVM_MASK", 1 << LINE_NVM),
        DefineEntry("IRQ_LINE_WDT_MASK", 1 << LINE_WDT),
    ]


def target_entries(target: Target) -> list[DefineEntry]:
    return [
        DefineEntry(
            "POLL_LIMIT", target.poll_limit, "status-poll budget per target"
        ),
        DefineEntry(
            "DELAY_LOOPS",
            target.delay_loops,
            "calibrated pure-spin iterations between status polls",
        ),
    ]


class GlobalDefines:
    """Generator/model of one module environment's ``Globals.inc``.

    ``extras`` are the module-specific defines (Figure 6's
    ``TESTn_TARGET_PAGE``); ``derivative_extras`` lets a value differ per
    derivative, which is "derivative specific information (allowed only
    in the abstraction layer)".
    """

    __slots__ = (
        "module_name", "derivatives", "targets", "extras",
        "derivative_extras",
    )

    def __init__(
        self,
        module_name: str = "MODULE",
        derivatives: list[Derivative] | None = None,
        targets: list[Target] | None = None,
        extras: dict[str, int] | None = None,
        derivative_extras: dict[str, dict[str, int]] | None = None,
    ):
        self.module_name = module_name
        self.derivatives = (
            all_derivatives() if derivatives is None else derivatives
        )
        self.targets = all_targets() if targets is None else targets
        self.extras = {} if extras is None else extras
        self.derivative_extras = (
            {} if derivative_extras is None else derivative_extras
        )

    def set_extra(self, name: str, value: int) -> None:
        self.extras[name] = value

    def set_derivative_extra(
        self, derivative_name: str, name: str, value: int
    ) -> None:
        self.derivative_extras.setdefault(derivative_name, {})[name] = value

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        lines: list[str] = [
            f";; Globals.inc -- abstraction layer defines for "
            f"{self.module_name}",
            ";; Generated by the ADVM tooling. Tests must reference these",
            ";; names and never hardwire the values (see Figure 2).",
            f".IFNDEF {GUARD_DEFINE}",
            f".DEFINE {GUARD_DEFINE}",
            "",
            f";; indirect-call register alias (Figure 7)",
            f".DEFINE CallAddr {CALL_ADDR_REGISTER}",
            "",
            ";; ---- architecture constants (all derivatives) ----",
        ]
        for entry in common_entries(self.derivatives[0]):
            lines.append(entry.render())
        lines.append("")
        lines.append(";; ---- derivative-specific blocks ----")
        for derivative in self.derivatives:
            lines.append(f".IFDEF {derivative.predefine}")
            lines.append(f";; {derivative.title}: {derivative.description}")
            for entry in derivative_entries(derivative):
                lines.append(entry.render())
            for name, value in sorted(
                self.derivative_extras.get(derivative.name, {}).items()
            ):
                lines.append(
                    DefineEntry(name, value, "module derivative extra").render()
                )
            lines.append(".ENDIF")
        lines.append("")
        lines.append(";; ---- simulation-target blocks ----")
        for tgt in self.targets:
            lines.append(f".IFDEF {tgt.predefine}")
            for entry in target_entries(tgt):
                lines.append(entry.render())
            lines.append(".ENDIF")
        lines.append("")
        if self.extras:
            lines.append(";; ---- module-specific defines ----")
            lines.append(";; (derivative blocks above may pre-empt these)")
            for name, value in sorted(self.extras.items()):
                # A derivative block may have overridden the value; the
                # common definition only applies when nothing did.
                lines.append(f".IFNDEF {name}")
                lines.append(DefineEntry(name, value).render())
                lines.append(".ENDIF")
            lines.append("")
        lines.append(";; guard: a build must select a known derivative")
        lines.append(".IFNDEF NVM_CTRL_ADDR")
        lines.append(
            '.ERROR "no DERIVATIVE_* predefine selected a Globals.inc block"'
        )
        lines.append(".ENDIF")
        lines.append(".ENDIF  ;; include guard")
        return "\n".join(lines) + "\n"

    # -- model queries (used by porting metrics and CRG) -------------------
    def resolved_for(
        self, derivative: Derivative, tgt: Target
    ) -> dict[str, int]:
        """The define table a build with this derivative/target sees."""
        table: dict[str, int] = {}
        for entry in common_entries(derivative):
            table[entry.name] = entry.value
        for entry in derivative_entries(derivative):
            table[entry.name] = entry.value
        for entry in target_entries(tgt):
            table[entry.name] = entry.value
        table.update(self.extras)
        table.update(self.derivative_extras.get(derivative.name, {}))
        return table
