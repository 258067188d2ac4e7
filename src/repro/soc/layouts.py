"""Register layouts of the SC88 peripherals: the *version-controlled*
interface each block presents (register names, offsets and bit fields),
parameterised by the derivative-specific facts — field positions,
register names, counter widths.

The ADVM global-defines generator reads these layouts; the behavioural
models in :mod:`repro.soc.peripherals` bind them.  Keeping them apart
lets ``Globals.inc`` be rendered (and a regression be served from the
result cache) without loading any peripheral model or the bus.
"""

from __future__ import annotations

from repro.soc.registers import Access, Field, PeripheralLayout, RegisterDef


# -- intc ---------------------------------------------------------------

#: Interrupt line assignment (fixed across derivatives).
LINE_UART = 0
LINE_TIMER = 1
LINE_NVM = 2
LINE_GPIO = 3
LINE_WDT = 4
NUM_LINES = 8


def make_intc_layout(
    enable_name: str = "INT_EN",
    pending_name: str = "INT_PEND",
    vector_name: str = "INT_VECT",
) -> PeripheralLayout:
    return PeripheralLayout(
        name="INTC",
        doc="level-sensitive interrupt controller",
        registers=(
            RegisterDef(
                enable_name,
                0x00,
                fields=(Field("LINES", 0, NUM_LINES),),
            ),
            RegisterDef(
                pending_name,
                0x04,
                access=Access.W1C,
                fields=(Field("LINES", 0, NUM_LINES, Access.W1C),),
            ),
            RegisterDef(
                vector_name,
                0x08,
                access=Access.RO,
                fields=(
                    Field("LINE", 0, 4, Access.RO, "lowest pending line"),
                    Field("VALID", 31, 1, Access.RO),
                ),
            ),
        ),
    )


# -- gpio ---------------------------------------------------------------

DONE_PIN = 0
PASS_PIN = 1
NUM_PINS = 16


def make_gpio_layout(
    out_name: str = "GPIO_OUT",
    in_name: str = "GPIO_IN",
    dir_name: str = "GPIO_DIR",
) -> PeripheralLayout:
    return PeripheralLayout(
        name="GPIO",
        doc="general-purpose I/O; pins 0/1 report test done/pass",
        registers=(
            RegisterDef(
                out_name, 0x00, fields=(Field("PINS", 0, NUM_PINS),)
            ),
            RegisterDef(
                in_name,
                0x04,
                access=Access.RO,
                fields=(Field("PINS", 0, NUM_PINS, Access.RO),),
            ),
            RegisterDef(
                dir_name,
                0x08,
                fields=(Field("PINS", 0, NUM_PINS),),
                doc="1 = output",
            ),
        ),
    )


# -- nvm ----------------------------------------------------------------

CMD_IDLE = 0
CMD_PROG = 1
CMD_ERASE = 2


def make_nvm_layout(
    page_pos: int = 0,
    page_width: int = 5,
    ctrl_name: str = "NVM_CTRL",
    stat_name: str = "NVM_STAT",
    addr_name: str = "NVM_ADDR",
    data_name: str = "NVM_DATA",
) -> PeripheralLayout:
    """NVM controller block with a derivative-specific PAGE field."""
    cmd_pos = max(page_pos + page_width, 16)
    return PeripheralLayout(
        name="NVM",
        doc="page-programmable non-volatile memory controller",
        registers=(
            RegisterDef(
                ctrl_name,
                0x00,
                fields=(
                    Field("PAGE", page_pos, page_width, doc="target page"),
                    Field("CMD", cmd_pos, 2, doc="0=idle 1=prog 2=erase"),
                    Field("START", 31, 1, doc="pulse to start operation"),
                ),
            ),
            RegisterDef(
                stat_name,
                0x04,
                access=Access.RO,
                fields=(
                    Field("BUSY", 0, 1, Access.RO, "operation in progress"),
                    Field("DONE", 1, 1, Access.RO, "operation finished"),
                    Field("ERR", 2, 1, Access.RO, "bad page or command"),
                ),
            ),
            RegisterDef(addr_name, 0x08, doc="byte offset into page buffer"),
            RegisterDef(
                data_name,
                0x0C,
                doc="write: store word at NVM_ADDR, auto-increment by 4",
            ),
        ),
    )


# -- timer --------------------------------------------------------------

def make_timer_layout(
    counter_width: int = 24,
    ctrl_name: str = "TIM_CTRL",
    count_name: str = "TIM_CNT",
    reload_name: str = "TIM_RELOAD",
    stat_name: str = "TIM_STAT",
) -> PeripheralLayout:
    return PeripheralLayout(
        name="TIMER",
        doc=f"{counter_width}-bit down counter",
        registers=(
            RegisterDef(
                ctrl_name,
                0x00,
                fields=(
                    Field("EN", 0, 1, doc="count enable"),
                    Field("IE", 1, 1, doc="underflow interrupt enable"),
                    Field("ONESHOT", 2, 1, doc="stop after first underflow"),
                ),
            ),
            RegisterDef(
                count_name,
                0x04,
                access=Access.RO,
                fields=(Field("COUNT", 0, counter_width, Access.RO),),
            ),
            RegisterDef(
                reload_name,
                0x08,
                fields=(Field("RELOAD", 0, counter_width),),
            ),
            RegisterDef(
                stat_name,
                0x0C,
                access=Access.W1C,
                fields=(Field("OVF", 0, 1, Access.W1C, "underflow seen"),),
            ),
        ),
    )


# -- uart ---------------------------------------------------------------

def make_uart_layout(
    ctrl_name: str = "UART_CTRL",
    stat_name: str = "UART_STAT",
    data_name: str = "UART_DATA",
    baud_name: str = "UART_BAUD",
) -> PeripheralLayout:
    """UART register block; register *names* are derivative-controlled."""
    return PeripheralLayout(
        name="UART",
        doc="asynchronous serial port with loopback test mode",
        registers=(
            RegisterDef(
                ctrl_name,
                0x00,
                fields=(
                    Field("EN", 0, 1, doc="block enable"),
                    Field("LOOP", 1, 1, doc="loopback tx -> rx"),
                    Field("TXEN", 2, 1, doc="transmitter enable"),
                    Field("RXEN", 3, 1, doc="receiver enable"),
                    Field("RXIE", 4, 1, doc="receive interrupt enable"),
                ),
            ),
            RegisterDef(
                stat_name,
                0x04,
                access=Access.RO,
                fields=(
                    Field("TXRDY", 0, 1, Access.RO, "transmitter idle"),
                    Field("RXAVL", 1, 1, Access.RO, "receive data available"),
                    Field("OVR", 2, 1, Access.RO, "receive overrun occurred"),
                ),
            ),
            RegisterDef(data_name, 0x08, doc="tx on write, rx on read"),
            RegisterDef(baud_name, 0x0C, reset=0x0010, doc="baud divisor"),
        ),
    )


# -- watchdog -----------------------------------------------------------

def make_wdt_layout(
    ctrl_name: str = "WDT_CTRL",
    service_name: str = "WDT_SERVICE",
    count_name: str = "WDT_CNT",
) -> PeripheralLayout:
    return PeripheralLayout(
        name="WDT",
        doc="windowless watchdog; write the service key to reload",
        registers=(
            RegisterDef(
                ctrl_name,
                0x00,
                fields=(
                    Field("EN", 0, 1, doc="enable (sticky until reset)"),
                    Field("TIMEOUT", 8, 20, doc="reload value in cycles"),
                ),
            ),
            RegisterDef(
                service_name,
                0x04,
                access=Access.WO,
                fields=(Field("KEY", 0, 8, Access.WO),),
            ),
            RegisterDef(
                count_name,
                0x08,
                access=Access.RO,
                fields=(Field("COUNT", 0, 32, Access.RO),),
            ),
        ),
    )
