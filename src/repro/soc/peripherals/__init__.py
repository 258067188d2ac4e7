"""SC88 peripheral models.

Each peripheral module exports a behavioural model class, bound to the
layout factory :mod:`repro.soc.layouts` defines for it (and re-exported
here).  The ADVM global-defines generator reads the layouts; the
execution platforms run the models.
"""

from repro.soc.peripherals.base import Peripheral
from repro.soc.peripherals.gpio import DONE_PIN, Gpio, PASS_PIN, make_gpio_layout
from repro.soc.peripherals.intc import (
    InterruptController,
    LINE_GPIO,
    LINE_NVM,
    LINE_TIMER,
    LINE_UART,
    LINE_WDT,
    make_intc_layout,
)
from repro.soc.peripherals.nvm import (
    CMD_ERASE,
    CMD_IDLE,
    CMD_PROG,
    NvmController,
    make_nvm_layout,
)
from repro.soc.peripherals.timer import Timer, make_timer_layout
from repro.soc.peripherals.uart import Uart, make_uart_layout
from repro.soc.peripherals.watchdog import Watchdog, make_wdt_layout

__all__ = [
    "CMD_ERASE",
    "CMD_IDLE",
    "CMD_PROG",
    "DONE_PIN",
    "Gpio",
    "InterruptController",
    "LINE_GPIO",
    "LINE_NVM",
    "LINE_TIMER",
    "LINE_UART",
    "LINE_WDT",
    "NvmController",
    "PASS_PIN",
    "Peripheral",
    "Timer",
    "Uart",
    "Watchdog",
    "make_gpio_layout",
    "make_intc_layout",
    "make_nvm_layout",
    "make_timer_layout",
    "make_uart_layout",
    "make_wdt_layout",
]
