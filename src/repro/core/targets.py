"""Simulation/emulation targets as the abstraction layer sees them.

A *target* is the ADVM-side name for an execution platform.  The global
defines file adapts the test environment per target (the paper: "the
control of the test environment can be changed depending on the target
simulation platform using the same technique") — e.g. polling limits are
shorter on slow cycle-accurate simulators.

Each target carries the assembler predefine that selects its conditional
blocks and the name of the platform class that executes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from repro.platforms import Platform


class Target(NamedTuple):
    """One simulation/emulation target."""

    name: str
    platform_name: str
    #: Relative patience: polling/delay budgets are scaled by this in the
    #: generated defines (slow simulators get small budgets).
    poll_limit: int
    delay_loops: int

    @property
    def predefine(self) -> str:
        return f"TARGET_{self.name.upper()}"

    def make_platform(self, **kwargs) -> Platform:
        # The engine loads with the first platform built, so a
        # regression served from the result cache never loads it.
        from repro.platforms import make_platform

        return make_platform(self.platform_name, **kwargs)


TARGET_GOLDEN = Target("golden", "golden", poll_limit=50_000, delay_loops=256)
TARGET_RTL = Target("rtl", "rtl", poll_limit=5_000, delay_loops=32)
TARGET_GATELEVEL = Target(
    "gatelevel", "gatelevel", poll_limit=2_000, delay_loops=16
)
TARGET_ACCELERATOR = Target(
    "accelerator", "accelerator", poll_limit=50_000, delay_loops=256
)
TARGET_BONDOUT = Target(
    "bondout", "bondout", poll_limit=100_000, delay_loops=1024
)
TARGET_SILICON = Target(
    "silicon", "silicon", poll_limit=100_000, delay_loops=1024
)

ALL_TARGETS: dict[str, Target] = {
    t.name: t
    for t in (
        TARGET_GOLDEN,
        TARGET_RTL,
        TARGET_GATELEVEL,
        TARGET_ACCELERATOR,
        TARGET_BONDOUT,
        TARGET_SILICON,
    )
}


def target(name: str) -> Target:
    try:
        return ALL_TARGETS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown target {name!r}; available: {sorted(ALL_TARGETS)}"
        ) from None


def all_targets() -> list[Target]:
    return list(ALL_TARGETS.values())
