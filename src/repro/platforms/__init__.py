"""Execution platforms for SC88 test images.

Six platforms mirror the paper's Section 1 list; all execute the same
:class:`~repro.platforms.cpu.CpuCore` semantics and differ in timing,
visibility and fidelity.  :func:`all_platforms` builds the healthy
default fleet; the gate-level platform additionally accepts a
:class:`~repro.platforms.gatelevel.NetlistFault` for divergence
experiments.
"""

from repro.platforms.accelerator import Accelerator
from repro.platforms.base import (
    DEFAULT_MAX_INSTRUCTIONS,
    Platform,
    RunResult,
    RunStatus,
)
from repro.platforms.bondout import Bondout
from repro.platforms.cpu import CpuCore, CpuFault, InstructionTrace, TraceEntry
from repro.platforms.gatelevel import GateLevelSim, NetlistFault
from repro.platforms.golden import GoldenModel
from repro.platforms.rtl import RtlSim
from repro.platforms.session import ExecutionSession
from repro.platforms.silicon import ProductSilicon

PLATFORM_CLASSES: dict[str, type[Platform]] = {
    cls.name: cls
    for cls in (
        GoldenModel,
        RtlSim,
        GateLevelSim,
        Accelerator,
        Bondout,
        ProductSilicon,
    )
}


def make_platform(name: str, **kwargs) -> Platform:
    """Instantiate a platform by its registry name."""
    try:
        cls = PLATFORM_CLASSES[name]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; available: {sorted(PLATFORM_CLASSES)}"
        ) from None
    return cls(**kwargs)


def all_platforms() -> list[Platform]:
    """One healthy instance of every platform, golden first."""
    return [cls() for cls in PLATFORM_CLASSES.values()]


__all__ = [
    "Accelerator",
    "Bondout",
    "CpuCore",
    "CpuFault",
    "DEFAULT_MAX_INSTRUCTIONS",
    "ExecutionSession",
    "GateLevelSim",
    "GoldenModel",
    "InstructionTrace",
    "NetlistFault",
    "PLATFORM_CLASSES",
    "Platform",
    "ProductSilicon",
    "RtlSim",
    "RunResult",
    "RunStatus",
    "TraceEntry",
    "all_platforms",
    "make_platform",
]
