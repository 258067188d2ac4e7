"""repro — reproduction of "An Assembler Driven Verification Methodology
(ADVM)" (MacBeth, Heinz, Gray; DATE 2004).

Layers, bottom-up:

- :mod:`repro.isa` — the SC88 chip-card CPU instruction set;
- :mod:`repro.assembler` — two-pass macro assembler + linker for it;
- :mod:`repro.soc` — the device under test: derivatives, peripherals,
  register maps, embedded-software firmware;
- :mod:`repro.platforms` — the six execution platforms one test image
  runs on (golden model → product silicon);
- :mod:`repro.core` — the ADVM itself: three-layer test environments,
  generated abstraction layers, violation checking, porting metrics,
  release labels, cross-platform regressions, constrained-random
  ``Globals.inc`` generation and functional coverage.

Quickstart::

    from repro.core import make_nvm_environment
    from repro.soc import derivative

    env = make_nvm_environment(num_tests=2)
    result = env.run_test("TEST_NVM_PAGE_001", derivative("sc88a"))
    assert result.passed
"""

import importlib
import sys

__version__ = "1.0.0"

__all__ = ["__version__"]


def lazy_exports(package: str, origins: dict[str, str]):
    """PEP 562 ``(__getattr__, __dir__)`` for a package whose public
    names live in its submodules.  *origins* maps each name to the
    submodule defining it; that submodule is imported on the name's
    first use, so importing the package (or one submodule through it)
    loads nothing else."""

    def __getattr__(name: str):
        submodule = origins.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f"{package}.{submodule}")
        value = getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origins))

    return __getattr__, __dir__
