"""Reference verdicts from the oracle engine, computed at set-up time.

Every cell of a workspace is built with the program's own toolchain and
run on a fresh :class:`ExecutionSession` per target with the JIT and
superblocks switched off — the reference interpreter every faster tier
must match byte for byte.  Engine flags a later version of the program
no longer accepts are dropped, so the reference keeps working after a
flag's fast path is deleted.
"""

from __future__ import annotations

import inspect
from pathlib import Path

ORACLE_FLAGS = {"use_jit": False, "use_superblocks": False}


def module_dirs(system_dir: Path) -> list[Path]:
    return [
        path
        for path in sorted(Path(system_dir).iterdir())
        if path.is_dir() and path.name != "Global_Libraries"
    ]


def reference_verdicts(system_dir: Path, derivative_name: str) -> dict:
    """``(module, cell, target) -> (status, signature, instructions,
    cycles)`` for every matrix entry of the workspace at *system_dir*."""
    from repro.core.targets import all_targets
    from repro.core.workspace import load_module_environment
    from repro.platforms.session import ExecutionSession
    from repro.soc.derivatives import derivative

    accepted = inspect.signature(ExecutionSession).parameters
    flags = {k: v for k, v in ORACLE_FLAGS.items() if k in accepted}
    deriv = derivative(derivative_name)
    envs = [load_module_environment(path) for path in module_dirs(system_dir)]
    verdicts = {}
    for tgt in all_targets():
        session = ExecutionSession(tgt.make_platform(), deriv, **flags)
        for env in envs:
            for cell in env.cells:
                image = env.build_image(cell, deriv, tgt).image
                result = session.run(image)
                verdicts[(env.name, cell, tgt.name)] = (
                    result.status.value,
                    result.signature,
                    result.instructions,
                    result.cycles,
                )
    return verdicts
