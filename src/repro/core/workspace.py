"""On-disk workspaces — Figures 3 and 5 as real directory trees.

The paper prescribes an exact directory convention; this module writes
it, validates it, loads it back, and — critically — **builds from it**:
the :class:`DiskBuilder` assembles a test cell straight off the tree
using include search paths in place of the per-cell symlinks the paper
mentions, proving the layout is a working build system and not just
documentation.

Module tree (Figure 3)::

    MODULE_NAME/
      Abstraction_Layer/
        Globals.inc
        Base_Functions.asm
      TESTPLAN.TXT
      TEST_ID_NAME/
        test.asm

System tree (Figure 5)::

    ADVM_System_Verification_Environment/
      Global_Libraries/
        Trap_Handlers.asm
        Global_Test_Functions.asm
      <MODULE_NAME>/...      (one Figure 3 tree per module environment)
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from repro import assembler as toolchain
from repro.assembler.linker import Linker, MemoryImage
from repro.assembler.preprocessor import FilesystemProvider
from repro.core.environment import (
    BASE_FUNCTIONS_FILENAME,
    GLOBALS_FILENAME,
    GLOBAL_FUNCTIONS_FILENAME,
    TRAP_HANDLERS_FILENAME,
    GlobalLayer,
    ModuleTestEnvironment,
    TestCell,
)
from repro.core.targets import Target
from repro.core.testplan import TestPlan
from repro.soc.derivatives import Derivative
from repro.soc.embedded import assemble_embedded_software

if TYPE_CHECKING:
    from repro.core.system_env import SystemEnvironment

ABSTRACTION_DIR = "Abstraction_Layer"
TESTPLAN_FILE = "TESTPLAN.TXT"
TEST_SOURCE_FILE = "test.asm"
GLOBAL_LIBRARIES_DIR = "Global_Libraries"
SYSTEM_DIR_NAME = "ADVM_System_Verification_Environment"


# --------------------------------------------------------------------------
# writing
# --------------------------------------------------------------------------

def write_module_environment(
    env: ModuleTestEnvironment, root: Path | str
) -> Path:
    """Materialise one module environment as a Figure 3 tree."""
    root = Path(root)
    module_dir = root / env.name
    abstraction_dir = module_dir / ABSTRACTION_DIR
    abstraction_dir.mkdir(parents=True, exist_ok=True)
    (abstraction_dir / GLOBALS_FILENAME).write_text(env.globals_text())
    (abstraction_dir / BASE_FUNCTIONS_FILENAME).write_text(
        env.base_functions_text()
    )
    (module_dir / TESTPLAN_FILE).write_text(env.testplan.to_text())
    for cell in env.cells.values():
        cell_dir = module_dir / cell.name
        cell_dir.mkdir(exist_ok=True)
        (cell_dir / TEST_SOURCE_FILE).write_text(cell.source)
    return module_dir


def write_system_environment(
    system: SystemEnvironment, root: Path | str
) -> Path:
    """Materialise the full Figure 5 tree."""
    root = Path(root)
    system_dir = root / SYSTEM_DIR_NAME
    libraries_dir = system_dir / GLOBAL_LIBRARIES_DIR
    libraries_dir.mkdir(parents=True, exist_ok=True)
    for filename, text in system.global_layer.library_files().items():
        (libraries_dir / filename).write_text(text)
    for env in system.environments.values():
        write_module_environment(env, system_dir)
    return system_dir


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

class StructureIssue(NamedTuple):
    path: str
    problem: str

    def __str__(self) -> str:
        return f"{self.path}: {self.problem}"


def validate_module_tree(module_dir: Path | str) -> list[StructureIssue]:
    """Check one Figure 3 tree for structural conformance."""
    module_dir = Path(module_dir)
    issues: list[StructureIssue] = []
    if not module_dir.is_dir():
        return [StructureIssue(str(module_dir), "not a directory")]
    if module_dir.name.lower().startswith("sc88"):
        issues.append(
            StructureIssue(
                str(module_dir),
                "derivative-specific environment names are not permitted",
            )
        )
    abstraction = module_dir / ABSTRACTION_DIR
    if not abstraction.is_dir():
        issues.append(
            StructureIssue(str(abstraction), "missing Abstraction_Layer/")
        )
    else:
        for required in (GLOBALS_FILENAME, BASE_FUNCTIONS_FILENAME):
            if not (abstraction / required).is_file():
                issues.append(
                    StructureIssue(
                        str(abstraction / required), "missing file"
                    )
                )
    testplan_path = module_dir / TESTPLAN_FILE
    if not testplan_path.is_file():
        issues.append(
            StructureIssue(str(testplan_path), "missing TESTPLAN.TXT")
        )
    test_dirs = [
        entry
        for entry in module_dir.iterdir()
        if entry.is_dir() and entry.name != ABSTRACTION_DIR
    ]
    if not test_dirs:
        issues.append(
            StructureIssue(str(module_dir), "no test cell directories")
        )
    for cell_dir in test_dirs:
        if not (cell_dir / TEST_SOURCE_FILE).is_file():
            issues.append(
                StructureIssue(
                    str(cell_dir / TEST_SOURCE_FILE), "missing test source"
                )
            )
    return issues


def validate_system_tree(system_dir: Path | str) -> list[StructureIssue]:
    system_dir = Path(system_dir)
    issues: list[StructureIssue] = []
    if not system_dir.is_dir():
        return [StructureIssue(str(system_dir), "not a directory")]
    libraries = system_dir / GLOBAL_LIBRARIES_DIR
    if not libraries.is_dir():
        issues.append(
            StructureIssue(str(libraries), "missing Global_Libraries/")
        )
    else:
        for required in (TRAP_HANDLERS_FILENAME, GLOBAL_FUNCTIONS_FILENAME):
            if not (libraries / required).is_file():
                issues.append(
                    StructureIssue(str(libraries / required), "missing file")
                )
    module_dirs = [
        entry
        for entry in system_dir.iterdir()
        if entry.is_dir() and entry.name != GLOBAL_LIBRARIES_DIR
    ]
    if not module_dirs:
        issues.append(
            StructureIssue(str(system_dir), "no module environments")
        )
    for module_dir in module_dirs:
        issues.extend(validate_module_tree(module_dir))
    return issues


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------

def load_module_environment(
    module_dir: Path | str,
    derivatives: list[Derivative] | None = None,
    targets: list[Target] | None = None,
    global_layer: GlobalLayer | None = None,
) -> ModuleTestEnvironment:
    """Reconstruct a module environment from a Figure 3 tree.

    The loaded environment serves the **on-disk** abstraction-layer text
    (like a release snapshot), not regenerated text — the tree is the
    source of truth.  Pass one *global_layer* to every module of a
    system so they share its assembled objects (Figure 4).
    """
    module_dir = Path(module_dir)
    issues = validate_module_tree(module_dir)
    if issues:
        raise ValueError(
            "invalid module tree:\n" + "\n".join(str(i) for i in issues)
        )
    env = ModuleTestEnvironment(
        module_dir.name,
        derivatives=derivatives,
        targets=targets,
        global_layer=global_layer,
    )
    globals_text = (
        module_dir / ABSTRACTION_DIR / GLOBALS_FILENAME
    ).read_text()
    base_functions_text = (
        module_dir / ABSTRACTION_DIR / BASE_FUNCTIONS_FILENAME
    ).read_text()
    env.globals_text = lambda: globals_text  # type: ignore[method-assign]
    env.base_functions_text = (  # type: ignore[method-assign]
        lambda: base_functions_text
    )
    env.testplan = TestPlan.from_text(
        (module_dir / TESTPLAN_FILE).read_text(), module=module_dir.name
    )
    for cell_dir in sorted(module_dir.iterdir()):
        if not cell_dir.is_dir() or cell_dir.name == ABSTRACTION_DIR:
            continue
        env.cells[cell_dir.name] = TestCell(
            name=cell_dir.name,
            source=(cell_dir / TEST_SOURCE_FILE).read_text(),
        )
    return env


# --------------------------------------------------------------------------
# building straight from disk
# --------------------------------------------------------------------------

class DiskBuilder:
    """Assemble and link test cells directly from a Figure 5 tree."""

    def __init__(self, system_dir: Path | str):
        self.system_dir = Path(system_dir)
        issues = validate_system_tree(self.system_dir)
        if issues:
            raise ValueError(
                "invalid system tree:\n" + "\n".join(str(i) for i in issues)
            )

    def build(
        self,
        module_name: str,
        cell_name: str,
        derivative: Derivative,
        tgt: Target,
    ) -> MemoryImage:
        module_dir = self.system_dir / module_name
        abstraction_dir = module_dir / ABSTRACTION_DIR
        libraries_dir = self.system_dir / GLOBAL_LIBRARIES_DIR
        provider = FilesystemProvider(
            include_paths=[str(abstraction_dir), str(libraries_dir)]
        )
        assembler = toolchain.Assembler(
            provider=provider,
            predefines={derivative.predefine: 1, tgt.predefine: 1},
        )
        objects = [
            assembler.assemble_file(
                str(module_dir / cell_name / TEST_SOURCE_FILE)
            ),
            assembler.assemble_file(
                str(abstraction_dir / BASE_FUNCTIONS_FILENAME)
            ),
            assembler.assemble_file(
                str(libraries_dir / TRAP_HANDLERS_FILENAME)
            ),
            assembler.assemble_file(
                str(libraries_dir / GLOBAL_FUNCTIONS_FILENAME)
            ),
            assemble_embedded_software(derivative.es_version, assembler),
        ]
        memory_map = derivative.memory_map()
        return Linker(
            text_base=memory_map.text_base, data_base=memory_map.data_base
        ).link(objects)

    def run(
        self,
        module_name: str,
        cell_name: str,
        derivative: Derivative,
        tgt: Target,
    ):
        image = self.build(module_name, cell_name, derivative, tgt)
        return tgt.make_platform().run(image, derivative)
