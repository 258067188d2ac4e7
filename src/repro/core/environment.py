"""Module test environments — Figure 1's three-layer structure as code.

A :class:`ModuleTestEnvironment` owns:

- the **test layer**: :class:`TestCell` sources that reference only
  ``Globals.inc`` names and ``Base_*`` functions;
- the **abstraction layer**: a generated ``Globals.inc``
  (:class:`~repro.core.defines.GlobalDefines`) and ``Base_Functions.asm``
  (:func:`~repro.core.basefuncs.generate_base_functions`), both carrying
  per-derivative/per-target ``.IFDEF`` blocks;
- a plain-text test plan (:class:`~repro.core.testplan.TestPlan`).

The **global layer** (trap handlers, shared functions, embedded-software
firmware) is injected by :class:`GlobalLayer` — the module environment
never owns it, mirroring the paper's ownership rules.

``build_image`` assembles one test cell for a (derivative, target) pair —
selection happens *only* through assembler predefines, never by editing
test sources — and links it with the abstraction and global layers into
the one image every platform runs.  ``build_key`` digests everything
such a build reads, so a persisted (build key -> image digest) index
can answer "which image would this build produce?" without building.
"""

from __future__ import annotations

import hashlib
import posixpath
from dataclasses import dataclass
from pathlib import Path

from repro import assembler as toolchain
from repro.assembler.linker import Linker, MemoryImage
from repro.assembler.objectfile import ObjectFile
from repro.assembler.preprocessor import InMemoryProvider
from repro.core.basefuncs import generate_base_functions
from repro.core.defines import GlobalDefines, target_entries
from repro.core.globals_layer import (
    generate_global_test_functions,
    generate_trap_handlers,
)
from repro.core.targets import Target, all_targets, target as lookup_target
from repro.core.testplan import TestPlan
from repro.platforms.base import RunResult
from repro.soc.derivatives import Derivative, all_derivatives
from repro.soc.embedded import assemble_embedded_software, es_source

GLOBALS_FILENAME = "Globals.inc"
BASE_FUNCTIONS_FILENAME = "Base_Functions.asm"
TRAP_HANDLERS_FILENAME = "Trap_Handlers.asm"
GLOBAL_FUNCTIONS_FILENAME = "Global_Test_Functions.asm"

#: Source modules (relative to the ``repro`` package) that decide an
#: image's bytes for given source texts: the assembler and linker, the
#: ISA tables they encode with, this module's build recipe, and the
#: derivative memory maps and firmware.
_TOOLCHAIN_MODULES = (
    "assembler/*.py",
    "isa/instructions.py",
    "isa/encoding.py",
    "isa/registers.py",
    "core/environment.py",
    "soc/embedded.py",
    "soc/derivatives.py",
    "soc/memorymap.py",
)

_TOOLCHAIN_DIGEST: str | None = None


def toolchain_digest() -> str:
    """SHA-256 over the toolchain's source bytes, hashed once per
    process: editing the assembler, linker or ISA tables changes every
    build key."""
    global _TOOLCHAIN_DIGEST
    if _TOOLCHAIN_DIGEST is None:
        root = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        for pattern in _TOOLCHAIN_MODULES:
            for path in sorted(root.glob(pattern)):
                hasher.update(path.relative_to(root).as_posix().encode())
                hasher.update(b"\0")
                hasher.update(path.read_bytes())
                hasher.update(b"\0")
        _TOOLCHAIN_DIGEST = hasher.hexdigest()
    return _TOOLCHAIN_DIGEST


#: text -> (sha256 hex, ``.INCLUDE`` targets).  Build keys hash each
#: distinct source text once per process; cleared when full so a
#: long-lived daemon seeing endless edits stays bounded.
_TEXT_FACTS: dict[str, tuple[str, tuple[str | None, ...]]] = {}
_TEXT_FACTS_LIMIT = 4096


def _scan_includes(text: str) -> tuple[str | None, ...]:
    """The ``.INCLUDE`` targets of *text* in order; ``None`` marks a
    mention this scan cannot parse (callers treat it as unknown)."""
    if ".INCLUDE" not in text.upper():
        return ()
    names: list[str | None] = []
    for line in text.splitlines():
        code = line.split(";", 1)[0].strip()
        if ".INCLUDE" not in code.upper():
            continue
        parts = code.split(None, 1)
        if parts[0].upper() != ".INCLUDE" or len(parts) < 2:
            names.append(None)
        else:
            names.append(parts[1].strip().strip('"'))
    return tuple(names)


def _text_facts(text: str) -> tuple[str, tuple[str | None, ...]]:
    facts = _TEXT_FACTS.get(text)
    if facts is None:
        if len(_TEXT_FACTS) >= _TEXT_FACTS_LIMIT:
            _TEXT_FACTS.clear()
        facts = (
            hashlib.sha256(text.encode()).hexdigest(),
            _scan_includes(text),
        )
        _TEXT_FACTS[text] = facts
    return facts


def _reached_files(
    files: dict[str, str], roots: list[str], texts: list[str]
) -> set[str] | None:
    """*roots* plus ``Globals.inc`` and every file reached from them or
    from the extra *texts* through ``.INCLUDE``; ``None`` if some
    include does not resolve to a workspace file."""
    reached = {GLOBALS_FILENAME, *roots}
    stack = [files[name] for name in reached] + texts
    while stack:
        for included in _text_facts(stack.pop())[1]:
            if included is None:
                return None
            if included not in files:
                included = posixpath.normpath(included)
                if included not in files:
                    return None
            if included not in reached:
                reached.add(included)
                stack.append(files[included])
    return reached


@dataclass
class TestCell:
    """One directed test (a test cell directory in Figure 3)."""

    # Not a pytest class, despite the Test* name.
    __test__ = False

    name: str
    source: str
    description: str = ""
    testplan_ids: tuple[str, ...] = ()

    @property
    def filename(self) -> str:
        return f"{self.name}.asm"


@dataclass
class BuildArtifacts:
    """Everything produced while building one test cell."""

    image: MemoryImage
    test_object: ObjectFile
    base_functions_object: ObjectFile
    global_objects: list[ObjectFile]


class GlobalLayer:
    """The shared, not-module-owned code: trap handlers, common
    functions, embedded software.  One instance serves many module
    environments (Figure 4), and assembles its objects once for all of
    them (:meth:`objects`)."""

    def __init__(self, derivatives: list[Derivative] | None = None):
        self.derivatives = list(derivatives or all_derivatives())
        self._trap_handlers = generate_trap_handlers(self.derivatives)
        self._global_functions = generate_global_test_functions()
        self._objects: dict[tuple, list[ObjectFile]] = {}

    @property
    def trap_handlers_text(self) -> str:
        return self._trap_handlers

    @property
    def global_functions_text(self) -> str:
        return self._global_functions

    def library_files(self) -> dict[str, str]:
        return {
            TRAP_HANDLERS_FILENAME: self._trap_handlers,
            GLOBAL_FUNCTIONS_FILENAME: self._global_functions,
        }

    def assemble(
        self, derivative: Derivative, tgt: Target
    ) -> list[ObjectFile]:
        """Assemble trap handlers, global functions and the ES ROM for
        (derivative, target).  The libraries include nothing (they are
        upstream of every module's ``Globals.inc``), so they assemble
        against themselves alone."""
        assembler = toolchain.Assembler(
            provider=InMemoryProvider(self.library_files()),
            predefines={derivative.predefine: 1, tgt.predefine: 1},
        )
        return [
            assembler.assemble_file(TRAP_HANDLERS_FILENAME),
            assembler.assemble_file(GLOBAL_FUNCTIONS_FILENAME),
            assemble_embedded_software(derivative.es_version, assembler),
        ]

    def objects(
        self, derivative: Derivative, tgt: Target
    ) -> list[ObjectFile]:
        """:meth:`assemble`, memoised on what it reads: the library
        texts, the ES source, the derivative, and the target — which
        reaches these texts only through its ``TARGET_*`` predefine, so
        it joins the key only where some text names that predefine."""
        texts = (
            self._trap_handlers,
            self._global_functions,
            es_source(derivative.es_version),
        )
        sensitive = any(tgt.predefine in text for text in texts)
        key = (texts, derivative, tgt.predefine if sensitive else None)
        objects = self._objects.get(key)
        if objects is None:
            objects = self.assemble(derivative, tgt)
            self._objects[key] = objects
        return objects


class ModuleTestEnvironment:
    """One module-level test environment (Figure 1 / Figure 3)."""

    def __init__(
        self,
        name: str,
        derivatives: list[Derivative] | None = None,
        targets: list[Target] | None = None,
        extras: dict[str, int] | None = None,
        derivative_extras: dict[str, dict[str, int]] | None = None,
        extra_base_functions: str = "",
        global_layer: GlobalLayer | None = None,
    ):
        if not name or not name.replace("_", "").isalnum():
            raise ValueError(f"bad environment name {name!r}")
        if name.lower().startswith("sc88"):
            # The paper: "Derivative specific names are not permitted as
            # they will make the environment appear derivative specific."
            raise ValueError(
                f"environment name {name!r} looks derivative-specific"
            )
        self.name = name
        self.derivatives = list(derivatives or all_derivatives())
        self.targets = list(targets or all_targets())
        self.defines = GlobalDefines(
            module_name=name,
            derivatives=self.derivatives,
            targets=self.targets,
            extras=dict(extras or {}),
            derivative_extras={
                k: dict(v) for k, v in (derivative_extras or {}).items()
            },
        )
        self.extra_base_functions = extra_base_functions
        self.global_layer = global_layer or GlobalLayer(self.derivatives)
        self.cells: dict[str, TestCell] = {}
        self.testplan = TestPlan(module=name)
        #: Build caches — keyed by source fingerprint + effective build
        #: inputs, so editing a cell or a define invalidates naturally.
        self._image_cache: dict[tuple, BuildArtifacts] = {}
        self._object_cache: dict[tuple, object] = {}

    # -- test layer management ----------------------------------------------
    def add_test(self, cell: TestCell) -> None:
        if cell.name in self.cells:
            raise ValueError(f"duplicate test cell {cell.name!r}")
        self.cells[cell.name] = cell
        for plan_id in cell.testplan_ids:
            if self.testplan.find(plan_id) is None:
                self.testplan.add(
                    plan_id, cell.description or cell.name, "implemented"
                )
            else:
                self.testplan.mark(plan_id, "implemented")

    def cell(self, name: str) -> TestCell:
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(
                f"no test cell {name!r} in environment {self.name!r}"
            ) from None

    # -- abstraction layer rendering --------------------------------------
    def globals_text(self) -> str:
        # Rendering is pure in the defines' state; memoise on a cheap
        # state token so a matrix build renders once, while mutations
        # through set_extra / set_derivative_extra still invalidate.
        state = (
            tuple(sorted(self.defines.extras.items())),
            tuple(
                (name, tuple(sorted(extras.items())))
                for name, extras in sorted(
                    self.defines.derivative_extras.items()
                )
            ),
        )
        cached = getattr(self, "_globals_render", None)
        if cached is not None and cached[0] == state:
            return cached[1]
        text = self.defines.render()
        self._globals_render = (state, text)
        return text

    def base_functions_text(self) -> str:
        cached = getattr(self, "_basefuncs_render", None)
        if cached is not None and cached[0] == self.extra_base_functions:
            return cached[1]
        text = generate_base_functions(
            self.derivatives, self.extra_base_functions
        )
        self._basefuncs_render = (self.extra_base_functions, text)
        return text

    def abstraction_files(self) -> dict[str, str]:
        return {
            GLOBALS_FILENAME: self.globals_text(),
            BASE_FUNCTIONS_FILENAME: self.base_functions_text(),
        }

    # -- building ---------------------------------------------------------------
    def _source_files(self) -> dict[str, str]:
        files = dict(self.abstraction_files())
        files.update(self.global_layer.library_files())
        for cell in self.cells.values():
            files[cell.filename] = cell.source
        return files

    def _provider(self) -> InMemoryProvider:
        return InMemoryProvider(self._source_files())

    @staticmethod
    def _files_fingerprint(files: dict[str, str]) -> str:
        hasher = hashlib.sha256()
        for name in sorted(files):
            hasher.update(name.encode())
            hasher.update(b"\0")
            hasher.update(files[name].encode())
            hasher.update(b"\0")
        return hasher.hexdigest()

    def build_signature(
        self, tgt: Target, files: dict[str, str] | None = None
    ) -> tuple:
        """What a build actually takes from *tgt*, as a hashable key.

        A target influences the assembled output only through the
        defines it contributes to ``Globals.inc``
        (:func:`~repro.core.defines.target_entries`: poll budgets,
        delay loops) — unless some source outside ``Globals.inc``
        references the target's ``TARGET_*`` predefine directly, in
        which case the predefine joins the signature.  Two targets with
        equal signatures produce byte-identical builds, so the image
        cache shares one build between them (golden/accelerator and
        bondout/silicon pair up in the default catalogue).
        """
        if files is None:
            files = self._source_files()
        signature = tuple(
            (entry.name, entry.value) for entry in target_entries(tgt)
        )
        for name, text in files.items():
            if name != GLOBALS_FILENAME and tgt.predefine in text:
                return signature + (tgt.predefine,)
        return signature

    def _target_sensitive(
        self,
        files: dict[str, str],
        texts: list[str],
        tgt: Target,
        define_names: tuple[str, ...],
        _seen: set[str] | None = None,
    ) -> bool:
        """Whether assembling *texts* can produce target-dependent output.

        ``Globals.inc`` defines every target's values, but a file is only
        affected if it *uses* one of the target-contributed define names
        (or the ``TARGET_*`` predefine) — directly or through a file it
        includes.  Unknown includes are treated as sensitive.
        """
        seen = _seen if _seen is not None else set()
        for text in texts:
            if tgt.predefine in text:
                return True
            if any(name in text for name in define_names):
                return True
            for included in _text_facts(text)[1]:
                if included == GLOBALS_FILENAME or included in seen:
                    continue  # Globals only matters via used names
                if included is None or included not in files:
                    return True
                seen.add(included)
                if self._target_sensitive(
                    files, [files[included]], tgt, define_names, seen
                ):
                    return True
        return False

    def _predefines(
        self, derivative: Derivative, tgt: Target
    ) -> dict[str, int]:
        return {derivative.predefine: 1, tgt.predefine: 1}

    def assemble_cell(
        self,
        cell_name: str,
        derivative: Derivative,
        tgt: Target,
    ) -> ObjectFile:
        """Assemble one test cell without linking (used by the
        violation checker, which must inspect objects that may not even
        link cleanly)."""
        cell = self.cell(cell_name)
        assembler = toolchain.Assembler(
            provider=self._provider(),
            predefines=self._predefines(derivative, tgt),
        )
        return assembler.assemble_file(cell.filename)

    def build_key(
        self,
        cell_name: str,
        derivative: Derivative,
        tgt: Target,
    ) -> str:
        """Digest of every input :meth:`build_image` reads for one
        matrix position — equal keys mean byte-identical images.

        Covers the toolchain digest, the derivative (every field, so
        its memory map and ES version), the target's
        :meth:`build_signature`, the ES source, and the texts of
        ``Globals.inc``, the base functions, both global libraries, the
        cell and every file reached through ``.INCLUDE``.  An include
        that does not resolve falls back to the whole-workspace
        fingerprint.  Costs hashing only, never assembly.
        """
        cell = self.cell(cell_name)
        files = self._source_files()
        es_text = es_source(derivative.es_version)
        hasher = hashlib.sha256()
        for part in (
            toolchain_digest(),
            cell.filename,
            repr(derivative),
            repr(self.build_signature(tgt, files=files)),
            _text_facts(es_text)[0],
        ):
            hasher.update(part.encode())
            hasher.update(b"\0")
        reached = _reached_files(
            files,
            [
                cell.filename,
                BASE_FUNCTIONS_FILENAME,
                TRAP_HANDLERS_FILENAME,
                GLOBAL_FUNCTIONS_FILENAME,
            ],
            [es_text],
        )
        if reached is None:
            hasher.update(self._files_fingerprint(files).encode())
        else:
            for name in sorted(reached):
                hasher.update(name.encode())
                hasher.update(b"\0")
                hasher.update(_text_facts(files[name])[0].encode())
                hasher.update(b"\0")
        return hasher.hexdigest()

    def build_image(
        self,
        cell_name: str,
        derivative: Derivative,
        tgt: Target,
        use_cache: bool = True,
    ) -> BuildArtifacts:
        """Assemble + link one test cell for (derivative, target).

        Builds are memoised two ways: whole images by (cell, derivative,
        target signature, source fingerprint), and the cell and base
        functions objects by the same key minus the cell — so a
        regression sweeping many cells and targets assembles each layer
        once per distinct build input, not once per matrix entry.  The
        global layer memoises its own objects (:meth:`GlobalLayer.objects`),
        once for every module environment that shares it.
        Editing any source or define changes the fingerprint and
        invalidates both caches.  ``use_cache=False`` forces a cold
        build (ablation baselines).
        """
        cell = self.cell(cell_name)
        files = self._source_files()
        fingerprint = self._files_fingerprint(files)
        signature = self.build_signature(tgt, files=files)
        image_key = (cell_name, derivative.name, signature, fingerprint)
        if use_cache:
            cached = self._image_cache.get(image_key)
            if cached is not None:
                return cached

        assembler = toolchain.Assembler(
            provider=InMemoryProvider(files),
            predefines=self._predefines(derivative, tgt),
        )
        define_names = tuple(
            entry.name for entry in target_entries(tgt)
        )

        def cached_object(label: str, texts: list[str], build):
            if not use_cache:
                return build()
            # Files that never touch a target-contributed define (or the
            # TARGET_* predefine) assemble identically for every target,
            # so their cache key drops the target signature entirely.
            file_signature = (
                signature
                if self._target_sensitive(files, texts, tgt, define_names)
                else ()
            )
            key = (label, derivative.name, file_signature, fingerprint)
            obj = self._object_cache.get(key)
            if obj is None:
                obj = build()
                self._object_cache[key] = obj
            return obj

        test_object = cached_object(
            cell.filename,
            [cell.source],
            lambda: assembler.assemble_file(cell.filename),
        )
        base_functions_object = cached_object(
            BASE_FUNCTIONS_FILENAME,
            [files[BASE_FUNCTIONS_FILENAME]],
            lambda: assembler.assemble_file(BASE_FUNCTIONS_FILENAME),
        )
        global_objects = (
            self.global_layer.objects(derivative, tgt)
            if use_cache
            else self.global_layer.assemble(derivative, tgt)
        )
        memory_map = derivative.memory_map()
        linker = Linker(
            text_base=memory_map.text_base, data_base=memory_map.data_base
        )
        image = linker.link(
            [test_object, base_functions_object] + global_objects
        )
        artifacts = BuildArtifacts(
            image=image,
            test_object=test_object,
            base_functions_object=base_functions_object,
            global_objects=global_objects,
        )
        if use_cache:
            self._image_cache[image_key] = artifacts
        return artifacts

    # -- running -------------------------------------------------------------
    def run_test(
        self,
        cell_name: str,
        derivative: Derivative,
        target_name: str = "golden",
        platform_kwargs: dict | None = None,
        max_instructions: int | None = None,
    ) -> RunResult:
        """Build and execute one test cell on one platform."""
        tgt = lookup_target(target_name)
        artifacts = self.build_image(cell_name, derivative, tgt)
        platform = tgt.make_platform(**(platform_kwargs or {}))
        kwargs = {}
        if max_instructions is not None:
            kwargs["max_instructions"] = max_instructions
        return platform.run(artifacts.image, derivative, **kwargs)

    def run_all(
        self,
        derivative: Derivative,
        target_name: str = "golden",
    ) -> dict[str, RunResult]:
        """Run every test cell; returns name -> result."""
        results = {}
        for name in self.cells:
            results[name] = self.run_test(name, derivative, target_name)
        return results
