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
Assembled objects are keyed the same way, by content
(:func:`input_key`); with an artifact store installed, the objects of
the layers below the test cell persist across processes, so an edited
cell re-assembles only itself.
"""

from __future__ import annotations

import functools
import hashlib
import posixpath
from typing import NamedTuple

from repro import assembler as toolchain
from repro.assembler.linker import Linker, MemoryImage
from repro.assembler.objectfile import ObjectFile
from repro.assembler.preprocessor import InMemoryProvider
from repro.core.basefuncs import generate_base_functions
from repro.core.durable import content_key, source_digest
from repro.core.defines import GlobalDefines, target_entries
from repro.core.globals_layer import (
    generate_global_test_functions,
    generate_trap_handlers,
)
from repro.core.targets import Target, all_targets, target as lookup_target
from repro.core.testplan import TestPlan
from repro.soc.derivatives import Derivative, all_derivatives
from repro.soc.embedded import assemble_embedded_software, es_source
from repro.verdict import RunResult

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


def toolchain_digest() -> str:
    """SHA-256 over the toolchain's source bytes, hashed once per
    process: editing the assembler, linker or ISA tables changes every
    build key."""
    return source_digest(_TOOLCHAIN_MODULES)


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
    """*roots* plus every file reached from them or from the extra
    *texts* through ``.INCLUDE``; ``None`` if some include does not
    resolve to a file of *files*."""
    reached = set(roots)
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


@functools.cache
def _derivative_repr(derivative: Derivative) -> str:
    """``repr`` of a frozen derivative (every field), made once."""
    return repr(derivative)


def _files_fingerprint(files: dict[str, str]) -> str:
    """SHA-256 over every file's name and text."""
    hasher = hashlib.sha256()
    for name in sorted(files):
        hasher.update(name.encode())
        hasher.update(b"\0")
        hasher.update(files[name].encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


def input_key(
    files: dict[str, str],
    unit: str,
    derivative: Derivative,
    target_part: tuple,
    roots: list[str],
    texts: tuple[str, ...] = (),
) -> str:
    """The content key of one build: equal keys mean equal output.

    Covers the toolchain digest, the *unit* built, the derivative
    (every field, so its memory map and ES version), *target_part* —
    what the build takes from the target, ``()`` where it takes nothing
    — the SHA-256 of each extra source text in *texts*, and the name
    and SHA-256 of every file of *files* reached from *roots* and
    *texts* through ``.INCLUDE``.  An include that does not resolve
    falls back to the fingerprint of all *files*.  Costs hashing only,
    each distinct text once per process (:func:`_text_facts`).
    """
    parts = [
        toolchain_digest(), unit, _derivative_repr(derivative),
        repr(target_part),
    ]
    parts.extend(_text_facts(text)[0] for text in texts)
    reached = _reached_files(files, roots, list(texts))
    if reached is None:
        parts.append(_files_fingerprint(files))
    else:
        for name in sorted(reached):
            parts.append(name)
            parts.append(_text_facts(files[name])[0])
    return content_key(*parts)


class TestCell:
    """One directed test (a test cell directory in Figure 3)."""

    # Not a pytest class, despite the Test* name.
    __test__ = False
    __slots__ = ("name", "source", "description", "testplan_ids")

    def __init__(
        self,
        name: str,
        source: str,
        description: str = "",
        testplan_ids: tuple[str, ...] = (),
    ):
        self.name = name
        self.source = source
        self.description = description
        self.testplan_ids = testplan_ids

    @property
    def filename(self) -> str:
        return f"{self.name}.asm"


class BuildArtifacts(NamedTuple):
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
        #: object keys -> the assembled (or stored) objects.
        self._objects: dict[tuple, list[ObjectFile]] = {}
        self._keys: dict[tuple, tuple[str, str, str]] = {}

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

    def _object_keys(
        self, derivative: Derivative, tgt: Target
    ) -> tuple[str, str, str]:
        """The :func:`input_key` of each unit :meth:`assemble` builds.
        The target reaches these texts only through its ``TARGET_*``
        predefine, so it joins the keys only where some text names that
        predefine.  Memoised on the texts, so each distinct key is
        hashed once."""
        es_text = es_source(derivative.es_version)
        texts = (self._trap_handlers, self._global_functions, es_text)
        sensitive = any(tgt.predefine in text for text in texts)
        target_part = (tgt.predefine,) if sensitive else ()
        memo = (texts, derivative, target_part)
        keys = self._keys.get(memo)
        if keys is None:
            files = self.library_files()
            keys = self._keys[memo] = (
                input_key(
                    files, TRAP_HANDLERS_FILENAME, derivative, target_part,
                    [TRAP_HANDLERS_FILENAME],
                ),
                input_key(
                    files, GLOBAL_FUNCTIONS_FILENAME, derivative,
                    target_part, [GLOBAL_FUNCTIONS_FILENAME],
                ),
                input_key(
                    files, f"Embedded_Software_v{derivative.es_version}.asm",
                    derivative, target_part, [], (es_text,),
                ),
            )
        return keys

    def objects(
        self, derivative: Derivative, tgt: Target
    ) -> list[ObjectFile]:
        """:meth:`assemble`, memoised by :meth:`_object_keys` in this
        process and, with an artifact store installed, across
        processes (:func:`stored_objects`)."""
        keys = self._object_keys(derivative, tgt)
        objects = self._objects.get(keys)
        if objects is None:
            objects = self._objects[keys] = stored_objects(
                keys, lambda: self.assemble(derivative, tgt)
            )
        return objects


def stored_objects(keys, build) -> list[ObjectFile]:
    """The objects content-keyed by *keys*: from the installed artifact
    store when it holds every one, else ``build()`` — whose objects are
    then staged, so the run's end appends them to the store in one
    write (:meth:`~repro.store.artifacts.ArtifactStore.save_objects`)."""
    from repro.store import artifact_store

    store = artifact_store()
    if store is None:
        return build()
    objects = [store.load_object(key) for key in keys]
    if None in objects:
        objects = build()
        for key, obj in zip(keys, objects):
            store.stage_object(key, obj)
    return objects


class _SourceState:
    """What one state of an environment's sources builds from: the
    files, their fingerprint, and memos of the per-target build
    signatures, per-unit object keys and per-position build keys (see
    :meth:`ModuleTestEnvironment._sources`)."""

    __slots__ = (
        "token", "files", "fingerprint", "signatures", "keys", "builds",
    )

    def __init__(self, token: tuple, files: dict[str, str]):
        self.token = token
        self.files = files
        self.fingerprint = _files_fingerprint(files)
        self.signatures: dict[Target, tuple] = {}
        self.keys: dict[tuple, str] = {}
        self.builds: dict[tuple, str] = {}


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
        #: Build caches: images by source fingerprint + effective build
        #: inputs, objects by content key (:func:`input_key`), so
        #: editing a cell or a define invalidates naturally, and an
        #: edited cell leaves the base-function objects valid.
        self._image_cache: dict[tuple, BuildArtifacts] = {}
        self._object_cache: dict[str, ObjectFile] = {}
        self._source_state: _SourceState | None = None

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
    def _sources(self) -> _SourceState:
        """The current state's source files, fingerprint and key memos.

        Pure in the sources, so memoised on a cheap state token — the
        cell sources, the rendered ``Globals.inc``, the base-function
        text and the library texts — like :meth:`globals_text`: a
        matrix run hashes its sources once, while editing a cell, a
        define or the base functions still starts a fresh state.
        """
        token = (
            tuple((cell.name, cell.source) for cell in self.cells.values()),
            self.globals_text(),
            self.base_functions_text(),
            self.global_layer.trap_handlers_text,
            self.global_layer.global_functions_text,
        )
        state = self._source_state
        if state is None or state.token != token:
            files = dict(self.abstraction_files())
            files.update(self.global_layer.library_files())
            for cell in self.cells.values():
                files[cell.filename] = cell.source
            state = self._source_state = _SourceState(token, files)
        return state

    def source_fingerprint(self) -> str:
        """SHA-256 over every source file the environment builds from."""
        return self._sources().fingerprint

    def _provider(self) -> InMemoryProvider:
        return InMemoryProvider(self._sources().files)

    def build_signature(self, tgt: Target) -> tuple:
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
        return self._signature(self._sources(), tgt)

    @staticmethod
    def _signature(state: _SourceState, tgt: Target) -> tuple:
        """:meth:`build_signature` in *state*, memoised there."""
        signature = state.signatures.get(tgt)
        if signature is None:
            signature = tuple(
                (entry.name, entry.value) for entry in target_entries(tgt)
            )
            if any(
                name != GLOBALS_FILENAME and tgt.predefine in text
                for name, text in state.files.items()
            ):
                signature += (tgt.predefine,)
            state.signatures[tgt] = signature
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

        The :func:`input_key` of the cell under the target's
        :meth:`build_signature`, over ``Globals.inc``, the base
        functions, both global libraries, the ES source and every file
        they reach.  Costs hashing only, never assembly, and once per
        (cell, derivative, target signature) in one state of the
        sources: targets with equal signatures share the key.
        """
        cell = self.cell(cell_name)
        state = self._sources()
        signature = self._signature(state, tgt)
        memo = (cell_name, derivative, signature)
        key = state.builds.get(memo)
        if key is None:
            key = state.builds[memo] = input_key(
                state.files,
                cell.filename,
                derivative,
                signature,
                [
                    cell.filename,
                    GLOBALS_FILENAME,
                    BASE_FUNCTIONS_FILENAME,
                    TRAP_HANDLERS_FILENAME,
                    GLOBAL_FUNCTIONS_FILENAME,
                ],
                (es_source(derivative.es_version),),
            )
        return key

    def _object_key(
        self,
        state: _SourceState,
        unit: str,
        derivative: Derivative,
        tgt: Target,
    ) -> str:
        """The :func:`input_key` of assembling *unit* for (derivative,
        target), memoised in *state*.  A unit that never touches a
        target-contributed define (or the ``TARGET_*`` predefine)
        assembles identically for every target, so its key drops the
        target signature entirely."""
        memo = (unit, derivative, tgt)
        key = state.keys.get(memo)
        if key is None:
            define_names = tuple(entry.name for entry in target_entries(tgt))
            sensitive = self._target_sensitive(
                state.files, [state.files[unit]], tgt, define_names
            )
            key = state.keys[memo] = input_key(
                state.files,
                unit,
                derivative,
                self._signature(state, tgt) if sensitive else (),
                [unit],
            )
        return key

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
        functions objects by their :func:`input_key` — so a regression
        sweeping many cells and targets assembles each layer once per
        distinct build input, not once per matrix entry, and an edited
        cell leaves the base functions' objects valid.  With an
        artifact store installed, the base functions' objects also
        persist across processes (:func:`stored_objects`); test-cell
        objects stay in this process, since an edit changes them.  The
        global layer memoises its own objects the same way
        (:meth:`GlobalLayer.objects`), once for every module
        environment that shares it.  ``use_cache=False`` forces a cold
        build (ablation baselines).
        """
        cell = self.cell(cell_name)
        state = self._sources()
        image_key = (
            cell_name, derivative.name, self._signature(state, tgt),
            state.fingerprint,
        )
        if use_cache:
            cached = self._image_cache.get(image_key)
            if cached is not None:
                return cached

        assembler = toolchain.Assembler(
            provider=InMemoryProvider(state.files),
            predefines=self._predefines(derivative, tgt),
        )

        def cached_object(unit: str, persist: bool) -> ObjectFile:
            if not use_cache:
                return assembler.assemble_file(unit)
            key = self._object_key(state, unit, derivative, tgt)
            obj = self._object_cache.get(key)
            if obj is None:
                if persist:
                    (obj,) = stored_objects(
                        [key], lambda: [assembler.assemble_file(unit)]
                    )
                else:
                    obj = assembler.assemble_file(unit)
                self._object_cache[key] = obj
            return obj

        test_object = cached_object(cell.filename, persist=False)
        base_functions_object = cached_object(
            BASE_FUNCTIONS_FILENAME, persist=True
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
