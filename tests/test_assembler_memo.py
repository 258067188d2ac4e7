"""The assembler's per-process memos (lines, expressions, instruction
statements, global-layer objects) must never change what it produces:
errors keep their own locations, and a build in a process whose memos
are warm is byte-identical to one in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.assembler import assembler as assembler_module
from repro.assembler import expressions, lexer
from repro.assembler.assembler import Assembler, _Unit
from repro.assembler.errors import ExpressionError, LexError, SourceLocation
from repro.assembler.preprocessor import InMemoryProvider
from repro.cli import main
from repro.core.environment import GlobalLayer
from repro.core.system_env import make_default_system
from repro.core.targets import TARGET_GOLDEN, TARGET_RTL, all_targets
from repro.core.workspace import (
    GLOBAL_LIBRARIES_DIR,
    load_module_environment,
    write_system_environment,
)
from repro.soc.derivatives import SC88A, SC88C, all_derivatives

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent

BAD_LINE = "    LOAD d0, 0x5G"
BAD_SYNTAX = "BROKEN .EQU (3 +"
BAD_VALUE = "BROKEN .EQU 1 / 0"


def assemble_error(files: dict[str, str], root: str, error_type):
    asm = Assembler(provider=InMemoryProvider(files))
    with pytest.raises(error_type) as info:
        asm.assemble_file(root)
    return str(info.value)


def two_sites(bad: str) -> dict[str, str]:
    """*bad* at a.asm:2, and at inc.asm:3 reached from b.asm:2."""
    return {
        "a.asm": f"_main:\n{bad}\n    HALT\n",
        "b.asm": '_main:\n.INCLUDE "inc.asm"\n    HALT\n',
        "inc.asm": f";; shared\n\n{bad}\n",
    }


@pytest.mark.parametrize(
    "bad,error_type",
    [
        (BAD_LINE, LexError),
        (BAD_SYNTAX, ExpressionError),
        (BAD_VALUE, ExpressionError),
    ],
    ids=["lex", "parse", "evaluate"],
)
def test_repeated_error_reports_each_location(bad, error_type):
    files = two_sites(bad)
    for _ in range(2):  # the second round runs with every memo warm
        direct = assemble_error(files, "a.asm", error_type)
        included = assemble_error(files, "b.asm", error_type)
        assert direct.startswith("a.asm:2: ")
        assert included.startswith("inc.asm:3 (via b.asm:2): ")
        assert direct.split(": ", 1)[1] == included.split(": ", 1)[1]


def test_failures_are_not_memoised():
    location = SourceLocation("x.asm", 1)
    with pytest.raises(LexError):
        lexer.tokenize_line(BAD_LINE, location)
    assert BAD_LINE not in lexer._LINE_TOKENS
    tokens = lexer.tokenize_line("(3 +", location)
    with pytest.raises(ExpressionError):
        expressions.evaluate_all(tokens, {}.get, location)
    assert tuple(tokens[:-1]) not in expressions._PARSED


def test_tokens_are_fresh_lists():
    location = SourceLocation("x.asm", 1)
    first = lexer.tokenize_line("    ADD d0, d0, d1", location)
    first.clear()
    again = lexer.tokenize_line("    ADD d0, d0, d1", location)
    assert [t.text for t in again] == ["ADD", "d0", ",", "d0", ",", "d1", ""]


@pytest.mark.parametrize(
    "memo,limit,cap,fill",
    [
        (
            lexer._LINE_TOKENS,
            lexer._LINE_TOKENS_LIMIT,
            4096,
            lambda i: lexer.tokenize_line(
                f"    LOAD d0, {i}", SourceLocation("x.asm", 1)
            ),
        ),
        (
            expressions._PARSED,
            expressions._PARSED_LIMIT,
            4096,
            lambda i: expressions.evaluate_all(
                lexer.tokenize_line(f"{i} + 1", SourceLocation("x.asm", 1)),
                {}.get,
                SourceLocation("x.asm", 1),
            ),
        ),
        (
            assembler_module._PARSED_INSTRUCTIONS,
            assembler_module._PARSED_INSTRUCTIONS_LIMIT,
            4096,
            None,
        ),
        (
            assembler_module._INCLUDES,
            assembler_module._INCLUDES_LIMIT,
            256,
            lambda i: Assembler(
                provider=InMemoryProvider(
                    {"a.asm": '.INCLUDE "inc.asm"\n', "inc.asm": PRELUDE}
                ),
                predefines={f"DERIVATIVE_{i}": 1},
            ).assemble_file("a.asm"),
        ),
    ],
    ids=["lines", "expressions", "instructions", "includes"],
)
def test_memo_cap_holds(memo, limit, cap, fill):
    assert limit == cap
    distinct = limit + 500
    if fill is None:
        source = "\n".join(f"    LOAD d0, {i}" for i in range(distinct))
        Assembler().assemble_source(source + "\n    HALT\n")
    else:
        for i in range(distinct):
            fill(i)
    assert 0 < len(memo) <= limit


# ---------------------------------------------------------------------------
# the .INCLUDE prelude memo
# ---------------------------------------------------------------------------

#: A miniature ``Globals.inc``: a guard, derivative blocks, a macro.
PRELUDE = """\
.IFNDEF PRELUDE_INCLUDED
.DEFINE PRELUDE_INCLUDED
.DEFINE CallAddr a12
.IFDEF DERIVATIVE_B
LIMIT .EQU 8
.ELSE
LIMIT .EQU 4
.ENDIF
.MACRO BUMP reg
    ADDI reg, reg, LIMIT
.ENDM
.ENDIF
"""

CELL = '.INCLUDE "inc.asm"\n_main:\n    BUMP d0\n    LOAD d1, LIMIT\n    HALT\n'


def count_includes(monkeypatch) -> dict[str, list[str]]:
    """The files ``.INCLUDE``d and those whose lines a pass read (the
    rest were replays), after emptying the prelude memo."""
    monkeypatch.setattr(assembler_module, "_INCLUDES", {})
    counts = {"includes": [], "passes": []}
    include, pass1 = _Unit._include, _Unit._pass1

    def counting_include(self, path, location):
        counts["includes"].append(path)
        return include(self, path, location)

    def counting_pass1(self, floor):
        if floor:
            counts["passes"].append(self.stream.frames[-1].name)
        return pass1(self, floor)

    monkeypatch.setattr(_Unit, "_include", counting_include)
    monkeypatch.setattr(_Unit, "_pass1", counting_pass1)
    return counts


def assemble(files: dict[str, str], root: str = "a.asm", **predefines):
    asm = Assembler(provider=InMemoryProvider(files), predefines=predefines)
    return asm.assemble_file(root)


def test_cold_matrix_replays_most_preludes(monkeypatch):
    """The 174 sc88a positions of the default matrix include
    ``Globals.inc`` 56 times under 24 distinct entry states."""
    system = make_default_system(nvm_tests=6, uart_tests=3)
    counts = count_includes(monkeypatch)
    for env in system.environments.values():
        for cell in env.cells:
            for tgt in all_targets():
                env.build_image(cell, SC88A, tgt)
    assert len(counts["includes"]) == 56
    assert len(counts["passes"]) == 24
    assert set(counts["includes"]) == set(counts["passes"]) == {"Globals.inc"}


def test_replay_matches_a_fresh_pass(monkeypatch):
    files = {"a.asm": CELL, "inc.asm": PRELUDE}
    counts = count_includes(monkeypatch)
    fresh = assemble(files, DERIVATIVE_B=1)
    replayed = assemble(files, DERIVATIVE_B=1)
    assert counts == {"includes": ["inc.asm"] * 2, "passes": ["inc.asm"]}
    assert replayed == fresh
    assert replayed.included_files == ["a.asm", "inc.asm"]
    assert list(replayed.define_snapshot) == ["DERIVATIVE_B", "LIMIT"]
    assert replayed.section("text").read_word(8) == 8  # LOAD d1, LIMIT


@pytest.mark.parametrize(
    "body",
    [
        "here:\n",
        "    NOP\n",
        "    .WORD 7\n",
        "    .SPACE 0\n",
        ".SECTION data\n",
        ".SECTION fresh\n.SECTION text\n",
        "    BUMP d0\n",
        "    NOTHING\n",
        '.INCLUDE "leaf.inc"\n',
        ".ORG 0x400\n",
        ".END\n",
        ".ELSE\n",
        ".IFDEF NOWHERE\n",
        ".MACRO OPEN\n",
    ],
    ids=[
        "label", "instruction", "data", "empty-data", "section",
        "section-round-trip", "macro-call", "empty-macro-call",
        "nested-include", "org", "end", "else", "open-if", "open-macro",
    ],
)
def test_include_with_effects_is_never_replayed(monkeypatch, body):
    include = '.INCLUDE "inc.asm"\n'
    if body == ".ELSE\n":
        include = f".IFNDEF UNSET\n{include}.ENDIF\n"
    elif body == ".IFDEF NOWHERE\n":
        include += ".ENDIF\n"
    elif body == ".MACRO OPEN\n":
        include += ".ENDM\n"
    root = (
        ".MACRO BUMP reg\n    ADDI reg, reg, 1\n.ENDM\n"
        ".MACRO NOTHING\n.ENDM\n"
        ".SECTION data\n.SECTION text\n"
        f"{include}_main:\n    HALT\n"
    )
    files = {
        "a.asm": root,
        "inc.asm": f"X .EQU 1\n{body}",
        "leaf.inc": "Y .EQU 2\n",
    }
    counts = count_includes(monkeypatch)
    first = assemble(files)
    second = assemble(files)
    assert counts["passes"].count("inc.asm") == 2
    assert all(key[0] != "inc.asm" for key in assembler_module._INCLUDES)
    assert second == first


@pytest.mark.parametrize(
    "prefix,predefines",
    [
        (".DEFINE Scratch d3\n", {}),
        ("LIMIT .EQU 4\n", {}),
        ("", {"DERIVATIVE_B": 1}),
        ("", {"TARGET_RTL": 1}),
        (".SECTION data\n", {}),
        ("    NOP\n", {}),
    ],
    ids=["define", "equ", "derivative", "other-predefine", "section", "cursor"],
)
def test_another_entry_state_misses(monkeypatch, prefix, predefines):
    files = {"a.asm": CELL, "b.asm": prefix + CELL, "inc.asm": PRELUDE}
    counts = count_includes(monkeypatch)
    assemble(files)
    assemble(files, "b.asm", **predefines)
    assert counts == {"includes": ["inc.asm"] * 2, "passes": ["inc.asm"] * 2}
    assert len(assembler_module._INCLUDES) == 2


@pytest.mark.parametrize(
    "entry,message",
    [
        ({"DERIVATIVE_B": 1}, "inc.asm:2 (via b.asm:2): .ERROR: no B"),
        (
            {"LIMIT": 5},
            "inc.asm:4 (via b.asm:2): .EQU 'LIMIT' redefined",
        ),
    ],
    ids=["error", "equ-clash"],
)
def test_failure_after_clean_include_reports_its_location(
    monkeypatch, entry, message
):
    files = {
        "a.asm": '\n.INCLUDE "inc.asm"\n_main:\n    HALT\n',
        "b.asm": '\n.INCLUDE "inc.asm"\n_main:\n    HALT\n',
        "inc.asm": '.IFDEF DERIVATIVE_B\n.ERROR "no B"\n.ENDIF\n'
        "LIMIT .EQU 4\n",
    }
    count_includes(monkeypatch)
    assemble(files)
    assert len(assembler_module._INCLUDES) == 1
    with pytest.raises(Exception) as info:
        assemble(files, "b.asm", **entry)
    assert str(info.value).startswith(message)
    assert len(assembler_module._INCLUDES) == 1


# ---------------------------------------------------------------------------
# global layer: one assembly per system
# ---------------------------------------------------------------------------

def test_global_layer_assembles_once_for_every_module(monkeypatch):
    system = make_default_system(nvm_tests=2, uart_tests=1)
    calls = []
    real = GlobalLayer.assemble

    def counting(self, derivative, tgt):
        calls.append((derivative.name, tgt.name))
        return real(self, derivative, tgt)

    monkeypatch.setattr(GlobalLayer, "assemble", counting)
    images = [
        env.build_image(cell, SC88A, tgt)
        for env in system.environments.values()
        for cell in env.cells
        for tgt in all_targets()
    ]
    assert len(calls) == 1
    first = images[0]
    assert all(
        a.global_objects is first.global_objects for a in images
    )


def test_cli_regress_assembles_the_global_layer_once(
    tmp_path, monkeypatch, capsys
):
    write_system_environment(
        make_default_system(nvm_tests=1, uart_tests=1), tmp_path
    )
    calls = []
    real = GlobalLayer.assemble
    monkeypatch.setattr(
        GlobalLayer,
        "assemble",
        lambda self, d, t: calls.append(d.name) or real(self, d, t),
    )
    assert main(["regress", str(tmp_path), "--targets", "golden,rtl"]) == 0
    assert "0 divergence(s)" in capsys.readouterr().out
    assert calls == ["sc88a"]


def test_global_layer_keys_on_a_named_target_predefine():
    layer = GlobalLayer([SC88A])
    golden = layer.objects(SC88A, TARGET_GOLDEN)
    assert layer.objects(SC88A, TARGET_RTL) is golden
    layer._trap_handlers += f"\n.IFDEF {TARGET_RTL.predefine}\n.ENDIF\n"
    rtl = layer.objects(SC88A, TARGET_RTL)
    assert rtl is not golden
    assert layer.objects(SC88A, TARGET_GOLDEN) is not rtl
    assert layer.objects(SC88A, TARGET_RTL) is rtl


# ---------------------------------------------------------------------------
# differential: warm memos == fresh process
# ---------------------------------------------------------------------------

def build_snapshot(system_dir: Path) -> dict:
    """Every image digest of the workspace on all four derivatives, plus
    the listing records of one NVM cell on sc88c/rtl."""
    layer = GlobalLayer()
    envs = {
        path.name: load_module_environment(path, global_layer=layer)
        for path in sorted(system_dir.iterdir())
        if path.is_dir() and path.name != GLOBAL_LIBRARIES_DIR
    }
    digests = {}
    for deriv in all_derivatives():
        for env in envs.values():
            for cell in env.cells:
                for tgt in all_targets():
                    image = env.build_image(cell, deriv, tgt).image
                    key = f"{deriv.name}/{env.name}/{cell}/{tgt.name}"
                    digests[key] = image.digest()
    env = envs["NVM"]
    cell = env.cell(sorted(env.cells)[0])
    unit = _Unit(
        Assembler(
            provider=env._provider(),
            predefines=env._predefines(SC88C, TARGET_RTL),
        ),
        cell.filename,
    )
    unit.stream.push_file(cell.filename)
    unit.run()
    listing = [
        [r.section, r.offset, r.data.hex(), r.source, str(r.location)]
        for r in unit.listing
    ]
    return {"digests": digests, "listing": listing}


def test_warm_memos_build_byte_identical_to_fresh_process(tmp_path):
    system_dir = write_system_environment(
        make_default_system(nvm_tests=6, uart_tests=3), tmp_path
    )
    build_snapshot(system_dir)  # warms every memo in this process
    assert lexer._LINE_TOKENS and expressions._PARSED
    warm = build_snapshot(system_dir)
    probe = (
        "import json, sys; from pathlib import Path; "
        f"sys.path.insert(0, {str(TESTS)!r}); "
        "from test_assembler_memo import build_snapshot; "
        f"print(json.dumps(build_snapshot(Path({str(system_dir)!r}))))"
    )
    fresh = json.loads(
        subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    )
    assert len(fresh["digests"]) == 4 * 174
    assert warm["digests"] == fresh["digests"]
    assert fresh["listing"] and warm["listing"] == fresh["listing"]
