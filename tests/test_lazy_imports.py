"""Import on first use: a re-regression pays only for what it calls.

``repro.core``, ``repro.assembler``, ``repro.soc`` and ``repro.store``
resolve their public names lazily (PEP 562), and the assembler proper,
the opcode table and the engine load where they are first used.  A
fully cached ``regress`` keys and replays every verdict without
assembling, decoding, compiling or executing, so none of them may
load; every public name must still resolve.  No ``regress`` process
loads ``dataclasses``: the classes on its path are plain slotted
classes and named tuples.

The budget is held as a set of modules, not as a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.assembler
import repro.core
import repro.soc
import repro.store

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a fully cached ``regress`` has no use for: the toolchain,
#: the engine and the device model.
UNUSED_WHEN_CACHED = (
    "repro.assembler.assembler",
    "repro.isa",
    "repro.isa.semantics",
    "repro.platforms",
    "repro.soc.bus",
    "repro.soc.device",
    "repro.soc.peripherals",
)

#: Standard-library modules only a rare path needs: ``signal`` serves
#: the chaos plan's ``kill`` action alone.
STDLIB_UNUSED_WHEN_CACHED = ("signal",)


def python(code: str) -> str:
    """Standard output of ``python -c code`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


@pytest.mark.parametrize(
    "package", [repro.core, repro.assembler, repro.soc, repro.store]
)
def test_every_exported_name_resolves(package):
    assert package.__all__
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "package", ["repro.core", "repro.assembler", "repro.soc", "repro.store"]
)
def test_unknown_name_is_an_attribute_error(package):
    module = sys.modules[package]
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


def test_importing_a_package_loads_no_submodule():
    loaded = json.loads(python(
        "import json, sys, repro.core, repro.assembler, repro.soc, "
        "repro.store; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith(('repro.core.', 'repro.assembler.', "
        "'repro.soc.', 'repro.store.')))))"
    ))
    assert loaded == []


def test_cli_import_skips_the_toolchain_and_unused_commands():
    loaded = json.loads(python(
        "import json, sys, repro.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    ))
    for name in (
        *UNUSED_WHEN_CACHED,
        "dataclasses",
        "repro.core.porting",
        "repro.core.system_env",
        "repro.core.violations",
        "repro.service",
    ):
        assert name not in loaded, name


#: ``python probe.py [edit]``: regress ``ws`` with a result cache and a
#: store, optionally after editing one cell; prints the exit code and
#: the loaded modules as the last line.
PROBE = """\
import json, sys
from pathlib import Path
from repro.cli import main
argv = ['regress', 'ws', '--cache-dir', 'cache', '--store-dir', 'store']
if 'edit' in sys.argv:
    cell = next(Path('ws').glob('*/NVM/TEST_NVM_PAGE_001/test.asm'))
    cell.write_text(cell.read_text() + '\\n    NOP\\n')
code = main(argv)
print(json.dumps([code, sorted(sys.modules)]))
"""


def test_regress_loads_only_what_it_calls(tmp_path):
    """Cold, fully cached, then one edited cell: no process loads
    ``dataclasses``; the fully cached one keys every verdict from the
    build index and never assembles, decodes, compiles or executes."""
    script = tmp_path / "probe.py"
    script.write_text(PROBE)
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "init", "ws",
         "--nvm-tests", "1", "--uart-tests", "1"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=tmp_path,
        capture_output=True,
        check=True,
    )

    def run(*args):
        out = subprocess.run(
            [sys.executable, str(script), *args],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            cwd=tmp_path,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        code, loaded = json.loads(out[-1])
        assert code == 0
        assert "dataclasses" not in loaded
        return out, loaded

    _, loaded = run()
    assert set(UNUSED_WHEN_CACHED) <= set(loaded)
    warm, loaded = run()
    assert any("0 run(s) executed" in line for line in warm)
    unused = (*UNUSED_WHEN_CACHED, *STDLIB_UNUSED_WHEN_CACHED)
    assert [name for name in unused if name in loaded] == []
    edited, loaded = run("edit")
    assert any("6 run(s) executed" in line for line in edited)
    assert "repro.assembler.assembler" in loaded


#: Prints every build key of the ``init --nvm-tests 6 --uart-tests 3``
#: matrix on every derivative, in a fixed order.
KEYS = """\
import json, sys
from repro.cli import main
from repro.core.targets import all_targets
from repro.core.workspace import load_module_environment
from repro.soc.derivatives import all_derivatives
main(['init', sys.argv[1], '--nvm-tests', '6', '--uart-tests', '3'])
from pathlib import Path
system = next(Path(sys.argv[1]).iterdir())
keys = []
for module in sorted(p for p in system.iterdir() if (p / 'Abstraction_Layer').is_dir()):
    env = load_module_environment(module)
    for cell in env.cells:
        for derivative in all_derivatives():
            for tgt in all_targets():
                keys.append(env.build_key(cell, derivative, tgt))
print(json.dumps(keys))
"""


def test_build_keys_agree_across_processes(tmp_path):
    """Every build key is a pure function of the sources: two fresh
    interpreters key the whole matrix identically (a key that hashed an
    identity-based ``repr`` would differ per process)."""
    script = tmp_path / "keys.py"
    script.write_text(KEYS)

    def keys(name):
        return json.loads(subprocess.run(
            [sys.executable, str(script), str(tmp_path / name)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()[-1])

    first = keys("one")
    assert len(set(first)) > 1
    assert keys("two") == first
