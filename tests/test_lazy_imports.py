"""Import on first use: a re-regression pays only for what it calls.

``repro.core`` and ``repro.assembler`` resolve their public names
lazily (PEP 562), and the assembler proper and the opcode table load
where they are first used.  A fully cached ``regress`` keys
and replays every verdict without assembling, decoding or compiling,
so none of them may load; every public name must still resolve.
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

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a fully cached ``regress`` has no use for.
UNUSED_WHEN_CACHED = (
    "repro.assembler.assembler",
    "repro.isa.semantics",
)


def python(code: str) -> str:
    """Standard output of ``python -c code`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


@pytest.mark.parametrize("package", [repro.core, repro.assembler])
def test_every_exported_name_resolves(package):
    assert package.__all__
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize("package", ["repro.core", "repro.assembler"])
def test_unknown_name_is_an_attribute_error(package):
    module = sys.modules[package]
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


def test_importing_a_package_loads_no_submodule():
    loaded = json.loads(python(
        "import json, sys, repro.core, repro.assembler; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith(('repro.core.', 'repro.assembler.')))))"
    ))
    assert loaded == []


def test_cli_import_skips_the_toolchain_and_unused_commands():
    loaded = json.loads(python(
        "import json, sys, repro.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    ))
    for name in (
        *UNUSED_WHEN_CACHED,
        "repro.core.porting",
        "repro.core.system_env",
        "repro.core.violations",
        "repro.service",
    ):
        assert name not in loaded, name


def test_fully_cached_regress_loads_no_toolchain(tmp_path):
    """Cold, then fully cached: the second process keys every verdict
    from the build index and never assembles, decodes or compiles."""
    code = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "argv = ['regress', 'ws', '--cache-dir', 'cache',"
        " '--store-dir', 'store']\n"
        "if sys.argv[1:] == ['init']:\n"
        "    main(['init', 'ws', '--nvm-tests', '1', '--uart-tests', '1'])\n"
        "code = main(argv)\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    script = tmp_path / "probe.py"
    script.write_text(code)

    def run(*args):
        out = subprocess.run(
            [sys.executable, str(script), *args],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            cwd=tmp_path,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return out.splitlines()

    cold = run("init")
    code, loaded = json.loads(cold[-1])
    assert code == 0
    assert set(UNUSED_WHEN_CACHED) <= set(loaded)
    warm = run()
    assert any("0 run(s) executed" in line for line in warm)
    code, loaded = json.loads(warm[-1])
    assert code == 0
    assert [name for name in UNUSED_WHEN_CACHED if name in loaded] == []
