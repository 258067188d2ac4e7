"""Every verdict of the default workspace, pinned (``golden_matrix.json``).

The byte-identity invariant says a change to the engine, the store or
the scheduler must not move one verdict, signature, cycle count or
trace.  These tests regress the ``init --nvm-tests 6 --uart-tests 3``
workspace on each derivative in-process and compare every entry with
the pinned one; a mismatch names the first entry and field that
differ.  One derivative runs once more, warm-started from a store
filled by its own cold run, so a restored decode snapshot is held to
the same pins.  ``tests/goldenmatrix.py`` regenerates the file.
"""

from __future__ import annotations

import json

import pytest

from goldenmatrix import (
    GOLDEN,
    WORKSPACE,
    first_difference,
    load_environments,
    matrix,
    write_workspace,
)
from repro.isa.decodecache import reset_registry
from repro.store import set_artifact_store
from repro.soc.derivatives import all_derivatives, derivative
from repro.store import ArtifactStore

PINNED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def environments(tmp_path_factory):
    return load_environments(
        write_workspace(tmp_path_factory.mktemp("golden"))
    )


def assert_pinned(name: str, actual: dict) -> None:
    difference = first_difference(PINNED["derivatives"][name], actual)
    assert difference is None, f"{name}: {difference}"


def test_golden_file_covers_the_workspace_and_every_derivative():
    assert PINNED["workspace"] == WORKSPACE
    assert sorted(PINNED["derivatives"]) == sorted(
        d.name for d in all_derivatives()
    )


@pytest.mark.parametrize("name", sorted(d.name for d in all_derivatives()))
def test_matrix_matches_the_pins(environments, name):
    assert_pinned(name, matrix(environments, derivative(name)))


def test_warm_started_matrix_matches_the_pins(environments, tmp_path):
    sc88b = derivative("sc88b")
    directory = tmp_path / "artifacts"
    try:
        for _cold_then_warm in range(2):
            reset_registry()
            store = ArtifactStore(directory)
            set_artifact_store(store)
            assert_pinned(sc88b.name, matrix(environments, sc88b))
            store.close()
    finally:
        set_artifact_store(None)
        reset_registry()
    assert store.hits > 0
    assert (store.corrupt, store.saved) == (0, 0)
