"""Tests for module test environments and the global layer."""

import pytest

from repro.core.environment import (
    GlobalLayer,
    ModuleTestEnvironment,
    TestCell,
)
from repro.core.targets import TARGET_GOLDEN, TARGET_RTL
from repro.core.workloads import make_nvm_environment, nvm_test_advm
from repro.platforms.base import RunStatus
from repro.soc.derivatives import SC88A, SC88B, SC88D, all_derivatives


class TestEnvironmentConstruction:
    def test_derivative_specific_names_rejected(self):
        # The paper: "Derivative specific names are not permitted".
        with pytest.raises(ValueError, match="derivative-specific"):
            ModuleTestEnvironment("SC88A_NVM")

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            ModuleTestEnvironment("")
        with pytest.raises(ValueError):
            ModuleTestEnvironment("nvm tests")

    def test_duplicate_cells_rejected(self):
        env = ModuleTestEnvironment("NVM")
        env.add_test(nvm_test_advm(1))
        with pytest.raises(ValueError, match="duplicate"):
            env.add_test(nvm_test_advm(1))

    def test_testplan_items_created_from_cells(self):
        env = make_nvm_environment(3)
        assert env.testplan.find("NVM_001") is not None
        assert env.testplan.find("NVM_001").status == "implemented"

    def test_cell_lookup_error(self):
        env = ModuleTestEnvironment("NVM")
        with pytest.raises(KeyError, match="no test cell"):
            env.cell("GHOST")


class TestAbstractionLayerGeneration:
    def test_globals_cover_all_derivatives(self):
        env = make_nvm_environment(1)
        text = env.globals_text()
        for derivative in all_derivatives():
            assert f".IFDEF {derivative.predefine}" in text

    def test_base_functions_include_globals(self):
        env = make_nvm_environment(1)
        assert ".INCLUDE Globals.inc" in env.base_functions_text()

    def test_extra_base_functions_appended(self):
        env = ModuleTestEnvironment(
            "NVM", extra_base_functions="Base_Custom:\n    RETURN\n"
        )
        assert "Base_Custom" in env.base_functions_text()


class TestBuildAndRun:
    def test_build_produces_linked_image(self):
        env = make_nvm_environment(1)
        artifacts = env.build_image("TEST_NVM_PAGE_001", SC88A, TARGET_GOLDEN)
        assert artifacts.image.entry is not None
        assert "Base_Report_Pass" in artifacts.image.symbols
        assert "ES_Init_Register" in artifacts.image.symbols

    def test_same_cell_builds_for_every_derivative(self):
        env = make_nvm_environment(1)
        images = {}
        for derivative in all_derivatives():
            artifacts = env.build_image(
                "TEST_NVM_PAGE_001", derivative, TARGET_GOLDEN
            )
            images[derivative.name] = artifacts.image
        # Different derivatives produce different binaries from the SAME
        # source (the abstraction layer did the adapting).
        blobs = {
            name: image.segments[0].data for name, image in images.items()
        }
        assert blobs["sc88a"] != blobs["sc88b"]

    def test_run_test_passes(self):
        env = make_nvm_environment(1)
        result = env.run_test("TEST_NVM_PAGE_001", SC88A)
        assert result.status is RunStatus.PASS

    def test_run_on_rtl_target(self):
        env = make_nvm_environment(1)
        result = env.run_test("TEST_NVM_PAGE_001", SC88A, "rtl")
        assert result.status is RunStatus.PASS
        assert result.platform == "rtl"

    def test_run_all(self):
        env = make_nvm_environment(2)
        results = env.run_all(SC88B)
        assert len(results) == 2
        assert all(r.passed for r in results.values())

    def test_figure7_wrapper_absorbs_firmware_rewrite(self):
        """The core Figure 7 scenario: the SAME test source passes on a
        derivative whose firmware renamed the entry point and swapped
        its input registers."""
        from repro.core.workloads import make_reginit_environment

        env = make_reginit_environment()
        for derivative in (SC88A, SC88D):
            result = env.run_test("TEST_REG_INIT_001", derivative)
            assert result.passed, derivative.name

    def test_max_instructions_override(self):
        env = make_nvm_environment(1)
        result = env.run_test(
            "TEST_NVM_PAGE_001", SC88A, max_instructions=3
        )
        assert result.status is RunStatus.TIMEOUT


def _edit_cell(env):
    env.cells["TEST_NVM_PAGE_001"].source += "\n    NOP\n"


def _edit_define(env):
    env.defines.set_extra("TEST1_TARGET_PAGE", 11)


def _edit_base_functions(env):
    env.extra_base_functions = "Base_Custom:\n    RETURN\n"


class TestSourceStateMemo:
    """``build_image`` hashes an environment's sources once per state,
    and every edit of them starts a new state."""

    @staticmethod
    def build(env):
        return env.build_image("TEST_NVM_PAGE_001", SC88A, TARGET_GOLDEN)

    def test_unchanged_environment_returns_the_memoised_image(
        self, monkeypatch
    ):
        from repro.core import environment

        env = make_nvm_environment(2)
        first = self.build(env)
        hashed = []
        real = environment._files_fingerprint
        monkeypatch.setattr(
            environment, "_files_fingerprint",
            lambda files: hashed.append(files) or real(files),
        )
        assert self.build(env) is first
        assert env.build_image(
            "TEST_NVM_PAGE_001", SC88A, TARGET_RTL
        ) is not first
        assert hashed == []

    @pytest.mark.parametrize(
        "edit",
        [_edit_cell, _edit_define, _edit_base_functions],
        ids=["cell_source", "set_extra", "extra_base_functions"],
    )
    def test_edit_between_builds_yields_a_new_image(self, edit):
        env = make_nvm_environment(1)
        first = self.build(env)
        fingerprint = env.source_fingerprint()
        edit(env)
        second = self.build(env)
        assert env.source_fingerprint() != fingerprint
        assert second is not first
        assert second.image.digest() != first.image.digest()
        fresh = make_nvm_environment(1)
        edit(fresh)
        assert second.image.digest() == self.build(fresh).image.digest()

    def test_cell_edit_keeps_the_base_functions_object(self):
        """Objects are keyed by content: an edited cell re-assembles
        only itself."""
        env = make_nvm_environment(1)
        first = self.build(env)
        _edit_cell(env)
        second = self.build(env)
        assert second.test_object is not first.test_object
        assert second.base_functions_object is first.base_functions_object
        assert second.global_objects is first.global_objects


class TestGlobalLayer:
    def test_library_files(self):
        layer = GlobalLayer()
        files = layer.library_files()
        assert "Trap_Handlers.asm" in files
        assert "Global_Test_Functions.asm" in files

    def test_shared_layer_reused_across_environments(self):
        layer = GlobalLayer([SC88A])
        env1 = ModuleTestEnvironment(
            "NVM", derivatives=[SC88A], global_layer=layer
        )
        env2 = ModuleTestEnvironment(
            "UART", derivatives=[SC88A], global_layer=layer
        )
        assert env1.global_layer is env2.global_layer

    def test_trap_handler_fails_test_on_unexpected_trap(self):
        env = ModuleTestEnvironment("NVM", derivatives=[SC88A])
        env.add_test(
            TestCell(
                name="TEST_TRAPS",
                source=(
                    ".INCLUDE Globals.inc\n"
                    "_main:\n"
                    "    TRAP 5\n"            # unexpected trap
                    "    JMP Base_Report_Pass\n"
                ),
            )
        )
        result = env.run_test("TEST_TRAPS", SC88A)
        assert result.status is RunStatus.FAIL
