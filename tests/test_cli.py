"""Tests for the ``advm`` command-line driver."""

import pytest

from repro.cli import main
from repro.core.workspace import SYSTEM_DIR_NAME


@pytest.fixture
def workspace(tmp_path):
    code = main(
        ["init", str(tmp_path), "--nvm-tests", "2", "--uart-tests", "1"]
    )
    assert code == 0
    return tmp_path / SYSTEM_DIR_NAME


class TestInitValidate:
    def test_init_writes_tree(self, workspace, capsys):
        assert workspace.is_dir()
        assert (workspace / "Global_Libraries").is_dir()

    def test_validate_clean(self, workspace, capsys):
        assert main(["validate", str(workspace)]) == 0
        assert "tree OK" in capsys.readouterr().out

    def test_validate_parent_dir_accepted(self, workspace, capsys):
        assert main(["validate", str(workspace.parent)]) == 0

    def test_validate_broken_tree(self, workspace, capsys):
        (workspace / "NVM" / "TESTPLAN.TXT").unlink()
        assert main(["validate", str(workspace)]) == 1
        assert "issue:" in capsys.readouterr().out


class TestRun:
    def test_run_passing_test(self, workspace, capsys):
        code = main(
            ["run", str(workspace), "NVM", "TEST_NVM_PAGE_001"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert "signature" in out

    def test_run_other_derivative_and_target(self, workspace, capsys):
        code = main(
            [
                "run", str(workspace), "NVM", "TEST_NVM_PAGE_001",
                "--derivative", "sc88c", "--target", "rtl",
            ]
        )
        assert code == 0
        assert "rtl/sc88c" in capsys.readouterr().out

    def test_run_unknown_derivative_raises(self, workspace, capsys):
        with pytest.raises(SystemExit) as exited:
            main(
                [
                    "run", str(workspace), "NVM", "TEST_NVM_PAGE_001",
                    "--derivative", "sc99",
                ]
            )
        assert exited.value.code == 2
        assert_one_line_naming(capsys, "derivative 'sc99'", "sc88a")


def assert_one_line_naming(capsys, unknown, available):
    """Exactly one stderr line naming the bad value and the choices,
    no traceback, nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert f"unknown {unknown}" in line
    assert "available:" in line and available in line


@pytest.mark.parametrize(
    "argv, unknown, available",
    [
        (["regress", "{ws}", "--targets", "golden,bogus"],
         "target 'bogus'", "golden"),
        (["regress", "{ws}", "--derivative", "sc99"],
         "derivative 'sc99'", "sc88a"),
        (["run", "{ws}", "NVM", "TEST_NVM_PAGE_001", "--target", "fpga"],
         "target 'fpga'", "rtl"),
    ],
)
def test_unknown_name_exits_2_with_one_line(
    workspace, capsys, argv, unknown, available
):
    with pytest.raises(SystemExit) as exited:
        main([arg.format(ws=workspace) for arg in argv])
    assert exited.value.code == 2
    assert_one_line_naming(capsys, unknown, available)


class TestRegress:
    def test_module_regression(self, workspace, capsys):
        code = main(
            [
                "regress", str(workspace), "NVM",
                "--targets", "golden,rtl",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "golden" in out and "rtl" in out
        assert "0 divergence(s)" in out

    def test_system_regression(self, workspace, capsys):
        code = main(
            ["regress", str(workspace), "--targets", "golden"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NVM/" in out and "UART/" in out

    def test_engine_stats_summary(self, workspace, capsys):
        code = main(
            [
                "regress", str(workspace), "NVM",
                "--targets", "golden", "--engine-stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine-stats:" in out
        assert "sb_replays=" in out
        assert "sb_blocks=" in out
        assert "jit_" not in out
        assert "registry_size=" in out


class TestPort:
    def test_port_command(self, capsys):
        code = main(["port", "--suite", "2", "--to", "sc88b"])
        assert code == 0
        out = capsys.readouterr().out
        assert "saving factor" in out


class TestGrepPlan:
    def test_grep_hits(self, workspace, capsys):
        code = main(["grep-plan", str(workspace), "NVM_"])
        assert code == 0
        out = capsys.readouterr().out
        assert "NVM_001" in out

    def test_grep_miss(self, workspace, capsys):
        code = main(["grep-plan", str(workspace), "ZZZ_NO_MATCH"])
        assert code == 1


class TestCheck:
    def test_clean_module(self, workspace, capsys):
        code = main(["check", str(workspace), "NVM"])
        assert code == 0
        assert "no abstraction-layer violations" in capsys.readouterr().out

    def test_abusive_module_flagged(self, workspace, capsys):
        abusive_dir = workspace / "NVM" / "TEST_ABUSE"
        abusive_dir.mkdir()
        (abusive_dir / "test.asm").write_text(
            ".INCLUDE Globals.inc\n"
            "_main:\n"
            "    LOAD a4, 0xF0002000\n"
            "    JMP Base_Report_Pass\n"
        )
        code = main(["check", str(workspace), "NVM"])
        assert code == 1
        assert "violation:" in capsys.readouterr().out


class TestDerivatives:
    def test_catalogue_listing(self, capsys):
        assert main(["derivatives"]) == 0
        out = capsys.readouterr().out
        for name in ("sc88a", "sc88b", "sc88c", "sc88d"):
            assert name in out
