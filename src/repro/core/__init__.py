"""ADVM core: the paper's methodology as an executable library.

The pieces map one-to-one onto the paper's figures and claims:

- :mod:`~repro.core.environment` — the three-layer module test
  environment (Figure 1) and the shared global layer;
- :mod:`~repro.core.defines` / :mod:`~repro.core.basefuncs` — the
  abstraction layer generators (``Globals.inc``, ``Base_Functions.asm``,
  Figures 6 and 7);
- :mod:`~repro.core.violations` — the Figure 2 abuse checker;
- :mod:`~repro.core.workspace` — the Figure 3/5 directory trees;
- :mod:`~repro.core.system_env` — the complete environment (Figure 4);
- :mod:`~repro.core.porting` — rapid-porting measurement (the headline
  claim) with a hardwired baseline;
- :mod:`~repro.core.release` — §3's frozen release labels;
- :mod:`~repro.core.regression` — cross-platform regressions and
  divergence attribution;
- :mod:`~repro.core.crg` — §2's constrained-random ``Globals.inc``
  generation;
- :mod:`~repro.core.coverage` / :mod:`~repro.core.testplan` — what the
  suite exercised vs what was planned.

Each public name resolves on first use (PEP 562) and imports only
the submodule defining it, so a ``regress`` loads none of the porting,
release, CRG or coverage code it never calls.
"""

from repro import lazy_exports

#: Public name -> the submodule that defines it (``__all__`` order).
_ORIGINS = {
    "ALL_TARGETS": "targets",
    "BuildArtifacts": "environment",
    "CoverageCollector": "coverage",
    "CoverageReport": "coverage",
    "DefineConstraint": "crg",
    "DefineEntry": "defines",
    "DiskBuilder": "workspace",
    "Divergence": "regression",
    "EffortReport": "metrics",
    "EnvironmentLabel": "release",
    "FileDiff": "metrics",
    "FrozenEnvironment": "release",
    "GlobalDefines": "defines",
    "GlobalLayer": "environment",
    "IsolationViolation": "system_env",
    "ModuleTestEnvironment": "environment",
    "PlanItem": "testplan",
    "PortComparison": "porting",
    "PortOutcome": "porting",
    "RandomGlobalsGenerator": "crg",
    "RandomInstance": "crg",
    "RegressionReport": "regression",
    "ReleaseManager": "release",
    "SystemEnvironment": "system_env",
    "SystemLabel": "release",
    "Target": "targets",
    "TestCell": "environment",
    "TestPlan": "testplan",
    "Violation": "violations",
    "ViolationKind": "violations",
    "all_targets": "targets",
    "check_cell": "violations",
    "check_environment": "violations",
    "compare_effort": "metrics",
    "compare_nvm_port": "porting",
    "coverage_of_campaign": "crg",
    "diff_files": "metrics",
    "generate_base_functions": "basefuncs",
    "load_module_environment": "workspace",
    "loc": "metrics",
    "make_datapath_environment": "workloads",
    "make_default_system": "system_env",
    "make_hardwired_nvm_suite": "porting",
    "make_nvm_environment": "workloads",
    "make_register_environment": "workloads",
    "make_reginit_environment": "workloads",
    "make_timer_environment": "workloads",
    "make_uart_environment": "workloads",
    "port_advm_environment": "porting",
    "port_hardwired_suite": "porting",
    "regression_matrix": "reporting",
    "render_table": "reporting",
    "target": "targets",
    "validate_module_tree": "workspace",
    "validate_system_tree": "workspace",
    "write_module_environment": "workspace",
    "write_system_environment": "workspace",
}

__all__ = list(_ORIGINS)

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
