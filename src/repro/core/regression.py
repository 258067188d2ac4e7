"""Regression reports and cross-platform divergence detection.

Two paper claims live here:

- §1: the same assembler suite performs functional verification of every
  development platform — so a regression is a (cells × platforms) matrix;
- §1/§2: when platforms disagree on a test, "a bug or issue has been
  found in that particular simulation domain" — every platform's verdict
  is compared against the golden model and divergence is attributed.

:class:`~repro.core.scheduler.RegressionScheduler` runs the matrix and
fills a :class:`RegressionReport`.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.verdict import RunResult, RunStatus

REFERENCE_TARGET = "golden"


class Divergence(NamedTuple):
    """One platform disagreeing with the reference on one test."""

    environment: str
    test_name: str
    platform: str
    reference_status: RunStatus
    observed_status: RunStatus

    def __str__(self) -> str:
        return (
            f"{self.environment}/{self.test_name}: platform "
            f"{self.platform!r} says {self.observed_status.value}, "
            f"golden says {self.reference_status.value}"
        )


class RegressionReport:
    """Everything one regression produced."""

    __slots__ = (
        "derivative", "results", "divergences", "executed_runs",
        "cached_runs", "retried_runs", "quarantined_runs", "stolen_runs",
    )

    def __init__(self, derivative: str):
        self.derivative = derivative
        #: (environment, test, target) -> result
        self.results: dict[tuple[str, str, str], RunResult] = {}
        self.divergences: list[Divergence] = []
        #: Platform runs actually executed vs. served from the persistent
        #: result cache, whichever fleet peer wrote the verdict
        #: (incremental regression bookkeeping).
        self.executed_runs = 0
        self.cached_runs = 0
        #: Fault-tolerance bookkeeping: runs that needed more than one
        #: attempt, and cells quarantined as synthesized FAULT verdicts
        #: after the attempt budget.
        self.retried_runs = 0
        self.quarantined_runs = 0
        #: Fleet bookkeeping: runs executed under a lease stolen from a
        #: dead (expired) worker.
        self.stolen_runs = 0

    @property
    def total_runs(self) -> int:
        return len(self.results)

    @property
    def passing_runs(self) -> int:
        return sum(
            1
            for r in self.results.values()
            if r.status in (RunStatus.PASS, RunStatus.NO_DATA)
        )

    @property
    def clean(self) -> bool:
        return not self.divergences and self.passing_runs == self.total_runs

    def suspect_platforms(self) -> dict[str, int]:
        """Platform -> number of divergent tests (the bug attribution)."""
        counts: dict[str, int] = {}
        for divergence in self.divergences:
            counts[divergence.platform] = (
                counts.get(divergence.platform, 0) + 1
            )
        return counts

    def summary(self) -> str:
        lines = [
            f"regression on {self.derivative}: "
            f"{self.passing_runs}/{self.total_runs} runs ok, "
            f"{len(self.divergences)} divergence(s)"
        ]
        lines.append(
            f"  {self.executed_runs} run(s) executed, "
            f"{self.cached_runs} served from cache"
        )
        if self.stolen_runs:
            lines.append(
                f"  fleet: {self.stolen_runs} lease(s) stolen from dead "
                "workers"
            )
        if self.retried_runs or self.quarantined_runs:
            lines.append(
                f"  fault tolerance: {self.retried_runs} retried, "
                f"{self.quarantined_runs} quarantined"
            )
        for platform, count in sorted(self.suspect_platforms().items()):
            lines.append(
                f"  platform {platform!r} diverges on {count} test(s) "
                "-> suspected platform bug"
            )
        return "\n".join(lines)


def detect_divergences(
    env_name: str,
    cell_name: str,
    per_target: dict[str, RunResult],
    report: RegressionReport,
) -> None:
    """Compare one cell's per-target verdicts against the golden model
    and record divergences (the paper's bug-attribution step)."""
    if REFERENCE_TARGET not in per_target:
        return
    reference = per_target[REFERENCE_TARGET]
    for target_name, result in per_target.items():
        if target_name == REFERENCE_TARGET:
            continue
        # NO_DATA platforms (product silicon without pin reporting)
        # cannot diverge — they report nothing.
        if result.status is RunStatus.NO_DATA:
            continue
        if result.status is not reference.status:
            report.divergences.append(
                Divergence(
                    environment=env_name,
                    test_name=cell_name,
                    platform=target_name,
                    reference_status=reference.status,
                    observed_status=result.status,
                )
            )
