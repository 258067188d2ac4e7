"""What the user-facing surfaces expose, parsed, and checked against the
reference.

``advm regress`` prints the (cell x platform) status matrix, a summary
and, with ``--engine-stats``/``--store-dir``, ``key=value`` counter
lines.  The daemon streams one NDJSON ``cell`` event per matrix entry
and a terminal ``done``/``error`` event.  Neither surface shows
signatures, instruction or cycle counts, so a run is checked on the
status of every matrix entry, on the entry set being complete, and on
nothing being quarantined.
"""

from __future__ import annotations

import re

_SUMMARY = re.compile(
    r"regression on (\S+): (\d+)/(\d+) runs ok, (\d+) divergence"
)
_EXECUTED = re.compile(r"(\d+) run\(s\) executed, (\d+) served from cache")
_QUARANTINED = re.compile(r"(\d+) quarantined")
_STATS_LINE = re.compile(r"^(engine-stats|store-stats): (.*)$")


def parse_regress(text: str) -> tuple[dict, dict]:
    """``(statuses, counts)`` from ``advm regress`` output.

    *statuses* maps ``(module, cell, target)`` to the printed status;
    *counts* holds the summary figures and every ``key=value`` counter
    of the stats lines (prefixed with the line's name)."""
    statuses: dict[tuple[str, str, str], str] = {}
    counts: dict[str, int] = {}
    lines = text.splitlines()
    platforms: list[str] = []
    in_matrix = False
    for line in lines:
        fields = line.split()
        if not in_matrix:
            if fields and fields[0] == "test" and len(fields) > 1:
                platforms = fields[1:]
            elif platforms and fields and set(line.replace(" ", "")) == {"-"}:
                in_matrix = True
            continue
        if len(fields) != len(platforms) + 1 or "/" not in fields[0]:
            in_matrix = False
            platforms = []
            continue
        module, cell = fields[0].split("/", 1)
        for platform, status in zip(platforms, fields[1:]):
            statuses[(module, cell, platform)] = status
    executed = cached = None
    for line in lines:
        match = _SUMMARY.search(line)
        if match:
            counts["ok_runs"] = int(match.group(2))
            counts["total_runs"] = int(match.group(3))
            counts["divergences"] = int(match.group(4))
        match = _EXECUTED.search(line)
        if match:
            executed, cached = int(match.group(1)), int(match.group(2))
        if "fault tolerance:" in line:
            match = _QUARANTINED.search(line)
            if match:
                counts["quarantined"] = int(match.group(1))
        match = _STATS_LINE.match(line.strip())
        if match:
            for pair in match.group(2).split():
                key, _, value = pair.partition("=")
                if value.lstrip("-").isdigit():
                    counts[f"{match.group(1)}.{key}"] = int(value)
    if "total_runs" in counts:
        if executed is None:
            executed, cached = counts["total_runs"], 0
        counts["executed_runs"] = executed
        counts["cached_runs"] = cached
    return statuses, counts


def mismatches(reference: dict, statuses: dict) -> list[str]:
    """Matrix entries whose observed status differs from the reference
    verdict's, or that are missing or unexpected."""
    problems = []
    for key, verdict in sorted(reference.items()):
        observed = statuses.get(key)
        if observed != verdict[0]:
            problems.append(f"{'/'.join(key)}: {observed} != {verdict[0]}")
    for key in sorted(set(statuses) - set(reference)):
        problems.append(f"{'/'.join(key)}: unexpected entry")
    return problems


def regress_failures(reference: dict, text: str, returncode: int) -> list[str]:
    """Every reason one ``advm regress`` run counts as failed."""
    statuses, counts = parse_regress(text)
    problems = mismatches(reference, statuses)
    if counts.get("quarantined"):
        problems.append(f"{counts['quarantined']} run(s) quarantined")
    expect_clean = all(v[0] == "pass" for v in reference.values())
    if expect_clean and returncode != 0:
        problems.append(f"exit code {returncode}")
    return problems


def stream_failures(
    reference: dict, events: list[dict], module: str
) -> list[str]:
    """Every reason one daemon submission of *module*'s pack counts as
    failed."""
    statuses = {}
    problems = []
    for event in events:
        kind = event.get("event")
        if kind == "cell":
            key = (event["environment"], event["cell"], event["target"])
            statuses[key] = event["status"]
            if event.get("quarantined"):
                problems.append(f"{'/'.join(key)}: quarantined")
        elif kind == "error":
            problems.append(f"job error: {event.get('error')}")
    if not events or events[-1].get("event") != "done":
        problems.append("stream ended without a done event")
    expected = {k: v for k, v in reference.items() if k[0] == module}
    return problems + mismatches(expected, statuses)
