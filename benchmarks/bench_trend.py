"""Aggregate every ``BENCH_*.json`` into one ``BENCH_trend.json``.

Each engine PR emits its own benchmark JSON (``BENCH_exec_engine``,
``BENCH_memsys``, ``BENCH_dispatch``, ``BENCH_superblock``, ...), which
makes the per-PR speedup trajectory invisible unless someone opens four
files.  This module walks every benchmark JSON next to the repository
root, extracts the speedup/reduction figures wherever they sit in each
bench's schema, tags them with the PR that introduced the bench, and
emits a single ``BENCH_trend.json`` with the chronological trajectory.

Runs as a pytest module (CI wires it after the bench smokes so the
artifact upload carries the aggregate) and as a script::

    python benchmarks/bench_trend.py [--check]

``--check`` turns the write-only trend file into a **regression gate**:
after aggregating, every figure with a committed floor (the
:data:`BENCH_FLOORS` table plus any ``min_required`` embedded in a
bench's own JSON) is compared against its floor, and the run fails if
any measured speedup has dropped below it — so a perf regression in an
*old* bench fails CI instead of silently rewriting the trend.
"""

from __future__ import annotations

import json
import sys

from conftest import shape
from _harness import REPO_ROOT, BenchResults

#: Bench name -> the PR whose ISSUE introduced it (the engine series;
#: figure/claim benches reproduce the paper and carry no speedup
#: trajectory of their own).
BENCH_PR: dict[str, int] = {
    "exec_engine": 1,
    "memsys": 2,
    "dispatch": 3,
    "superblock": 4,
    "trace_fastpath": 5,
    "resilience": 7,
    "serving": 9,
    "artifact_store": 10,
}

#: Committed speedup floors: dotted figure path -> the minimum each
#: engine PR's acceptance tied the repo to.  Deliberately the asserted
#: floors, not the (much higher) measured figures, so noisy CI runners
#: don't flap the gate.  Floors embedded in a bench's own JSON as
#: ``min_required`` (next to a ``speedup``) are honoured additionally.
BENCH_FLOORS: dict[str, dict[str, float]] = {
    "exec_engine": {"matrix.speedup": 2.0},
    "memsys": {"untraced.speedup": 1.3, "traced_coverage.speedup": 2.0},
    "dispatch": {"untraced.speedup": 1.5},
    # Raised from 2.0 once measured against the reference interpreter:
    # ~2,800-4,500x with the idle-spin warp, 23-58x without it.
    "superblock": {"delay_fast_forward.speedup": 500.0},
    # Raised from 2.0 the same way: ~520-880x with the warp, 14-48x
    # without it.
    "trace_fastpath": {
        "traced_coverage.speedup": 150.0,
        "wait_states.speedup": 150.0,
    },
    # PR 7 is a robustness PR: its floor asserts the supervision layer
    # is free (>= 0.95x of raw sessions, i.e. <= 5% overhead), not fast.
    "resilience": {"zero_fault.speedup": 0.95},
    # PR 9 acceptance: a warm serving daemon answers the same scenario
    # pack >= 2x faster than a cold per-request service.
    "serving": {"warm_pool.speedup": 2.0},
    # PR 10 acceptance: warming a cold process from the artifact store
    # beats full re-predecode >= 1.5x, and the always-on store layer
    # costs at most 5% on a zero-fault matrix.
    "artifact_store": {
        "warm_start.speedup": 1.5,
        "zero_fault.speedup": 0.95,
    },
}

#: Keys whose numeric values are trajectory figures.
_TREND_KEYS = ("speedup", "reduction")


def extract_figures(data, prefix: str = "") -> dict[str, float]:
    """Every ``speedup``/``reduction`` number in *data*, keyed by its
    dotted path — schema-agnostic, so new benches join the trend by
    just emitting JSON."""
    figures: dict[str, float] = {}
    if isinstance(data, dict):
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ) and any(key.endswith(suffix) for suffix in _TREND_KEYS):
                figures[path] = float(value)
            else:
                figures.update(extract_figures(value, path))
    elif isinstance(data, list):
        for index, value in enumerate(data):
            figures.update(extract_figures(value, f"{prefix}[{index}]"))
    return figures


def extract_embedded_floors(data, prefix: str = "") -> dict[str, float]:
    """Floors a bench committed to in its own JSON: every dict carrying
    a ``min_required`` next to a ``speedup`` pins that speedup."""
    floors: dict[str, float] = {}
    if isinstance(data, dict):
        if "speedup" in data and isinstance(
            data.get("min_required"), (int, float)
        ):
            path = f"{prefix}.speedup" if prefix else "speedup"
            floors[path] = float(data["min_required"])
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else key
            floors.update(extract_embedded_floors(value, path))
    elif isinstance(data, list):
        for index, value in enumerate(data):
            floors.update(extract_embedded_floors(value, f"{prefix}[{index}]"))
    return floors


def merged_floors(name: str, data) -> dict[str, float]:
    """Floors governing one bench: committed :data:`BENCH_FLOORS`
    entries win over embedded ``min_required`` values when both exist
    (a quick-mode JSON's lower floor must not weaken the gate);
    embedded floors add coverage for figures the table does not list."""
    floors = extract_embedded_floors(data)
    for figure_path, floor in BENCH_FLOORS.get(name, {}).items():
        floors[figure_path] = max(floor, floors.get(figure_path, floor))
    return floors


def check_floors(benches: dict) -> list[str]:
    """Floor violations across aggregated benches (empty = gate holds).

    A floored figure that vanished from a bench's JSON counts as a
    violation too: a schema change must move its floor explicitly, not
    dodge the gate."""
    violations: list[str] = []
    for name, info in sorted(benches.items()):
        figures = info["figures"]
        for path, floor in sorted(info.get("floors", {}).items()):
            measured = figures.get(path)
            if measured is None:
                violations.append(
                    f"{name}: {path} missing (committed floor {floor}x)"
                )
            elif measured < floor:
                violations.append(
                    f"{name}: {path} = {measured}x below committed "
                    f"floor {floor}x"
                )
    return violations


def build_trend() -> dict:
    benches = {}
    for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
        name = path.stem.removeprefix("BENCH_")
        if name == "trend":
            continue  # never aggregate our own output
        data = json.loads(path.read_text())
        figures = extract_figures(data)
        floors = merged_floors(name, data)
        benches[name] = {
            "pr": BENCH_PR.get(name),
            "figures": figures,
            "floors": floors,
            "peak_speedup": max(figures.values()) if figures else None,
        }
    trajectory = [
        {
            "pr": info["pr"],
            "bench": name,
            "peak_speedup": info["peak_speedup"],
        }
        for name, info in sorted(
            benches.items(),
            key=lambda item: (item[1]["pr"] is None, item[1]["pr"], item[0]),
        )
        if info["pr"] is not None
    ]
    return {"benches": benches, "trajectory": trajectory}


def emit_trend():
    results = BenchResults("trend")
    trend = build_trend()
    results["benches"] = trend["benches"]
    results["trajectory"] = trend["trajectory"]
    return results.emit(), trend


def test_trend_aggregates_every_engine_bench():
    # ``BENCH_*.json`` are generated artifacts (gitignored): CI runs
    # this after the bench smokes, so all engine JSONs exist there.  On
    # a fresh clone where no bench has run yet there is nothing to
    # aggregate — skip rather than fail the suite.
    missing = [
        name
        for name in BENCH_PR
        if not (REPO_ROOT / f"BENCH_{name}.json").exists()
    ]
    if missing:
        import pytest

        pytest.skip(
            "engine bench JSONs not generated yet: "
            + ", ".join(f"BENCH_{name}.json" for name in missing)
        )
    path, trend = emit_trend()
    benches = trend["benches"]
    for name in BENCH_PR:
        assert name in benches, f"BENCH_{name}.json missing from trend"
        assert benches[name]["figures"], f"{name}: no speedup figures"
    prs = [point["pr"] for point in trend["trajectory"]]
    assert prs == sorted(prs)
    # The regression gate itself must hold on the freshly measured
    # numbers (the same check ``--check`` applies in CI).
    assert check_floors(benches) == []
    shape(
        f"trend: {len(benches)} bench files -> {path.name}, trajectory "
        + " ".join(
            f"PR{point['pr']}:{point['peak_speedup']}x"
            for point in trend["trajectory"]
        )
    )


def test_check_floors_flags_regressions():
    """The gate logic: figures below (or missing from) their committed
    floor are violations; healthy figures pass."""
    benches = {
        "alpha": {
            "figures": {"hot.speedup": 4.0, "cold.speedup": 1.1},
            "floors": {"hot.speedup": 2.0, "cold.speedup": 1.5},
        },
        "beta": {
            "figures": {},
            "floors": {"gone.speedup": 2.0},
        },
        "gamma": {
            "figures": {"fine.speedup": 9.9},
            "floors": {"fine.speedup": 2.0},
        },
    }
    violations = check_floors(benches)
    assert len(violations) == 2
    assert any("cold.speedup" in violation for violation in violations)
    assert any("gone.speedup" in violation for violation in violations)
    assert not any("fine" in violation for violation in violations)
    assert check_floors({"gamma": benches["gamma"]}) == []


def test_embedded_floors_are_extracted():
    data = {
        "delay": {"speedup": 5.0, "min_required": 2.0},
        "nested": {"inner": {"speedup": 1.2, "min_required": 1.5}},
        "no_floor": {"speedup": 3.0},
    }
    floors = extract_embedded_floors(data)
    assert floors == {"delay.speedup": 2.0, "nested.inner.speedup": 1.5}


def test_committed_floors_win_over_weaker_embedded_ones():
    """A quick-mode JSON embedding min_required=1.5 must not lower the
    committed floor; embedded floors the table doesn't know still
    apply."""
    data = {
        "traced_coverage": {"speedup": 1.7, "min_required": 1.5},
        "extra": {"speedup": 3.0, "min_required": 2.5},
    }
    floors = merged_floors("trace_fastpath", data)
    assert floors["traced_coverage.speedup"] == (
        BENCH_FLOORS["trace_fastpath"]["traced_coverage.speedup"]
    )
    assert floors["extra.speedup"] == 2.5
    # And the gate therefore flags the 1.7x figure.
    benches = {
        "trace_fastpath": {
            "figures": extract_figures(data),
            "floors": floors,
        }
    }
    assert any(
        "traced_coverage.speedup" in violation
        for violation in check_floors(benches)
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check = "--check" in argv
    path, trend = emit_trend()
    print(f"wrote {path}")
    for point in trend["trajectory"]:
        print(
            f"  PR {point['pr']}: {point['bench']} "
            f"peak speedup {point['peak_speedup']}x"
        )
    if check:
        violations = check_floors(trend["benches"])
        # A floored bench whose JSON never materialized (renamed bench,
        # dropped CI step) must not dodge the gate by absence.
        violations += [
            f"{name}: BENCH_{name}.json missing "
            f"({len(floors)} committed floor(s) unevaluated)"
            for name, floors in sorted(BENCH_FLOORS.items())
            if floors and name not in trend["benches"]
        ]
        if violations:
            for violation in violations:
                print(f"FAIL: {violation}")
            return 1
        floored = sum(
            len(info.get("floors", {}))
            for info in trend["benches"].values()
        )
        print(f"check: {floored} committed floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
