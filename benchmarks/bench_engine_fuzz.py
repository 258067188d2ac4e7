"""Long differential fuzz campaign across the execution engines.

Tier-1 (``tests/test_engine_fuzz.py``) runs the program strategy on a
small derandomized budget so every commit is checked against the same
programs.  This bench runs the same strategy for a longer, randomly
seeded campaign — new programs on every run — comparing the default
engine and the reference interpreter on golden, rtl and the
accelerator (cached result payload and bus trace).  A failure
prints the falsifying program; commit it to ``tests/test_engine_fuzz.py``
as a plain regression test.

Also runnable as a script: ``python benchmarks/bench_engine_fuzz.py
[--quick]`` — the CI perf-smoke job uses ``--quick``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from conftest import shape

# Appended, not prepended: ``conftest`` above must stay this directory's.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))

from test_engine_fuzz import fuzz_campaign  # noqa: E402

FULL_EXAMPLES = 300
QUICK_EXAMPLES = 100


def run_campaign(examples: int) -> dict:
    start = time.perf_counter()
    totals = fuzz_campaign(examples, derandomize=False)
    elapsed = time.perf_counter() - start
    # The campaign must reach the tiers it guards: superblocks ran and
    # idle spins were warped.
    assert totals["sb_blocks"] > 0, totals
    assert totals["ff_warps"] > 0, totals
    return {
        "examples": examples,
        "seconds": round(elapsed, 1),
        "sb_blocks": totals["sb_blocks"],
        "ff_warps": totals["ff_warps"],
        "sb_replays": totals["sb_replays"],
    }


def test_engine_fuzz_campaign():
    numbers = run_campaign(FULL_EXAMPLES)
    shape(
        f"engine fuzz: {numbers['examples']} random programs x 3 targets "
        f"x 2 engines identical ({numbers['sb_blocks']} superblocks, "
        f"{numbers['ff_warps']} warps) in {numbers['seconds']}s"
    )


def main(argv: list[str]) -> int:
    examples = QUICK_EXAMPLES if "--quick" in argv else FULL_EXAMPLES
    try:
        numbers = run_campaign(examples)
    except AssertionError as failure:
        print(f"FAIL: {failure}")
        return 1
    print(
        f"engine fuzz: {numbers['examples']} programs identical on every "
        f"engine ({numbers['sb_blocks']} superblocks, "
        f"{numbers['ff_warps']} warps, {numbers['sb_replays']} replays) "
        f"in {numbers['seconds']}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
