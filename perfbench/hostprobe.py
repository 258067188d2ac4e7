"""Host-speed probe: a fixed pure-Python task, run as a fresh process.

    python3 perfbench/hostprobe.py

The benchmark runs it before and after every timed run and times it from
spawn to exit, like the program under test.  The task never changes, so
its time tells how fast the shared host is running at that moment:
interpreter start-up, then tokenising, hashing and serialising about
15,000 assembler-like lines, the kind of work the program does.
"""

import hashlib
import json
import random
import re

TOKEN = re.compile(r"\s*(?:(\w+:)|([A-Z]+)\b|(#?-?\w+)|(,)|(;.*))")


def main() -> None:
    rng = random.Random(7)
    symbols = {}
    digests = []
    for index in range(15_000):
        mnemonic = rng.choice(("MOV", "ADD", "SUB", "JMP", "NOP"))
        line = f"L{index}: {mnemonic} R{index % 8}, #{rng.randrange(256)} ; c"
        tokens = [match.group(0).strip() for match in TOKEN.finditer(line)]
        symbols[tokens[0]] = index
        digests.append(hashlib.sha256(" ".join(tokens).encode()).hexdigest())
    blob = json.dumps({"symbols": symbols, "digests": sorted(digests)})
    if len(blob) < 1_000_000:
        raise SystemExit("host probe: unexpected output size")


if __name__ == "__main__":
    main()
