"""TESTPLAN.TXT — the plain-text module test plan.

The paper: *"Every test environment should contain a plain text file that
contains the test plan for the module ... The principle reason for using
plain text is that it can be searched (grep'ed) easily from the command
line."*

Format, one item per line (comment lines start with ``;;``)::

    ID | STATUS | DESCRIPTION

Statuses track the directed-test lifecycle: ``planned`` (no test yet),
``implemented`` (test exists), ``passing`` (seen green in a regression).
"""

from __future__ import annotations

import re

VALID_STATUSES = ("planned", "implemented", "passing")


class PlanItem:
    __slots__ = ("item_id", "status", "description")

    def __init__(self, item_id: str, status: str, description: str):
        if status not in VALID_STATUSES:
            raise ValueError(
                f"plan item {item_id}: bad status {status!r} "
                f"(expected one of {VALID_STATUSES})"
            )
        self.item_id = item_id
        self.status = status
        self.description = description

    def render(self) -> str:
        return f"{self.item_id} | {self.status} | {self.description}"


class TestPlan:
    """The module test plan: ordered items, grep-able text round-trip."""

    # Not a pytest class, despite the Test* name.
    __test__ = False
    __slots__ = ("module", "items")

    def __init__(self, module: str, items: list[PlanItem] | None = None):
        self.module = module
        self.items = [] if items is None else items

    def add(
        self, item_id: str, description: str, status: str = "planned"
    ) -> PlanItem:
        if self.find(item_id) is not None:
            raise ValueError(f"duplicate plan item {item_id!r}")
        item = PlanItem(item_id, status, description)
        self.items.append(item)
        return item

    def find(self, item_id: str) -> PlanItem | None:
        for item in self.items:
            if item.item_id == item_id:
                return item
        return None

    def mark(self, item_id: str, status: str) -> None:
        item = self.find(item_id)
        if item is None:
            raise KeyError(f"no plan item {item_id!r}")
        if status not in VALID_STATUSES:
            raise ValueError(f"bad status {status!r}")
        item.status = status

    def grep(self, pattern: str) -> list[PlanItem]:
        """The paper's reason for plain text: searchable from the shell."""
        regex = re.compile(pattern)
        return [
            item
            for item in self.items
            if regex.search(item.render()) is not None
        ]

    # -- text round trip ------------------------------------------------------
    def to_text(self) -> str:
        lines = [
            f";; TESTPLAN.TXT for {self.module}",
            ";; ID | STATUS | DESCRIPTION",
        ]
        lines += [item.render() for item in self.items]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, module: str = "MODULE") -> "TestPlan":
        plan = cls(module=module)
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith(";;"):
                match = re.match(r";; TESTPLAN\.TXT for (\S+)", line)
                if match:
                    plan.module = match.group(1)
                continue
            parts = [p.strip() for p in line.split("|", 2)]
            if len(parts) != 3:
                raise ValueError(f"malformed test plan line: {raw!r}")
            plan.items.append(PlanItem(parts[0], parts[1], parts[2]))
        return plan

    # -- coverage view -----------------------------------------------------
    def summary(self) -> dict[str, int]:
        counts = {status: 0 for status in VALID_STATUSES}
        for item in self.items:
            counts[item.status] += 1
        counts["total"] = len(self.items)
        return counts

    def completion_ratio(self) -> float:
        if not self.items:
            return 1.0
        passing = sum(1 for i in self.items if i.status == "passing")
        return passing / len(self.items)
