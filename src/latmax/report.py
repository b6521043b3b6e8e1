"""Outcome record for checker/observation runs, serializable as JSON lines."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

HOLDS = "Holds"
COUNTEREXAMPLE = "CounterexampleFound"


@dataclass
class CheckReport:
    claim: str
    corpus: str
    instances_checked: int
    status: str
    witness: dict | None = field(default=None)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "CheckReport":
        return cls(**json.loads(line))
