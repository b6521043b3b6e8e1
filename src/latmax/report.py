"""Outcome record for checker/observation runs, serializable as JSON lines."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

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
        return json.dumps(
            {
                "claim": self.claim,
                "corpus": self.corpus,
                "instances_checked": self.instances_checked,
                "status": self.status,
                "witness": self.witness,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "CheckReport":
        d = json.loads(line)
        return cls(
            claim=d["claim"],
            corpus=d["corpus"],
            instances_checked=d["instances_checked"],
            status=d["status"],
            witness=d.get("witness"),
        )
