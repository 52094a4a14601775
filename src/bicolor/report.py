"""Canonical JSON report objects shared by the constructive engines and CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvariantError

METHODS = ("exhaustive", "certified")


@dataclass
class Check:
    """One named verification outcome and how it was reached.

    `method` is "certified" (a proof read off the verified shape of the
    result, such as the whole moment-curve certificate, the only way a subset
    check passes, or a chain's level-by-level K+ certificate) or
    "exhaustive" (every case tried).  A check that neither decides raises
    instead of being reported, and a Check with any other method raises
    InvariantError when it is made.
    """

    name: str
    passed: bool
    method: str = "exhaustive"

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvariantError(f"check {self.name}: unknown method {self.method!r}")

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "method": self.method}


def checks_json(checks) -> list:
    return [c.to_json() for c in checks]


def canonical_dumps(obj) -> str:
    """Stable byte representation: sorted keys, no whitespace, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
