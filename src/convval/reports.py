"""Shared result record for executable law checks, and the law suites' names."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

# The law suites ``convval laws`` runs, in order; ``laws.SUITES`` maps each
# name to its runner.  They are named here so the CLI can list them without
# importing ``laws``.
SUITE_NAMES = ("valuation", "invariance", "growth", "convergence", "staircase", "conjugacy")


@dataclass(frozen=True)
class LawReport:
    """Outcome of one identity check.

    ``passed`` is equivalent to |left - right| <= tolerance; exact paths use
    tolerance 0 on rational values.  ``witness`` records the point/level/seed
    at which a failing comparison occurred.
    """
    law: str
    inputs: str
    passed: bool
    left: Any = None
    right: Any = None
    tolerance: Any = 0
    witness: Any = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed
