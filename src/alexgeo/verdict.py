"""One verdict type: a measured value held against its pinned limit.

Every check of the library holds one of the paper's comparison
inequalities against a tolerance.  A `Margin` is one such gate.  A
report lists its margins, and its verdict (`passed`), its printed line
(`line`) and its JSON are all read from that list, so each limit is
written once.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

_SENSES = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Margin:
    """The gate `observed sense limit`, with sense one of <, <=, >= and >."""

    name: str
    observed: float
    limit: float
    sense: str

    @property
    def ok(self):
        """Whether the gate holds; a NaN observed value fails every sense."""
        return _SENSES[self.sense](self.observed, self.limit)

    def __str__(self):
        value = f"{self.observed}" if isinstance(self.observed, int) else f"{self.observed:.3e}"
        return f"{self.name} {value} ({self.sense} {self.limit:g})"


def passed(margins):
    """True when there is at least one margin and every margin holds: a
    check with no gate shows nothing."""
    return bool(margins) and all(m.ok for m in margins)


def line(margins):
    """The margins as one printed line."""
    return "; ".join(map(str, margins))
