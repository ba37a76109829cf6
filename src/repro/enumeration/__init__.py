"""Plan enumeration algorithms (Section 6).

* :class:`DPEnumerator` — exhaustive bushy dynamic programming over
  csg–cmp pairs (no cross products), with optional tree-shape
  restrictions (left-deep / right-deep / zig-zag, Section 6.2).
* :func:`quickpick` — the randomized Quickpick algorithm (Section 6.1 and
  6.3): pick random join edges until connected; best-of-N plan selection.
* :func:`goo` — Greedy Operator Ordering (Fegaras), Section 6.3.
"""

from repro.enumeration.context import QueryContext
from repro.enumeration.dp import DPEnumerator
from repro.enumeration.goo import goo
from repro.enumeration.quickpick import quickpick, random_plan

__all__ = [
    "QueryContext",
    "DPEnumerator",
    "quickpick",
    "random_plan",
    "goo",
]
