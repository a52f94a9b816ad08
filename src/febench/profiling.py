"""Byte-exact memory accounting for tracked tensors, plus wall-clock timing.

Memory is accounted as *tracked tensor bytes*: every live array registered
with a :class:`MemoryLedger` contributes to one of four categories
(parameters, gradients, optimizer_state, activations).  The ledger only
counts; its owners decide when bytes live and die:
:class:`~febench.tensor.ComputationRecord` charges each activation and
gradient buffer when the step creates it and frees it when CPython frees it
(``torch.cuda.memory_allocated``'s rule), and :mod:`febench.training`
charges parameters and optimizer state.  This is a machine-independent
proxy for device memory; it deliberately excludes interpreter and allocator
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

CATEGORIES = ("parameters", "gradients", "optimizer_state", "activations")


class LedgerError(RuntimeError):
    """Inconsistent ledger operation, e.g. freeing more than was allocated."""


class MemoryLedger:
    """High-water-mark accounting of tensor bytes by category.

    Allocations may carry an optional ``group`` tag (e.g. ``"encoder"`` or
    ``"head"``) so that gradient and optimizer bytes can be attributed to the
    model part that owns them.  One table of current bytes and one of peaks
    hold every figure, keyed by ``None`` (the total), a category, or a
    ``(category, group)`` pair, where group ``None`` holds the category's
    untagged bytes; a charge moves each key it names alike.  Since bytes
    die at different times, the category peaks need not add up to the total
    peak: the ledger also keeps each category's bytes at the moment the
    total peak was first reached.
    """

    def __init__(self):
        self._current = dict.fromkeys((None, *CATEGORIES), 0)
        self._peak = dict(self._current)
        self._at_peak = (0,) * len(CATEGORIES)

    def record_alloc(self, category, nbytes, group=None):
        if category not in CATEGORIES:
            raise LedgerError(f"unknown ledger category {category!r}")
        if nbytes < 0:
            raise LedgerError("allocation size must be non-negative")
        current, peak = self._current, self._peak
        now = current[category] + nbytes
        current[category] = now
        if now > peak[category]:
            peak[category] = now
        key = category, group
        now = current.get(key, 0) + nbytes
        current[key] = now
        if now >= peak.get(key, 0):
            peak[key] = now
        now = current[None] + nbytes
        current[None] = now
        if now > peak[None]:
            peak[None] = now
            self._at_peak = _category_figures(current)

    def record_free(self, category, nbytes, group=None):
        # check before any change: a free takes only its group's bytes, the
        # untagged ones if group is None
        if category not in CATEGORIES:
            raise LedgerError(f"unknown ledger category {category!r}")
        current = self._current
        key = category, group
        free = current.get(key, 0)
        if nbytes > free:
            owner = repr(category) if group is None else f"{category!r}/{group!r}"
            raise LedgerError(f"over-free: releasing {nbytes} bytes from "
                              f"{owner} which holds only {free}")
        current[key] = free - nbytes
        current[category] -= nbytes
        current[None] -= nbytes

    def current(self, category=None):
        return self._current[category]

    def peak(self, category=None):
        return self._peak[category]

    def group_peak(self, category, group):
        return self._peak.get((category, group), 0)

    def breakdown(self):
        """Current and peak bytes per category, each category's bytes when
        the total peak was set, and tagged-group detail."""
        return {
            "current": {c: self._current[c] for c in CATEGORIES},
            "peak": {c: self._peak[c] for c in CATEGORIES},
            "at_peak": dict(zip(CATEGORIES, self._at_peak)),
            "group_current": _by_group(self._current),
            "group_peak": _by_group(self._peak),
        }


_category_figures = itemgetter(*CATEGORIES)


def _by_group(table):
    """``table``'s tagged ``(category, group)`` entries, keyed
    ``"category/group"``."""
    return {f"{c}/{g}": table[c, g] for c, g in sorted(
        k for k in table if isinstance(k, tuple) and k[1] is not None)}


@dataclass
class TimingTrace:
    """Per-epoch durations and run total, from a monotonic clock."""

    epoch_seconds: list = field(default_factory=list)
    total_seconds: float = 0.0

    def check(self):
        if any(t <= 0 for t in self.epoch_seconds):
            raise ValueError("epoch durations must be positive")
        # total includes setup/evaluation outside the epoch loops
        if self.total_seconds < sum(self.epoch_seconds):
            raise ValueError("total duration cannot undercut the epoch sum")
