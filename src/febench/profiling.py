"""Byte-exact memory accounting for tracked tensors, plus wall-clock timing.

Memory is accounted as *tracked tensor bytes*: every live array registered
with a :class:`MemoryLedger` contributes to one of four categories
(parameters, gradients, optimizer_state, activations).  The ledger only
counts; its owners decide when bytes live and die:
:class:`~febench.tensor.ComputationRecord` charges activations and
gradients and frees them when its ``with`` block exits, and
:mod:`febench.training` charges parameters and optimizer state.  This is a machine-independent proxy for device memory; it
deliberately excludes interpreter and allocator overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CATEGORIES = ("parameters", "gradients", "optimizer_state", "activations")


class LedgerError(RuntimeError):
    """Inconsistent ledger operation, e.g. freeing more than was allocated."""


class MemoryLedger:
    """High-water-mark accounting of tensor bytes by category.

    Allocations may carry an optional ``group`` tag (e.g. ``"encoder"`` or
    ``"head"``) so that gradient and optimizer bytes can be attributed to the
    model part that owns them.
    """

    def __init__(self):
        self._current = {c: 0 for c in CATEGORIES}
        self._peak = {c: 0 for c in CATEGORIES}
        self._group_current = {}
        self._group_peak = {}
        self.current_total = 0
        self.peak_total = 0

    def record_alloc(self, category, nbytes, group=None):
        if category not in CATEGORIES:
            raise LedgerError(f"unknown ledger category {category!r}")
        if nbytes < 0:
            raise LedgerError("allocation size must be non-negative")
        self._current[category] += nbytes
        self._peak[category] = max(self._peak[category], self._current[category])
        self.current_total += nbytes
        self.peak_total = max(self.peak_total, self.current_total)
        if group is not None:
            key = (category, group)
            cur = self._group_current.get(key, 0) + nbytes
            self._group_current[key] = cur
            self._group_peak[key] = max(self._group_peak.get(key, 0), cur)

    def record_free(self, category, nbytes, group=None):
        if category not in CATEGORIES:
            raise LedgerError(f"unknown ledger category {category!r}")
        if nbytes > self._current[category]:
            raise LedgerError(
                f"over-free: releasing {nbytes} bytes from {category!r} "
                f"which holds only {self._current[category]}"
            )
        key = (category, group)
        held = self._group_current.get(key, 0)
        if group is not None and nbytes > held:
            raise LedgerError(
                f"over-free: releasing {nbytes} bytes from {category!r}/{group!r} "
                f"which holds only {held}"
            )
        self._current[category] -= nbytes
        self.current_total -= nbytes
        if group is not None:
            self._group_current[key] = held - nbytes

    def current(self, category=None):
        if category is None:
            return self.current_total
        return self._current[category]

    def peak(self, category=None):
        if category is None:
            return self.peak_total
        return self._peak[category]

    def group_current(self, category, group):
        return self._group_current.get((category, group), 0)

    def group_peak(self, category, group):
        return self._group_peak.get((category, group), 0)

    def breakdown(self):
        """Current and peak bytes per category plus tagged-group detail."""
        return {
            "current": dict(self._current),
            "peak": dict(self._peak),
            "group_current": {f"{c}/{g}": v for (c, g), v in sorted(self._group_current.items())},
            "group_peak": {f"{c}/{g}": v for (c, g), v in sorted(self._group_peak.items())},
        }


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
