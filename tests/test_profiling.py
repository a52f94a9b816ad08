"""Byte-accounting ledger and wall-clock helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from febench import MemoryLedger, TimingTrace
from febench.profiling import CATEGORIES, LedgerError

GROUPS = ("encoder", "head")
# (allocate?, category, group or None, bytes)
LEDGER_STEPS = st.lists(st.tuples(st.booleans(), st.sampled_from(CATEGORIES),
                                  st.sampled_from((None, *GROUPS)),
                                  st.integers(min_value=0, max_value=64)),
                        max_size=40)


class TestMemoryLedger:
    def test_peak_is_high_water_mark(self):
        ledger = MemoryLedger()
        ledger.record_alloc("activations", 100)
        ledger.record_alloc("activations", 50)
        ledger.record_free("activations", 120)
        ledger.record_alloc("activations", 10)
        assert ledger.current("activations") == 40
        assert ledger.peak("activations") == 150

    def test_total_spans_categories(self):
        ledger = MemoryLedger()
        ledger.record_alloc("parameters", 64)
        ledger.record_alloc("gradients", 64)
        ledger.record_free("gradients", 64)
        ledger.record_alloc("optimizer_state", 128)
        assert ledger.current() == 192
        assert ledger.peak() == 192
        assert ledger.peak("gradients") == 64

    def test_group_attribution(self):
        ledger = MemoryLedger()
        ledger.record_alloc("gradients", 10, group="head")
        ledger.record_alloc("gradients", 7, group="encoder")
        ledger.record_free("gradients", 7, group="encoder")
        assert ledger.breakdown()["group_current"] == {
            "gradients/encoder": 0, "gradients/head": 10}
        assert ledger.group_peak("gradients", "encoder") == 7

    def test_over_free_detected(self):
        ledger = MemoryLedger()
        ledger.record_alloc("gradients", 8)
        with pytest.raises(LedgerError):
            ledger.record_free("gradients", 16)

    def test_group_over_free_detected(self):
        ledger = MemoryLedger()
        ledger.record_alloc("gradients", 8, group="head")
        ledger.record_alloc("gradients", 8, group="encoder")
        before = ledger.breakdown()
        with pytest.raises(LedgerError):
            ledger.record_free("gradients", 16, group="head")
        assert ledger.breakdown() == before
        assert ledger.current() == 16
        assert before["group_current"] == {"gradients/encoder": 8,
                                           "gradients/head": 8}

    def test_ungrouped_free_cannot_reach_grouped_bytes(self):
        """Grouped bytes are freed by their group; an ungrouped free takes
        only the category's ungrouped bytes and leaves the rest as it was."""
        ledger = MemoryLedger()
        ledger.record_alloc("gradients", 8, group="head")
        ledger.record_alloc("gradients", 3)
        before = ledger.breakdown()
        with pytest.raises(LedgerError, match="over-free.* holds only 3"):
            ledger.record_free("gradients", 8)
        assert ledger.breakdown() == before
        ledger.record_free("gradients", 3)
        assert ledger.current("gradients") == 8
        assert ledger.breakdown()["group_current"] == {"gradients/head": 8}

    def test_unknown_category(self):
        with pytest.raises(LedgerError):
            MemoryLedger().record_alloc("scratch", 1)

    def test_breakdown_keys(self):
        ledger = MemoryLedger()
        ledger.record_alloc("parameters", 4, group="encoder")
        b = ledger.breakdown()
        assert b["current"]["parameters"] == 4
        assert b["group_peak"]["parameters/encoder"] == 4

    def test_float32_tensor_bytes(self):
        """Ledger figures come from array nbytes: 4 bytes per float32
        element, charged while the output lives."""
        from febench import ComputationRecord, Tensor, ops
        ledger = MemoryLedger()
        x = Tensor(np.zeros((10, 3), dtype=np.float32))
        with ComputationRecord(ledger):
            out = ops.relu(x)
            assert ledger.current("activations") == 120
            del out
            assert ledger.current("activations") == 0
        assert ledger.peak("activations") == 120

    def test_at_peak_is_the_make_up_of_the_total_peak(self):
        """Category peaks set at different times overstate the total peak;
        ``at_peak`` holds each category's bytes when it was set."""
        ledger = MemoryLedger()
        ledger.record_alloc("activations", 100)
        ledger.record_free("activations", 100)
        ledger.record_alloc("gradients", 60, group="head")
        ledger.record_alloc("activations", 30)
        ledger.record_free("gradients", 60, group="head")
        b = ledger.breakdown()
        assert b["peak"] == {"parameters": 0, "gradients": 60,
                             "optimizer_state": 0, "activations": 100}
        assert ledger.peak() == 100
        assert b["at_peak"] == {"parameters": 0, "gradients": 0,
                                "optimizer_state": 0, "activations": 100}
        ledger.record_alloc("parameters", 20)  # 50 in all: no new peak
        assert ledger.breakdown()["at_peak"] == b["at_peak"]
        ledger.record_alloc("parameters", 60)
        assert ledger.peak() == 110
        assert ledger.breakdown()["at_peak"] == {
            "parameters": 80, "gradients": 0, "optimizer_state": 0,
            "activations": 30}


def ledger_figures(ledger):
    """Every (current, peak) pair the accessors report, keyed by ``None``
    (the total), category and ``(category, group)``."""
    figures = {None: (ledger.current(), ledger.peak())}
    group_current = ledger.breakdown()["group_current"]
    for c in CATEGORIES:
        figures[c] = (ledger.current(c), ledger.peak(c))
        for g in GROUPS:
            figures[c, g] = (group_current.get(f"{c}/{g}", 0),
                             ledger.group_peak(c, g))
    return figures


def check_ledger(ledger, figures, last_peaks):
    """The ledger's invariants over ``figures``, given the peaks last seen."""
    assert figures[None][0] == sum(figures[c][0] for c in CATEGORIES)
    for c in CATEGORIES:
        assert figures[c][0] >= sum(figures[c, g][0] for g in GROUPS)
    for key, (now, peak) in figures.items():
        assert peak >= now
        assert peak >= last_peaks.get(key, 0)
    b = ledger.breakdown()
    assert sum(b["at_peak"].values()) == figures[None][1]
    assert all(b["at_peak"][c] <= figures[c][1] for c in CATEGORIES)
    for part, at in (("current", 0), ("peak", 1)):
        assert list(b[part].items()) == [(c, figures[c][at]) for c in CATEGORIES]
        by_group = b["group_" + part]
        assert list(by_group) == sorted(by_group, key=lambda k: tuple(k.split("/")))
        for c in CATEGORIES:
            for g in GROUPS:
                assert by_group.get(f"{c}/{g}", 0) == figures[c, g][at]


@given(LEDGER_STEPS)
@settings(max_examples=300, deadline=None)
def test_ledger_invariants_hold_over_any_alloc_free_sequence(steps):
    """The total is the sum of the categories, a category holds at least
    its groups, peaks never fall below current nor over time, the
    categories' bytes at the total peak add up to it, ``breakdown()``
    agrees with the accessors, and a refused free changes nothing."""
    ledger = MemoryLedger()
    last_peaks = {}
    for allocate, category, group, nbytes in steps:
        if allocate:
            ledger.record_alloc(category, nbytes, group=group)
        else:
            held = ledger.current(category)
            by_group = ledger.breakdown()["group_current"]
            if group is not None:
                held = min(held, by_group.get(f"{category}/{group}", 0))
            else:
                # an ungrouped free may not reach into grouped bytes
                held -= sum(by_group.get(f"{category}/{g}", 0) for g in GROUPS)
            if nbytes > held:
                before = ledger_figures(ledger), ledger.breakdown()
                with pytest.raises(LedgerError, match="over-free"):
                    ledger.record_free(category, nbytes, group=group)
                assert (ledger_figures(ledger), ledger.breakdown()) == before
            else:
                ledger.record_free(category, nbytes, group=group)
        figures = ledger_figures(ledger)
        check_ledger(ledger, figures, last_peaks)
        last_peaks = {key: peak for key, (_, peak) in figures.items()}


class TestTiming:
    def test_trace_check_accepts_consistent_totals(self):
        TimingTrace(epoch_seconds=[0.5, 0.4], total_seconds=1.0).check()

    def test_trace_check_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            TimingTrace(epoch_seconds=[0.5, -0.1], total_seconds=1.0).check()

    def test_trace_check_rejects_short_total(self):
        with pytest.raises(ValueError):
            TimingTrace(epoch_seconds=[0.6, 0.6], total_seconds=1.0).check()
