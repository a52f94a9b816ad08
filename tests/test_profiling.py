"""Byte-accounting ledger and wall-clock helpers."""

import numpy as np
import pytest

from febench import MemoryLedger, TimingTrace
from febench.profiling import LedgerError


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
        assert ledger.group_current("gradients", "head") == 10
        assert ledger.group_current("gradients", "encoder") == 0
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
        assert ledger.group_current("gradients", "head") == 8
        assert ledger.group_current("gradients", "encoder") == 8

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
        """Ledger figures come from array nbytes: 4 bytes per float32 element."""
        from febench import ComputationRecord, Tensor, ops
        ledger = MemoryLedger()
        x = Tensor(np.zeros((10, 3), dtype=np.float32))
        with ComputationRecord(ledger):
            ops.relu(x)
            assert ledger.current("activations") == 120
        assert ledger.peak("activations") == 120


class TestTiming:
    def test_trace_check_accepts_consistent_totals(self):
        TimingTrace(epoch_seconds=[0.5, 0.4], total_seconds=1.0).check()

    def test_trace_check_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            TimingTrace(epoch_seconds=[0.5, -0.1], total_seconds=1.0).check()

    def test_trace_check_rejects_short_total(self):
        with pytest.raises(ValueError):
            TimingTrace(epoch_seconds=[0.6, 0.6], total_seconds=1.0).check()
