"""The global gate: hook install/uninstall and zero-overhead-when-off."""

import tracemalloc

import numpy as np
import pytest

from repro import observability
from repro.core import kernels
from repro.core.bfp import BFPConfig, bfp_quantize
from repro.nn import functional


@pytest.fixture(autouse=True)
def clean_gate():
    """Every test starts and ends disabled with fresh state."""
    observability.set_enabled(False)
    observability.reset()
    yield
    observability.set_enabled(False)
    observability.reset()


CONFIG = BFPConfig(exponent_bits=8, group_size=16)


def run_quantize(rows=8, cols=64):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((rows, cols))
    return bfp_quantize(x, CONFIG.mantissa_bits, CONFIG.group_size)


class TestGate:
    def test_disabled_by_default_and_hooks_absent(self):
        assert not observability.enabled()
        assert kernels._PROFILER is None
        assert functional._PROFILER is None
        assert observability.active_tracer() is None

    def test_enable_installs_hooks_and_returns_previous(self):
        assert observability.set_enabled(True) is False
        try:
            assert observability.enabled()
            assert kernels._PROFILER is not None
            assert functional._PROFILER is not None
            assert observability.set_enabled(True) is True  # idempotent
        finally:
            assert observability.set_enabled(False) is True
        assert kernels._PROFILER is None
        assert functional._PROFILER is None

    def test_enabled_kernels_record_metrics(self):
        observability.set_enabled(True)
        result = run_quantize()
        assert np.all(np.isfinite(result))
        registry = observability.registry()
        calls = registry.get("kernel_calls_total", kernel="bfp_quantize_fast")
        elements = registry.get("kernel_elements_total",
                                kernel="bfp_quantize_fast")
        hist = registry.get("kernel_call_ms", kernel="bfp_quantize_fast")
        assert calls is not None and calls.value >= 1
        assert elements is not None and elements.value >= result.size
        assert hist is not None and hist.count >= 1

    def test_sample_rate_zero_keeps_metrics_but_disarms_tracing(self):
        observability.set_enabled(True, sample_rate=0.0)
        assert observability.enabled()
        assert observability.active_tracer() is None

    def test_reset_points_hooks_at_fresh_registry(self):
        observability.set_enabled(True)
        run_quantize()
        old_registry = observability.registry()
        observability.reset()
        assert observability.registry() is not old_registry
        run_quantize()
        fresh = observability.registry().get("kernel_calls_total",
                                             kernel="bfp_quantize_fast")
        assert fresh is not None and fresh.value >= 1


class TestDisabledOverhead:
    def test_disabled_gate_allocates_nothing_in_observability_code(self):
        """Acceptance: with the gate off, a hot kernel call performs zero
        allocations attributable to the observability package -- the hook
        is one module-global load and a None check."""
        run_quantize()  # prime caches outside the measurement
        observability_filter = tracemalloc.Filter(
            True, "*/repro/observability/*")
        tracemalloc.start(10)
        try:
            run_quantize()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        suspicious = snapshot.filter_traces([observability_filter]).statistics(
            "lineno")
        assert suspicious == [], [str(stat) for stat in suspicious]

    def test_disabled_quantize_output_identical_to_enabled(self):
        """The hooks must not perturb numerics: same bits either way."""
        disabled = run_quantize()
        observability.set_enabled(True)
        enabled_result = run_quantize()
        np.testing.assert_array_equal(disabled, enabled_result)
