"""Tests for the persistent grouped-layout cache of the BFP fast path."""

import numpy as np
import pytest

from repro import reference
from repro.core import kernels
from repro.core.bfp import bfp_quantize_tensor
from repro.core.kernels import GroupedLayout, LayoutCache, bfp_quantize_fast, default_layout_cache
from repro.core.rounding import NoisePool


@pytest.fixture(autouse=True)
def _fresh_cache_state():
    """Every test starts with an empty default cache."""
    default_layout_cache().clear()
    yield
    default_layout_cache().clear()


@pytest.fixture
def uncached(monkeypatch):
    """Run a conversion with grouping as it was before the layout caches."""
    def run(convert, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "resolve_groups", reference.resolve_groups)
            return convert(*args, **kwargs)
    return run


class TestGroupedLayout:
    def test_descriptor_matches_reference_grouping(self, rng):
        for shape, group_size, axis in [((7, 130), 16, -1), ((3, 5, 17), 8, -1),
                                        ((33,), 16, -1), ((6, 50), 16, 0),
                                        ((2, 3, 40), 17, 1)]:
            values = rng.standard_normal(shape)
            groups_ref, pad_ref, moved_ref = reference.group_values_reference(
                values, group_size, axis=axis)
            layout = GroupedLayout(shape, np.float64, group_size, axis=axis)
            assert layout.pad == pad_ref
            assert layout.moved_shape == moved_ref
            np.testing.assert_array_equal(layout.group(values), groups_ref)

    def test_contiguous_unpadded_grouping_is_a_view(self, rng):
        values = rng.standard_normal((4, 64))
        layout = GroupedLayout(values.shape, values.dtype, 16)
        groups = layout.group(values)
        assert np.shares_memory(groups, values)

    def test_padded_grouping_reuses_one_workspace(self, rng):
        layout = GroupedLayout((3, 50), np.float64, 16)
        first = layout.group(rng.standard_normal((3, 50)))
        second = layout.group(rng.standard_normal((3, 50)))
        assert np.shares_memory(first, second)
        # Pad columns stay zero across reuse.
        assert np.all(second.reshape(3, -1)[:, 50:] == 0.0)

    def test_shape_mismatch_rejected(self, rng):
        layout = GroupedLayout((3, 50), np.float64, 16)
        with pytest.raises(ValueError, match="layout built for shape"):
            layout.group(rng.standard_normal((3, 51)))

    def test_ungroup_inverts_group(self, rng):
        values = rng.standard_normal((5, 23))
        layout = GroupedLayout(values.shape, values.dtype, 16)
        restored = layout.ungroup(layout.group(values).copy(), values.shape)
        np.testing.assert_array_equal(restored, values)


class TestCachedQuantizationBitExactness:
    SHAPES = [((7, 130), 16, -1), ((4, 64), 16, -1), ((3, 5, 17), 8, -1),
              ((33,), 16, -1), ((6, 50), 16, 0), ((2, 3, 40), 17, 1)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["nearest", "truncate"])
    def test_cached_matches_uncached(self, rng, uncached, dtype, mode):
        for shape, group_size, axis in self.SHAPES:
            values = rng.standard_normal(shape).astype(dtype)
            cached = bfp_quantize_fast(values, 4, group_size, 8, mode, axis=axis)
            repeat = bfp_quantize_fast(values, 4, group_size, 8, mode, axis=axis)
            fresh = uncached(bfp_quantize_fast, values, 4, group_size, 8, mode, axis=axis)
            np.testing.assert_array_equal(cached, fresh)
            np.testing.assert_array_equal(cached, repeat)

    def test_cached_stochastic_seed_reproducible(self, rng, uncached):
        values = rng.standard_normal((7, 130))
        cached = bfp_quantize_fast(values, 4, 16, 8, "stochastic", rng=NoisePool(3))
        fresh = uncached(bfp_quantize_fast, values, 4, 16, 8, "stochastic", rng=NoisePool(3))
        np.testing.assert_array_equal(cached, fresh)

    def test_result_never_aliases_the_workspace(self, rng):
        """Back-to-back conversions of the same shape must not clobber results."""
        first_in = rng.standard_normal((3, 50))
        second_in = rng.standard_normal((3, 50))
        first = bfp_quantize_fast(first_in, 4, 16, 8, "nearest")
        first_copy = first.copy()
        bfp_quantize_fast(second_in, 4, 16, 8, "nearest")
        np.testing.assert_array_equal(first, first_copy)

    def test_packed_quantization_matches_uncached(self, rng, uncached):
        values = rng.standard_normal((5, 50))
        cached = bfp_quantize_tensor(values, mantissa_bits=4, group_size=16, exponent_bits=8)
        fresh = uncached(bfp_quantize_tensor, values, mantissa_bits=4, group_size=16,
                         exponent_bits=8)
        np.testing.assert_array_equal(cached.signs, fresh.signs)
        np.testing.assert_array_equal(cached.mantissas, fresh.mantissas)
        np.testing.assert_array_equal(cached.exponents, fresh.exponents)
        np.testing.assert_array_equal(cached.to_float(), fresh.to_float())


class TestLayoutCache:
    def test_hit_returns_same_descriptor(self):
        cache = LayoutCache()
        first = cache.get((3, 50), np.float64, 16)
        second = cache.get((3, 50), np.float64, 16)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_keys_get_distinct_layouts(self):
        cache = LayoutCache()
        base = cache.get((3, 50), np.float64, 16)
        assert cache.get((3, 50), np.float32, 16) is not base
        assert cache.get((3, 50), np.float64, 8) is not base
        assert cache.get((3, 50), np.float64, 16, axis=0) is not base

    def test_eviction_bound(self):
        cache = LayoutCache(max_entries=4)
        for n in range(10):
            cache.get((n + 1, 16), np.float64, 16)
        assert len(cache) == 4

    def test_lru_keeps_recently_used(self):
        cache = LayoutCache(max_entries=2)
        kept = cache.get((1, 16), np.float64, 16)
        cache.get((2, 16), np.float64, 16)
        cache.get((1, 16), np.float64, 16)   # refresh
        cache.get((3, 16), np.float64, 16)   # evicts (2, 16)
        assert cache.get((1, 16), np.float64, 16) is kept

    def test_mismatched_explicit_layout_rejected(self, rng):
        values = rng.standard_normal((4, 64))
        wrong_group = GroupedLayout((4, 64), np.float64, 8)
        with pytest.raises(ValueError, match="layout built for"):
            bfp_quantize_fast(values, 4, 16, 8, "nearest", layout=wrong_group)
        wrong_axis = GroupedLayout((64, 64), np.float64, 16, axis=0)
        with pytest.raises(ValueError, match="layout built for"):
            bfp_quantize_fast(rng.standard_normal((64, 64)), 4, 16, 8, "nearest",
                              layout=wrong_axis)
        wrong_dtype = GroupedLayout((4, 64), np.float32, 16)
        with pytest.raises(ValueError, match="layout built for"):
            bfp_quantize_fast(values, 4, 16, 8, "nearest", layout=wrong_dtype)

    def test_negative_axis_shares_the_entry(self):
        cache = LayoutCache()
        assert cache.get((3, 50), np.float64, 16, axis=-1) is \
            cache.get((3, 50), np.float64, 16, axis=1)

    def test_layout_for_resolves_integer_dtype(self):
        cache = LayoutCache()
        layout = cache.layout_for(np.arange(32), 16)
        assert layout.dtype == np.float64

    def test_integer_input_quantizes_identically(self, uncached):
        values = np.arange(-20, 30).reshape(5, 10)
        cached = bfp_quantize_fast(values, 4, 16, 8, "nearest")
        fresh = uncached(bfp_quantize_fast, values, 4, 16, 8, "nearest")
        np.testing.assert_array_equal(cached, fresh)
