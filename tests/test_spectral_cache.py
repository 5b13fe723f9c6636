"""Tests for the spectral inference engine: SpectralWeightCache, the
cached-spectrum kernel fast path, compile_inference, and the FFT
plan/twiddle caches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circulant import (
    SpectralWeightCache,
    block_circulant_backward,
    block_circulant_conv_forward,
    block_circulant_forward,
    spectral_contract,
    weight_spectrum,
)
from repro.errors import BackendError, ShapeError
from repro.fftcore import FFTPlan, clear_plan_caches, get_backend
from repro.fftcore.radix2 import bit_reverse_indices, stage_twiddles
from repro.nn import (
    BlockCirculantConv2D,
    BlockCirculantDense,
    Dense,
    Flatten,
    Parameter,
    ReLU,
    Sequential,
    SGD,
)


class TestParameterVersioning:
    def test_assignment_bumps_version(self):
        param = Parameter(np.zeros(4))
        before = param.version
        param.value = np.ones(4)
        assert param.version == before + 1

    def test_augmented_assignment_bumps_version(self):
        # Optimizer steps are written as `param.value -= lr * grad`; Python
        # rewrites that as an assignment, which must bump the counter.
        param = Parameter(np.ones(4))
        before = param.version
        param.value -= 0.5
        assert param.version == before + 1

    def test_mark_updated(self):
        param = Parameter(np.ones(4))
        before = param.version
        param.value[0] = 3.0  # element write: not auto-detected
        param.mark_updated()
        assert param.version == before + 1


class TestCachedSpectrumKernels:
    def test_forward_matches_uncached(self, rng):
        w = rng.normal(size=(3, 5, 8))
        x = rng.normal(size=(4, 5, 8))
        wf = weight_spectrum(w)
        np.testing.assert_allclose(
            block_circulant_forward(w, x, cached_spectrum=wf),
            block_circulant_forward(w, x),
            atol=1e-12,
        )

    def test_backward_matches_uncached(self, rng):
        w = rng.normal(size=(3, 5, 8))
        x = rng.normal(size=(4, 5, 8))
        g = rng.normal(size=(4, 3, 8))
        wf = weight_spectrum(w)
        gw_c, gx_c = block_circulant_backward(w, x, g, cached_spectrum=wf)
        gw, gx = block_circulant_backward(w, x, g)
        np.testing.assert_allclose(gw_c, gw, atol=1e-12)
        np.testing.assert_allclose(gx_c, gx, atol=1e-12)

    def test_numpy_radix2_spectral_product_agreement(self, rng):
        # The same cached-spectrum product evaluated on both backends must
        # agree — the backend-certification contract of the repo, extended
        # to the fast path.
        w = rng.normal(size=(4, 4, 16))
        x = rng.normal(size=(3, 4, 16))
        out_np = block_circulant_forward(
            w, x, "numpy", cached_spectrum=weight_spectrum(w, "numpy")
        )
        out_r2 = block_circulant_forward(
            w, x, "radix2", cached_spectrum=weight_spectrum(w, "radix2")
        )
        np.testing.assert_allclose(out_np, out_r2, atol=1e-9)

    def test_cached_spectra_agree_across_backends(self, rng):
        w = rng.normal(size=(2, 3, 8))
        np.testing.assert_allclose(
            weight_spectrum(w, "numpy"), weight_spectrum(w, "radix2"),
            atol=1e-10,
        )

    def test_wrong_spectrum_shape_rejected(self, rng):
        w = rng.normal(size=(3, 5, 8))
        x = rng.normal(size=(4, 5, 8))
        with pytest.raises(ShapeError):
            block_circulant_forward(
                w, x, cached_spectrum=np.zeros((3, 5, 8), dtype=complex)
            )

    def test_weight_spectrum_rejects_flat_input(self, rng):
        with pytest.raises(ShapeError):
            weight_spectrum(rng.normal(size=(5, 8)))


class TestSpectralContract:
    """The shared FC/CONV contraction kernel of repro.circulant.ops."""

    def test_dense_matches_einsum(self, rng):
        wf = np.fft.rfft(rng.normal(size=(3, 5, 8)))
        xf = np.fft.rfft(rng.normal(size=(4, 5, 8)))
        np.testing.assert_allclose(
            spectral_contract(wf, xf),
            np.einsum("pqf,bqf->bpf", wf, xf),
            atol=1e-12,
        )

    def test_conv_matches_einsum(self, rng):
        wf = np.fft.rfft(rng.normal(size=(9, 3, 5, 8)))
        pf = np.fft.rfft(rng.normal(size=(4, 9, 5, 8)))
        np.testing.assert_allclose(
            spectral_contract(wf, pf),
            np.einsum("sijf,bsjf->bif", wf, pf),
            atol=1e-12,
        )

    def test_rejects_mismatched_shapes(self, rng):
        wf = np.zeros((3, 5, 8), dtype=complex)
        with pytest.raises(ShapeError):
            spectral_contract(wf, np.zeros((4, 6, 8), dtype=complex))
        with pytest.raises(ShapeError):
            spectral_contract(np.zeros((5, 8), dtype=complex),
                              np.zeros((4, 5, 8), dtype=complex))

    def test_conv_forward_cached_matches_uncached(self, rng):
        w = rng.normal(size=(9, 3, 5, 8))
        patches = rng.normal(size=(6, 9, 5, 8))
        wf = weight_spectrum(w)
        np.testing.assert_allclose(
            block_circulant_conv_forward(w, patches, cached_spectrum=wf),
            block_circulant_conv_forward(w, patches),
            atol=1e-12,
        )

    def test_conv_forward_backend_agreement(self, rng):
        w = rng.normal(size=(4, 2, 3, 16))
        patches = rng.normal(size=(3, 4, 3, 16))
        out_np = block_circulant_conv_forward(
            w, patches, "numpy", cached_spectrum=weight_spectrum(w, "numpy")
        )
        out_r2 = block_circulant_conv_forward(
            w, patches, "radix2", cached_spectrum=weight_spectrum(w, "radix2")
        )
        np.testing.assert_allclose(out_np, out_r2, atol=1e-9)

    def test_conv_wrong_spectrum_shape_rejected(self, rng):
        w = rng.normal(size=(9, 3, 5, 8))
        patches = rng.normal(size=(6, 9, 5, 8))
        with pytest.raises(ShapeError):
            block_circulant_conv_forward(
                w, patches, cached_spectrum=np.zeros((9, 3, 5, 8),
                                                     dtype=complex)
            )


class TestSpectralWeightCache:
    def test_hit_returns_same_array(self, rng):
        cache = SpectralWeightCache()
        param = Parameter(rng.normal(size=(2, 2, 8)))
        first = cache.spectrum(param)
        second = cache.spectrum(param)
        assert first is second
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_returned_spectrum_is_readonly(self, rng):
        cache = SpectralWeightCache()
        param = Parameter(rng.normal(size=(2, 2, 8)))
        spectrum = cache.spectrum(param)
        with pytest.raises((ValueError, RuntimeError)):
            spectrum[0, 0, 0] = 1.0

    def test_fast_path_layout_is_blas_ready(self, rng):
        # The cache stores frequency-major memory so the kernel's
        # transpose(2, 0, 1) is a zero-copy C-contiguous view.
        cache = SpectralWeightCache()
        param = Parameter(rng.normal(size=(3, 5, 8)))
        spectrum = cache.spectrum(param)
        assert spectrum.transpose(2, 0, 1).flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(
            spectrum, weight_spectrum(param.value), atol=1e-12
        )

    def test_invalidated_after_optimizer_step(self, rng):
        layer = BlockCirculantDense(16, 16, 4, seed=0)
        cache = SpectralWeightCache()
        stale = cache.spectrum(layer.weight)
        x = rng.normal(size=(2, 16))
        layer.forward(x)
        layer.zero_grad()
        layer.backward(rng.normal(size=(2, 16)))
        SGD(layer.parameters(), lr=0.5).step()
        fresh = cache.spectrum(layer.weight)
        assert cache.stats()["misses"] == 2
        assert not np.allclose(stale, fresh)
        np.testing.assert_allclose(
            fresh, weight_spectrum(layer.weight.value), atol=1e-12
        )

    def test_entries_keyed_per_backend(self, rng):
        cache = SpectralWeightCache()
        param = Parameter(rng.normal(size=(2, 2, 8)))
        cache.spectrum(param, "numpy")
        cache.spectrum(param, "radix2")
        assert len(cache) == 2

    def test_invalidate_single_and_all(self, rng):
        cache = SpectralWeightCache()
        a = Parameter(rng.normal(size=(2, 2, 8)))
        b = Parameter(rng.normal(size=(2, 2, 8)))
        cache.spectrum(a)
        kept = cache.spectrum(b)
        cache.release(a)
        assert len(cache) == 1
        # The other parameter's entry survives: served again as a hit.
        hits = cache.hits
        assert cache.spectrum(b) is kept
        assert cache.hits == hits + 1
        cache.clear()
        assert len(cache) == 0

    def test_conv_weight_spectrum_cached(self, rng):
        layer = BlockCirculantConv2D(4, 4, 3, block_size=2, seed=0)
        cache = SpectralWeightCache()
        spectrum = cache.spectrum(layer.weight)
        assert spectrum.shape == (9, 2, 2, 2)  # (r², pp, qc, k//2+1)
        assert cache.spectrum(layer.weight) is spectrum

    def test_conv_fast_path_layout_is_blas_ready(self, rng):
        # CONV spectra are stored (f, p, r², q)-contiguous so the shared
        # kernel's transpose + fold-into-GEMM reshape is a zero-copy view.
        cache = SpectralWeightCache()
        param = Parameter(rng.normal(size=(9, 3, 5, 8)))
        spectrum = cache.spectrum(param)
        s, p, q, f = spectrum.shape
        folded = spectrum.transpose(3, 1, 0, 2)
        assert folded.flags["C_CONTIGUOUS"]
        assert folded.reshape(f, p, s * q).base is not None  # view, no copy
        np.testing.assert_allclose(
            spectrum, weight_spectrum(param.value), atol=1e-12
        )


class TestCompileInference:
    def test_dense_layer_output_equality(self, rng):
        layer = BlockCirculantDense(20, 12, 4, seed=3)
        x = rng.normal(size=(5, 20))
        expected = layer.eval().forward(x)
        layer.compile_inference()
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-12)
        assert layer.spectral_cache.stats()["hits"] >= 1

    def test_network_output_equality(self, rng):
        net = Sequential(
            BlockCirculantConv2D(3, 8, 3, block_size=4, padding=1, seed=0),
            ReLU(),
            Flatten(),
            BlockCirculantDense(8 * 6 * 6, 32, 8, seed=1),
            ReLU(),
            Dense(32, 10, seed=2),
        )
        x = rng.normal(size=(2, 3, 6, 6))
        expected = net.eval()(x)
        net.compile_inference()
        np.testing.assert_allclose(net(x), expected, atol=1e-12)

    def test_conv_layer_bit_identical(self, rng):
        # The compiled CONV forward and the eager eval forward run the
        # same shared GEMM kernel on identically-laid-out spectra, so
        # the outputs must agree to the last bit, not just to tolerance.
        layer = BlockCirculantConv2D(6, 10, 3, block_size=4, padding=1,
                                     seed=3)
        x = rng.normal(size=(2, 6, 5, 5))
        expected = layer.eval().forward(x)
        layer.compile_inference()
        np.testing.assert_array_equal(layer.forward(x), expected)
        assert layer.spectral_cache.stats()["hits"] >= 1

    def test_conv_compile_on_radix2_backend(self, rng):
        layer_np = BlockCirculantConv2D(4, 4, 3, block_size=2, seed=5)
        layer_r2 = BlockCirculantConv2D(4, 4, 3, block_size=2, seed=5,
                                        backend="radix2")
        x = rng.normal(size=(2, 4, 4, 4))
        layer_np.compile_inference()
        layer_r2.compile_inference()
        np.testing.assert_allclose(
            layer_np.forward(x), layer_r2.forward(x), atol=1e-9
        )

    def test_conv_training_after_compile_stays_correct(self, rng):
        layer = BlockCirculantConv2D(4, 4, 3, block_size=2, padding=1,
                                     seed=0)
        x = rng.normal(size=(2, 4, 4, 4))
        layer.compile_inference()
        before = layer.forward(x)
        layer.train()
        out = layer.forward(x)
        layer.zero_grad()
        layer.backward(out)
        SGD(layer.parameters(), lr=0.3).step()
        layer.eval()
        after = layer.forward(x)
        assert not np.allclose(after, before)
        cache = layer.spectral_cache
        layer.spectral_cache = None
        try:
            eager = layer.forward(x)
        finally:
            layer.spectral_cache = cache
        np.testing.assert_array_equal(after, eager)

    def test_cache_shared_across_layers(self):
        net = Sequential(
            BlockCirculantDense(16, 16, 4, seed=0),
            ReLU(),
            BlockCirculantDense(16, 8, 4, seed=1),
        )
        net.compile_inference()
        assert net.layers[0].spectral_cache is net.spectral_cache
        assert net.layers[2].spectral_cache is net.spectral_cache
        assert len(net.spectral_cache) == 2

    def test_training_after_compile_stays_correct(self, rng):
        # compile, then train a step, then eval again: the version bump
        # must refresh the spectrum so outputs track the new weights.
        net = Sequential(BlockCirculantDense(16, 16, 4, seed=0))
        x = rng.normal(size=(3, 16))
        net.compile_inference()
        before = net(x)
        net.train()
        out = net(x)
        net.zero_grad()
        net.backward(out - rng.normal(size=out.shape))
        SGD(net.parameters(), lr=0.2).step()
        net.eval()
        after = net(x)
        assert not np.allclose(after, before)
        layer = net.layers[0]
        cache = layer.spectral_cache
        layer.spectral_cache = None
        try:
            uncached = net(x)
        finally:
            layer.spectral_cache = cache
        np.testing.assert_allclose(after, uncached, atol=1e-12)

    def test_training_mode_version_checks_cache(self, rng):
        # Training no longer disables the cache outright: unchanged
        # weights hit the cached spectrum (multi-forward accumulation,
        # eval-within-train), and a weight update invalidates by version.
        layer = BlockCirculantDense(16, 16, 4, seed=0)
        layer.compile_inference()
        layer.train()
        x = rng.normal(size=(2, 16))
        hits_before = layer.spectral_cache.stats()["hits"]
        layer.forward(x)
        layer.forward(x)
        assert layer.spectral_cache.stats()["hits"] == hits_before + 2
        misses_before = layer.spectral_cache.stats()["misses"]
        layer.weight.value = layer.weight.value * 0.5
        layer.forward(x)
        assert layer.spectral_cache.stats()["misses"] == misses_before + 1

    def test_compile_on_radix2_backend(self, rng):
        layer_np = BlockCirculantDense(16, 16, 4, seed=7)
        layer_r2 = BlockCirculantDense(16, 16, 4, seed=7, backend="radix2")
        x = rng.normal(size=(2, 16))
        layer_np.compile_inference()
        layer_r2.compile_inference()
        np.testing.assert_allclose(
            layer_np.forward(x), layer_r2.forward(x), atol=1e-9
        )


class TestQuantizedServing:
    """The fixed-point serving mode: quantized_view(...).compile_inference()."""

    @staticmethod
    def _network():
        return Sequential(
            BlockCirculantConv2D(3, 8, 3, block_size=4, padding=1, seed=0),
            ReLU(),
            Flatten(),
            BlockCirculantDense(8 * 6 * 6, 16, 8, seed=1),
        )

    def test_compiled_view_bit_identical(self, rng):
        from repro.quant import quantized_view

        net = self._network()
        x = rng.normal(size=(2, 3, 6, 6))
        view = quantized_view(net, 16, 16)
        expected = view.eval()(x)
        view.compile_inference()
        np.testing.assert_array_equal(view(x), expected)
        # Both block-circulant layers joined the shared cache.
        assert len(view.spectral_cache) == 2

    def test_view_carries_no_cache_from_compiled_original(self, rng):
        from repro.quant import quantized_view

        net = self._network().compile_inference()
        view = quantized_view(net, 16)
        assert view.spectral_cache is None
        for layer in view.layers:
            assert getattr(layer, "spectral_cache", None) is None
        # The original keeps serving from its own (unquantised) cache.
        assert net.spectral_cache is not None
        assert len(net.spectral_cache) == 2

    def test_spectra_computed_from_quantised_weights(self, rng):
        from repro.quant import quantized_view

        net = self._network()
        view = quantized_view(net, 6).compile_inference()
        layer = view.layers[0]
        np.testing.assert_array_equal(
            view.spectral_cache.spectrum(layer.weight, layer.backend),
            weight_spectrum(layer.weight.value),
        )

    def test_format_change_mid_serving_refreshes_spectra(self, rng):
        # Re-quantising the served view (e.g. dropping from the 16-bit
        # datapath to the 4-bit near-threshold mode) reassigns every
        # Parameter.value; the version bump must lazily refresh the
        # cached spectra so compiled outputs track the new format.
        from repro.quant import quantize_network_weights, quantized_view

        net = self._network()
        x = rng.normal(size=(2, 3, 6, 6))
        view = quantized_view(net, 16, 16).compile_inference()
        out16 = view(x)
        misses_before = view.spectral_cache.stats()["misses"]
        quantize_network_weights(view, 6)
        out6 = view(x)
        assert view.spectral_cache.stats()["misses"] == misses_before + 2
        assert not np.allclose(out16, out6)
        # The refreshed compiled path still matches an eager evaluation.
        caches = []
        for layer in view.layers:
            if getattr(layer, "spectral_cache", None) is not None:
                caches.append((layer, layer.spectral_cache))
                layer.spectral_cache = None
        try:
            eager = view(x)
        finally:
            for layer, cache in caches:
                layer.spectral_cache = cache
        np.testing.assert_array_equal(out6, eager)


class TestBackendValidationAtConstruction:
    def test_dense_rejects_unknown_backend(self):
        with pytest.raises(BackendError) as exc:
            BlockCirculantDense(8, 8, 4, backend="fftw")
        assert "numpy" in str(exc.value) and "radix2" in str(exc.value)

    def test_conv_rejects_unknown_backend(self):
        with pytest.raises(BackendError) as exc:
            BlockCirculantConv2D(4, 4, 3, block_size=2, backend="fftw")
        assert "numpy" in str(exc.value) and "radix2" in str(exc.value)

    def test_known_backends_accepted(self):
        BlockCirculantDense(8, 8, 4, backend="numpy")
        BlockCirculantDense(8, 8, 4, backend="radix2")
        BlockCirculantDense(8, 8, 4, backend=None)


class TestPlanAndTwiddleCaches:
    def test_stage_twiddles_cached_and_correct(self):
        tables = stage_twiddles(16)
        assert stage_twiddles(16) is tables
        assert [t.shape[0] for t in tables] == [1, 2, 4, 8]
        np.testing.assert_allclose(
            tables[-1], np.exp(-2j * np.pi * np.arange(8) / 16), atol=1e-12
        )

    def test_cached_tables_are_readonly(self):
        assert not bit_reverse_indices(32).flags.writeable
        assert not stage_twiddles(32)[-1].flags.writeable

    def test_radix2_results_unchanged_by_caching(self, rng):
        # Transform twice (cold cache, then warm) and against numpy.
        clear_plan_caches()
        be = get_backend("radix2")
        x = rng.normal(size=(3, 64))
        cold = be.rfft(x)
        warm = be.rfft(x)
        np.testing.assert_allclose(cold, warm, atol=0)
        np.testing.assert_allclose(cold, np.fft.rfft(x), atol=1e-10)

    def test_clear_plan_caches(self, rng):
        # The ROM tables are the only FFT memo: clearing empties all four,
        # and the next radix-2 rfft/irfft refills them with identical
        # results.
        from repro.fftcore.radix2 import _BIT_REVERSE_CACHE, _STAGE_TWIDDLE_CACHE
        from repro.fftcore.real import _IRFFT_TABLE_CACHE, _RFFT_TABLE_CACHE

        tables = (_BIT_REVERSE_CACHE, _STAGE_TWIDDLE_CACHE,
                  _RFFT_TABLE_CACHE, _IRFFT_TABLE_CACHE)
        be = get_backend("radix2")
        x = rng.normal(size=(3, 128))
        spectrum = be.rfft(x)
        restored = be.irfft(spectrum, n=128)
        assert all(len(table) > 0 for table in tables)
        clear_plan_caches()
        assert all(len(table) == 0 for table in tables)
        np.testing.assert_array_equal(be.rfft(x), spectrum)
        np.testing.assert_array_equal(be.irfft(spectrum, n=128), restored)
        assert 128 in _RFFT_TABLE_CACHE and 128 in _IRFFT_TABLE_CACHE
        assert 64 in _BIT_REVERSE_CACHE and 64 in _STAGE_TWIDDLE_CACHE

    def test_plan_twiddle_table_matches_rom(self):
        plan = FFTPlan(32)
        assert plan.twiddle_table() is stage_twiddles(32)
        assert plan.bit_reversal() is bit_reverse_indices(32)
