"""Tests for the pluggable FFT backend registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BackendError
from repro.fftcore import (
    available_backends,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
)
from repro.fftcore.backend import FFTBackend, NumpyFFTBackend


class TestRegistry:
    def test_available(self):
        assert set(available_backends()) == {"numpy", "radix2"}

    def test_lookup_by_name(self):
        assert get_backend("numpy").name == "numpy"
        assert get_backend("radix2").name == "radix2"

    def test_unknown_backend(self):
        with pytest.raises(BackendError):
            get_backend("fftw")

    def test_backend_object_passthrough(self):
        backend = get_backend("radix2")
        assert get_backend(backend) is backend

    def test_default_backend_switch(self):
        try:
            set_default_backend("radix2")
            assert get_backend(None).name == "radix2"
        finally:
            set_default_backend("numpy")
        assert get_backend(None).name == "numpy"

    def test_set_unknown_default(self):
        with pytest.raises(BackendError):
            set_default_backend("cufft")


class _CustomBackend(NumpyFFTBackend):
    name = "custom-test"


class TestRegisterBackend:
    def test_register_resolves_by_name(self):
        backend = _CustomBackend()
        register_backend(backend)
        try:
            assert get_backend("custom-test") is backend
            assert "custom-test" in available_backends()
        finally:
            unregister_backend("custom-test")
        assert "custom-test" not in available_backends()

    def test_register_rejects_non_backend(self):
        with pytest.raises(BackendError):
            register_backend(object())

    def test_register_rejects_abstract_name(self):
        with pytest.raises(BackendError):
            register_backend(FFTBackend())

    def test_collision_needs_replace(self):
        backend = _CustomBackend()
        register_backend(backend)
        try:
            with pytest.raises(BackendError):
                register_backend(_CustomBackend())
            replacement = register_backend(_CustomBackend(), replace=True)
            assert get_backend("custom-test") is replacement
        finally:
            unregister_backend("custom-test")

    def test_builtins_cannot_be_unregistered(self):
        with pytest.raises(BackendError):
            unregister_backend("numpy")
        with pytest.raises(BackendError):
            unregister_backend("radix2")

    def test_unregister_unknown(self):
        with pytest.raises(BackendError):
            unregister_backend("no-such-backend")

    def test_set_default_accepts_instance(self):
        backend = _CustomBackend()
        try:
            set_default_backend(backend)  # auto-registers the instance
            assert get_backend(None) is backend
        finally:
            set_default_backend("numpy")
            unregister_backend("custom-test")

    def test_set_default_rejects_shadowing_instance(self):
        register_backend(_CustomBackend())
        try:
            with pytest.raises(BackendError):
                set_default_backend(_CustomBackend())
        finally:
            unregister_backend("custom-test")

    def test_unregister_default_falls_back_to_numpy(self):
        set_default_backend(_CustomBackend())
        try:
            assert get_backend(None).name == "custom-test"
        finally:
            unregister_backend("custom-test")
        assert get_backend(None).name == "numpy"

    def test_registered_backend_usable_in_layers(self):
        from repro.nn import BlockCirculantDense

        register_backend(_CustomBackend())
        try:
            layer = BlockCirculantDense(
                16, 8, block_size=4, seed=0, backend="custom-test"
            )
            x = np.ones((2, 16))
            np.testing.assert_allclose(
                layer.inference_forward(x),
                BlockCirculantDense(
                    16, 8, block_size=4, seed=0, backend="numpy"
                ).inference_forward(x),
            )
        finally:
            unregister_backend("custom-test")


class TestBackendAgreement:
    """The two backends must be numerically interchangeable."""

    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_fft_agreement(self, rng, n):
        x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        np.testing.assert_allclose(
            get_backend("radix2").fft(x), get_backend("numpy").fft(x),
            atol=1e-9,
        )

    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_ifft_agreement(self, rng, n):
        x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        np.testing.assert_allclose(
            get_backend("radix2").ifft(x), get_backend("numpy").ifft(x),
            atol=1e-9,
        )

    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_rfft_agreement(self, rng, n):
        x = rng.normal(size=(4, n))
        np.testing.assert_allclose(
            get_backend("radix2").rfft(x), get_backend("numpy").rfft(x),
            atol=1e-9,
        )

    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_irfft_agreement(self, rng, n):
        spectrum = np.fft.rfft(rng.normal(size=(4, n)), axis=-1)
        np.testing.assert_allclose(
            get_backend("radix2").irfft(spectrum, n),
            get_backend("numpy").irfft(spectrum, n),
            atol=1e-9,
        )
