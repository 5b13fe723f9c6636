"""Tests for the pluggable FFT backend registry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackendError
from repro.fftcore import (
    available_backends,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
)
from repro.fftcore.backend import FFTBackend, NumpyFFTBackend
from repro.fftcore.real import dft_tables


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


def _lay_out(values: np.ndarray, order: list[int]) -> np.ndarray:
    """``values`` behind plane-major memory: the last axis outermost,
    then the other axes in ``order``, C-contiguous."""
    last = values.ndim - 1
    memory = np.ascontiguousarray(values.transpose(last, *order))
    return memory.transpose(np.argsort((last, *order)))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_dft_tables_hold_exact_values(n):
    # Every entry is 0, ±1 or ±√½ exactly, and the inverse table is the
    # forward one transposed and weighted by w_f/n (exact: powers of 2).
    forward, inverse = dft_tables(n)
    h = n // 2 + 1
    assert forward.shape == (2 * h, n) and inverse.shape == (n, 2 * h)
    assert set(np.abs(forward).ravel()) <= {0.0, 1.0, np.sqrt(0.5)}
    weight = np.full(h, 2.0 / n)
    weight[[0, -1]] = 1.0 / n
    np.testing.assert_array_equal(inverse, forward.T * np.tile(weight, 2))
    np.testing.assert_allclose(
        forward[:h] + 1j * forward[h:],
        np.fft.rfft(np.eye(n), axis=0), atol=1e-15,
    )
    assert not forward.flags.writeable and not inverse.flags.writeable


@st.composite
def plane_major_cases(draw):
    """``(n, leading shape, memory order, seed)``: 1–3 leading axes of
    1–6, all-ones (one column) included, in a random memory order."""
    n = draw(st.sampled_from([2, 4, 8]))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    order = draw(st.permutations(range(len(shape))))
    return n, shape, list(order), draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(plane_major_cases())
def test_plane_major_table_transforms(case):
    # n <= 8 plane-major lines run as one GEMM against the DFT table:
    # numpy.fft's values, each line's bits independent of the batch it
    # rides in, DC/Nyquist imaginary parts exactly 0, and the input's
    # memory order kept.
    n, shape, order, seed = case
    be = NumpyFFTBackend()
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    x = _lay_out(scale * rng.normal(size=(*shape, n)), order)
    spectrum = _lay_out(
        scale * (rng.normal(size=(*shape, n // 2 + 1))
                 + 1j * rng.normal(size=(*shape, n // 2 + 1))), order
    )
    xf, back = be.rfft(x), be.irfft(spectrum, n)
    for got, want in ((xf, np.fft.rfft(x, axis=-1)),
                      (back, np.fft.irfft(spectrum, n=n, axis=-1))):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * n * np.abs(want).max()
    for edge in (xf.imag[..., 0], xf.imag[..., -1]):
        assert (edge == 0).all()
    for result in (xf, back):
        assert result.transpose(x.ndim - 1, *order).flags.c_contiguous
    # A sub-batch, laid out the same way, gives the full call's bits.
    stop = rng.integers(1, shape[0] + 1)
    start = rng.integers(0, stop)
    np.testing.assert_array_equal(
        be.rfft(_lay_out(x[start:stop], order)), xf[start:stop]
    )
    np.testing.assert_array_equal(
        be.irfft(_lay_out(spectrum[start:stop], order), n), back[start:stop]
    )
    # C-contiguous inputs, and plane-major ones of n = 16, stay numpy.fft.
    wide = _lay_out(rng.normal(size=(*shape, 16)), order)
    for values in (x.copy(), wide):
        np.testing.assert_array_equal(be.rfft(values),
                                      np.fft.rfft(values, axis=-1))
        half = np.fft.rfft(values, axis=-1)
        np.testing.assert_array_equal(
            be.irfft(half, values.shape[-1]),
            np.fft.irfft(half, n=values.shape[-1], axis=-1),
        )
