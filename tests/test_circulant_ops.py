"""Tests for the batched block-circulant kernels (Algorithms 1-2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circulant import (
    block_circulant_backward,
    block_circulant_forward,
    block_dims,
    expand_to_dense,
    partition_vector,
    unpartition_vector,
)
from repro.errors import ShapeError
from tests.conftest import numeric_gradient


class TestBlockDims:
    def test_exact_division(self):
        assert block_dims(8, 12, 4) == (2, 3)

    def test_padding_rounds_up(self):
        assert block_dims(10, 14, 4) == (3, 4)
        assert block_dims(1, 1, 4) == (1, 1)

    def test_block_size_one(self):
        assert block_dims(5, 7, 1) == (5, 7)

    def test_invalid_arguments(self):
        with pytest.raises(Exception):
            block_dims(0, 4, 2)
        with pytest.raises(Exception):
            block_dims(4, 4, 0)


class TestPartitioning:
    def test_exact_partition(self, rng):
        x = rng.normal(size=(3, 12))
        blocks = partition_vector(x, 4, 3)
        assert blocks.shape == (3, 3, 4)
        np.testing.assert_allclose(blocks.reshape(3, 12), x)

    def test_zero_padding(self, rng):
        x = rng.normal(size=(2, 10))
        blocks = partition_vector(x, 4, 3)
        assert blocks.shape == (2, 3, 4)
        np.testing.assert_allclose(blocks.reshape(2, 12)[:, :10], x)
        np.testing.assert_allclose(blocks.reshape(2, 12)[:, 10:], 0.0)

    def test_unpartition_inverts(self, rng):
        x = rng.normal(size=(4, 11))
        blocks = partition_vector(x, 4, 3)
        np.testing.assert_allclose(unpartition_vector(blocks, 11), x)

    def test_overflow_rejected(self, rng):
        with pytest.raises(ShapeError):
            partition_vector(rng.normal(size=(2, 13)), 4, 3)
        with pytest.raises(ShapeError):
            unpartition_vector(rng.normal(size=(2, 3, 4)), 13)

    def test_wrong_rank_rejected(self, rng):
        with pytest.raises(ShapeError):
            partition_vector(rng.normal(size=12), 4, 3)


class TestForward:
    @pytest.mark.parametrize("p,q,k", [(1, 1, 4), (3, 2, 4), (2, 5, 8)])
    def test_matches_dense_expansion(self, rng, p, q, k):
        w = rng.normal(size=(p, q, k))
        x = rng.normal(size=(6, q, k))
        out = block_circulant_forward(w, x)
        dense = expand_to_dense(w)
        expected = x.reshape(6, q * k) @ dense.T
        np.testing.assert_allclose(
            out.reshape(6, p * k), expected, atol=1e-9
        )

    def test_backend_parity(self, rng):
        w = rng.normal(size=(2, 3, 8))
        x = rng.normal(size=(4, 3, 8))
        np.testing.assert_allclose(
            block_circulant_forward(w, x, backend="radix2"),
            block_circulant_forward(w, x, backend="numpy"),
            atol=1e-9,
        )

    def test_shape_validation(self, rng):
        w = rng.normal(size=(2, 3, 4))
        with pytest.raises(ShapeError):
            block_circulant_forward(w, rng.normal(size=(5, 2, 4)))
        with pytest.raises(ShapeError):
            block_circulant_forward(w, rng.normal(size=(5, 3, 8)))
        with pytest.raises(ShapeError):
            block_circulant_forward(rng.normal(size=(2, 3)), rng.normal(size=(5, 3, 4)))


class TestBackward:
    def test_gradients_match_finite_differences(self, rng):
        p, q, k, batch = 2, 3, 4, 5
        w = rng.normal(size=(p, q, k))
        x = rng.normal(size=(batch, q, k))
        cotangent = rng.normal(size=(batch, p, k))

        def loss() -> float:
            return float(np.sum(block_circulant_forward(w, x) * cotangent))

        grad_w, grad_x = block_circulant_backward(w, x, cotangent)
        np.testing.assert_allclose(
            grad_w, numeric_gradient(loss, w), atol=1e-6
        )
        np.testing.assert_allclose(
            grad_x, numeric_gradient(loss, x), atol=1e-6
        )

    def test_gradients_radix2_backend(self, rng):
        w = rng.normal(size=(2, 2, 8))
        x = rng.normal(size=(3, 2, 8))
        g = rng.normal(size=(3, 2, 8))
        gw1, gx1 = block_circulant_backward(w, x, g, backend="numpy")
        gw2, gx2 = block_circulant_backward(w, x, g, backend="radix2")
        np.testing.assert_allclose(gw1, gw2, atol=1e-9)
        np.testing.assert_allclose(gx1, gx2, atol=1e-9)

    def test_grad_x_equals_transpose_product(self, rng):
        # dL/dx = W^T g exactly.
        p, q, k = 3, 2, 4
        w = rng.normal(size=(p, q, k))
        x = rng.normal(size=(4, q, k))
        g = rng.normal(size=(4, p, k))
        _, grad_x = block_circulant_backward(w, x, g)
        dense = expand_to_dense(w)
        expected = g.reshape(4, p * k) @ dense
        np.testing.assert_allclose(
            grad_x.reshape(4, q * k), expected, atol=1e-9
        )

    def test_batch_mismatch_rejected(self, rng):
        w = rng.normal(size=(2, 2, 4))
        with pytest.raises(ShapeError):
            block_circulant_backward(
                w, rng.normal(size=(3, 2, 4)), rng.normal(size=(4, 2, 4))
            )

    def test_grad_shape_mismatch_rejected(self, rng):
        w = rng.normal(size=(2, 2, 4))
        with pytest.raises(ShapeError):
            block_circulant_backward(
                w, rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 2, 8))
            )


class TestExpandToDense:
    def test_truncation(self, rng):
        w = rng.normal(size=(3, 4, 4))
        full = expand_to_dense(w)
        assert full.shape == (12, 16)
        truncated = expand_to_dense(w, 10, 14)
        assert truncated.shape == (10, 14)
        np.testing.assert_allclose(truncated, full[:10, :14])

    def test_each_block_is_circulant(self, rng):
        w = rng.normal(size=(2, 2, 3))
        dense = expand_to_dense(w)
        block = dense[0:3, 3:6]
        np.testing.assert_allclose(block[:, 0], w[0, 1])
        for i in range(3):
            for j in range(3):
                assert block[i, j] == block[(i + 1) % 3, (j + 1) % 3]

    def test_rejects_bad_rank(self, rng):
        with pytest.raises(ShapeError):
            expand_to_dense(rng.normal(size=(2, 3)))


class TestKernelProperties:
    @given(
        seed=st.integers(0, 2**31 - 1),
        p=st.integers(1, 3),
        q=st.integers(1, 3),
        log_k=st.integers(0, 4),
        batch=st.integers(1, 4),
        m_cut=st.integers(0, 15),
        n_cut=st.integers(0, 15),
    )
    @settings(max_examples=30, deadline=None)
    def test_forward_equals_dense_property(self, seed, p, q, log_k, batch,
                                           m_cut, n_cut):
        # The paper's core identity, through the layer's one sequence:
        # an m × n matrix with m and n not necessarily multiples of k
        # (zero-padded blocks, padded output rows dropped).
        rng = np.random.default_rng(seed)
        k = 2**log_k
        m, n = p * k - m_cut % k, q * k - n_cut % k
        w = rng.normal(size=(p, q, k))
        x = rng.normal(size=(batch, n))
        out = unpartition_vector(
            block_circulant_forward(w, partition_vector(x, k, q)), m
        )
        expected = x @ expand_to_dense(w, m, n).T
        np.testing.assert_allclose(out, expected, atol=1e-7)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_adjoint_identity(self, seed):
        # <W x, y> == <x, W^T y> — forward and grad_x are true adjoints.
        rng = np.random.default_rng(seed)
        p, q, k = 2, 3, 8
        w = rng.normal(size=(p, q, k))
        x = rng.normal(size=(1, q, k))
        y = rng.normal(size=(1, p, k))
        forward = block_circulant_forward(w, x)
        _, grad_x = block_circulant_backward(w, x, y)
        lhs = float(np.sum(forward * y))
        rhs = float(np.sum(x * grad_x))
        assert lhs == pytest.approx(rhs, rel=1e-9)
