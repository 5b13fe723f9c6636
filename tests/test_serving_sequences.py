"""Length-bucketed sequence serving: the scheduler units and the thread server.

The serving half of the time-stepped forward contract: ragged sequence
requests are grouped by bucketed padded length, zero-padded within their
bucket only, and each response carries the request's true-length output.
Served true-length outputs on both runtimes are checked in
``tests/test_serving_core.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import BlockCirculantDense, BlockCirculantLSTM, ReLU, Sequential
from repro.plan import ExecutionPlan
from repro.serving import InferenceServer, ModelRegistry
from repro.serving.scheduler import (
    assemble_sequence_batch,
    bucket_key,
    bucket_length,
)


def _rnn_net(seed: int = 0) -> Sequential:
    net = Sequential(BlockCirculantLSTM(10, 8, 4, seed=seed))
    net.compile_inference()
    return net


# -- scheduler units ----------------------------------------------------------

class TestBucketing:
    def test_bucket_length_rounds_up_to_the_multiple(self):
        assert bucket_length(5, 4) == 8
        assert bucket_length(8, 4) == 8
        assert bucket_length(1, 4) == 4

    def test_bucket_length_passthrough_without_a_multiple(self):
        assert bucket_length(5, None) == 5
        assert bucket_length(5, 1) == 5

    def test_bucket_key_replaces_only_the_time_axis(self):
        assert bucket_key((5, 10), 0, 4) == (8, 10)
        assert bucket_key((3, 5, 10), 1, 4) == (3, 8, 10)
        # No time axis: the key is the exact shape — fixed-shape
        # endpoints keep their per-shape grouping bit for bit.
        assert bucket_key((5, 10), None, 4) == (5, 10)

    def test_assemble_sequence_batch_pads_and_reports_lengths(self):
        rng = np.random.default_rng(0)
        samples = [rng.normal(size=(n, 3)) for n in (2, 5, 4)]
        x, lengths = assemble_sequence_batch(samples, 0, 4)
        assert x.shape == (3, 8, 3)
        assert lengths == [2, 5, 4]
        for i, sample in enumerate(samples):
            np.testing.assert_array_equal(x[i, :len(sample)], sample)
            assert not x[i, len(sample):].any()

    def test_assemble_sequence_batch_rejects_mismatched_features(self):
        with pytest.raises(ShapeError):
            assemble_sequence_batch(
                [np.ones((3, 2)), np.ones((4, 5))], 0, 4
            )

    def test_assemble_sequence_batch_rejects_empty_input(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            assemble_sequence_batch([], 0, 4)


# -- thread server ------------------------------------------------------------

class TestSequenceServing:
    def test_sequences_batch_without_bucketing_only_when_equal_length(self):
        rng = np.random.default_rng(2)
        net = _rnn_net(seed=1)
        server = InferenceServer(net, max_batch=8, max_wait_ms=20.0)
        samples = [rng.normal(size=(4, 10)) for _ in range(4)]
        samples.append(rng.normal(size=(6, 10)))
        with server:
            outs = server.infer_many(samples, timeout=30)
        for sample, y in zip(samples, outs):
            assert y.shape == sample.shape[:1] + (8,)
            reference = net.inference_forward(sample[None])[0]
            np.testing.assert_allclose(y, reference, atol=1e-12, rtol=0)
        # bucket_multiple unset: exact-length grouping, zero time padding.
        assert server.stats()["padded_steps"] == 0

    def test_fixed_shape_endpoints_are_untouched_by_bucketing(self):
        rng = np.random.default_rng(3)
        net = Sequential(
            BlockCirculantDense(16, 8, 4, seed=2), ReLU()
        )
        net.compile_inference()
        server = InferenceServer(
            net, max_batch=8, max_wait_ms=20.0, bucket_multiple=4
        )
        samples = [rng.normal(size=(16,)) for _ in range(5)]
        with server:
            outs = server.infer_many(samples, timeout=30)
        for sample, y in zip(samples, outs):
            assert y.shape == (8,)
        assert server.stats()["padded_steps"] == 0

    def test_apply_plan_hot_swaps_a_sequence_endpoint(self):
        rng = np.random.default_rng(4)
        net = _rnn_net(seed=3)
        registry = ModelRegistry()
        registry.register("default", net)
        server = InferenceServer(
            registry, max_batch=8, max_wait_ms=20.0, bucket_multiple=4
        )
        sample = rng.normal(size=(5, 10))
        with server:
            before = server.infer(sample, timeout=30)
            plan = ExecutionPlan.uniform(
                sum(1 for _ in net.planned_layers()), bits=16
            )
            swapped = registry.apply_plan("default", plan)
            after = server.infer(sample, timeout=30)
        np.testing.assert_allclose(
            before, net.inference_forward(sample[None])[0],
            atol=1e-12, rtol=0,
        )
        np.testing.assert_allclose(
            after, swapped.inference_forward(sample[None])[0],
            atol=1e-12, rtol=0,
        )
        # 16-bit quantisation must actually have changed the weights.
        assert not np.array_equal(before, after)

