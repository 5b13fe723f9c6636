"""Tests for shared-memory endpoint images (repro.serving.shm).

These run entirely in-process (attaching a segment published by the same
process is valid shared memory use), so they stay in tier-1: the
multi-process servers built on top are exercised in ``tests/test_serving_mp.py``
under the ``mp`` marker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fftcore.backend import CountingFFTBackend
from repro.nn import (
    BlockCirculantConv2D,
    BlockCirculantDense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.quant import quantized_view
from repro.serving import attach_image, publish_image
from repro.serving.shm import _ALIGN


def _fc_net(seed: int = 0) -> Sequential:
    return Sequential(
        BlockCirculantDense(32, 32, 8, seed=seed),
        ReLU(),
        BlockCirculantDense(32, 16, 4, seed=seed + 1),
    )


def _conv_net(seed: int = 0) -> Sequential:
    return Sequential(
        BlockCirculantConv2D(4, 8, 3, block_size=4, padding=1, seed=seed),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        BlockCirculantDense(8 * 3 * 3, 10, 2, seed=seed + 1),
    )


class TestPublishAttachRoundTrip:
    def test_fc_bit_identical(self, rng):
        net = _fc_net().compile_inference()
        x = rng.normal(size=(5, 32))
        expected = net.inference_forward(x)
        image = publish_image("default", net, 0)
        try:
            attached = attach_image(image.descriptor)
            np.testing.assert_array_equal(
                attached.network.inference_forward(x), expected
            )
            attached.close()
        finally:
            image.close_and_unlink()

    def test_conv_bit_identical(self, rng):
        net = _conv_net().compile_inference()
        x = rng.normal(size=(3, 4, 6, 6))
        expected = net.inference_forward(x)
        image = publish_image("conv", net, 2)
        try:
            attached = attach_image(image.descriptor)
            assert attached.endpoint == "conv"
            assert attached.generation == 2
            np.testing.assert_array_equal(
                attached.network.inference_forward(x), expected
            )
            attached.close()
        finally:
            image.close_and_unlink()

    def test_attach_runs_zero_ffts(self, rng):
        # The whole point of sharing the spectra: a worker cold start is
        # page-table setup, not transforms.
        net = _conv_net().compile_inference()
        image = publish_image("default", net, 0)
        try:
            counting = CountingFFTBackend("numpy")
            attached = attach_image(image.descriptor, backend=counting)
            assert counting.total() == 0
            x = rng.normal(size=(2, 4, 6, 6))
            np.testing.assert_array_equal(
                attached.network.inference_forward(x),
                net.inference_forward(x),
            )
            # Forward spent transforms on activations only — weights were
            # already spectral. Same count again on a warm second pass.
            first = counting.total()
            assert first > 0
            counting.reset()
            attached.network.inference_forward(x)
            assert counting.total() == first
            attached.close()
        finally:
            image.close_and_unlink()

    def test_attached_state_is_frozen_and_eval(self):
        net = _fc_net().compile_inference()
        image = publish_image("default", net, 0)
        try:
            attached = attach_image(image.descriptor)
            assert all(
                p.frozen for p in attached.network.parameters()
            )
            assert not attached.network.training
            attached.close()
        finally:
            image.close_and_unlink()

    def test_quantized_view_round_trips(self, rng):
        qnet = quantized_view(
            _fc_net().compile_inference(), weight_bits=8, activation_bits=8
        )
        qnet.compile_inference()
        x = rng.normal(size=(4, 32))
        expected = qnet.inference_forward(x)
        image = publish_image("quant", qnet, 0)
        try:
            assert image.descriptor["quantization"] == {
                "weight_bits": 8, "activation_bits": 8,
            }
            attached = attach_image(image.descriptor)
            assert attached.network.weight_quant_bits == 8
            np.testing.assert_array_equal(
                attached.network.inference_forward(x), expected
            )
            attached.close()
        finally:
            image.close_and_unlink()

    def test_descriptor_is_plain_data_and_aligned(self):
        # The descriptor crosses the process boundary: plain picklable
        # types only, and every array offset keeps the GEMM operands
        # cache-line aligned.
        import pickle

        net = _conv_net().compile_inference()
        image = publish_image("default", net, 0)
        try:
            descriptor = pickle.loads(pickle.dumps(image.descriptor))
            assert descriptor["segment"] == image.descriptor["segment"]
            for record in descriptor["parameters"] + descriptor["spectra"]:
                assert record["offset"] % _ALIGN == 0
            assert descriptor["nbytes"] == image.nbytes > 0
        finally:
            image.close_and_unlink()


class TestImageValidation:
    def test_publish_requires_compiled_network(self):
        with pytest.raises(ConfigurationError):
            publish_image("default", _fc_net(), 0)

    def test_attach_rejects_mismatched_parameters(self):
        net = _fc_net().compile_inference()
        image = publish_image("default", net, 0)
        try:
            descriptor = dict(image.descriptor)
            descriptor["parameters"] = descriptor["parameters"][:-1]
            with pytest.raises(ConfigurationError, match="missing"):
                attach_image(descriptor)
        finally:
            image.close_and_unlink()

    def test_attach_rejects_unknown_spectrum_parameter(self):
        net = _fc_net().compile_inference()
        image = publish_image("default", net, 0)
        try:
            descriptor = dict(image.descriptor)
            bad = dict(descriptor["spectra"][0], param="no.such.param")
            descriptor["spectra"] = [bad] + descriptor["spectra"][1:]
            with pytest.raises(ConfigurationError, match="unknown parameter"):
                attach_image(descriptor)
        finally:
            image.close_and_unlink()

    def test_attach_rejects_wrong_shape_parameter(self):
        # A record whose recorded shape disagrees with the rebuilt layer
        # must fail at attach, not on the first served forward.
        net = _fc_net().compile_inference()
        image = publish_image("default", net, 0)
        try:
            descriptor = dict(image.descriptor)
            records = [dict(record) for record in descriptor["parameters"]]
            bias = next(r for r in records if r["name"] == "layers.0.bias")
            assert tuple(bias["shape"]) == (32,)
            bias["shape"] = (16,)
            descriptor["parameters"] = records
            with pytest.raises(ConfigurationError, match="shape"):
                attach_image(descriptor)
        finally:
            image.close_and_unlink()

    def test_attach_after_unlink_raises_file_not_found(self):
        net = _fc_net().compile_inference()
        image = publish_image("default", net, 0)
        descriptor = image.descriptor
        image.close_and_unlink()
        with pytest.raises(FileNotFoundError):
            attach_image(descriptor)

    def test_close_and_unlink_is_idempotent(self):
        net = _fc_net().compile_inference()
        image = publish_image("default", net, 0)
        image.close_and_unlink()
        image.close_and_unlink()  # second unlink: name already gone


class TestWorkerAttachesFromTask:
    def test_each_task_runs_on_the_generation_it_names(self, rng):
        # The process server's worker loop, run in a thread over real
        # pipes: the task is the only way a worker gets an image, so
        # alternating generations must re-attach each time, and each
        # reply must be that generation's forward bit for bit.
        import multiprocessing
        import threading

        from repro.serving.multiproc import _worker_main

        nets = [_fc_net(seed).compile_inference() for seed in (0, 7)]
        images = [
            publish_image("default", net, generation)
            for generation, net in enumerate(nets)
        ]
        task_recv, task_send = multiprocessing.Pipe(duplex=False)
        result_recv, result_send = multiprocessing.Pipe(duplex=False)
        worker = threading.Thread(
            target=_worker_main, args=(task_recv, result_send, None, False),
            daemon=True,
        )
        worker.start()
        try:
            x = rng.normal(size=(3, 32))
            expected = [net.inference_forward(x) for net in nets]
            assert not np.array_equal(*expected)
            for batch_id, generation in enumerate([0, 1, 0, 1, 1]):
                task_send.send((
                    "task", batch_id, "default", generation, x, None,
                    images[generation].descriptor,
                ))
                assert result_recv.poll(30.0), "worker never replied"
                kind, replied_id, outcome = result_recv.recv()
                assert (kind, replied_id) == ("reply", batch_id)
                assert not isinstance(outcome, BaseException), outcome
                assert outcome[0] == generation
                np.testing.assert_array_equal(
                    outcome[1], expected[generation]
                )
            task_send.send(("stop",))
            worker.join(30.0)
            assert not worker.is_alive(), "('stop',) did not end the loop"
        finally:
            # EOF on the task pipe also ends the loop if an assert fired.
            task_send.close()
            worker.join(30.0)
            for conn in (task_recv, result_recv, result_send):
                conn.close()
            for image in images:
                image.close_and_unlink()
