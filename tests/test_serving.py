"""Tests for the batched serving runtime (repro.serving) and the serving
bugfixes that ride with it: frozen compiled parameters, weak-reference
cache lifetime, and the concurrency contract of compiled forwards."""

from __future__ import annotations

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro.circulant import SpectralWeightCache
from repro.errors import ConfigurationError, ShapeError
from repro.nn import (
    SGD,
    BlockCirculantConv2D,
    BlockCirculantDense,
    Dense,
    Flatten,
    MaxPool2D,
    Parameter,
    ReLU,
    Sequential,
)
from repro.quant import quantized_view
from repro.serving import (
    BatchPolicy,
    InferenceServer,
    MicroBatcher,
    ModelRegistry,
    assemble_batch,
    check_sample_shape,
    resolve_many,
)


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


class TestMicroBatcher:
    def test_closes_at_max_batch(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=3, max_wait_ms=500.0))
        for i in range(5):
            batcher.put(i)
        assert batcher.next_batch(timeout=0.1) == [0, 1, 2]
        assert batcher.next_batch(timeout=0.1) == [3, 4]

    def test_closes_at_deadline_with_partial_batch(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=64, max_wait_ms=20.0))
        batcher.put("only")
        start = time.monotonic()
        batch = batcher.next_batch(timeout=0.1)
        elapsed = time.monotonic() - start
        assert batch == ["only"]
        assert elapsed < 5.0  # closed by deadline, not the 64-item target

    def test_idle_queue_returns_none(self):
        batcher = MicroBatcher(BatchPolicy())
        assert batcher.next_batch(timeout=0.01) is None

    def test_preserves_fifo_order(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=8, max_wait_ms=0.0))
        for i in range(8):
            batcher.put(i)
        assert batcher.next_batch(timeout=0.1) == list(range(8))

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_wait_ms=-1.0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(pad_to_multiple=0)


class TestBatchAssembly:
    def test_stacks_rows(self, rng):
        samples = [rng.normal(size=4) for _ in range(3)]
        x, rows = assemble_batch(samples)
        assert x.shape == (3, 4) and rows == 3
        np.testing.assert_array_equal(x, np.stack(samples))

    def test_pads_batch_axis_with_zero_rows(self, rng):
        samples = [rng.normal(size=4) for _ in range(5)]
        x, rows = assemble_batch(samples, pad_to_multiple=4)
        assert x.shape == (8, 4) and rows == 5
        np.testing.assert_array_equal(x[5:], np.zeros((3, 4)))

    def test_rejects_mixed_shapes(self, rng):
        with pytest.raises(ShapeError):
            assemble_batch([rng.normal(size=4), rng.normal(size=5)])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            assemble_batch([])

    def test_check_sample_shape_wildcards(self):
        check_sample_shape((3, 8, 8), (3, None, None))
        check_sample_shape((5,), None)  # no contract: anything goes
        with pytest.raises(ShapeError):
            check_sample_shape((4, 8, 8), (3, None, None))
        with pytest.raises(ShapeError):
            check_sample_shape((3, 8), (3, None, None))


class TestModelRegistry:
    def test_register_compiles_and_get(self):
        registry = ModelRegistry()
        net = registry.register("fc", _fc_net())
        assert registry.get("fc") is net
        assert net.is_compiled
        assert registry.generation("fc") == 0

    def test_duplicate_register_rejected(self):
        registry = ModelRegistry()
        registry.register("fc", _fc_net())
        with pytest.raises(ConfigurationError):
            registry.register("fc", _fc_net(seed=5))

    def test_unknown_endpoint_raises(self):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError) as exc:
            registry.get("nope")
        assert "nope" in str(exc.value)

    def test_swap_returns_old_and_bumps_generation(self):
        registry = ModelRegistry()
        old = registry.register("fc", _fc_net())
        new = _fc_net(seed=9)
        returned = registry.swap("fc", new)
        assert returned is old
        assert registry.get("fc") is new
        assert registry.generation("fc") == 1

    def test_swap_upserts_fresh_endpoint(self):
        registry = ModelRegistry()
        assert registry.swap("fresh", _fc_net()) is None
        assert "fresh" in registry and len(registry) == 1

    def test_unregister(self):
        registry = ModelRegistry()
        net = registry.register("fc", _fc_net())
        assert registry.unregister("fc") is net
        assert "fc" not in registry


class TestInferenceServer:
    def test_outputs_bit_identical_to_direct_forward(self, rng):
        # Force one deterministic micro-batch (burst of exactly max_batch
        # with a generous window), so the server runs precisely the same
        # compiled batch forward as the direct call.
        net = _fc_net().compile_inference()
        xs = rng.normal(size=(8, 32))
        with InferenceServer(net, max_batch=8, max_wait_ms=200.0) as server:
            outs = server.infer_many(list(xs), timeout=30.0)
        direct = net.inference_forward(xs)
        np.testing.assert_array_equal(np.stack(outs), direct)

    def test_many_requests_all_served(self, rng):
        net = _fc_net().compile_inference()
        xs = rng.normal(size=(37, 32))
        with InferenceServer(net, max_batch=5, max_wait_ms=1.0) as server:
            outs = server.infer_many(list(xs), timeout=30.0)
            stats = server.stats()
        np.testing.assert_allclose(
            np.stack(outs), net.inference_forward(xs), atol=1e-10
        )
        assert stats["responses"] == 37
        assert stats["batches"] >= 8  # 37 requests, max_batch=5

    def test_conv_endpoint(self, rng):
        net = _conv_net().compile_inference()
        xs = rng.normal(size=(6, 4, 6, 6))
        with InferenceServer(net, max_batch=6, max_wait_ms=200.0) as server:
            outs = server.infer_many(list(xs), timeout=30.0)
        np.testing.assert_array_equal(
            np.stack(outs), net.inference_forward(xs)
        )

    def test_quantized_endpoint(self, rng):
        view = quantized_view(_fc_net(), 8, 8).compile_inference()
        xs = rng.normal(size=(4, 32))
        with InferenceServer(view, max_batch=4, max_wait_ms=200.0) as server:
            outs = server.infer_many(list(xs), timeout=30.0)
        np.testing.assert_array_equal(
            np.stack(outs), view.inference_forward(xs)
        )

    def test_multiple_endpoints(self, rng):
        registry = ModelRegistry()
        fc = registry.register("fc", _fc_net())
        conv = registry.register("conv", _conv_net())
        x_fc = rng.normal(size=32)
        x_conv = rng.normal(size=(4, 6, 6))
        with InferenceServer(registry, max_wait_ms=1.0) as server:
            y_fc = server.infer(x_fc, "fc", timeout=30.0)
            y_conv = server.infer(x_conv, "conv", timeout=30.0)
        np.testing.assert_allclose(
            y_fc, fc.inference_forward(x_fc[np.newaxis])[0], atol=1e-12
        )
        np.testing.assert_allclose(
            y_conv, conv.inference_forward(x_conv[np.newaxis])[0], atol=1e-12
        )

    def test_bad_sample_shape_rejected_at_submit(self, rng):
        net = _fc_net().compile_inference()
        with InferenceServer(net) as server:
            with pytest.raises(ShapeError):
                server.submit(rng.normal(size=33))

    def test_unknown_endpoint_rejected_at_submit(self, rng):
        net = _fc_net().compile_inference()
        with InferenceServer(net) as server:
            with pytest.raises(ConfigurationError):
                server.submit(rng.normal(size=32), endpoint="nope")

    def test_submit_requires_running_server(self, rng):
        server = InferenceServer(_fc_net())
        with pytest.raises(ConfigurationError):
            server.submit(rng.normal(size=32))

    def test_padded_batches_do_not_leak_into_outputs(self, rng):
        net = _fc_net().compile_inference()
        xs = rng.normal(size=(3, 32))
        with InferenceServer(
            net, max_batch=8, max_wait_ms=100.0, pad_to_multiple=8
        ) as server:
            futures = [server.submit(x) for x in xs]
            responses = [f.result(timeout=30.0) for f in futures]
        assert all(r.batch_size == 3 for r in responses)
        np.testing.assert_allclose(
            np.stack([r.y for r in responses]),
            net.inference_forward(xs), atol=1e-10,
        )

    def test_response_telemetry(self, rng):
        net = _fc_net().compile_inference()
        with InferenceServer(net, max_wait_ms=1.0) as server:
            response = server.submit(rng.normal(size=32)).result(timeout=30.0)
        assert response.endpoint == "default"
        assert response.generation == 0
        assert response.latency_ms >= response.queued_ms >= 0.0

    def test_cancelled_request_does_not_strand_batchmates(self, rng):
        net = _fc_net().compile_inference()
        xs = rng.normal(size=(2, 32))
        with InferenceServer(net, max_batch=8, max_wait_ms=150.0) as server:
            doomed = server.submit(xs[0])
            kept = server.submit(xs[1])
            # The batch window is still open, so neither future has been
            # claimed by a worker yet and the cancel wins the race.
            assert doomed.cancel()
            response = kept.result(timeout=30.0)
            stats = server.stats()
        np.testing.assert_allclose(
            response.y, net.inference_forward(xs[1:2])[0], atol=1e-10
        )
        assert response.batch_size == 1  # the cancelled row never ran
        assert stats["cancelled"] == 1

    def test_mixed_spatial_sizes_served_as_per_shape_subbatches(self, rng):
        # Both samples are valid for the conv endpoint's (4, None, None)
        # contract but have different spatial sizes: they may share a
        # scheduling window yet must both be served, not poison each
        # other's batch.
        conv_only = Sequential(
            BlockCirculantConv2D(4, 8, 3, block_size=4, padding=1, seed=0)
        ).compile_inference()
        small = rng.normal(size=(4, 6, 6))
        big = rng.normal(size=(4, 10, 10))
        with InferenceServer(
            conv_only, max_batch=4, max_wait_ms=100.0
        ) as server:
            futures = [
                server.submit(small), server.submit(big),
                server.submit(small),
            ]
            responses = [f.result(timeout=30.0) for f in futures]
        np.testing.assert_array_equal(
            responses[0].y,
            conv_only.inference_forward(small[np.newaxis])[0],
        )
        np.testing.assert_array_equal(
            responses[1].y,
            conv_only.inference_forward(big[np.newaxis])[0],
        )
        assert responses[1].batch_size == 1  # its own sub-batch

    def test_registry_restores_eval_mode_on_compiled_network(self):
        # compile -> fine-tune (train mode) -> register: the registry
        # must not serve training-mode forwards.
        net = _fc_net().compile_inference()
        net.train()
        registry = ModelRegistry()
        registry.register("fc", net)
        assert not registry.get("fc").training

    def test_restart_after_stop(self, rng):
        net = _fc_net().compile_inference()
        x = rng.normal(size=32)
        server = InferenceServer(net, max_wait_ms=1.0)
        server.start()
        first = server.infer(x)
        server.stop()
        server.start()
        try:
            np.testing.assert_array_equal(server.infer(x), first)
        finally:
            server.stop()

    def test_row_collapsing_endpoint_fails_all_futures(self, rng):
        class CollapsingStub:
            """Returns one row regardless of batch size."""

            def eval(self):
                return self

            def inference_forward(self, x):
                return np.zeros((1, 4))

        registry = ModelRegistry()
        registry.register("bad", CollapsingStub(), compile=False)
        with InferenceServer(registry, max_batch=4, max_wait_ms=50.0) as server:
            futures = [
                server.submit(rng.normal(size=8), endpoint="bad")
                for _ in range(3)
            ]
            for future in futures:
                with pytest.raises(RuntimeError, match="output rows"):
                    future.result(timeout=30.0)

    def test_stop_drains_queued_requests(self, rng):
        net = _fc_net().compile_inference()
        server = InferenceServer(net, max_batch=4, max_wait_ms=50.0).start()
        futures = [server.submit(rng.normal(size=32)) for _ in range(10)]
        server.stop()
        for future in futures:
            assert future.result(timeout=1.0).y.shape == (16,)


class TestConcurrentServing:
    """Satellite: compiled forwards are reentrant and updates are atomic."""

    @staticmethod
    def _hammer(net, inputs, threads, iterations):
        """Run ``inference_forward`` from many threads; collect outputs."""
        results = [[] for _ in range(threads)]
        errors = []

        def worker(index):
            try:
                for _ in range(iterations):
                    results[index].append(net.inference_forward(inputs[index]))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors, errors
        return results

    def test_threads_match_serial_fc(self, rng):
        net = _fc_net().compile_inference()
        inputs = [rng.normal(size=(3, 32)) for _ in range(4)]
        serial = [net.inference_forward(x) for x in inputs]
        results = self._hammer(net, inputs, threads=4, iterations=25)
        for thread_outputs, expected in zip(results, serial):
            for out in thread_outputs:
                np.testing.assert_array_equal(out, expected)

    def test_threads_match_serial_conv(self, rng):
        net = _conv_net().compile_inference()
        inputs = [rng.normal(size=(2, 4, 6, 6)) for _ in range(3)]
        serial = [net.inference_forward(x) for x in inputs]
        results = self._hammer(net, inputs, threads=3, iterations=10)
        for thread_outputs, expected in zip(results, serial):
            for out in thread_outputs:
                np.testing.assert_array_equal(out, expected)

    def test_threads_match_serial_quantized_view(self, rng):
        view = quantized_view(_fc_net(), 8, 8).compile_inference()
        inputs = [rng.normal(size=(3, 32)) for _ in range(4)]
        serial = [view.inference_forward(x) for x in inputs]
        results = self._hammer(view, inputs, threads=4, iterations=25)
        for thread_outputs, expected in zip(results, serial):
            for out in thread_outputs:
                np.testing.assert_array_equal(out, expected)

    def test_weight_update_observed_atomically(self, rng):
        # A mid-serving reassignment of the defining vectors must yield
        # outputs from the old spectrum or the new one — never a mix.
        layer = BlockCirculantDense(32, 32, 8, bias=False, seed=0)
        net = Sequential(layer).compile_inference()
        x = rng.normal(size=(2, 32))
        old_out = net.inference_forward(x)
        new_weights = layer.weight.value + 1.0
        outputs = []
        stop = threading.Event()

        def worker():
            while not stop.is_set():
                outputs.append(net.inference_forward(x))

        pool = [threading.Thread(target=worker) for _ in range(3)]
        for thread in pool:
            thread.start()
        time.sleep(0.02)
        layer.weight.value = new_weights  # version bump -> lazy refresh
        time.sleep(0.02)
        stop.set()
        for thread in pool:
            thread.join()
        new_out = net.inference_forward(x)
        assert not np.allclose(old_out, new_out)
        for out in outputs:
            matches_old = np.array_equal(out, old_out)
            matches_new = np.array_equal(out, new_out)
            assert matches_old or matches_new, "observed a mixed spectrum"

    def test_hot_swap_observed_atomically(self, rng):
        registry = ModelRegistry()
        net_a = _fc_net(seed=0)
        net_b = _fc_net(seed=0)
        # Push B far from A so a layer-mixed forward matches neither.
        for param in net_b.parameters():
            param.value = param.value + 3.0
        registry.register("fc", net_a)
        x = rng.normal(size=32)
        ref_a = net_a.inference_forward(x[np.newaxis])[0]
        ref_b = net_b.inference_forward(x[np.newaxis])[0]
        with InferenceServer(
            registry, max_batch=4, max_wait_ms=0.5, workers=2
        ) as server:
            futures = [server.submit(x, "fc") for _ in range(30)]
            registry.swap("fc", net_b)
            futures += [server.submit(x, "fc") for _ in range(30)]
            responses = [f.result(timeout=30.0) for f in futures]
        for response in responses:
            from_a = np.allclose(response.y, ref_a, atol=1e-10)
            from_b = np.allclose(response.y, ref_b, atol=1e-10)
            assert from_a != from_b, "response matches neither generation"
            assert (response.generation == 0) == from_a
        # Every post-swap request saw generation 1.
        assert all(r.generation == 1 for r in responses[30:])

    def test_requantize_endpoint_swaps_atomically(self, rng):
        from repro.plan import ExecutionPlan

        registry = ModelRegistry()
        source = _fc_net()
        registry.register("fc", quantized_view(source, 16, 16))
        view8 = registry.apply_plan(
            "fc", ExecutionPlan.uniform(2, bits=8, activation_bits=8),
            source=source,
        )
        assert registry.get("fc") is view8
        assert registry.generation("fc") == 1
        assert view8.is_compiled


class TestFrozenCompiledParameters:
    """Satellite bugfix: compile_inference freezes parameter arrays."""

    def test_element_write_raises_after_compile(self):
        layer = BlockCirculantDense(16, 16, 4, seed=0)
        layer.compile_inference()
        with pytest.raises(ValueError):
            layer.weight.value[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            layer.bias.value[0] = 1.0

    def test_conv_weight_frozen_after_compile(self):
        layer = BlockCirculantConv2D(4, 4, 3, block_size=2, seed=0)
        layer.compile_inference()
        assert layer.weight.frozen
        with pytest.raises(ValueError):
            layer.weight.value[0, 0, 0, 0] = 1.0

    def test_network_compile_freezes_all_block_circulant_params(self):
        net = _fc_net().compile_inference()
        assert net.layers[0].weight.frozen
        assert net.layers[2].weight.frozen

    def test_value_assignment_thaws_and_refreshes(self, rng):
        layer = BlockCirculantDense(16, 16, 4, seed=0)
        net = Sequential(layer).compile_inference()
        x = rng.normal(size=(2, 16))
        before = net.inference_forward(x)
        layer.weight.value = layer.weight.value + 1.0
        assert not layer.weight.frozen
        after = net.inference_forward(x)
        assert not np.allclose(before, after)

    def test_mark_updated_thaws(self):
        layer = BlockCirculantDense(16, 16, 4, seed=0)
        layer.compile_inference()
        version = layer.weight.version
        layer.weight.mark_updated()
        assert not layer.weight.frozen
        assert layer.weight.version == version + 1
        layer.weight.value[0, 0, 0] = 2.0  # now legal
        layer.weight.mark_updated()

    def test_optimizer_step_still_works_after_compile(self, rng):
        layer = BlockCirculantDense(16, 16, 4, seed=0)
        net = Sequential(layer).compile_inference()
        x = rng.normal(size=(2, 16))
        net.train()
        out = net(x)
        net.zero_grad()
        net.backward(out)
        SGD(net.parameters(), lr=0.1).step()  # must not hit the freeze
        assert not layer.weight.frozen

    def test_refreezes_on_next_served_forward(self, rng):
        # The freeze guarantee must survive legitimate updates: a thawing
        # assignment refreshes the spectrum on the next served forward,
        # which re-freezes — so element writes raise again afterwards.
        layer = BlockCirculantDense(16, 16, 4, seed=0)
        net = Sequential(layer).compile_inference()
        layer.weight.value = layer.weight.value * 0.5  # thaws
        assert not layer.weight.frozen
        net.inference_forward(rng.normal(size=(2, 16)))
        assert layer.weight.frozen
        with pytest.raises(ValueError):
            layer.weight.value[0, 0, 0] = 1.0

    def test_assigning_readonly_array_stays_trainable(self):
        param = Parameter(np.zeros(4))
        frozen = np.ones(4)
        frozen.setflags(write=False)
        param.value = frozen
        param.value[0] = 2.0  # the stored copy is writable
        assert frozen[0] == 1.0


class TestCacheLifetime:
    """Satellite bugfix: the cache must not pin old weight generations."""

    def test_recompile_releases_first_generation(self):
        cache = SpectralWeightCache()
        first = Sequential(BlockCirculantDense(16, 16, 4, seed=0))
        first.compile_inference(cache)
        param_ref = weakref.ref(first.layers[0].weight)
        assert len(cache) == 1
        second = Sequential(BlockCirculantDense(16, 16, 4, seed=1))
        second.compile_inference(cache)
        assert len(cache) == 2
        del first
        gc.collect()
        # The first generation's parameter and its entry are both gone.
        assert param_ref() is None
        assert len(cache) == 1
        # The surviving network still serves.
        assert cache.spectrum(second.layers[0].weight) is not None

    def test_release_drops_all_backend_entries(self, rng):
        cache = SpectralWeightCache()
        param = Parameter(rng.normal(size=(2, 2, 8)))
        cache.spectrum(param, "numpy")
        cache.spectrum(param, "radix2")
        assert len(cache) == 2
        cache.release(param)
        assert len(cache) == 0

    def test_clear(self, rng):
        cache = SpectralWeightCache()
        cache.spectrum(Parameter(rng.normal(size=(2, 2, 8))))
        cache.clear()
        assert len(cache) == 0

    def test_dead_entry_purged_before_id_reuse_can_alias(self, rng):
        cache = SpectralWeightCache()
        param = Parameter(rng.normal(size=(2, 2, 8)))
        cache.spectrum(param)
        del param
        gc.collect()
        assert len(cache) == 0  # purged by the weakref callback

    def test_deepcopy_of_compiled_network_starts_cold(self):
        import copy

        net = _fc_net().compile_inference()
        clone = copy.deepcopy(net)
        assert clone.spectral_cache is not None
        assert len(clone.spectral_cache) == 0


class TestServingSignature:
    def test_fc_signature(self):
        net = _fc_net()
        assert net.input_sample_shape == (32,)
        signature = net.serving_signature()
        assert signature["compiled"] is False
        net.compile_inference()
        signature = net.serving_signature()
        assert signature["compiled"] is True
        assert signature["cached_spectra"] == 2

    def test_conv_signature_has_wildcard_spatial_dims(self):
        assert _conv_net().input_sample_shape == (4, None, None)

    def test_dense_layer_shapes(self):
        assert Dense(12, 5).input_sample_shape == (12,)
        assert ReLU().input_sample_shape is None

    def test_scan_looks_through_transparent_layers_only(self):
        # Elementwise layers pass the downstream contract through...
        assert Sequential(ReLU(), Dense(12, 5)).input_sample_shape == (12,)
        # ...but a shape-transforming layer without its own contract ends
        # the scan: the FC width after Flatten says nothing about the
        # (unflattened) shape the network actually accepts.
        flat_first = Sequential(Flatten(), Dense(36, 5))
        assert flat_first.input_sample_shape is None

    def test_quantized_outputs_independent_of_batch_composition(self, rng):
        # Activation formats are fitted per sample, so a request's answer
        # never depends on which other requests shared its micro-batch.
        view = quantized_view(_fc_net(), 8, 8).compile_inference()
        xs = rng.normal(size=(4, 32))
        alone = np.stack([view.inference_forward(x[None])[0] for x in xs])
        with InferenceServer(view, max_batch=4, max_wait_ms=50.0) as server:
            futures = [server.submit(x) for x in xs]
            served = np.stack([f.result(timeout=30.0).y for f in futures])
        np.testing.assert_array_equal(served, alone)

    def test_quantized_view_keeps_input_contract(self):
        # ActivationQuantizer sits in front of the first real layer in a
        # fully quantised view; being elementwise it must not hide the
        # serving shape contract.
        view = quantized_view(_fc_net(), 8, 8)
        assert view.input_sample_shape == (32,)

    def test_flatten_first_network_serves_multidim_samples(self, rng):
        net = Sequential(
            Flatten(), BlockCirculantDense(36, 16, 4, seed=0)
        ).compile_inference()
        x = rng.normal(size=(6, 6))  # valid: Flatten collapses to 36
        with InferenceServer(net, max_wait_ms=1.0) as server:
            y = server.infer(x)
        np.testing.assert_allclose(
            y, net.inference_forward(x[None])[0], atol=1e-10
        )


class TestMicroBatcherEdgeCases:
    """The scheduler corners the multi-process server leans on."""

    def test_max_batch_one_serves_every_item_alone(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=1, max_wait_ms=100.0))
        for i in range(4):
            batcher.put(i)
        # Each batch closes immediately at one item; no window wait even
        # though more items are queued.
        for i in range(4):
            start = time.monotonic()
            assert batcher.next_batch(timeout=1.0) == [i]
            assert time.monotonic() - start < 0.5

    def test_zero_wait_still_drains_already_queued_items(self):
        # max_wait_ms=0 means "never wait for company" — but items that
        # are already queued when the window opens cost nothing and are
        # still drained into the closing batch.
        batcher = MicroBatcher(BatchPolicy(max_batch=8, max_wait_ms=0.0))
        for i in range(5):
            batcher.put(i)
        assert batcher.next_batch(timeout=1.0) == [0, 1, 2, 3, 4]
        # An empty queue with zero wait returns None after the timeout,
        # not a busy loop.
        assert batcher.next_batch(timeout=0.01) is None

    def test_drain_on_stop_with_queued_items(self):
        # The server's shutdown drain: requests enqueued before the wake
        # sentinel are all batched out before the lane exits.
        batcher = MicroBatcher(BatchPolicy(max_batch=2, max_wait_ms=0.0))
        wake = object()
        for i in range(5):
            batcher.put(i)
        batcher.put(wake)
        drained = []
        while batcher.pending() > 0:
            batch = batcher.next_batch(timeout=0.5)
            drained.extend(x for x in batch if x is not wake)
        assert drained == [0, 1, 2, 3, 4]

    def test_expired_entry_never_joins_a_batch(self):
        # A deadline that has already passed at dequeue time goes to the
        # sink, not into the batch — the batch may then be empty.
        dropped = []
        batcher = MicroBatcher(
            BatchPolicy(max_batch=4, max_wait_ms=0.0),
            expired=lambda item: item[1] <= time.monotonic(),
            on_expired=dropped.append,
        )
        batcher.put(("dead", time.monotonic() - 1.0))
        assert batcher.next_batch(timeout=0.5) == []
        assert len(dropped) == 1 and dropped[0][0] == "dead"
        live = ("live", time.monotonic() + 60.0)
        batcher.put(live)
        assert batcher.next_batch(timeout=0.5) == [live]

    def test_expired_mid_window_filtered_per_item(self):
        dropped = []
        batcher = MicroBatcher(
            BatchPolicy(max_batch=4, max_wait_ms=50.0),
            expired=lambda item: item[0] == "dead",
            on_expired=dropped.append,
        )
        for tag in ("live", "dead", "live", "dead"):
            batcher.put((tag, None))
        assert batcher.next_batch(timeout=0.5) == [
            ("live", None), ("live", None)
        ]
        assert dropped == [("dead", None), ("dead", None)]

    def test_expiry_predicate_requires_sink(self):
        with pytest.raises(ConfigurationError, match="together"):
            MicroBatcher(expired=lambda item: False)
        with pytest.raises(ConfigurationError, match="together"):
            MicroBatcher(on_expired=lambda item: None)


class TestResolveManySharedDeadline:
    """Regression: infer_many's timeout bounds the burst, not each future."""

    def test_timeout_is_shared_not_per_future(self):
        # Five futures that never resolve: a per-future timeout loop
        # would wait 5 x 0.2 s; the shared deadline fails after ~0.2 s.
        futures = [Future() for _ in range(5)]
        start = time.monotonic()
        with pytest.raises(FuturesTimeoutError):
            resolve_many(futures, timeout=0.2)
        elapsed = time.monotonic() - start
        assert elapsed < 0.6, (
            f"resolve_many took {elapsed:.2f}s for a 0.2s budget: the "
            "timeout is being applied per future, not per burst"
        )

    def test_later_futures_get_remaining_time_only(self):
        # First future resolves late-but-in-time; the second must only be
        # granted what is left of the shared budget.
        first, second = Future(), Future()

        def resolve_first_late():
            time.sleep(0.15)
            first.set_result("ok")

        threading.Thread(target=resolve_first_late).start()
        start = time.monotonic()
        with pytest.raises(FuturesTimeoutError):
            resolve_many([first, second], timeout=0.3)
        assert time.monotonic() - start < 0.9

    def test_no_timeout_waits_indefinitely(self):
        f = Future()
        threading.Thread(
            target=lambda: (time.sleep(0.05), f.set_result(1))
        ).start()
        assert resolve_many([f]) == [1]

    def test_infer_many_results_in_order(self, rng):
        net = _fc_net().compile_inference()
        xs = rng.normal(size=(6, 32))
        expected = net.inference_forward(xs)
        with InferenceServer(net, max_batch=4, max_wait_ms=1.0) as server:
            ys = server.infer_many(list(xs), timeout=30.0)
        np.testing.assert_allclose(np.stack(ys), expected, atol=1e-10)

    def test_submit_many_returns_futures_in_order(self, rng):
        net = _fc_net().compile_inference()
        xs = rng.normal(size=(4, 32))
        with InferenceServer(net, max_batch=4, max_wait_ms=1.0) as server:
            futures = server.submit_many(list(xs))
            ids = [f.result(30.0).request_id for f in futures]
        assert ids == sorted(ids)


class TestRegistrySubscription:
    """The publish hook the multi-process server's image plane rides on."""

    def test_register_and_swap_notify(self):
        registry = ModelRegistry()
        events = []
        registry.subscribe(
            lambda name, net, gen: events.append((name, gen))
        )
        registry.register("a", _fc_net())
        registry.swap("a", _fc_net(seed=3))
        assert events == [("a", 0), ("a", 1)]

    def test_unsubscribe_stops_notifications(self):
        registry = ModelRegistry()
        events = []
        callback = lambda name, net, gen: events.append(gen)  # noqa: E731
        registry.subscribe(callback)
        registry.register("a", _fc_net())
        registry.unsubscribe(callback)
        registry.swap("a", _fc_net(seed=3))
        assert events == [0]
        registry.unsubscribe(callback)  # unknown callback is a no-op

    def test_callback_sees_final_registry_state(self):
        registry = ModelRegistry()
        seen = []
        registry.subscribe(
            lambda name, net, gen: seen.append(
                registry.generation(name) == gen
            )
        )
        registry.register("a", _fc_net())
        registry.swap("a", _fc_net(seed=3))
        assert seen == [True, True]


class TestApplyPlan:
    """ModelRegistry.apply_plan: the generalised registry re-plan action."""

    def test_apply_plan_swaps_and_records(self, rng):
        from repro.plan import ExecutionPlan

        registry = ModelRegistry()
        source = _fc_net()
        registry.register("fc", source)
        plan = ExecutionPlan.uniform(2, bits=8)
        view = registry.apply_plan("fc", plan)
        assert registry.get("fc") is view
        assert registry.generation("fc") == 1
        assert registry.applied_plan("fc") == plan
        assert view.is_compiled
        x = rng.normal(size=(3, 32))
        # The 8-bit endpoint serves visibly different numbers.
        assert not np.allclose(
            view.inference_forward(x), source.inference_forward(x))

    def test_reapply_defaults_to_recorded_source(self, rng):
        from repro.plan import ExecutionPlan

        registry = ModelRegistry()
        source = _fc_net()
        registry.register("fc", source)
        registry.apply_plan("fc", ExecutionPlan.uniform(2, bits=8))
        # Re-plan without naming a source: quantises the *original*
        # weights at 12 bits, not the already-8-bit served view.
        view12 = registry.apply_plan("fc", ExecutionPlan.uniform(2, bits=12))
        from repro.plan import planned_view

        x = rng.normal(size=(2, 32))
        np.testing.assert_array_equal(
            view12.inference_forward(x),
            planned_view(
                source, ExecutionPlan.uniform(2, bits=12)
            ).inference_forward(x),
        )

    def test_foreign_swap_clears_plan_state(self):
        from repro.plan import ExecutionPlan

        registry = ModelRegistry()
        registry.register("fc", _fc_net())
        registry.apply_plan("fc", ExecutionPlan.uniform(2, bits=8))
        assert registry.applied_plan("fc") is not None
        registry.swap("fc", _fc_net(seed=5))
        assert registry.applied_plan("fc") is None

    def test_backend_replan_seeds_unchanged_spectra(self, rng):
        from repro.fftcore import CountingFFTBackend, register_backend, \
            unregister_backend
        from repro.plan import ExecutionPlan, LayerPlan

        counting = CountingFFTBackend("numpy")
        counting.name = "counting-serve"
        register_backend(counting)
        try:
            source = Sequential(
                BlockCirculantDense(32, 32, 8, seed=0,
                                    backend="counting-serve"),
                ReLU(),
                BlockCirculantDense(32, 16, 4, seed=1,
                                    backend="counting-serve"),
            )
            registry = ModelRegistry()
            registry.register("fc", source)
            compiled = counting.total()
            assert compiled > 0
            # Word-length change on layer 1 only: layer 0's weights (and
            # backend) are untouched, so its spectrum is seeded, not
            # recomputed — the only new weight FFT belongs to layer 1.
            plan = ExecutionPlan(
                (LayerPlan(), LayerPlan(bits=8)))
            counting.reset()
            view = registry.apply_plan("fc", plan)
            # One batched weight-spectrum transform per *recomputed* layer:
            # layer 1 only. Layer 0's spectrum arrived by cache seeding.
            assert counting.counts["rfft"] == 1
            x = rng.normal(size=(2, 32))
            assert view.inference_forward(x).shape == (2, 16)
        finally:
            unregister_backend("counting-serve")

    def test_apply_plan_observed_atomically(self, rng):
        from repro.plan import ExecutionPlan, planned_view

        registry = ModelRegistry()
        source = _fc_net(seed=0)
        registry.register("fc", source)
        plan = ExecutionPlan.uniform(2, bits=4, activation_bits=4)
        x = rng.normal(size=32)
        ref_old = registry.get("fc").inference_forward(x[np.newaxis])[0]
        ref_new = planned_view(source, plan).inference_forward(
            x[np.newaxis])[0]
        # 4-bit quantisation moves every output: mixed forwards match
        # neither reference.
        assert not np.allclose(ref_old, ref_new, atol=1e-6)
        with InferenceServer(
            registry, max_batch=4, max_wait_ms=0.5, workers=2
        ) as server:
            futures = [server.submit(x, "fc") for _ in range(30)]
            registry.apply_plan("fc", plan)
            futures += [server.submit(x, "fc") for _ in range(30)]
            responses = [f.result(timeout=30.0) for f in futures]
        for response in responses:
            from_old = np.allclose(response.y, ref_old, atol=1e-10)
            from_new = np.allclose(response.y, ref_new, atol=1e-10)
            assert from_old != from_new, \
                "response matches neither the old nor the re-planned net"
            assert (response.generation == 0) == from_old
        assert all(r.generation == 1 for r in responses[30:])
        assert registry.applied_plan("fc") == plan
