"""Artifact-store cold-start benchmark: load beats rebuild by >= 5x.

The store's reason to exist is restart time: a serving process that dies
must be answering again as fast as possible. This benchmark measures the
full cold-start-to-first-served-batch path both ways:

- **rebuild** — what a process without the store does: construct the
  network (random init), restore weights from the ``.npz`` produced by
  ``save_parameters``, ``compile_inference()`` (recomputing every weight
  FFT), then serve the first batch;
- **store** — ``load_artifact()`` on an identity-codec artifact: layers
  built with ``init="zeros"``, parameters memory-mapped straight off
  disk, spectra seeded from the stored frequency-major buffers (zero
  FFTs), then serve the first batch.

The CI acceptance gate asserts the store path is >= 5x faster, and that
both paths serve bit-identical outputs. Raw timings land in
``benchmark.extra_info`` (the ``bench-store`` artifact in CI). Set
``BENCH_SMOKE=1`` for the reduced-size CI variant; every assertion still
runs.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    BlockCirculantDense,
    ReLU,
    Sequential,
    load_parameters,
    save_parameters,
)
from repro.store import load_artifact, save_artifact

from conftest import BENCH_SMOKE, best_of

# Serving-sized FC stack. Rebuild cost scales with parameter count (the
# random init + npz copies + weight FFTs); the store path's cost is a
# manifest parse plus O(layers) mmap calls, so the gap widens with
# parameter count — which for block-circulant layers means *smaller*
# block sizes (less compression, more defining vectors per layer). The
# first served batch is small, as a freshly restarted process's queue is.
_N, _K, _LAYERS = (2048, 16, 3) if BENCH_SMOKE else (4096, 32, 3)
_BATCH = 4
_ROUNDS = 5 if BENCH_SMOKE else 3


def _build(init_seeds: bool) -> Sequential:
    layers: list = []
    for index in range(_LAYERS):
        layers.append(
            BlockCirculantDense(_N, _N, _K, seed=index if init_seeds else None)
        )
        if index < _LAYERS - 1:
            layers.append(ReLU())
    return Sequential(*layers)


class TestColdStart:
    """Acceptance gate: store cold start >= 5x faster than rebuild."""

    def test_store_cold_start_beats_rebuild(self, benchmark, tmp_path):
        # One trained, compiled network; persist it both ways.
        net = _build(init_seeds=True)
        net.compile_inference()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(_BATCH, _N))
        expected = net.inference_forward(x)

        npz_path = tmp_path / "weights.npz"
        save_parameters(net, npz_path)
        artifact_dir = tmp_path / "artifact"
        save_artifact(net, artifact_dir, codec="identity")

        def rebuild_and_serve():
            cold = _build(init_seeds=True)
            load_parameters(cold, npz_path)
            cold.compile_inference()
            return cold.inference_forward(x)

        def load_and_serve():
            cold = load_artifact(artifact_dir, mmap=True)
            return cold.inference_forward(x)

        # Both cold starts end at the same served rows.
        np.testing.assert_array_equal(rebuild_and_serve(), expected)
        np.testing.assert_array_equal(load_and_serve(), expected)

        rebuild_time = best_of(rebuild_and_serve, _ROUNDS)

        benchmark(load_and_serve)
        store_time = benchmark.stats.stats.min

        speedup = rebuild_time / store_time
        artifact_bytes = sum(
            entry.stat().st_size for entry in artifact_dir.iterdir()
        )
        benchmark.extra_info["rebuild_ms"] = rebuild_time * 1e3
        benchmark.extra_info["store_ms"] = store_time * 1e3
        benchmark.extra_info["speedup_vs_rebuild"] = speedup
        benchmark.extra_info["artifact_mib"] = artifact_bytes / (1 << 20)
        print(
            f"\nn={_N}, k={_K}, layers={_LAYERS}: rebuild+recompile "
            f"{rebuild_time * 1e3:.1f} ms vs store cold start "
            f"{store_time * 1e3:.1f} ms ({speedup:.1f}x), artifact "
            f"{artifact_bytes / (1 << 20):.1f} MiB"
        )
        assert speedup >= 5.0, (
            f"store cold start only {speedup:.2f}x faster than "
            f"rebuild+recompile (n={_N}, k={_K}, layers={_LAYERS})"
        )
