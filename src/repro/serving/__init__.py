"""Batched serving runtime over the spectral inference engine.

The ROADMAP north-star is serving heavy traffic, and the per-frequency
spectral GEMM (see ``docs/spectral_engine.md``) costs nearly the same for
one request as for sixteen — so the serving runtime's job is to turn many
concurrent single-sample requests into few compiled batch forwards, the
software analogue of the batching-across-inputs leverage CirCNN's
pipelined FFT hardware gets for free.

The pieces, documented end to end in ``docs/serving_runtime.md``:

- :class:`~repro.serving.scheduler.MicroBatcher` /
  :class:`~repro.serving.scheduler.BatchPolicy` — dynamic micro-batching
  (collect up to ``max_batch`` requests or ``max_wait_ms``, whichever
  first) and batch assembly with optional batch-axis padding;
- :class:`~repro.serving.registry.ModelRegistry` — named endpoints over
  multiple compiled networks (FC, CONV, quantised views) with atomic
  hot swap and per-endpoint generation counters;
- :class:`~repro.serving.server.InferenceServer` — the serving core, one
  request path for both runtimes: admission (``queue_depth``, circuit
  breaker), per-request ``deadline_ms`` expiry, per-endpoint lanes,
  length-bucket grouping and batch assembly, the true-length scatter to
  futures, per-request deadline-aware retries and one ``stats()``
  schema. Its own executor runs one reentrant compiled forward per batch
  (``Sequential.inference_forward``) on a thread pool;
- :class:`~repro.serving.multiproc.MPInferenceServer` — the same core
  with a process executor: every endpoint generation is shared once via
  ``multiprocessing.shared_memory`` (:mod:`repro.serving.shm`), workers
  attach read-only views (zero per-worker FFTs or weight copies), hot
  swap stays atomic across processes, and crashed or wedged workers are
  respawned from the shared images
  (:class:`~repro.errors.WorkerCrashedError`).
- :mod:`repro.serving.resilience` — the fault-tolerance policies layered
  on top: :class:`~repro.serving.resilience.RetryPolicy`
  (deadline-aware transparent retries of crashed/wedged batches),
  :class:`~repro.serving.resilience.CircuitBreaker` /
  :class:`~repro.serving.resilience.BreakerPolicy` (per-endpoint
  fast-reject when an endpoint is persistently failing), and
  :class:`~repro.serving.resilience.DegradationController` /
  :class:`~repro.serving.resilience.DegradationPolicy` (brownout: step
  down a pre-compiled quantised ladder under pressure, recover with
  hysteresis).
"""

from repro.serving.multiproc import BatchGate, MPInferenceServer
from repro.serving.registry import DEFAULT_ENDPOINT, ModelRegistry
from repro.serving.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    DegradationController,
    DegradationPolicy,
    RetryPolicy,
)
from repro.serving.scheduler import (
    BatchPolicy,
    MicroBatcher,
    assemble_batch,
    check_sample_shape,
)
from repro.serving.server import (
    InferenceRequest,
    InferenceResponse,
    InferenceServer,
    resolve_many,
)
from repro.serving.shm import (
    AttachedEndpoint,
    SharedEndpointImage,
    attach_image,
    publish_image,
)

__all__ = [
    "DEFAULT_ENDPOINT",
    "BatchPolicy",
    "MicroBatcher",
    "assemble_batch",
    "check_sample_shape",
    "ModelRegistry",
    "InferenceRequest",
    "InferenceResponse",
    "InferenceServer",
    "MPInferenceServer",
    "BatchGate",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "DegradationPolicy",
    "DegradationController",
    "resolve_many",
    "AttachedEndpoint",
    "SharedEndpointImage",
    "attach_image",
    "publish_image",
]
