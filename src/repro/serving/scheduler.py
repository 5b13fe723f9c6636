"""Dynamic micro-batching: turning concurrent requests into one GEMM.

CirCNN's pipelined FFT datapath gets batching across inputs for free —
every cycle a new activation vector enters the pipeline while the weight
spectra stay resident (Ding et al., MICRO 2017). The software analogue is
micro-batching: the per-frequency spectral GEMM of
:func:`repro.circulant.ops.spectral_contract` costs nearly the same for
one request as for sixteen (the weight-spectrum operand is identical;
only the activation columns grow), so amortising it over many concurrent
requests is the single biggest serving lever — the same leverage CircConv
(Liao et al., 2019) relies on to make structured convolution pay off at
inference time.

:class:`MicroBatcher` implements the classic dynamic policy: the batch
window opens when the first request is taken, and closes when either
``max_batch`` requests have been collected or ``max_wait_ms`` has elapsed
— whichever comes first. Requests already queued are always drained (they
cost nothing to include), FIFO order is preserved, and an idle queue
never busy-waits.

:func:`assemble_batch` then stacks the per-request samples into one
batch-major array — optionally zero-padding the batch axis up to a
multiple of ``pad_to_multiple`` so the downstream GEMM sees a small set
of recurring shapes (BLAS and FFT plan caches both like that) — and the
caller scatters the first ``rows`` output rows back to the requests.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ShapeError


@dataclass(frozen=True)
class BatchPolicy:
    """The two latency/throughput knobs of dynamic micro-batching.

    ``max_batch`` bounds how much work one compiled forward may carry
    (throughput lever), ``max_wait_ms`` bounds how long the first request
    in a window may wait for company (latency lever), and
    ``pad_to_multiple`` optionally rounds the batch axis up with zero
    rows so the spectral GEMM sees recurring shapes.

    ``bucket_multiple`` is the sequence-traffic lever: on an endpoint
    whose network declares a variable-length time axis
    (``serving_signature()["time_axis"]``), ragged requests are grouped
    into **length buckets** — each request's sequence length rounds up to
    the next multiple of ``bucket_multiple``, requests sharing a rounded
    length (and trailing sample shape) batch together, and the time axis
    is zero-padded *within the bucket only*. A length-37 and a length-3
    request never share a batch (no quadratic padding waste), while
    lengths 33–40 all run as one recurring padded shape (FFT plan and
    GEMM shape caches both like that). Harmless on fixed-shape
    endpoints, where every request forms a single exact-shape bucket.
    """

    max_batch: int = 16
    max_wait_ms: float = 2.0
    pad_to_multiple: int | None = None
    bucket_multiple: int | None = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_wait_ms < 0:
            raise ConfigurationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.pad_to_multiple is not None and self.pad_to_multiple < 1:
            raise ConfigurationError(
                f"pad_to_multiple must be >= 1, got {self.pad_to_multiple}"
            )
        if self.bucket_multiple is not None and self.bucket_multiple < 1:
            raise ConfigurationError(
                f"bucket_multiple must be >= 1, got {self.bucket_multiple}"
            )


class MicroBatcher:
    """Collect queued items into micro-batches under a :class:`BatchPolicy`.

    Thread-safe: any number of producers may :meth:`put` while one
    consumer loops on :meth:`next_batch`. Items are opaque to the batcher
    (the serving runtime enqueues ``(request, future)`` pairs).
    """

    def __init__(self, policy: BatchPolicy | None = None, *,
                 expired=None, on_expired=None):
        if (expired is None) != (on_expired is None):
            raise ConfigurationError(
                "expired and on_expired must be given together: the "
                "predicate decides, the sink receives the dropped item"
            )
        self.policy = policy if policy is not None else BatchPolicy()
        self._expired = expired
        self._on_expired = on_expired
        self._queue: queue.Queue = queue.Queue()

    def put(self, item) -> None:
        """Enqueue one item; never blocks. Admission control is the
        caller's job (the serving core bounds unresolved requests)."""
        self._queue.put(item)

    def pending(self) -> int:
        """Number of queued items awaiting a batch (for stats/draining)."""
        return self._queue.qsize()

    def next_batch(self, timeout: float | None = None) -> list | None:
        """Block up to ``timeout`` seconds for a batch; ``None`` if idle.

        The window opens when the first item is taken; it closes at
        ``max_batch`` items or after ``max_wait_ms``, whichever first.
        Items that are already queued when the deadline passes are still
        drained into the closing batch (they cost nothing to include).
        Entries whose per-request deadline has already passed (the
        ``expired`` predicate) never join a batch: they are handed to the
        ``on_expired`` sink as they are dequeued, so a hopeless request
        costs no forward pass — the returned batch may then be empty.
        """
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        batch = []
        deadline = time.monotonic() + self.policy.max_wait_ms / 1000.0
        while True:
            if self._expired is not None and self._expired(item):
                self._on_expired(item)
            else:
                batch.append(item)
            if len(batch) >= self.policy.max_batch:
                return batch
            try:
                # A zero timeout still returns an already-queued item.
                item = self._queue.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                return batch


def check_sample_shape(
    shape: tuple[int, ...], expected: tuple[int | None, ...] | None
) -> None:
    """Validate one request sample against a layer's declared input shape.

    ``expected`` comes from ``Sequential.input_sample_shape``: ``None``
    axes are wildcards (e.g. CONV spatial dims), ``None`` overall skips
    the check entirely. Raises :class:`~repro.errors.ShapeError` on
    mismatch — at submit time, so one bad request cannot poison the
    micro-batch it would have joined.
    """
    if expected is None:
        return
    if len(shape) != len(expected) or any(
        want is not None and got != want
        for got, want in zip(shape, expected)
    ):
        raise ShapeError(
            f"request sample shape {shape} does not match the endpoint's "
            f"input shape {expected} (None = any)"
        )


def bucket_length(length: int, bucket_multiple: int | None) -> int:
    """The padded sequence length a request of ``length`` buckets into.

    Rounds up to the next multiple of ``bucket_multiple`` (identity when
    the policy sets none). Requests sharing a bucketed length — and the
    rest of their sample shape — are batchable together: the scheduler
    pads their time axes to this common length, never further.
    """
    if bucket_multiple is None or bucket_multiple <= 1:
        return length
    return -(-length // bucket_multiple) * bucket_multiple


def bucket_key(shape: tuple[int, ...], time_axis: int | None,
               bucket_multiple: int | None) -> tuple:
    """Grouping key for one request sample under length bucketing.

    Fixed-shape endpoints (``time_axis`` is ``None``) key on the exact
    shape — the pre-existing grouping contract. Sequence endpoints key on
    the shape with the time axis replaced by its
    :func:`bucket_length`-rounded value, so ragged requests land in a
    small set of recurring padded shapes.
    """
    if time_axis is None or time_axis >= len(shape):
        return tuple(shape)
    key = list(shape)
    key[time_axis] = bucket_length(shape[time_axis], bucket_multiple)
    return tuple(key)


def assemble_sequence_batch(
    samples: list[np.ndarray], time_axis: int,
    bucket_multiple: int | None = None,
    pad_to_multiple: int | None = None,
) -> tuple[np.ndarray, int, list[int]]:
    """Stack ragged sequence samples into one zero-padded batch.

    All samples must agree on every axis *except* ``time_axis`` (the
    per-sample axis the network's ``serving_signature()`` declares
    variable); each is zero-padded along it up to the bucket length —
    the longest sample's length, rounded up per ``bucket_multiple``.
    Zero padding is exact for causal recurrent networks: timesteps
    ``t < len_i`` of the padded forward equal the unpadded forward, so
    the caller scatters ``y[i, :len_i]`` (slicing the *output's* time
    axis) back to request ``i`` using the returned true ``lengths``.

    Returns ``(batch, rows, lengths)``; ``rows`` counts real samples
    (the batch axis still honours ``pad_to_multiple``).
    """
    if not samples:
        raise ConfigurationError(
            "assemble_sequence_batch received no samples"
        )
    shapes = [np.shape(s) for s in samples]
    first = shapes[0]
    if time_axis >= len(first):
        raise ShapeError(
            f"time_axis {time_axis} out of range for sample shape {first}"
        )
    rest = first[:time_axis] + first[time_axis + 1:]
    for shape in shapes[1:]:
        if len(shape) != len(first) or (
            shape[:time_axis] + shape[time_axis + 1:] != rest
        ):
            raise ShapeError(
                f"cannot assemble a sequence batch from samples {first} "
                f"and {shape}: all axes but the time axis ({time_axis}) "
                "must agree"
            )
    lengths = [shape[time_axis] for shape in shapes]
    padded_len = bucket_length(max(lengths), bucket_multiple)
    rows = len(samples)
    batch_rows = rows
    if pad_to_multiple is not None and rows % pad_to_multiple:
        batch_rows = -(-rows // pad_to_multiple) * pad_to_multiple
    shape = list(first)
    shape[time_axis] = padded_len
    x = np.zeros((batch_rows, *shape), dtype=np.float64)
    for i, sample in enumerate(samples):
        index: list = [i] + [slice(None)] * len(first)
        index[1 + time_axis] = slice(0, lengths[i])
        x[tuple(index)] = np.asarray(sample, dtype=np.float64)
    return x, rows, lengths


def assemble_batch(
    samples: list[np.ndarray], pad_to_multiple: int | None = None
) -> tuple[np.ndarray, int]:
    """Stack per-request samples into one batch-major array.

    Returns ``(batch, rows)`` where ``rows`` is the number of real
    samples; when ``pad_to_multiple`` is given the batch axis is
    zero-padded up to the next multiple, and the caller must scatter only
    ``batch[:rows]`` back to the requests.
    """
    if not samples:
        raise ConfigurationError("assemble_batch received no samples")
    shape = np.shape(samples[0])
    for sample in samples[1:]:
        if np.shape(sample) != shape:
            raise ShapeError(
                f"cannot assemble a batch from mixed sample shapes "
                f"{shape} and {np.shape(sample)}"
            )
    x = np.stack([np.asarray(s, dtype=np.float64) for s in samples])
    rows = x.shape[0]
    if pad_to_multiple is not None and rows % pad_to_multiple:
        padded_rows = -(-rows // pad_to_multiple) * pad_to_multiple
        padded = np.zeros((padded_rows, *x.shape[1:]), dtype=np.float64)
        padded[:rows] = x
        x = padded
    return x, rows
