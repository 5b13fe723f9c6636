"""Exception hierarchy for the CirCNN reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible shape or size."""


class NotPowerOfTwoError(ShapeError):
    """A transform size is not a power of two.

    The radix-2 FFT kernel (and the CirCNN basic computing block it models)
    only supports power-of-two sizes; see ``repro.fftcore``.
    """


class ConfigurationError(ReproError, ValueError):
    """A configuration object (architecture spec, layer spec, ...) is invalid."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative procedure (training, design search) failed to converge."""


class BackendError(ReproError, ValueError):
    """An unknown or unavailable compute backend was requested."""


class PlanError(ConfigurationError):
    """An execution plan is invalid or could not be produced.

    Raised by :mod:`repro.plan` when a plan does not match the network it
    is applied to (wrong layer count, backend on a non-spectral layer,
    block-size mismatch) and by the autotuner when no candidate plan
    passes its bit-compatibility tolerance.
    """


class ServingError(ReproError, RuntimeError):
    """A serving-runtime request could not be served (see :mod:`repro.serving`).

    The common base of the runtime's *typed request outcomes* — admission
    rejection, deadline expiry, worker loss. Catching ``ServingError``
    around a ``Future.result()`` handles every way the serving layer can
    fail a request without touching model-level errors (``ShapeError``
    etc.), which indicate a malformed request rather than an overloaded
    or degraded server.
    """


class QueueFullError(ServingError):
    """Admission control rejected a request because the endpoint is full.

    The load-shedding fast path: raised synchronously at ``submit()``
    time — never after queueing — when an endpoint's bounded queue
    already holds ``queue_depth`` outstanding requests. Callers should
    back off or retry elsewhere; the server sheds instead of building an
    unbounded backlog whose every entry would miss its deadline anyway.
    """


class DeadlineExceededError(ServingError):
    """A request's deadline passed before a worker produced its result.

    Deadlines propagate with the request: the scheduler drops
    already-expired entries at batch formation and workers re-check
    before running a batch, so a hopeless request costs no forward pass.
    """


class WorkerCrashedError(ServingError):
    """A serving worker process died with this request in flight.

    Raised on every future assigned to the dead worker. The supervisor
    respawns a replacement from the shared-memory endpoint images (no
    FFT, no recompile), so subsequent requests succeed; in-flight ones
    fail fast with this error instead of hanging on a result that will
    never arrive.
    """


class WorkerWedgedError(WorkerCrashedError):
    """The wedge watchdog killed a worker stuck inside a batch.

    A *wedged* worker — parked in a forward that never returns — is
    worse than a crashed one: it holds its in-flight requests hostage
    until their deadlines burn. The watchdog (``wedge_timeout_s``)
    SIGKILLs any worker whose running batch exceeds the bound and fails
    its in-flight batches with this error. Subclasses
    :class:`WorkerCrashedError` because recovery is identical (the
    worker is lost and respawned; inference is idempotent, so a
    :class:`~repro.serving.resilience.RetryPolicy` may resubmit), while
    the type records that the loss was a deliberate watchdog kill.
    """


class CircuitOpenError(ServingError):
    """Admission rejected a request because the endpoint's circuit is open.

    Same contract as :class:`QueueFullError`: raised synchronously at
    ``submit()`` time, never after queueing. A
    :class:`~repro.serving.resilience.CircuitBreaker` opens when the
    endpoint's rolling-window error/expiry rate crosses its threshold,
    sheds traffic for a cooldown, then lets half-open probe requests
    through to decide whether to close again.
    """


class ServerClosedError(ServingError, ConfigurationError):
    """The serving runtime is stopped (or stopping) and cannot accept work.

    Raised by ``submit()`` on a server that is not running, and by
    retries that land after ``stop()`` began. Subclasses both
    :class:`ServingError` (it is a request outcome the serving layer
    produced) and :class:`ConfigurationError` (historically this path
    raised ``ConfigurationError``; existing handlers keep working).
    """


class StoreError(ConfigurationError):
    """A model-artifact store operation failed (see :mod:`repro.store`).

    Covers malformed or truncated manifests, unknown codecs, unsupported
    layer types, artifacts written by an incompatible format version, and
    compiled-network images that cannot be captured (an uncompiled
    network) or rebuilt (a header that disagrees with its spec tree).
    Images are rebuilt from shared-memory descriptors too, so this is a
    :class:`ConfigurationError`, as :class:`PlanError` is.
    """


class StoreIntegrityError(StoreError):
    """Stored artifact bytes fail their integrity check.

    Raised when a chunk's checksum no longer matches its recorded value
    (bit rot, truncated write, concurrent overwrite) or when an artifact's
    content hash does not match its manifest.
    """
