"""Module and Parameter — the base of the explicit-backward NN framework."""

from __future__ import annotations

import numpy as np

from repro.circulant.spectral_cache import SpectralWeightCache


class Parameter:
    """A trainable tensor together with its accumulated gradient.

    The tensor is *versioned*: every assignment to ``value`` bumps a
    monotonically increasing ``version`` counter. Derived-quantity caches
    — e.g. the FFT-domain
    :class:`~repro.circulant.spectral_cache.SpectralWeightCache` — compare
    this counter to decide whether their cached view is still valid.
    Updates should be spelled as *pure* assignments
    (``param.value = param.value - lr * grad``): an augmented assignment
    (``param.value -= ...``) also bumps the counter, but evaluates
    ndarray ``__isub__`` on the current array first, which raises
    ``ValueError`` once :meth:`freeze` has made it read-only.

    Element-wise writes that never reassign the attribute
    (``param.value[0] = x``, ``param.value.fill(0)``) bypass the counter;
    code that mutates the array in place must call :meth:`mark_updated`.
    Serving code closes that hole the hard way: :meth:`freeze` marks the
    array read-only so a stray element write raises immediately instead
    of silently serving a stale derived cache. Assigning ``value`` (or
    calling :meth:`mark_updated`) restores writeability.
    """

    def __init__(self, value: np.ndarray):
        self._version = 0
        self.value = np.asarray(value, dtype=np.float64)
        # np.zeros, not np.zeros_like: the calloc-backed allocation defers
        # page zeroing until the first backward touches the buffer, which
        # keeps construction O(1) in parameter bytes — the artifact store's
        # cold-start path builds serving-sized layers it will never train.
        self.grad = np.zeros(self._value.shape, dtype=np.float64)

    @property
    def value(self) -> np.ndarray:
        return self._value

    @value.setter
    def value(self, new_value: np.ndarray) -> None:
        arr = np.asarray(new_value, dtype=np.float64)
        if not arr.flags.writeable:
            # A fresh assignment always yields a writable tensor: adopting
            # a read-only source (e.g. the previously frozen array) would
            # leave the parameter permanently un-trainable.
            arr = arr.copy()
        self._value = arr
        self._version += 1

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every assignment to ``value``."""
        return self._version

    @property
    def frozen(self) -> bool:
        """True when the underlying array is read-only (see :meth:`freeze`)."""
        return not self._value.flags.writeable

    def adopt_frozen(self, value: np.ndarray) -> None:
        """Adopt ``value`` read-only, without copying, and bump the version.

        The serving-load counterpart of the ``value`` setter: the setter
        deliberately *copies* read-only sources so a trained parameter
        never becomes permanently unwritable, but a network loaded from
        the model-artifact store (:mod:`repro.store`) wants the opposite —
        its arrays may be memory-mapped straight from disk, must never be
        written, and copying them would defeat the instant cold start.
        ``adopt_frozen`` takes a read-only view of ``value`` (dtype must
        already be float64 — mapping rules out a converting copy) and
        leaves the parameter frozen, exactly as after
        ``compile_inference()``; assigning ``value`` later thaws it into
        a writable copy as usual.
        """
        arr = np.asarray(value)
        if arr.dtype != np.float64:
            raise TypeError(
                f"adopt_frozen requires a float64 array, got {arr.dtype} "
                "(a converting copy would defeat zero-copy adoption; "
                "assign .value instead)"
            )
        arr = arr.view()
        arr.setflags(write=False)
        self._value = arr
        self._version += 1

    def freeze(self) -> None:
        """Mark the array read-only so in-place writes raise immediately.

        ``compile_inference()`` freezes every block-circulant parameter it
        caches a spectrum for: an element write such as ``param.value[0] = x``
        bypasses the version counter, so without the freeze it would serve
        a stale spectrum forever. Assigning ``value`` or calling
        :meth:`mark_updated` thaws the parameter again.
        """
        self._value.setflags(write=False)

    def mark_updated(self) -> None:
        """Bump ``version`` after an in-place element write to ``value``.

        Also restores writeability after :meth:`freeze`, so intentional
        in-place mutation of a compiled network is spelled
        ``mark_updated(); value[...] = x; mark_updated()`` — on a
        *quiesced* network only: a concurrent served forward both reads
        the array mid-mutation and re-freezes it (raising from the
        element write). Live updates must use pure ``value`` assignment
        or a registry hot swap instead.
        """
        if not self._value.flags.writeable:
            try:
                self._value.setflags(write=True)
            except ValueError:
                # A view of read-only memory we do not own: copy instead.
                self._value = self._value.copy()
        self._version += 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.value.shape})"


class Module:
    """Base class for layers: explicit ``forward`` / ``backward`` pair.

    Contract
    --------
    - ``forward(x)`` computes the output and caches whatever ``backward``
      needs on ``self``.
    - ``backward(grad_output)`` *accumulates* gradients into each
      parameter's ``.grad`` and returns the gradient with respect to the
      layer input. It must be called after the matching ``forward``.
      Layers supporting a ``needs_input_grad=False`` first-layer skip
      (the block-circulant layers) return ``None`` instead of the input
      gradient when that flag is cleared; ``Sequential.backward`` stops
      there rather than passing ``None`` upstream.
    - ``training`` toggles train/eval behaviour (dropout etc.).
    """

    def __init__(self):
        self._parameters: dict[str, Parameter] = {}
        self.training = True

    # -- parameter registry -------------------------------------------------
    def add_parameter(self, name: str, value: np.ndarray) -> Parameter:
        """Register a trainable tensor under ``name`` and return it."""
        param = Parameter(value)
        self._parameters[name] = param
        return param

    # -- child-module traversal ----------------------------------------------
    def named_children(self):
        """Yield ``(name, Module)`` pairs of *direct* child modules.

        The traversal protocol behind every structural surface of the
        library — :meth:`named_parameters`, :meth:`train`,
        ``Sequential.named_layers`` / ``planned_layers`` /
        ``spectral_layers`` all recurse through it. The base class is a
        leaf (no children); containers override it. Child names become
        path segments: a child registered as ``"xi"`` under the layer at
        ``layers.0`` owns parameters named ``layers.0.xi.<param>``.
        """
        return iter(())

    def named_sublayers(self, prefix: str = ""):
        """``(path, Module)`` for every descendant, depth-first.

        Paths join :meth:`named_children` names with ``.`` under
        ``prefix``, so they are prefixes of :meth:`named_parameters`
        names — the invariant the model-artifact store and the execution
        plan rely on to tie layers to their parameters.
        """
        for name, child in self.named_children():
            path = f"{prefix}.{name}" if prefix else name
            yield path, child
            yield from child.named_sublayers(path)

    def named_parameters(self):
        """Yield ``(name, Parameter)`` pairs — own first, then children's,
        child names prefixed per :meth:`named_children`."""
        yield from self._parameters.items()
        for child_name, child in self.named_children():
            for name, param in child.named_parameters():
                yield f"{child_name}.{name}", param

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its children."""
        params = list(self._parameters.values())
        for _, child in self.named_children():
            params.extend(child.parameters())
        return params

    def num_parameters(self) -> int:
        """Total trainable scalars — the storage quantity Fig 7 compares."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- modes ---------------------------------------------------------------
    def train(self, flag: bool = True) -> "Module":
        """Set training mode (affects e.g. dropout) on self and every
        child; returns self."""
        self.training = flag
        for _, child in self.named_children():
            child.train(flag)
        return self

    def eval(self) -> "Module":
        """Set inference mode; returns self."""
        return self.train(False)

    # -- spectral engine -------------------------------------------------------
    #: True for leaf layers whose forward consumes a cached weight spectrum
    #: through :meth:`_weight_spectrum` — the block-circulant FC and CONV
    #: layers, and so every recurrent gate projection. The one "spectral
    #: layer" predicate: the walk below, ``Sequential.spectral_layers``
    #: and the execution plan's backend knob all read it.
    spectral: bool = False

    #: The :class:`SpectralWeightCache` bound by :meth:`attach_spectral_cache`
    #: or :meth:`compile_inference` (``None`` until then).
    spectral_cache: SpectralWeightCache | None = None

    def _modules(self):
        """This module, then every descendant depth-first."""
        yield self
        for _, layer in self.named_sublayers():
            yield layer

    def _bind_spectral_cache(self, cache: SpectralWeightCache | None) -> None:
        """Point this module and every descendant at ``cache`` (``None``
        detaches — what a deep-copied view does with the cache it cloned)."""
        for layer in self._modules():
            layer.spectral_cache = cache

    def attach_spectral_cache(
        self, cache: SpectralWeightCache | None = None
    ) -> "Module":
        """Share one weight-spectrum cache across the whole module tree,
        *without* freezing or eval mode.

        The training-mode entry point to the spectral engine
        (``docs/spectral_training.md``): every spectral leaf — nested
        containers and recurrent gate projections included — reads the
        one ``cache`` (a fresh one when ``None``). Mode and parameter
        writeability are left alone, so optimisers keep working; each
        weight spectrum is version-checked per lookup — reused across
        multi-forward gradient accumulation and eval-within-train
        validation passes, recomputed after every optimiser assignment.
        The array is *not* frozen in training mode, so in-place element
        writes (``weight.value[0] = x``) must be followed by
        ``mark_updated()``. Returns self.
        """
        self._bind_spectral_cache(
            cache if cache is not None else SpectralWeightCache()
        )
        return self

    def compile_inference(
        self, cache: SpectralWeightCache | None = None
    ) -> "Module":
        """Freeze for serving: eval mode + every weight spectrum warmed.

        The same walk as :meth:`attach_spectral_cache`, plus: the tree
        switches to eval mode, each spectral leaf's spectrum is computed
        into the shared cache (so the first inference pays no weight
        FFT), and its weight and bias arrays are frozen read-only — an
        element write that would bypass the version counter raises
        instead of serving a stale spectrum; assigning ``.value`` or
        calling ``mark_updated()`` thaws them. Safe to call more than
        once and safe to keep training afterwards: weight updates
        invalidate entries by parameter version. Returns self.
        """
        self.eval()
        self.attach_spectral_cache(cache)
        for layer in self._modules():
            if layer.spectral:
                self.spectral_cache.spectrum(layer.weight, layer.backend)
                for param in layer.parameters():
                    param.freeze()
        return self

    def _weight_spectrum(self) -> np.ndarray | None:
        """A spectral leaf's cached ``rfft(weight)``, or ``None`` when no
        cache is bound.

        In training mode the lookup is version-checked per step; in eval
        mode a weight a legitimate update thawed (optimiser step,
        requantise) is re-frozen once the cache has refreshed from it, so
        element writes keep raising for as long as the layer serves.
        """
        if self.spectral_cache is None:
            return None
        spectrum = self.spectral_cache.spectrum(self.weight, self.backend)
        if not self.training and not self.weight.frozen:
            self.weight.freeze()
        return spectrum

    # -- compute -------------------------------------------------------------
    #: True for elementwise layers (activations, dropout) whose output
    #: shape always equals their input shape. ``Sequential.input_sample_shape``
    #: may scan *through* transparent layers to find the first shape
    #: contract, but must stop at anything else (Flatten, pooling) whose
    #: input shape differs from the downstream layer's.
    shape_transparent: bool = False

    #: True for layers whose forward carries state across timesteps (the
    #: :class:`StatefulModule` protocol). Stateless layers ignore it.
    stateful: bool = False

    #: Which *per-sample* axis of :attr:`input_sample_shape` is a
    #: variable-length time axis (``None`` for non-sequence layers).
    #: Recurrent layers set ``0``: a sample is ``(T, features)`` with
    #: ``T`` free, which is what lets the serving scheduler bucket ragged
    #: sequence requests by padded length.
    time_axis: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        """Stateless forward for concurrent serving.

        ``forward`` caches intermediates on ``self`` for ``backward``, so
        two threads sharing one layer can corrupt each other's outputs.
        Layers override this with a pure computation (no writes to
        ``self``) that is bit-identical to the eval-mode ``forward``; the
        base implementation falls back to ``forward`` and is therefore
        only safe single-threaded.
        """
        return self.forward(x)

    @property
    def input_sample_shape(self) -> tuple[int | None, ...] | None:
        """Per-sample input shape this layer accepts, for batch assembly.

        ``None`` axes are wildcards (e.g. spatial dims of a CONV layer);
        ``None`` overall means the layer has no fixed input contract.
        """
        return None

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class StatefulModule(Module):
    """Protocol for layers whose forward carries state across timesteps.

    The stateless contract above hard-codes "one forward per sample";
    recurrence needs a forward that *threads state* instead. A stateful
    layer consumes a ``(batch, T, features)`` sequence (per-sample time
    axis 0, declared via :attr:`Module.time_axis`) and exposes:

    - :meth:`init_state` — the zero state for a batch;
    - :meth:`forward_with_state` / :meth:`inference_forward_with_state` —
      the full-sequence forwards, returning ``(y, final_state)``. State
      is **passed per call and returned, never stored on ``self``** —
      that is what keeps ``inference_forward`` reentrant under the
      serving runtime's concurrency contract, exactly like the stateless
      layers' no-writes rule;
    - :meth:`step` — one timestep for streaming consumers
      (``Sequential.step`` threads it through mixed stacks). Pure, like
      ``inference_forward``.

    ``forward(x)`` / ``inference_forward(x)`` remain the whole-sequence
    entry points (zero initial state), so a stateful layer still drops
    into ``Sequential`` and the serving runtimes unchanged — the batch
    contract is per-*sequence*, with state an internal loop variable.
    Training-path forwards record a BPTT tape on ``self`` exactly as the
    stateless layers record their spectral tape.
    """

    stateful: bool = True
    time_axis: int | None = 0

    def init_state(self, batch_size: int):
        """The zero recurrent state for ``batch_size`` independent rows."""
        raise NotImplementedError

    def forward_with_state(self, x: np.ndarray, state):
        """Recording full-sequence forward from ``state``; returns
        ``(y, final_state)``."""
        raise NotImplementedError

    def inference_forward_with_state(self, x: np.ndarray, state):
        """Pure full-sequence forward from ``state``; returns
        ``(y, final_state)``. Reentrant: no writes to ``self``."""
        raise NotImplementedError

    def step(self, x_t: np.ndarray, state):
        """One pure timestep: ``(batch, features)`` in, ``(y_t, state)`` out.

        Default implementation runs the layer's sequence path on a
        length-1 sequence — subclasses may override with a direct cell
        update, but must stay bit-compatible with the sequence forward.
        """
        y, state = self.inference_forward_with_state(x_t[:, None, :], state)
        return y[:, 0], state

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_with_state(
            x, self.init_state(np.asarray(x).shape[0])
        )
        return y

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.inference_forward_with_state(
            x, self.init_state(np.asarray(x).shape[0])
        )
        return y
