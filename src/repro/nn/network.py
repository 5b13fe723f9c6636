"""Sequential container — the cascaded-layer structure of paper Fig 2."""

from __future__ import annotations

import numpy as np

from repro.circulant.spectral_cache import SpectralWeightCache
from repro.errors import ConfigurationError
from repro.nn.module import Module


class Sequential(Module):
    """A feed-forward stack of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: list[Module] = list(layers)

    def add(self, layer: Module) -> "Sequential":
        """Append a layer; returns self for chaining."""
        self.layers.append(layer)
        return self

    def _run_forward(self, x: np.ndarray, record: bool, state=None):
        """The one forward pipeline behind every entry point.

        Chains the layers in order, picking each layer's recording
        (``forward``) or pure (``inference_forward``) path per ``record``.
        When ``state`` is given (a per-layer tuple from
        :meth:`init_state`), it is threaded *explicitly* through every
        stateful layer's ``*_with_state`` sequence forward — state lives
        in the caller's hands, never on ``self``, which is what keeps the
        serving path reentrant — and ``(y, new_state)`` is returned
        instead of ``y`` alone. Stateless layers pass their slot through
        untouched.
        """
        states = None if state is None else list(state)
        for index, layer in enumerate(self.layers):
            if states is not None and getattr(layer, "stateful", False):
                run = (layer.forward_with_state if record
                       else layer.inference_forward_with_state)
                x, states[index] = run(x, states[index])
            elif record:
                x = layer.forward(x)
            else:
                x = layer.inference_forward(x)
        if states is None:
            return x
        return x, tuple(states)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._run_forward(x, record=True)

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        """Reentrant serving forward: chains each layer's stateless path.

        Bit-identical to the eval-mode ``forward`` (every
        ``inference_forward`` runs the same computation, minus the writes
        that cache intermediates for ``backward``), and safe to call from
        many threads at once over a compiled network — the serving
        runtime's concurrency contract (see ``docs/serving_runtime.md``).
        Stateful layers start from their zero state per call, so a whole
        sequence is one request.
        """
        return self._run_forward(x, record=False)

    # -- recurrent state threading -------------------------------------------
    @property
    def stateful(self) -> bool:
        """True when any layer carries recurrent state (see
        :class:`~repro.nn.module.StatefulModule`)."""
        return any(getattr(layer, "stateful", False) for layer in self.layers)

    def init_state(self, batch_size: int) -> tuple:
        """Per-layer zero states: one slot per layer, ``None`` for
        stateless layers. The tuple threads through :meth:`step` /
        :meth:`forward_with_state` positionally."""
        return tuple(
            layer.init_state(batch_size)
            if getattr(layer, "stateful", False) else None
            for layer in self.layers
        )

    def forward_with_state(self, x: np.ndarray, state):
        """Recording sequence forward from explicit state; returns
        ``(y, new_state)``."""
        return self._run_forward(x, record=True, state=state)

    def inference_forward_with_state(self, x: np.ndarray, state):
        """Pure sequence forward from explicit state; returns
        ``(y, new_state)``. Reentrant — state is per call, not on
        ``self``."""
        return self._run_forward(x, record=False, state=state)

    def step(self, x_t: np.ndarray, state):
        """One pure streaming timestep through the whole stack.

        ``x_t`` is ``(batch, features)`` — no time axis; stateful layers
        advance via their :meth:`~repro.nn.module.StatefulModule.step`,
        stateless layers apply their ``inference_forward``. Returns
        ``(y_t, new_state)``.
        """
        states = list(state)
        for index, layer in enumerate(self.layers):
            if getattr(layer, "stateful", False):
                x_t, states[index] = layer.step(x_t, states[index])
            else:
                x_t = layer.inference_forward(x_t)
        return x_t, tuple(states)

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        for index, layer in enumerate(reversed(self.layers)):
            grad_output = layer.backward(grad_output)
            if grad_output is None:
                # A layer declared it needs no input gradient
                # (``needs_input_grad=False``, meant for the *first*
                # trainable layer). Stop instead of handing None to
                # earlier layers — but refuse to silently starve an
                # earlier trainable layer of its gradients.
                remaining = self.layers[: len(self.layers) - 1 - index]
                starved = [
                    earlier for earlier in remaining
                    if earlier.num_parameters() > 0
                ]
                if starved:
                    raise ConfigurationError(
                        f"{layer!r} returned no input gradient "
                        "(needs_input_grad=False) but earlier trainable "
                        f"layers {starved!r} still need theirs; only the "
                        "first trainable layer may skip its input "
                        "gradient"
                    )
                break
        return grad_output

    def named_children(self):
        """Direct children under their path-segment names
        (``layers.<index>``); see :meth:`Module.named_children`."""
        for index, layer in enumerate(self.layers):
            yield f"layers.{index}", layer

    def named_layers(self, prefix: str = "layers"):
        """Yield ``(path, layer)`` pairs, recursing into every container —
        nested Sequentials *and* layers with registered children (the
        recurrent layers' gate projections).

        Paths are prefixes of the :meth:`named_parameters` names — a layer
        at ``layers.3`` owns the parameter ``layers.3.weight``, a gate at
        ``layers.0.xi`` the parameter ``layers.0.xi.weight`` — which is
        what lets the model-artifact store (:mod:`repro.store`) tie each
        persisted spectrum back to the parameter it was computed from.
        """
        for index, layer in enumerate(self.layers):
            path = f"{prefix}.{index}"
            yield path, layer
            yield from layer.named_sublayers(path)

    @staticmethod
    def _is_container(layer: Module) -> bool:
        """True for layers that are traversed, not planned/captured
        themselves — anything with registered children."""
        return next(layer.named_children(), None) is not None

    def planned_layers(self, prefix: str = "layers"):
        """``(path, layer)`` for every layer an execution plan configures.

        The positional spine of :class:`repro.plan.ExecutionPlan`: every
        *parameterised leaf* layer, in :meth:`named_layers` order.
        Containers are traversed, not yielded — nested Sequentials, and
        recurrent layers, whose gate projections each get their **own**
        plan entry (per-gate backend and word length) — and
        parameter-free glue (ReLU, pooling, flatten, activation
        quantisers) is skipped, so the sequence is stable under the
        re-pathing that activation-quantiser interleaving causes, which
        is what lets a plan built from a float network apply to its
        quantised twin.
        """
        for path, layer in self.named_layers(prefix):
            if self._is_container(layer):
                continue
            if layer.num_parameters() > 0:
                yield path, layer

    def spectral_layers(self, prefix: str = "layers"):
        """``(path, layer)`` for every layer that consumes a weight spectrum.

        A spectral layer (:attr:`~repro.nn.module.Module.spectral`) is a
        leaf whose forward runs through the ``cached_spectrum=`` fast
        path — the block-circulant FC and CONV layers, and each gate
        projection of the recurrent layers. Containers are traversed, not
        yielded. This is the capture surface for
        :func:`repro.store.artifact.capture_image`.
        """
        for path, layer in self.named_layers(prefix):
            if layer.spectral:
                yield path, layer

    def compile_inference(
        self, cache: SpectralWeightCache | None = None, *,
        plan=None,
    ) -> "Sequential":
        """:meth:`Module.compile_inference` after an optional plan.

        ``plan`` — a :class:`repro.plan.ExecutionPlan` — is applied
        first, **destructively** (per-layer backends set, weights rounded
        to the planned word lengths; same caveat as
        :func:`repro.quant.quantize_network_weights`): spectra must warm
        from the planned weights on the planned backends. To keep the
        original float network, build a
        :func:`repro.plan.planned_view` instead. Returns self.
        """
        if plan is not None:
            from repro.plan import apply_plan_inplace

            apply_plan_inplace(self, plan)
        return super().compile_inference(cache)

    @property
    def is_compiled(self) -> bool:
        """True once a spectral cache is attached (``compile_inference``
        or ``attach_spectral_cache``)."""
        return self.spectral_cache is not None

    @property
    def execution_plan(self):
        """The :class:`repro.plan.ExecutionPlan` last applied, or ``None``.

        Stamped by :func:`repro.plan.apply_plan_inplace` (and therefore
        by ``compile_inference(plan=...)``, :func:`repro.plan.planned_view`
        and :func:`repro.store.load_artifact`). A network configured only
        through constructors reads as ``None``; use
        ``ExecutionPlan.from_network(net)`` to derive its effective plan.
        """
        return getattr(self, "_execution_plan", None)

    @property
    def input_sample_shape(self) -> tuple[int | None, ...] | None:
        """Per-sample input shape of the first shape-aware layer.

        ``None`` axes are wildcards (e.g. the spatial dims of a CONV
        stack); ``None`` overall means no layer declares a contract. The
        serving scheduler uses this to validate requests before they are
        assembled into a batch. The scan looks through shape-transparent
        (elementwise) layers only: a shape-transforming layer without a
        contract of its own (e.g. ``Flatten``) ends the scan, because the
        downstream layer's input shape says nothing about the network's.
        """
        for layer in self.layers:
            shape = getattr(layer, "input_sample_shape", None)
            if shape is not None:
                return shape
            if not getattr(layer, "shape_transparent", False):
                return None
        return None

    @property
    def time_axis(self) -> int | None:
        """Which per-sample axis (if any) is a variable-length time axis.

        Scanned like :attr:`input_sample_shape`: the first stateful
        layer's declared :attr:`~repro.nn.module.Module.time_axis` wins,
        looking through shape-transparent layers only. ``None`` means the
        network is purely feed-forward — every ``None`` axis in the input
        shape is then an unordered wildcard (e.g. CONV spatial dims), not
        a paddable sequence, and the serving scheduler must not
        length-bucket it.
        """
        for layer in self.layers:
            axis = getattr(layer, "time_axis", None)
            if axis is not None:
                return axis
            if not getattr(layer, "shape_transparent", False):
                return None
        return None

    def serving_signature(self) -> dict:
        """Batch-shape metadata for serving runtimes.

        Everything a batching scheduler needs to admit requests: the
        per-sample input shape (``None`` axes free), whether the network
        is compiled (spectra warmed), the number of cached spectra, and —
        for recurrent networks — that the network carries state
        (``stateful``) and which input axis is the variable-length time
        axis (``time_axis``), the axis the scheduler may pad when
        length-bucketing ragged sequence requests.
        """
        cache = self.spectral_cache
        return {
            "input_sample_shape": self.input_sample_shape,
            "compiled": cache is not None,
            "cached_spectra": len(cache) if cache is not None else 0,
            "layers": len(self.layers),
            "stateful": self.stateful,
            "time_axis": self.time_axis,
        }

    def summary(self) -> str:
        """Human-readable per-layer listing with parameter counts."""
        lines = ["Sequential:"]
        for index, layer in enumerate(self.layers):
            lines.append(
                f"  [{index}] {layer!r}  params={layer.num_parameters()}"
            )
        lines.append(f"  total params: {self.num_parameters()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Sequential({len(self.layers)} layers)"
