"""Per-layer execution plans — one config spine from compile to serving.

CirCNN's central result is a design-space trade: block size × quantisation
× FFT datapath decide latency, energy, and accuracy together (paper
Sections 5–6, Figs 13–15), and the knobs are most valuable swept *per
layer*. In this repo those knobs used to live in three places — the
``backend=`` constructor argument, the bits of
:func:`repro.quant.quantized_view`, the ``block_size`` fixed at
construction — with no single record of what a given network actually
runs. :class:`ExecutionPlan` is that record: one
:class:`LayerPlan` per parameterised layer, ordered, JSON-serialisable,
and threaded through the whole stack:

- ``Sequential.compile_inference(plan=...)`` applies it before freezing;
- :func:`planned_view` builds a configured deep copy of a trained network
  (the generalisation of :func:`repro.quant.quantized_view`);
- :func:`repro.store.save_artifact` persists it in the manifest and
  :func:`~repro.store.load_artifact` reconstructs it;
- ``ModelRegistry.apply_plan(endpoint, plan)`` swaps a re-planned view in
  atomically, reusing already-computed spectra where the plan leaves a
  layer's weights and backend unchanged;
- :mod:`repro.plan.tuner` searches the plan space and emits the winner.

Plans are **positional**: entry ``i`` configures the ``i``-th
parameterised layer in ``named_layers`` order (``planned_layers``). This
survives the re-pathing that activation-quantiser interleaving causes and
makes drift loud — applying a plan to a network with a different layer
count raises :class:`~repro.errors.PlanError` instead of silently
half-configuring.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, replace

from repro.errors import PlanError
from repro.fftcore.backend import get_backend

PLAN_VERSION = 1


@dataclass(frozen=True)
class LayerPlan:
    """Execution knobs for one parameterised layer.

    ``None`` everywhere means "as built" — applying an all-``None`` plan
    is a no-op. ``backend`` is a registered FFT-backend *name* (only
    valid on spectral layers, see :attr:`repro.nn.module.Module.spectral`);
    ``bits`` is the per-tensor fixed-point word length the layer's
    parameters are rounded to; ``block_size`` is the contraction hint —
    it must match the layer's built block size when applied to an
    existing network, and tells fresh-build sweeps
    (:func:`repro.plan.tuner.sweep_table`) what to construct.
    """

    backend: str | None = None
    bits: int | None = None
    block_size: int | None = None


@dataclass(frozen=True)
class ExecutionPlan:
    """An ordered per-layer execution configuration for one network.

    ``layers[i]`` configures the ``i``-th parameterised layer (in
    ``Sequential.planned_layers`` order); ``activation_bits`` is the
    datapath word length of the inter-layer activation stream (``None``
    keeps it float).
    """

    layers: tuple[LayerPlan, ...]
    activation_bits: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, index: int) -> LayerPlan:
        return self.layers[index]

    # -- construction ---------------------------------------------------------
    @classmethod
    def uniform(cls, num_layers: int, *, backend: str | None = None,
                bits: int | None = None,
                activation_bits: int | None = None) -> "ExecutionPlan":
        """The same knobs on every layer — the pre-plan configuration style.

        ``backend`` is recorded on every entry; :func:`apply_plan_inplace`
        skips it on non-spectral layers (a uniform plan must be
        expressible on mixed FC/CONV/Dense stacks).
        """
        return cls(
            layers=tuple(
                LayerPlan(backend=backend, bits=bits)
                for _ in range(num_layers)
            ),
            activation_bits=activation_bits,
        )

    @classmethod
    def from_network(cls, network) -> "ExecutionPlan":
        """Read the plan a network currently embodies.

        Backends come from each spectral layer's configured backend
        (resolved to its registered name), bits from the per-layer
        ``weight_quant_bits`` marker (falling back to the network-level
        one that :func:`repro.quant.quantize_network_weights` sets), and
        ``activation_bits`` from the first
        :class:`~repro.quant.ActivationQuantizer` in the pipeline. If the
        network has a plan stamped on it (by :func:`apply_plan_inplace`
        or :func:`repro.store.load_artifact`), that stamp is returned
        verbatim instead.
        """
        stamped = getattr(network, "_execution_plan", None)
        if stamped is not None:
            return stamped
        network_bits = getattr(network, "weight_quant_bits", None)
        entries = []
        for _path, layer in network.planned_layers():
            entries.append(LayerPlan(
                backend=(
                    get_backend(layer.backend).name if layer.spectral
                    else None
                ),
                bits=getattr(layer, "weight_quant_bits", network_bits),
                block_size=getattr(layer, "block_size", None),
            ))
        from repro.quant.network import _first_activation_bits

        return cls(
            layers=tuple(entries),
            activation_bits=_first_activation_bits(network),
        )

    def with_layer(self, index: int, **changes) -> "ExecutionPlan":
        """A copy with entry ``index`` updated (dataclass ``replace``)."""
        layers = list(self.layers)
        layers[index] = replace(layers[index], **changes)
        return ExecutionPlan(tuple(layers), self.activation_bits)

    # -- serialisation --------------------------------------------------------
    def to_json(self) -> dict:
        """A JSON-ready dict (the manifest / wire representation)."""
        return {
            "version": PLAN_VERSION,
            "activation_bits": self.activation_bits,
            "layers": [asdict(entry) for entry in self.layers],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExecutionPlan":
        """Inverse of :meth:`to_json`; validates shape and version."""
        if not isinstance(data, dict) or "layers" not in data:
            raise PlanError(
                f"not an execution-plan document: {type(data).__name__} "
                "without a 'layers' key"
            )
        version = data.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise PlanError(
                f"unsupported execution-plan version {version!r} "
                f"(this build reads version {PLAN_VERSION})"
            )
        known = {"backend", "bits", "block_size"}
        entries = []
        for i, raw in enumerate(data["layers"]):
            unknown = set(raw) - known
            if unknown:
                raise PlanError(
                    f"plan layer {i} has unknown fields {sorted(unknown)}"
                )
            entries.append(LayerPlan(**raw))
        return cls(
            layers=tuple(entries),
            activation_bits=data.get("activation_bits"),
        )

    def dumps(self) -> str:
        """Compact JSON string form (stable key order)."""
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ExecutionPlan":
        return cls.from_json(json.loads(text))

    def describe(self) -> str:
        """Human-readable per-layer table."""
        lines = [f"ExecutionPlan ({len(self.layers)} layers, "
                 f"activation_bits={self.activation_bits}):"]
        for i, entry in enumerate(self.layers):
            lines.append(
                f"  [{i}] backend={entry.backend or '-'} "
                f"bits={entry.bits if entry.bits is not None else '-'} "
                f"k={entry.block_size if entry.block_size is not None else '-'}"
            )
        return "\n".join(lines)


def _iter_activation_quantizers(network):
    from repro.quant.network import ActivationQuantizer

    for _path, layer in network.named_layers():
        if isinstance(layer, ActivationQuantizer):
            yield layer


def apply_plan_inplace(network, plan: ExecutionPlan):
    """Configure ``network`` according to ``plan``, destructively.

    Sets each planned layer's FFT backend, rounds its parameters to the
    planned word length (a pure ``Parameter.value`` assignment, so
    version counters bump and any cached spectra invalidate lazily), and
    retargets existing activation quantisers. Like
    :func:`repro.quant.quantize_network_weights` this *overwrites*
    weights — apply to a deep copy (:func:`planned_view`) when the
    original must stay float. The applied plan is stamped on the network
    (``network.execution_plan``). Returns the network.

    Raises :class:`~repro.errors.PlanError` when the plan does not fit:
    wrong entry count, an unknown backend name, a ``block_size`` that
    contradicts the built layer, or ``activation_bits`` on a pipeline
    with no :class:`~repro.quant.ActivationQuantizer` to retarget
    (in-place application cannot insert layers; use :func:`planned_view`).
    """
    from repro.quant.schemes import quantize_tensor

    planned = list(network.planned_layers())
    if len(planned) != len(plan):
        raise PlanError(
            f"plan has {len(plan)} layer entries but the network has "
            f"{len(planned)} parameterised layers; plans are positional "
            "and must match exactly"
        )
    for (path, layer), entry in zip(planned, plan.layers):
        if entry.block_size is not None:
            built = getattr(layer, "block_size", None)
            if built != entry.block_size:
                raise PlanError(
                    f"plan wants block_size={entry.block_size} at {path} "
                    f"but the layer was built with k={built}; block size "
                    "is fixed at construction (rebuild via "
                    "repro.plan.tuner.sweep_table for fresh-build sweeps)"
                )
        if entry.backend is not None:
            if not layer.spectral:
                raise PlanError(
                    f"plan sets backend={entry.backend!r} at {path} but "
                    f"{type(layer).__name__} is not a spectral layer"
                )
            get_backend(entry.backend)  # typo check with known-backend list
            layer.backend = entry.backend
        if entry.bits is not None:
            for param in layer.parameters():
                param.value = quantize_tensor(param.value, entry.bits)
            layer.weight_quant_bits = entry.bits
    if plan.activation_bits is not None:
        quantizers = list(_iter_activation_quantizers(network))
        if not quantizers:
            raise PlanError(
                f"plan sets activation_bits={plan.activation_bits} but the "
                "network has no ActivationQuantizer layers to retarget; "
                "in-place application cannot insert layers — build a "
                "planned_view() instead"
            )
        for quantizer in quantizers:
            quantizer.total_bits = plan.activation_bits
    layer_bits = {entry.bits for entry in plan.layers}
    if len(layer_bits) == 1 and None not in layer_bits:
        # Uniform quantisation: keep the network-level marker
        # quantization_format() and the store manifest report.
        network.weight_quant_bits = layer_bits.pop()
    network._execution_plan = plan
    return network


def planned_view(network, plan: ExecutionPlan, *, compile: bool = True):
    """A deep copy of ``network`` configured according to ``plan``.

    The generalisation of :func:`repro.quant.quantized_view`: the
    original network (and any spectral cache it was compiled with) is
    untouched. When ``plan.activation_bits`` is set and the network has
    no activation quantisers yet, they are interleaved around every layer
    exactly as ``quantized_view`` does. By default the view is compiled
    for serving with a fresh spectral cache; ``compile=False`` returns it
    uncompiled (the registry's zero-FFT ``apply_plan`` path does that,
    then seeds a cache and compiles the view itself). Returns the
    configured view.
    """
    from repro.quant.network import ActivationQuantizer, _first_activation_bits

    clone = copy.deepcopy(network)
    # The deep copy cloned any attached cache, keyed by the original
    # parameters' ids — dead weight at best, an id-reuse hazard at worst.
    clone._bind_spectral_cache(None)
    if plan.activation_bits is not None and _first_activation_bits(clone) is None:
        pipeline = type(clone)()
        pipeline.add(ActivationQuantizer(plan.activation_bits))
        for layer in clone.layers:
            pipeline.add(layer)
            pipeline.add(ActivationQuantizer(plan.activation_bits))
        clone = pipeline
    apply_plan_inplace(clone, plan)
    if compile:
        clone.compile_inference()
    return clone
