"""Whole-network fixed-point inference (paper §4.2 and Fig 15's 4-bit note).

The hardware quantises *both* inputs/activations and weights to the
datapath width ("We use 16-bit fixed point numbers for input and weight
representations"). This module simulates that end to end:

- :func:`quantize_network_weights` rounds every parameter of a trained
  network onto a range-fitted fixed-point grid, in place;
- :class:`ActivationQuantizer` is a layer that re-quantises the data
  stream between layers (insert after each compute layer to model the
  datapath word length);
- :func:`quantized_view` builds a quantised *copy pipeline* of a trained
  Sequential without touching the original;
- :func:`accuracy_vs_bits` measures the accuracy-vs-word-length curve —
  the experiment behind the paper's observation that 16-bit is accurate
  while 4-bit collapses (<20% top-1 for AlexNet, §5.2).

Quantised serving
-----------------
``quantized_view(net, 16, 16).compile_inference()`` is the fixed-point
serving mode: the view's block-circulant layers join one
:class:`~repro.circulant.spectral_cache.SpectralWeightCache`, so each
weight spectrum is computed **once from the fake-quantised defining
vectors** and reused on every request. Re-quantising mid-serving
(:func:`quantize_network_weights` on the view, e.g. to drop to the 4-bit
near-threshold mode) reassigns every ``Parameter.value``, which bumps the
version counters and lazily invalidates the cached spectra — no explicit
cache management needed. See ``docs/spectral_engine.md``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Module
from repro.nn.network import Sequential
from repro.quant.schemes import quantize_per_sample, quantize_tensor


def quantize_network_weights(network: Sequential | Module,
                             total_bits: int) -> None:
    """Quantise every parameter of ``network`` in place.

    Each tensor gets its own range-fitted format (per-tensor scaling),
    matching the per-layer scaling hardware implementations use.
    """
    for param in network.parameters():
        param.value = quantize_tensor(param.value, total_bits)
    # Record the format so serving metadata (registry dashboards, the
    # artifact store's manifest) can report what precision is being served.
    network.weight_quant_bits = total_bits


class ActivationQuantizer(Module):
    """Quantise the activation stream to the datapath word length.

    The Q-format is fitted **per sample** (each batch row gets its own
    binary point): a sample's quantised activations depend only on that
    sample, never on which other requests the serving scheduler happened
    to co-batch with it — so served outputs are independent of batch
    composition. Identity in the backward direction (straight-through
    estimator), so a quantised pipeline can still be fine-tuned if
    desired.
    """

    # Elementwise: lets Sequential.input_sample_shape see through to the
    # first real layer, so quantised views keep their serving contract.
    shape_transparent = True

    def __init__(self, total_bits: int):
        super().__init__()
        self.total_bits = total_bits

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.size == 0:
            return x.copy()
        if x.ndim <= 1:
            return quantize_tensor(x, self.total_bits)
        return quantize_per_sample(x, self.total_bits)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output)

    def __repr__(self) -> str:
        return f"ActivationQuantizer(bits={self.total_bits})"


def quantized_view(network: Sequential, weight_bits: int,
                   activation_bits: int | None = None) -> Sequential:
    """A quantised, uncompiled deep copy of a trained network.

    An alias of :func:`repro.plan.planned_view` with
    ``ExecutionPlan.uniform(..., bits=weight_bits,
    activation_bits=activation_bits)`` and ``compile=False``: weights are
    rounded to ``weight_bits``; when ``activation_bits`` is given, an
    :class:`ActivationQuantizer` follows every original layer so the
    inter-layer data stream carries the datapath precision too. The
    original network is left untouched (including any spectral cache it
    was compiled with — the view carries none). For fixed-point serving,
    chain ``.compile_inference()`` (see the module docstring).
    """
    # Lazy import: repro.plan imports this module's quantiser machinery.
    from repro.plan import ExecutionPlan, planned_view

    return planned_view(network, ExecutionPlan.uniform(
        sum(1 for _ in network.planned_layers()),
        bits=weight_bits, activation_bits=activation_bits,
    ), compile=False)


def quantization_format(network) -> dict | None:
    """The fixed-point format a network pipeline serves, or ``None``.

    Inspects the markers the quantisation entry points leave behind:
    ``weight_quant_bits`` (set by :func:`quantize_network_weights` /
    :func:`quantized_view`) and the word length of the first
    :class:`ActivationQuantizer` in the pipeline. A float network — never
    quantised, no quantiser layers — returns ``None``. The artifact store
    records this in its manifest so a loaded endpoint knows what
    precision it is serving.
    """
    weight_bits = getattr(network, "weight_quant_bits", None)
    activation_bits = _first_activation_bits(network)
    if weight_bits is None and activation_bits is None:
        return None
    return {"weight_bits": weight_bits, "activation_bits": activation_bits}


def _first_activation_bits(network) -> int | None:
    """Word length of the first top-level :class:`ActivationQuantizer`."""
    for layer in getattr(network, "layers", ()):
        if isinstance(layer, ActivationQuantizer):
            return layer.total_bits
    return None


def network_accuracy(network: Sequential, x: np.ndarray,
                     y: np.ndarray, *, on_empty: str = "nan") -> float:
    """Plain arg-max classification accuracy in eval mode.

    An empty batch has no defined accuracy (``mean`` over zero samples
    divides by zero): by default the result is ``float("nan")``; pass
    ``on_empty="raise"`` to get a :class:`~repro.errors.ConfigurationError`
    instead — useful when an empty evaluation set indicates a wiring bug.
    """
    if on_empty not in ("nan", "raise"):
        raise ConfigurationError(
            f"on_empty must be 'nan' or 'raise', got {on_empty!r}"
        )
    x = np.asarray(x)
    if x.shape[0] == 0:
        if on_empty == "raise":
            raise ConfigurationError(
                "network_accuracy received an empty batch; accuracy over "
                "zero samples is undefined"
            )
        return float("nan")
    # Restore the prior mode rather than forcing train(): the network may
    # be a compiled serving view (accuracy probe around a requantise), and
    # flipping it to training mode would break the reentrancy contract.
    was_training = network.training
    network.eval()
    try:
        logits = network(x)
    finally:
        if was_training:
            network.train()
    return float(np.mean(np.argmax(logits, axis=1) == y))


def accuracy_vs_bits(network: Sequential, x: np.ndarray, y: np.ndarray,
                     bit_widths=(16, 12, 8, 6, 4),
                     quantize_activations: bool = True,
                     on_empty: str = "nan") -> dict[int, float]:
    """Accuracy of the quantised network at each word length.

    Returns ``{bits: accuracy}``; the float64 baseline is available from
    :func:`network_accuracy` on the original network. ``on_empty``
    (``"nan"`` or ``"raise"``) is forwarded to :func:`network_accuracy`
    for zero-length evaluation sets.
    """
    from repro.plan import ExecutionPlan, planned_view

    num_layers = sum(1 for _ in network.planned_layers())
    results: dict[int, float] = {}
    for bits in bit_widths:
        plan = ExecutionPlan.uniform(
            num_layers, bits=bits,
            activation_bits=bits if quantize_activations else None,
        )
        view = planned_view(network, plan, compile=False)
        results[bits] = network_accuracy(view, x, y, on_empty=on_empty)
    return results


def requantize_endpoint(registry, endpoint: str, source: Sequential,
                        weight_bits: int,
                        activation_bits: int | None = None) -> Sequential:
    """Registry-driven requantise-and-swap for a served endpoint.

    Builds a fresh :func:`quantized_view` of ``source`` at the new word
    length, compiles it (spectra computed once from the fake-quantised
    weights), and atomically swaps it into
    ``registry[endpoint]`` — in-flight batches finish on the old view,
    new batches see the new one, never a mix. The old view (and its
    cached spectra, held only weakly) becomes collectable as soon as the
    last in-flight batch drops it. Returns the new compiled view.

    ``registry`` is a :class:`repro.serving.ModelRegistry`; the
    requantisation is its generalised re-plan action
    (:meth:`~repro.serving.ModelRegistry.apply_plan`) with a uniform
    plan, so the plan is recorded on the endpoint and spectra of layers
    the new word length leaves bit-identical are seeded instead of
    recomputed.
    """
    from repro.plan import ExecutionPlan

    plan = ExecutionPlan.uniform(
        sum(1 for _ in source.planned_layers()),
        bits=weight_bits,
        activation_bits=activation_bits,
    )
    return registry.apply_plan(endpoint, plan, source=source)
