"""Fixed-point quantisation (paper §4.2 and the Fig 15 4-bit mode).

CirCNN's hardware uses 16-bit fixed-point inputs and weights; the ASIC
study additionally evaluates an aggressive 4-bit near-threshold mode. This
package simulates those number formats in software:

- :class:`repro.quant.fixed_point.FixedPointFormat` — a signed Q-format
  with round-to-nearest and saturation;
- :mod:`repro.quant.schemes` — per-tensor formats (the exponent is chosen
  from the tensor's dynamic range), fake-quantisation helpers for whole
  models, and error metrics.
"""

from repro.quant.fixed_point import FixedPointFormat
from repro.quant.schemes import (
    QuantizationReport,
    fit_format,
    quantization_snr_db,
    quantize_per_sample,
    quantize_tensor,
)
from repro.quant.network import (
    ActivationQuantizer,
    accuracy_vs_bits,
    network_accuracy,
    quantization_format,
    quantize_network_weights,
    quantized_view,
)

__all__ = [
    "FixedPointFormat",
    "QuantizationReport",
    "fit_format",
    "quantize_tensor",
    "quantize_per_sample",
    "quantization_snr_db",
    "ActivationQuantizer",
    "quantize_network_weights",
    "quantized_view",
    "network_accuracy",
    "accuracy_vs_bits",
    "quantization_format",
]
