"""CirCNN reproduction — block-circulant DNNs and the CirCNN architecture.

A full-stack reproduction of *CirCNN: Accelerating and Compressing Deep
Neural Networks Using Block-Circulant Weight Matrices* (Ding et al.,
MICRO-50, 2017):

- ``repro.fftcore`` — from-scratch radix-2 / real-input FFT kernels, the
  recursive plan of Fig 9, and exact op counters.
- ``repro.circulant`` — circulant and block-circulant matrices with the
  FFT-domain forward/backward kernels of Algorithms 1-2.
- ``repro.nn`` — a NumPy NN framework with drop-in block-circulant FC and
  CONV layers.
- ``repro.models`` / ``repro.datasets`` — the paper's workloads (LeNet-5,
  AlexNet, DBNs) and synthetic stand-ins for its datasets.
- ``repro.compress`` — pruning / SVD / single-circulant baselines and
  bit-exact storage accounting.
- ``repro.quant`` — 16-bit and 4-bit fixed-point simulation.
- ``repro.arch`` — the CirCNN hardware engine model (basic computing
  block, peripheral block, memory subsystem, Algorithm 3 optimiser,
  FPGA/ASIC/embedded platforms).
- ``repro.experiments`` — one harness per paper figure, with paper-vs-
  measured tables and acceptance bands.

Quickstart::

    from repro.nn import BlockCirculantDense, Sequential, ReLU
    layer = BlockCirculantDense(1024, 512, block_size=64)

    from repro.experiments import run_experiment
    print(run_experiment("fig13").render())
"""

from repro.errors import (
    BackendError,
    ConfigurationError,
    ConvergenceError,
    NotPowerOfTwoError,
    ReproError,
    ShapeError,
    StoreError,
    StoreIntegrityError,
)
from repro.utils.allocator import tune_malloc

# Steady-state forwards reuse their heap memory instead of mapping and
# faulting it in on every call (see repro.utils.allocator).
tune_malloc()

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ShapeError",
    "NotPowerOfTwoError",
    "ConfigurationError",
    "ConvergenceError",
    "BackendError",
    "StoreError",
    "StoreIntegrityError",
]
