"""Weight initialisers.

He-style scaling is used for ReLU networks; the block-circulant layers get
the same fan-in scaling because each expanded dense entry corresponds to
exactly one stored parameter, so the expanded matrix's entry variance
matches a dense layer initialised the same way.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng


def he_normal(shape: tuple[int, ...], fan_in: int, seed=None) -> np.ndarray:
    """Gaussian init with std ``sqrt(2 / fan_in)`` (He et al., for ReLU)."""
    rng = make_rng(seed)
    return rng.normal(0.0, np.sqrt(2.0 / max(1, fan_in)), size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero tensor (biases)."""
    return np.zeros(shape, dtype=np.float64)
