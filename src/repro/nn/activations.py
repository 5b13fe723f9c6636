"""Activation layers. ReLU is the paper's activation of choice (Eq. 1)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


def _relu(x: np.ndarray) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` bit for bit, without the mask: ``fmax``
    maps NaN and ``-inf`` to a zero, and adding ``+0.0`` turns the
    ``-0.0`` that NumPy's ``fmax`` keeps on some lanes into ``+0.0``."""
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


class ReLU(Module):
    """``max(0, x)`` — runs on the peripheral block's comparators (§4.2).

    Recording and serving share one value path; only the recording
    ``forward`` keeps the ``x > 0`` mask for backward.
    """

    shape_transparent = True

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return _relu(x)

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        """Reentrant serving forward: no mask cached on ``self``."""
        return _relu(np.asarray(x, dtype=np.float64))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_output, 0.0)


class Sigmoid(Module):
    """Logistic activation — used by the RBM/DBN experiments (§3.4)."""

    shape_transparent = True

    def __init__(self):
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._output = 1.0 / (1.0 + np.exp(-x))
        return self._output

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        """Reentrant serving forward: no output cached on ``self``."""
        x = np.asarray(x, dtype=np.float64)
        return 1.0 / (1.0 + np.exp(-x))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._output * (1.0 - self._output)


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    shape_transparent = True

    def __init__(self):
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(np.asarray(x, dtype=np.float64))
        return self._output

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        """Reentrant serving forward: no output cached on ``self``."""
        return np.tanh(np.asarray(x, dtype=np.float64))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._output**2)
