"""Saving and loading trained networks.

A trained compressed model is the unit a downstream user ships — the whole
point of CirCNN is that the file is small. Parameters are written to a
single ``.npz`` (one array per parameter, names preserved); the network
topology itself is code, so loading restores weights into a freshly built
network of the same architecture::

    save_parameters(net, "lenet_bc.npz")
    net2 = build_lenet5(plan, seed=0)
    load_parameters(net2, "lenet_bc.npz")
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ShapeError
from repro.nn.module import Module


def save_parameters(network: Module, path: str | os.PathLike) -> int:
    """Write every named parameter of ``network`` to ``path`` (.npz).

    Returns the number of parameter tensors written.
    """
    arrays = {name: param.value for name, param in network.named_parameters()}
    np.savez(path, **arrays)
    return len(arrays)


def load_parameters(network: Module, path: str | os.PathLike) -> int:
    """Restore parameters saved by :func:`save_parameters` into ``network``.

    The target network must expose exactly the same parameter names and
    shapes (i.e. be built with the same architecture and compression
    plan); mismatches raise :class:`~repro.errors.ShapeError` with the
    offending name.

    Loading into a **compiled** (frozen) network is defined as
    *thaw-and-reload*: each assignment to ``param.value`` replaces the
    frozen array with a fresh writable one and bumps the parameter
    version, so every cached spectrum in the attached
    :class:`~repro.circulant.spectral_cache.SpectralWeightCache` is
    invalidated and lazily recomputed on the next lookup, and the next
    served eval-mode forward re-freezes each weight array as its spectrum
    refreshes (bias arrays stay writable until the next
    ``compile_inference()``). No
    re-``compile_inference()`` is needed — but the first forward after
    the load pays the weight-FFT refresh, so live weight pushes on a
    serving endpoint should prefer a registry hot swap (see
    ``docs/spectral_engine.md``, "Reloading a compiled network").
    """
    with np.load(path) as data:
        stored = {name: data[name] for name in data.files}
    current = dict(network.named_parameters())
    missing = sorted(set(current) - set(stored))
    extra = sorted(set(stored) - set(current))
    if missing or extra:
        raise ShapeError(
            f"parameter name mismatch: missing {missing}, unexpected {extra}"
        )
    for name, param in current.items():
        value = stored[name]
        if value.shape != param.value.shape:
            raise ShapeError(
                f"shape mismatch for {name!r}: stored {value.shape}, "
                f"network {param.value.shape}"
            )
        param.value = value.astype(np.float64)
    return len(current)


def parameters_nbytes(network: Module, bits_per_param: int = 64) -> int:
    """Serialized weight size at a given word length (bits)."""
    total_params = sum(p.size for p in network.parameters())
    return total_params * bits_per_param // 8
