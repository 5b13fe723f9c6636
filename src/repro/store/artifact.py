"""Persist and reload compiled networks — the store's save/load core.

``save_artifact`` snapshots a ``compile_inference()``-ed network into a
directory: a layer-spec manifest plus one chunked file per parameter and
per **precomputed weight spectrum**. ``load_artifact`` inverts it without
recomputing a single FFT: layers are rebuilt with ``init="zeros"``,
parameter arrays are adopted read-only (memory-mapped when the codec is
``identity``), and each stored spectrum is seeded straight into a fresh
:class:`~repro.circulant.spectral_cache.SpectralWeightCache` — the loaded
network is frozen, warm, and bit-identical to the one that was saved.

Spectra are stored as the cache's **frequency-major** contiguous buffer
(FC: ``(f, p, q)``; CONV: ``(f, p, r², q)``) — for FC that transpose *is*
the contiguous memory, so writing is a plain byte dump, and on load the
natural logical view is restored by the inverse transpose. The loaded
spectrum therefore hits the same zero-copy per-frequency GEMM layout the
engine compiles to (see ``docs/spectral_engine.md``).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.circulant.spectral_cache import natural_view, spectrum_layout
from repro.errors import ConfigurationError, ShapeError, StoreError
from repro.store.chunks import (
    DEFAULT_CHUNK_BYTES,
    read_chunked_array,
    verify_chunked_array,
    write_chunked_array,
)
from repro.store.manifest import (
    MANIFEST_FILE,
    MANIFEST_FORMAT,
    content_hash,
    layer_from_spec,
    layer_to_spec,
    read_manifest,
    write_manifest,
)


def _spectrum_layout(spectrum: np.ndarray) -> tuple[str, np.ndarray]:
    """:func:`repro.circulant.spectral_cache.spectrum_layout`, as a StoreError.

    The layout algebra lives with the cache (the multi-process server's
    shared-memory images serialise the same buffers); the store wraps it
    so an unsupported spectrum still surfaces as a store failure.
    """
    try:
        return spectrum_layout(spectrum)
    except ShapeError as exc:
        raise StoreError(str(exc)) from exc


def _natural_view(buffer: np.ndarray, layout: str) -> np.ndarray:
    """Invert :func:`_spectrum_layout`: stored buffer → natural view."""
    try:
        return natural_view(buffer, layout)
    except ShapeError as exc:
        raise StoreError(f"{exc} in manifest") from exc


def _json_signature(signature: dict) -> dict:
    """A serving signature as plain JSON types (tuples become lists)."""
    out = dict(signature)
    shape = out.get("input_sample_shape")
    if shape is not None:
        out["input_sample_shape"] = list(shape)
    return out


def save_artifact(
    network, path: str | os.PathLike, *,
    codec: str = "zlib", chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    overwrite: bool = False,
) -> dict:
    """Write ``network``'s compiled state to directory ``path``.

    The network must already be compiled (``compile_inference()``): the
    store's contract is that loading skips compilation entirely, so there
    is nothing useful to persist about an uncompiled network — trying
    raises :class:`~repro.errors.StoreError`. Pass ``codec="identity"``
    for memory-mappable artifacts (larger on disk, instant to load) or
    the default ``"zlib"`` for compressed ones. Returns the manifest
    (content hash included) and writes it last, so an interrupted save
    never leaves a loadable-looking directory.
    """
    from repro.nn.serialization import capture_compiled_state
    from repro.plan import ExecutionPlan
    from repro.quant import quantization_format

    try:
        state = capture_compiled_state(network)
    except ConfigurationError as exc:
        raise StoreError(
            f"save_artifact needs a compiled network: {exc}"
        ) from exc
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    if (directory / MANIFEST_FILE).exists() and not overwrite:
        raise StoreError(
            f"{directory} already holds an artifact; pass overwrite=True "
            "or publish through ArtifactStore for versioned directories"
        )
    spec = layer_to_spec(network)
    parameters = []
    for name, param in state["parameters"].items():
        meta = write_chunked_array(
            param.value, directory, name, codec=codec, chunk_bytes=chunk_bytes
        )
        parameters.append({"name": name, "array": meta})
    spectra = []
    for record in state["spectra"]:
        layout, buffer = _spectrum_layout(record["spectrum"])
        meta = write_chunked_array(
            buffer, directory, f"{record['param']}.spectrum",
            codec=codec, chunk_bytes=chunk_bytes,
        )
        spectra.append({
            "param": record["param"],
            "backend": record["backend"],
            "layout": layout,
            "array": meta,
        })
    manifest = {
        "format": MANIFEST_FORMAT,
        "codec": codec,
        "network": spec,
        "parameters": parameters,
        "spectra": spectra,
        "serving_signature": _json_signature(state["signature"]),
        "quantization": quantization_format(network),
        # The per-layer execution configuration this network was compiled
        # under: the stamped plan when one was applied, else the plan the
        # network's construction embodies (backends, word lengths, block
        # sizes). load_artifact re-stamps it on the rebuilt network.
        "execution_plan": ExecutionPlan.from_network(network).to_json(),
    }
    write_manifest(directory, manifest)
    return read_manifest(directory)


def load_artifact(
    path: str | os.PathLike, *,
    mmap: bool = True, verify: bool | None = None, backend=None,
):
    """Reconstruct a frozen, serving-ready network from an artifact.

    No FFT runs: layers are rebuilt from the manifest's spec tree with
    ``init="zeros"`` (no random draws), each parameter adopts its stored
    array read-only without copying
    (:meth:`~repro.nn.module.Parameter.adopt_frozen` — a memory map when
    ``mmap=True`` and the codec is ``identity``), and every stored weight
    spectrum is seeded into one shared
    :class:`~repro.circulant.spectral_cache.SpectralWeightCache`
    (:meth:`~repro.circulant.spectral_cache.SpectralWeightCache.seed`).
    The result is in eval mode with every parameter frozen — exactly the
    state ``compile_inference()`` leaves behind, minus the FFTs.

    ``verify`` follows :func:`repro.store.chunks.read_chunked_array`:
    checksums are verified on reads and skipped on maps unless forced.
    ``backend`` (name or instance) overrides the FFT backend of every
    block-circulant layer *and* the seeded spectra — the instrumentation
    hook tests use to prove zero transforms ran.
    """
    from repro.circulant.spectral_cache import SpectralWeightCache
    from repro.nn.network import Sequential

    directory = Path(path)
    manifest = read_manifest(directory)
    network = layer_from_spec(manifest["network"], backend)
    if not isinstance(network, Sequential):
        raise StoreError(
            "artifact does not describe a Sequential network at top level"
        )
    current = dict(network.named_parameters())
    stored_names = [record["name"] for record in manifest["parameters"]]
    missing = sorted(set(current) - set(stored_names))
    extra = sorted(set(stored_names) - set(current))
    if missing or extra:
        raise StoreError(
            f"manifest parameters do not match the spec tree: missing "
            f"{missing}, unexpected {extra}"
        )
    for record in manifest["parameters"]:
        param = current[record["name"]]
        array = read_chunked_array(
            directory, record["array"], mmap=mmap, verify=verify
        )
        if array.shape != param.value.shape:
            raise StoreError(
                f"stored parameter {record['name']!r} has shape "
                f"{array.shape}, the rebuilt layer expects "
                f"{param.value.shape}"
            )
        param.adopt_frozen(array)
    cache = SpectralWeightCache()
    for record in manifest["spectra"]:
        param = current.get(record["param"])
        if param is None:
            raise StoreError(
                f"spectrum record names unknown parameter {record['param']!r}"
            )
        buffer = read_chunked_array(
            directory, record["array"], mmap=mmap, verify=verify
        )
        spectrum = _natural_view(buffer, record["layout"])
        cache.seed(
            param, spectrum,
            backend=backend if backend is not None else record["backend"],
        )
    network.attach_spectral_cache(cache).eval()
    quantization = manifest.get("quantization")
    if quantization and quantization.get("weight_bits") is not None:
        network.weight_quant_bits = quantization["weight_bits"]
    _restore_execution_plan(network, manifest, backend)
    signature = _json_signature(network.serving_signature())
    stored_signature = manifest["serving_signature"]
    for key in ("input_sample_shape", "layers", "cached_spectra"):
        if signature.get(key) != stored_signature.get(key):
            raise StoreError(
                f"loaded network's serving signature disagrees with the "
                f"manifest on {key!r}: {signature.get(key)!r} != "
                f"{stored_signature.get(key)!r} (corrupted or hand-edited "
                "artifact)"
            )
    return network


def _restore_execution_plan(network, manifest: dict, backend) -> None:
    """Re-stamp the manifest's execution plan on the rebuilt network.

    Validates the document and its entry count against the rebuilt
    layers (a mismatch means a hand-edited or cross-version artifact),
    restores the per-layer ``weight_quant_bits`` markers the plan's
    word lengths imply, and stamps ``network.execution_plan``. A
    ``load_artifact(backend=...)`` override rewrites the stamped
    backends to the override's registered name (or drops them when the
    override is an unregistered instance) — the stamp must describe
    what the network will actually run, not what was saved.
    """
    from repro.errors import PlanError
    from repro.plan import ExecutionPlan, LayerPlan

    try:
        plan = ExecutionPlan.from_json(manifest["execution_plan"])
    except PlanError as exc:
        raise StoreError(
            f"manifest execution_plan is invalid: {exc}"
        ) from exc
    planned = list(network.planned_layers())
    if len(plan) != len(planned):
        raise StoreError(
            f"manifest execution_plan has {len(plan)} layer entries but "
            f"the rebuilt network has {len(planned)} parameterised layers "
            "(corrupted or hand-edited artifact)"
        )
    if backend is not None:
        from repro.fftcore.backend import available_backends, get_backend

        name = get_backend(backend).name
        override = name if name in available_backends() else None
        plan = ExecutionPlan(
            layers=tuple(
                LayerPlan(
                    backend=override if entry.backend is not None else None,
                    bits=entry.bits,
                    block_size=entry.block_size,
                )
                for entry in plan.layers
            ),
            activation_bits=plan.activation_bits,
        )
    for (_path, layer), entry in zip(planned, plan.layers):
        if entry.bits is not None:
            layer.weight_quant_bits = entry.bits
    network._execution_plan = plan


def verify_artifact(path: str | os.PathLike) -> dict:
    """Integrity-check an artifact without building a network.

    Re-derives the manifest's content hash and CRC-checks every stored
    chunk of every array (no decoding, no FFTs). Raises
    :class:`~repro.errors.StoreError` /
    :class:`~repro.errors.StoreIntegrityError` on any mismatch; returns
    the manifest on success.
    """
    from repro.errors import StoreIntegrityError

    directory = Path(path)
    manifest = read_manifest(directory)
    expected = content_hash(manifest)
    if manifest["content_hash"] != expected:
        raise StoreIntegrityError(
            f"manifest content hash {manifest['content_hash']} does not "
            f"match its contents ({expected}); the manifest was edited or "
            "corrupted"
        )
    for record in manifest["parameters"]:
        verify_chunked_array(directory, record["array"])
    for record in manifest["spectra"]:
        verify_chunked_array(directory, record["array"])
    return manifest
