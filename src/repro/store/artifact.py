"""Persist and reload compiled networks — the one compiled-network image.

:func:`capture_image` snapshots a ``compile_inference()``-ed network as a
JSON-ready header (layer-spec tree, parameter and **weight spectrum**
records, serving signature, quantisation format, execution plan) plus the
matching arrays; :func:`rebuild_image` inverts it without recomputing a
single FFT — the rebuilt network is frozen, warm, and bit-identical to
the captured one. Both persistence paths are thin callers of that pair:
:func:`save_artifact` / :func:`load_artifact` keep the arrays in chunk
files under a manifest, :func:`repro.serving.shm.publish_image` /
:func:`repro.serving.shm.attach_image` in one shared-memory segment under
a descriptor.

Spectra are stored as the cache's **frequency-major** contiguous buffer
(FC: ``(f, p, q)``; CONV: ``(f, p, r², q)``) — for FC that transpose *is*
the contiguous memory, so writing is a plain byte dump, and on rebuild
the natural logical view is restored by the inverse transpose. The
rebuilt spectrum therefore hits the same zero-copy per-frequency GEMM
layout the engine compiles to (see ``docs/spectral_engine.md``).
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.circulant.spectral_cache import natural_view, spectrum_layout
from repro.errors import PlanError, ShapeError, StoreError
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


def _json_signature(signature: dict) -> dict:
    """A serving signature as plain JSON types (tuples become lists)."""
    out = dict(signature)
    shape = out.get("input_sample_shape")
    if shape is not None:
        out["input_sample_shape"] = list(shape)
    return out


def capture_image(network) -> tuple[dict, list[np.ndarray]]:
    """``(header, arrays)`` — everything needed to rebuild ``network``.

    The header is JSON-ready: ``network`` (spec tree), ``parameters``
    (``{"name"}`` each), ``spectra`` (``{"param", "backend", "layout"}``
    each), ``serving_signature``, ``quantization`` and ``execution_plan``
    (the stamped plan, else the one the network embodies). ``arrays``
    holds the parameter values then the frequency-major spectrum
    buffers, one per record of ``header["parameters"] +
    header["spectra"]``; callers add each array's locator to its record.
    No FFT runs (warm caches answer every lookup). Raises
    :class:`~repro.errors.StoreError` for an uncompiled network.
    """
    from repro.fftcore.backend import get_backend
    from repro.plan import ExecutionPlan
    from repro.quant import quantization_format

    if getattr(network, "spectral_cache", None) is None:
        raise StoreError(
            "capture_image needs a compiled network; call "
            "compile_inference() first so the weight spectra exist"
        )
    parameters, spectra, arrays = [], [], []
    for name, param in network.named_parameters():
        parameters.append({"name": name})
        arrays.append(param.value)
    for path, layer in network.spectral_layers():
        if layer.spectral_cache is None:
            continue
        backend = get_backend(layer.backend)
        layout, buffer = spectrum_layout(
            layer.spectral_cache.spectrum(layer.weight, backend)
        )
        spectra.append({
            "param": f"{path}.weight",
            "backend": backend.name,
            "layout": layout,
        })
        arrays.append(buffer)
    header = {
        "network": layer_to_spec(network),
        "parameters": parameters,
        "spectra": spectra,
        "serving_signature": _json_signature(network.serving_signature()),
        "quantization": quantization_format(network),
        "execution_plan": ExecutionPlan.from_network(network).to_json(),
    }
    return header, arrays


def rebuild_image(header: dict, read, backend):
    """Reconstruct a frozen, serving-ready network from an image header.

    ``read(record)`` returns the array a header record names. Layers are
    rebuilt from the spec tree with ``init="zeros"``, each parameter
    adopts its array frozen without copying
    (:meth:`~repro.nn.module.Parameter.adopt_frozen`), every spectrum is
    seeded into one fresh
    :class:`~repro.circulant.spectral_cache.SpectralWeightCache` bound to
    the whole tree, and quantisation and the execution plan are restored
    — the state ``compile_inference()`` leaves behind, minus the FFTs.
    ``backend`` (name, instance or ``None``) overrides the FFT backend of
    every block-circulant layer *and* the seeded spectra — the hook tests
    use to prove zero transforms ran. Raises
    :class:`~repro.errors.StoreError` when the header disagrees with its
    spec tree (names, shapes, layouts, plan, serving signature).
    """
    from repro.circulant.spectral_cache import SpectralWeightCache
    from repro.nn.network import Sequential

    network = layer_from_spec(header["network"], backend)
    if not isinstance(network, Sequential):
        raise StoreError(
            "image does not describe a Sequential network at top level"
        )
    current = dict(network.named_parameters())
    stored_names = [record["name"] for record in header["parameters"]]
    missing = sorted(set(current) - set(stored_names))
    extra = sorted(set(stored_names) - set(current))
    if missing or extra:
        raise StoreError(
            f"stored parameters do not match the spec tree: missing "
            f"{missing}, unexpected {extra}"
        )
    for record in header["parameters"]:
        param = current[record["name"]]
        array = read(record)
        if array.shape != param.value.shape:
            raise StoreError(
                f"stored parameter {record['name']!r} has shape "
                f"{array.shape}, the rebuilt layer expects "
                f"{param.value.shape}"
            )
        param.adopt_frozen(array)
    cache = SpectralWeightCache()
    for record in header["spectra"]:
        param = current.get(record["param"])
        if param is None:
            raise StoreError(
                f"spectrum record names unknown parameter {record['param']!r}"
            )
        try:
            spectrum = natural_view(read(record), record["layout"])
        except ShapeError as exc:
            raise StoreError(f"{exc} in stored spectrum record") from exc
        cache.seed(
            param, spectrum,
            backend=backend if backend is not None else record["backend"],
        )
    network.attach_spectral_cache(cache).eval()
    quantization = header.get("quantization")
    if quantization and quantization.get("weight_bits") is not None:
        network.weight_quant_bits = quantization["weight_bits"]
    _restore_execution_plan(network, header["execution_plan"], backend)
    signature = _json_signature(network.serving_signature())
    stored_signature = header["serving_signature"]
    for key in ("input_sample_shape", "layers", "cached_spectra"):
        if signature.get(key) != stored_signature.get(key):
            raise StoreError(
                f"rebuilt network's serving signature disagrees with the "
                f"stored one on {key!r}: {signature.get(key)!r} != "
                f"{stored_signature.get(key)!r} (corrupted or hand-edited "
                "image)"
            )
    return network


def _restore_execution_plan(network, document: dict, backend) -> None:
    """Re-stamp a stored execution-plan document on the rebuilt network.

    Validates the document and its entry count against the rebuilt
    layers (a mismatch means a hand-edited or cross-version image),
    restores the per-layer ``weight_quant_bits`` markers the plan's
    word lengths imply, and stamps ``network.execution_plan``. A
    ``backend=`` override rewrites the stamped backends to the
    override's registered name (or drops them when the override is an
    unregistered instance) — the stamp must describe what the network
    will actually run, not what was captured.
    """
    from repro.plan import ExecutionPlan

    try:
        plan = ExecutionPlan.from_json(document)
    except PlanError as exc:
        raise StoreError(f"stored execution_plan is invalid: {exc}") from exc
    planned = list(network.planned_layers())
    if len(plan) != len(planned):
        raise StoreError(
            f"stored execution_plan has {len(plan)} layer entries but "
            f"the rebuilt network has {len(planned)} parameterised layers "
            "(corrupted or hand-edited image)"
        )
    if backend is not None:
        from repro.fftcore.backend import available_backends, get_backend

        name = get_backend(backend).name
        override = name if name in available_backends() else None
        plan = ExecutionPlan(
            tuple(
                replace(entry, backend=override if entry.backend else None)
                for entry in plan.layers
            ),
            plan.activation_bits,
        )
    for (_path, layer), entry in zip(planned, plan.layers):
        if entry.bits is not None:
            layer.weight_quant_bits = entry.bits
    network._execution_plan = plan


def save_artifact(
    network, path: str | os.PathLike, *,
    codec: str = "zlib", chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    overwrite: bool = False,
) -> dict:
    """Write ``network``'s compiled image to directory ``path``.

    The network must already be compiled (``compile_inference()``): the
    store's contract is that loading skips compilation entirely, so there
    is nothing useful to persist about an uncompiled network — trying
    raises :class:`~repro.errors.StoreError`. Pass ``codec="identity"``
    for memory-mappable artifacts (larger on disk, instant to load) or
    the default ``"zlib"`` for compressed ones. Each array of
    :func:`capture_image` becomes one chunk file, recorded under its
    header record's ``"array"`` key. Returns the manifest (content hash
    included) and writes it last, so an interrupted save never leaves a
    loadable-looking directory.
    """
    header, arrays = capture_image(network)
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    if (directory / MANIFEST_FILE).exists() and not overwrite:
        raise StoreError(
            f"{directory} already holds an artifact; pass overwrite=True "
            "or publish through ArtifactStore for versioned directories"
        )
    for record, array in zip(header["parameters"] + header["spectra"], arrays):
        name = (record["name"] if "name" in record
                else f"{record['param']}.spectrum")
        record["array"] = write_chunked_array(
            array, directory, name, codec=codec, chunk_bytes=chunk_bytes
        )
    write_manifest(
        directory, {"format": MANIFEST_FORMAT, "codec": codec, **header}
    )
    return read_manifest(directory)


def load_artifact(
    path: str | os.PathLike, *,
    mmap: bool = True, verify: bool | None = None, backend=None,
):
    """Reconstruct a frozen, serving-ready network from an artifact.

    :func:`rebuild_image` over the manifest, each record read from its
    chunk file — a zero-copy memory map when ``mmap=True`` and the codec
    is ``identity``. ``verify`` follows
    :func:`repro.store.chunks.read_chunked_array` (checksums verified on
    reads, skipped on maps unless forced); ``backend`` overrides the FFT
    backend as in :func:`rebuild_image`.
    """
    directory = Path(path)
    return rebuild_image(
        read_manifest(directory),
        lambda record: read_chunked_array(
            directory, record["array"], mmap=mmap, verify=verify
        ),
        backend,
    )


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
