"""Model-artifact store: instant cold start for the serving stack.

``compile_inference()`` turns a trained network into a frozen spectral
engine — but a serving process restarting from scratch pays the whole
rebuild again: construct layers, load weights, recompute every weight
FFT. This package persists the *compiled* state instead, as a
content-hash-versioned artifact directory:

- :mod:`repro.store.codecs` — pluggable lossless byte codecs
  (``"zlib"`` compressed, ``"identity"`` memory-mappable);
- :mod:`repro.store.chunks` — zarr-style chunked array files with
  per-chunk CRC-32 integrity and an ``np.memmap`` fast path;
- :mod:`repro.store.manifest` — the JSON manifest: layer-spec tree,
  array records, serving signature, quantisation format, content hash;
- :mod:`repro.store.artifact` — the compiled-network image
  (:func:`~repro.store.artifact.capture_image` /
  :func:`~repro.store.artifact.rebuild_image`, shared with the process
  server's shared-memory images) and its on-disk callers
  :func:`save_artifact` / :func:`load_artifact` / :func:`verify_artifact`;
  loading rebuilds a frozen, serving-ready network with **zero FFTs
  recomputed** (stored spectra are seeded directly into the spectral
  cache);
- :mod:`repro.store.registry` — :class:`ArtifactStore`, the
  ``root/<model>/<hash12>/`` versioned layout whose old versions double
  as rollback targets for
  :meth:`repro.serving.registry.ModelRegistry.swap_from_store`.

See ``docs/model_store.md`` for the on-disk layout and an end-to-end
publish → cold-start-serve → hot-swap → rollback walkthrough.
"""

from repro.store.artifact import load_artifact, save_artifact, verify_artifact
from repro.store.chunks import (
    DEFAULT_CHUNK_BYTES,
    read_chunked_array,
    verify_chunked_array,
    write_chunked_array,
)
from repro.store.codecs import (
    Codec,
    IdentityCodec,
    ZlibCodec,
    available_codecs,
    get_codec,
    register_codec,
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
from repro.store.registry import VERSION_DIGITS, ArtifactStore

__all__ = [
    "save_artifact",
    "load_artifact",
    "verify_artifact",
    "ArtifactStore",
    "VERSION_DIGITS",
    "Codec",
    "IdentityCodec",
    "ZlibCodec",
    "register_codec",
    "get_codec",
    "available_codecs",
    "DEFAULT_CHUNK_BYTES",
    "write_chunked_array",
    "read_chunked_array",
    "verify_chunked_array",
    "MANIFEST_FORMAT",
    "MANIFEST_FILE",
    "content_hash",
    "layer_to_spec",
    "layer_from_spec",
    "read_manifest",
    "write_manifest",
]
