"""Batched FFT-domain kernels for block-circulant products (Algorithms 1–2).

These are the computational heart of CirCNN. A weight matrix ``W ∈ R^{m×n}``
is a ``p × q`` grid of ``k × k`` circulant blocks, stored as the array
``w[p, q, k]`` of first-column defining vectors. The forward product of
Algorithm 1,

    a_i = Σ_j IFFT(FFT(w_ij) ∘ FFT(x_j)),             (paper Fig 5)

and the two backward products of Algorithm 2,

    ∂L/∂w_ij = IFFT(FFT(∂L/∂a_i) ∘ conj(FFT(x_j)))    (cross-correlation)
    ∂L/∂x_j  = Σ_i IFFT(conj(FFT(w_ij)) ∘ FFT(∂L/∂a_i)),

are evaluated over a whole batch with one real FFT per block row/column and
one contraction in the half-spectrum domain — the einsum
``"pqf,bqf->bpf"`` executed as a batched BLAS product, one complex GEMM
per frequency bin, with no Python loop over the block grid. (The paper
writes the backward
pass with an index-reversed ``x'``; for real signals that reversal equals
the complex conjugate in the frequency domain, which is what we use.)

The same structure covers the CONV layer (paper Eq. 7): at each of the
``r²`` spatial offsets the cross-channel weight matrix is block-circulant,
and the offset axis folds into the contracted dimension, so the CONV
contraction, :func:`_contract_conv`, is the FC kernel's per-frequency
GEMM (:func:`spectral_contract`) with ``r²·q`` columns. Because the
circulant blocks run along the channel axis, every im2col patch block is
one pixel's channel block (or zeros from padding), and
``rfft(im2col(x))`` equals the im2col gather of the per-pixel ``rfft``.
:func:`_conv_operand` transforms each pixel block of the feature map
once and lowers the spectrum by rows, as MEC does (Cho & Brand 2017):
one copy writes the ``r`` column shifts, r-fold rather than im2col's
r²-fold, and a read-only overlapping view turns kernel row ``i`` into a
row offset, so the GEMM reads every patch spectrum without building it
(a map whose output rows are narrower than the weight spectrum is tall
is gathered whole instead). Its pipeline is plane-major from the input
pixels to the NCHW output (the transform axis outermost in memory),
which the numpy backend transforms as one GEMM against its DFT table
for ``k ≤ 8``.

All functions accept an FFT ``backend`` name so every experiment can be
replayed on the from-scratch radix-2 kernel, and a ``cached_spectrum=``
fast path that consumes a precomputed :func:`weight_spectrum` — weights
change once per optimiser step but are read on every inference, so the
serving path (see :class:`repro.circulant.spectral_cache.SpectralWeightCache`)
amortises the weight FFT across calls and only transforms activations.

Training gets the same reuse through the **spectral tape** (paper Eq. 8–9:
both gradients are per-frequency products of spectra the forward pass
already computed). An FC forward called with ``record=True``
returns a :class:`SpectralTape` carrying the weight and input spectra, and
the backward kernels take them back (``cached_spectrum=`` /
``cached_input_spectrum=``, with no time-domain input blocks; the CONV
backward takes the patch spectrum its layer recorded as an argument), so
one full train step performs exactly one FFT per distinct tensor: ``w``,
``x`` (for the CONV layer, its pixel blocks), and the output gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError
from repro.fftcore.backend import get_backend
from repro.utils.validation import ensure_positive


def block_dims(m: int, n: int, k: int) -> tuple[int, int]:
    """Number of block rows ``p`` and block columns ``q`` for an ``m × n``
    matrix with block size ``k``, rounding up (padded blocks are allowed,
    matching the paper's treatment of non-divisible layer shapes)."""
    ensure_positive(k, "block size k")
    ensure_positive(m, "m")
    ensure_positive(n, "n")
    return -(-m // k), -(-n // k)


def partition_vector(x: np.ndarray, k: int, q: int) -> np.ndarray:
    """Split a batch of length-``n`` vectors into ``q`` zero-padded blocks.

    Parameters
    ----------
    x:
        Array of shape ``(batch, n)`` with ``n <= q * k``.
    k, q:
        Block size and number of blocks.

    Returns
    -------
    Array of shape ``(batch, q, k)``; positions beyond ``n`` are zero.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected (batch, n) input, got shape {x.shape}")
    batch, n = x.shape
    if n > q * k:
        raise ShapeError(f"n={n} exceeds q*k={q * k}")
    if n < q * k:
        padded = np.zeros((batch, q * k), dtype=np.float64)
        padded[:, :n] = x
        x = padded
    return x.reshape(batch, q, k)


def unpartition_vector(a: np.ndarray, m: int) -> np.ndarray:
    """Concatenate ``(batch, p, k)`` output blocks and drop padding to ``m``."""
    a = np.asarray(a)
    if a.ndim != 3:
        raise ShapeError(f"expected (batch, p, k) input, got shape {a.shape}")
    batch, p, k = a.shape
    if m > p * k:
        raise ShapeError(f"m={m} exceeds p*k={p * k}")
    return a.reshape(batch, p * k)[:, :m]


@dataclass
class SpectralTape:
    """Spectra a recording forward pass saves for reuse in backward.

    Eq. 8–9 of the paper evaluate both gradients as per-frequency products
    of ``FFT(w)``, ``FFT(x)`` and ``FFT(∂L/∂a)`` — the first two of which
    the forward pass already computed. The tape is the record that carries
    them across the forward/backward boundary:

    - ``input_spectrum`` — ``rfft`` of the FC input blocks, reusable as
      ``cached_input_spectrum=``, or the patch spectrum (CONV), the
      ``patch_spectrum`` argument of :func:`block_circulant_conv_backward`;
    - ``weight_spectrum`` — the ``rfft(w)`` the forward actually used
      (possibly served from a
      :class:`~repro.circulant.spectral_cache.SpectralWeightCache`),
      reusable as ``cached_spectrum=``. Using the *recorded* spectrum in
      backward is also the mathematically right thing: the gradient is of
      the forward that ran, not of whatever the weights are now.

    Neither kernel's backward reads time-domain inputs once it has their
    spectrum, so the tape keeps none. With a tape, a full train step costs
    exactly one FFT per distinct tensor — ``w``, ``x`` (CONV: its pixel
    blocks), and the output gradient — instead of recomputing the first
    two in backward.
    """

    input_spectrum: np.ndarray
    weight_spectrum: np.ndarray


def weight_spectrum(w: np.ndarray, backend=None) -> np.ndarray:
    """Half-spectra of the defining vectors: ``rfft`` over the last axis.

    ``w`` is a grid of defining vectors — ``(p, q, k)`` for the FC layer,
    ``(r², p, q, k)`` for the CONV layer — and the result replaces the last
    axis with ``k//2 + 1`` complex bins, the array consumed by the
    ``cached_spectrum=`` fast path of :func:`block_circulant_forward` /
    :func:`block_circulant_backward`. Computing this once per weight
    update — rather than once per inference — is the amortisation that
    :class:`repro.circulant.spectral_cache.SpectralWeightCache` automates.
    """
    be = get_backend(backend)
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 3:
        raise ShapeError(
            f"weights must be a (..., q, k) block grid, got shape {w.shape}"
        )
    return be.rfft(w)


def spectral_contract(wf: np.ndarray, xf: np.ndarray) -> np.ndarray:
    """The FC spectral contraction (Algorithm 1), one GEMM per frequency.

    ``wf`` has shape ``(p, q, f)``, ``xf`` has shape ``(batch, q, f)``,
    and the result ``(batch, p, f)`` equals the einsum
    ``"pqf,bqf->bpf"`` — evaluated frequency-major, as one complex BLAS
    GEMM ``(p, q) @ (q, batch)`` per frequency bin. The CONV layer runs
    the same GEMM with the spatial offsets folded into the contracted
    axis (:func:`_contract_conv`).

    When ``wf`` comes from
    :class:`~repro.circulant.spectral_cache.SpectralWeightCache` its memory
    is already frequency-major, so the transposes below are zero-copy
    views; only the activation spectrum (fresh from the batch FFT) is
    rearranged per call. A freshly transformed ``wf`` is copied into the
    same frequency-major layout first: ``matmul`` picks its kernel (and
    so its rounding) by operand strides, and the layout is what keeps a
    compiled forward bit-identical to the uncompiled one.
    """
    if wf.ndim != 3:
        raise ShapeError(f"weight spectrum must be (p, q, f), got {wf.shape}")
    if xf.ndim != 3 or xf.shape[1:] != wf.shape[1:]:
        raise ShapeError(
            f"activation spectrum must be (batch, {wf.shape[1]}, "
            f"{wf.shape[2]}), got {xf.shape}"
        )
    # (f, p, q) @ (f, q, batch) -> (f, p, batch).
    lhs = np.ascontiguousarray(wf.transpose(2, 0, 1))
    af = np.matmul(lhs, xf.transpose(2, 1, 0))
    return af.transpose(2, 1, 0)


def block_circulant_forward(
    w: np.ndarray, x_blocks: np.ndarray, backend=None, *,
    cached_spectrum: np.ndarray | None = None, record: bool = False,
) -> np.ndarray | tuple[np.ndarray, SpectralTape]:
    """Algorithm 1: batched forward product of a block-circulant matrix.

    Parameters
    ----------
    w:
        Defining vectors, shape ``(p, q, k)`` (first columns of each block).
    x_blocks:
        Input blocks, shape ``(batch, q, k)``.
    cached_spectrum:
        Optional precomputed ``rfft(w)`` of shape ``(p, q, k//2 + 1)``
        (see :func:`weight_spectrum`). When given, the weight FFT — the
        dominant cost for inference-sized batches — is skipped entirely.
    record:
        When true, also return the :class:`SpectralTape` of spectra this
        call computed, for :func:`block_circulant_backward` to consume —
        the training-path analogue of ``cached_spectrum=``. It only
        decides whether the tape is kept: the output is the same bits.

    Returns
    -------
    Output blocks ``a``, shape ``(batch, p, k)`` — or the pair
    ``(a, tape)`` when ``record`` is true.
    """
    be = get_backend(backend)
    w = np.asarray(w, dtype=np.float64)
    x_blocks = np.asarray(x_blocks, dtype=np.float64)
    _check_block_shapes(w, x_blocks.shape)
    k = w.shape[-1]
    if cached_spectrum is None:
        wf = be.rfft(w)
    else:
        wf = cached_spectrum
        _check_spectrum_shape(wf, w.shape)
    # Frequency-major memory behind the natural view (the
    # SpectralWeightCache layout trick), recording or not: ``matmul``
    # picks its kernel (and rounding) by strides, so one layout keeps
    # the recording and serving forwards bit-identical, and a tape's
    # backward reuse contracts straight from the same memory.
    xf = be.rfft(x_blocks)
    xf = np.ascontiguousarray(xf.transpose(2, 1, 0)).transpose(2, 1, 0)
    out = be.irfft(spectral_contract(wf, xf), n=k)
    if record:
        return out, SpectralTape(xf, wf)
    return out


def _channel_blocks(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Block-major views of an NCHW-like ``(batch, C, ...)`` array.

    Returns ``(head, tail)``: ``head`` is the ``(k, C // k, batch, ...)``
    view of the whole ``k``-channel blocks, ``tail`` the
    ``(C % k, batch, ...)`` view of the partial last block (empty when
    ``k`` divides ``C``). Assigning through them moves channel blocks
    between NCHW and plane-major ``(k, blocks, batch, ...)`` memory in
    one strided copy each.
    """
    full = a.shape[1] - a.shape[1] % k
    head = a[:, :full].reshape(a.shape[0], -1, k, *a.shape[2:])
    return head.swapaxes(0, 2), a[:, full:].swapaxes(0, 1)


def _conv_operand(x: np.ndarray, field: int, stride: int, padding: int,
                  q: int, k: int, p: int, backend=None) -> np.ndarray:
    """The CONV GEMM operand: the per-pixel ``rfft`` of an NCHW batch,
    lowered by rows, or gathered whole when the map is small.

    Each im2col patch block is one pixel's ``k``-channel block or padding
    zeros, and ``rfft(0) = 0``, so the pixel blocks of the padded input
    are transformed once, at about ``1/r²`` of the patch blocks'
    transformed elements. They are stored plane-major, ``(k, q, batch,
    H+2·padding, W+2·padding)`` memory, filled from NCHW by one strided
    assignment, so the numpy backend transforms them as one GEMM against
    its DFT table.

    One copy then lowers that spectrum into the ``(f, groups, r²·q, N)``
    operand of :func:`_contract_conv`, whose ``(r²·q, N)`` matrices hold,
    along an ``(i, j, c)`` offset/channel-block axis, the patch spectra
    of the output pixels of one group of output rows, batch folded in:

    - **Rows** (``groups = out_h``), as MEC lowers a dense convolution
      (Cho & Brand 2017): the copy writes the ``r`` column shifts into
      ``(f, H+2·padding, r, q, N)`` memory, ``rows[f, y, j, c, b·out_w +
      x] = rfft(pixels)[c, b, y, stride·x + j, f]``, and the result is the
      read-only overlapping view of that memory in which kernel row ``i``
      is a row offset: its ``(i, j, c)`` axis has the single stride ``N``
      and its output-row axis the stride of ``stride`` rows. That is
      r-fold memory where the patch spectrum is r²-fold.
    - **Gathered** (``groups = 1``): the copy writes the r² shifted
      windows, every output pixel a column in ``(b, y, x)`` order. Taken
      when an output row has fewer pixels than the weight spectrum has
      rows, ``batch·out_w < p``: each of the contraction's per-row GEMMs
      packs the whole ``(p, r²·q)`` weight spectrum again, which then
      costs more than copying the row's patch spectra.

    ``N`` is the group's pixel count zero-padded to a multiple of 4 (at
    least 4): single-threaded OpenBLAS gives a GEMM column the same bits
    wherever it sits in an operand of such a width, and a width of 1
    would go to gemv, so on one BLAS thread an output pixel's bits depend
    neither on its batch nor on the lowering. (A threaded GEMM splits a
    contraction longer than its K block, 128 for zgemm on Haswell, at
    other points, and OpenBLAS threads only large GEMMs; so with several
    BLAS threads and ``r²·q > 128`` the batch can move the last bit.)
    """
    be = get_backend(backend)
    batch, _, height, width = x.shape
    pixels = np.zeros(
        (k, q, batch, height + 2 * padding, width + 2 * padding)
    )
    interior = pixels[..., padding:padding + height, padding:padding + width]
    head, tail = _channel_blocks(x, k)
    interior[:, :head.shape[1]] = head
    if tail.size:
        interior[:tail.shape[0], head.shape[1]] = tail
    xf = be.rfft(pixels.transpose(1, 2, 3, 4, 0))
    q, batch, rows_h, cols_w, f = xf.shape
    out_h = (rows_h - field) // stride + 1
    out_w = (cols_w - field) // stride + 1
    # Stride views of the spectrum are built directly: sliding_window_view
    # alone costs about as much as the copy on a small image.
    sq, sb, sy, sx, sf = xf.strides
    if batch * out_w < p:
        used = batch * out_h * out_w
        cols = np.zeros((f, field, field, q, -(-used // 4) * 4),
                        dtype=xf.dtype)
        cols[..., :used].reshape(
            f, field, field, q, batch, out_h, out_w
        )[...] = as_strided(
            xf, (f, field, field, q, batch, out_h, out_w),
            (sf, sy, sx, sq, sb, stride * sy, stride * sx), writeable=False,
        )
        return cols.reshape(f, 1, field * field * q, -1)
    used = batch * out_w
    n = max(4, -(-used // 4) * 4)
    # Zeroed whole when padded: the pad columns alone would be a strided
    # fill with as many inner loops as the copy below.
    rows = (np.zeros if used < n else np.empty)(
        (f, rows_h, field, q, n), dtype=xf.dtype
    )
    rows[..., :used].reshape(f, rows_h, field, q, batch, out_w)[...] = (
        as_strided(xf, (f, rows_h, field, q, batch, out_w),
                   (sf, sy, sx, sq, sb, stride * sx), writeable=False)
    )
    item = rows.itemsize
    view = np.ndarray(
        (f, out_h, field * field * q, n), rows.dtype, rows, 0,
        (rows.strides[0], stride * rows.strides[1], n * item, item),
    )
    view.flags.writeable = False
    return view


def _contract_conv(wf: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """The CONV spectral contraction (paper Eq. 7) over a lowered operand.

    ``wf`` has shape ``(r², p, q, f)`` — one cross-channel block grid per
    spatial offset — and ``operand`` is the ``(f, groups, r²·q, N)``
    operand of :func:`_conv_operand`. The offset axis folds into the
    contracted dimension, so this is :func:`spectral_contract`'s
    frequency-major GEMM with ``r²·q`` columns, one ``(p, r²·q) @ (r²·q,
    N)`` per frequency and group of output rows, equal to the einsum
    ``"sijf,bsjf->bif"`` over the patch spectra. A row operand is read
    as the view it is, without an r²-fold copy.

    Returns the ``(groups, p, N, f)`` view over ``(f, groups, p, N)``
    memory, plane-major for the inverse transform. A cached ``wf`` is
    already frequency-major here; a fresh one is copied, since with
    ``p = 1`` the reshape alone would leave a strided view.
    """
    s, p, q, f = wf.shape
    if (operand.ndim != 4 or operand.shape[0] != f
            or operand.shape[2] != s * q):
        raise ShapeError(
            f"CONV operand must be ({f}, groups, {s * q}, N), "
            f"got {operand.shape}"
        )
    lhs = np.ascontiguousarray(wf.transpose(3, 1, 0, 2)).reshape(
        f, 1, p, s * q
    )
    return np.matmul(lhs, operand).transpose(1, 2, 3, 0)


def _patch_tape(operand: np.ndarray, batch: int, out_h: int, out_w: int,
                field: int) -> np.ndarray:
    """The patch spectrum of :func:`_conv_operand`'s operand in the layout
    :func:`block_circulant_conv_backward` reads: the ``(batch·positions,
    r², q, f)`` view over ``(f, r², q, batch·positions)`` memory, rows in
    ``(b, y, x)`` order. One copy; the recording forward's tape."""
    f, groups, _, _ = operand.shape
    view = operand[..., :batch * out_h // groups * out_w].reshape(
        f, groups, field * field, -1, batch, out_h // groups, out_w
    )
    tape = np.empty(
        (f, field * field, view.shape[3], batch, groups, out_h // groups,
         out_w),
        dtype=operand.dtype,
    )
    tape[...] = view.transpose(0, 2, 3, 4, 1, 5, 6)
    return tape.reshape(f, field * field, view.shape[3], -1).transpose(
        3, 1, 2, 0
    )


def block_circulant_backward(
    w: np.ndarray,
    x_blocks: np.ndarray,
    grad_blocks: np.ndarray,
    backend=None,
    *,
    cached_spectrum: np.ndarray | None = None,
    cached_input_spectrum: np.ndarray | None = None,
    cached_grad_spectrum: np.ndarray | None = None,
    compute_input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Algorithm 2: gradients of the block-circulant product.

    Parameters
    ----------
    w:
        Defining vectors ``(p, q, k)``.
    x_blocks:
        Forward input blocks ``(batch, q, k)``, or ``None`` when
        ``cached_input_spectrum`` is given: only the spectrum is read then,
        so a tape need not keep the blocks.
    grad_blocks:
        ``∂L/∂a`` blocks, shape ``(batch, p, k)``.
    cached_spectrum:
        Optional precomputed ``rfft(w)`` (see :func:`weight_spectrum`);
        skips the weight FFT exactly as in the forward pass.
    cached_input_spectrum:
        Optional precomputed ``rfft(x_blocks)`` — normally the
        ``input_spectrum`` of the :class:`SpectralTape` a recording
        forward returned. With both spectra supplied, this kernel's only
        FFT is the one over ``grad_blocks``.
    cached_grad_spectrum:
        Optional precomputed ``rfft(grad_blocks)``. The BPTT path of the
        recurrent layers transforms each timestep's output gradient once
        while walking the sequence backwards, then stacks those spectra
        t-major and calls this kernel *once* for the deferred
        weight-gradient contraction over all ``T·batch`` rows — with all
        three spectra supplied the kernel performs **zero** forward FFTs
        (only the inverse transforms of the results).
    compute_input_grad:
        When false, the ``∂L/∂x`` product (one GEMM + one inverse FFT) is
        skipped entirely and ``None`` is returned in its place — for the
        *first* trainable layer of a network, whose input gradient no one
        consumes.

    Returns
    -------
    ``(grad_w, grad_x_blocks)`` with shapes ``(p, q, k)`` and
    ``(batch, q, k)`` (``None`` when ``compute_input_grad`` is false).
    Both are exact gradients of
    :func:`block_circulant_forward` (verified against finite differences in
    the test suite), each costing O(pqk log k) like the forward pass.
    """
    be = get_backend(backend)
    w = np.asarray(w, dtype=np.float64)
    grad_blocks = np.asarray(grad_blocks, dtype=np.float64)
    if x_blocks is not None:
        x_blocks = np.asarray(x_blocks, dtype=np.float64)
        input_shape = x_blocks.shape
    elif cached_input_spectrum is not None:
        # The spectrum's batch and the weights' (q, k) stand in for the
        # blocks; _check_spectrum_shape below pins the rest.
        input_shape = (*np.shape(cached_input_spectrum)[:1], *w.shape[1:])
    else:
        raise ShapeError("x_blocks=None needs cached_input_spectrum=")
    _check_block_shapes(w, input_shape)
    p, q, k = w.shape
    if grad_blocks.shape[1:] != (p, k):
        raise ShapeError(
            f"grad blocks must be (batch, {p}, {k}), got {grad_blocks.shape}"
        )
    if grad_blocks.shape[0] != input_shape[0]:
        raise ShapeError(
            "grad batch "
            f"{grad_blocks.shape[0]} != input batch {input_shape[0]}"
        )
    if cached_spectrum is None:
        wf = be.rfft(w)
    else:
        wf = cached_spectrum
        _check_spectrum_shape(wf, w.shape)
    if cached_input_spectrum is None:
        xf = be.rfft(x_blocks)
    else:
        xf = cached_input_spectrum
        _check_spectrum_shape(xf, input_shape)
    if cached_grad_spectrum is None:
        gf = be.rfft(grad_blocks)
    else:
        gf = cached_grad_spectrum
        _check_spectrum_shape(gf, grad_blocks.shape)
    # The two einsums ("bpf,bqf->pqf" and "pqf,bpf->bqf") as per-frequency
    # BLAS products, mirroring the forward pass. The weight gradient uses
    # G ∘ conj(X) = conj(conj(G) ∘ X) so only the small grad spectrum and
    # the small result are conjugate-copied, never the batch-sized input
    # spectrum — whose frequency-major tape memory (see ``record=``) then
    # feeds the GEMM as a pure stride view.
    grad_wf = np.conj(np.matmul(
        np.conj(gf.transpose(2, 1, 0)), xf.transpose(2, 0, 1)
    )).transpose(1, 2, 0)
    grad_w = be.irfft(grad_wf, n=k)
    if not compute_input_grad:
        return grad_w, None
    grad_xf = np.matmul(
        gf.transpose(2, 0, 1), np.conj(wf).transpose(2, 0, 1)
    ).transpose(1, 2, 0)
    grad_x = be.irfft(grad_xf, n=k)
    return grad_w, grad_x


def block_circulant_conv_backward(
    w: np.ndarray,
    patch_spectrum: np.ndarray,
    grad_blocks: np.ndarray,
    backend=None,
    *,
    cached_spectrum: np.ndarray | None = None,
    compute_patch_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of the CONV layer's spectral product (paper Eq. 8–9).

    Evaluates the two gradient contractions — the einsums
    ``"bif,bsjf->sijf"`` (weight gradient, a cross-correlation against the
    conjugated patch spectra) and ``"sijf,bif->bsjf"`` (patch gradient,
    against the conjugated weight spectra) — as frequency-major
    per-frequency BLAS GEMMs, the exact formulation
    :func:`_contract_conv` gives the forward pass: the spatial-offset
    axis folds into the contracted/output dimension of length ``r²·q``.

    Parameters
    ----------
    w:
        Defining vectors ``(r², p, q, k)``.
    patch_spectrum:
        ``rfft`` of the forward's patch blocks, shape
        ``(batch·positions, r², q, k//2 + 1)`` — the ``input_spectrum``
        of the :class:`SpectralTape` the layer's recording forward kept
        (:func:`_patch_tape`), whose frequency-major memory the
        weight-gradient GEMM reads as a pure stride view.
    grad_blocks:
        ``∂L/∂y`` output channel blocks, shape ``(batch·positions, p, k)``.
    cached_spectrum:
        Optional precomputed ``rfft(w)`` (see :func:`weight_spectrum`).
        With it, this kernel's only FFT is the one over ``grad_blocks``.
    compute_patch_grad:
        When false, the patch-gradient product — the largest GEMM and
        inverse FFT of the backward pass — is skipped and ``None``
        returned in its place, for a first-layer convolution whose input
        gradient no one consumes.

    Returns
    -------
    ``(grad_w, grad_patch_blocks)`` with shapes ``(r², p, q, k)`` and
    ``(batch·positions, r², q, k)`` (``None`` when ``compute_patch_grad``
    is false).
    """
    be = get_backend(backend)
    w = np.asarray(w, dtype=np.float64)
    grad_blocks = np.asarray(grad_blocks, dtype=np.float64)
    if w.ndim != 4:
        raise ShapeError(f"weights must be (r², p, q, k), got shape {w.shape}")
    s, p, q, k = w.shape
    if grad_blocks.ndim != 3 or grad_blocks.shape[1:] != (p, k):
        raise ShapeError(
            f"grad blocks must be (batch, {p}, {k}), got {grad_blocks.shape}"
        )
    pf = patch_spectrum
    _check_spectrum_shape(pf, (grad_blocks.shape[0], s, q, k))
    if cached_spectrum is None:
        wf = be.rfft(w)
    else:
        wf = cached_spectrum
        _check_spectrum_shape(wf, w.shape)
    gf = be.rfft(grad_blocks)
    batch, f = gf.shape[0], gf.shape[-1]
    # Weight gradient "bif,bsjf->sijf" as (f, p, batch) @ (f, batch, r²·q),
    # using G ∘ conj(P) = conj(conj(G) ∘ P) so only the small grad
    # spectrum and the small result are conjugate-copied, never the large
    # patch spectrum — whose frequency-major tape memory
    # (:func:`_patch_tape`) makes the rhs below a pure stride view.
    grad_wf = np.conj(np.matmul(
        np.conj(gf.transpose(2, 1, 0)),
        pf.transpose(3, 0, 1, 2).reshape(f, batch, s * q),
    )).reshape(f, p, s, q).transpose(2, 1, 3, 0)
    grad_w = be.irfft(grad_wf, n=k)
    if not compute_patch_grad:
        return grad_w, None
    # Patch gradient "sijf,bif->bsjf": (f, batch, p) @ (f, p, r²·q) — the
    # right operand is the forward pass's lhs layout, conjugated (the
    # weight spectrum is small, so the direct conjugate copy is fine).
    grad_pf = np.matmul(
        gf.transpose(2, 0, 1),
        np.conj(wf.transpose(3, 1, 0, 2)).reshape(f, p, s * q),
    ).reshape(f, batch, s, q).transpose(1, 2, 3, 0)
    return grad_w, be.irfft(grad_pf, n=k)


def expand_to_dense(w: np.ndarray, m: int | None = None,
                    n: int | None = None) -> np.ndarray:
    """Materialise the dense matrix represented by defining vectors ``w``.

    ``w`` has shape ``(p, q, k)``; the result is the ``(p*k) × (q*k)``
    block matrix of circulant blocks, truncated to ``m × n`` when those are
    given (dropping the padded rows/columns). Intended for tests and small
    demos — this is exactly the O(n^2) object CirCNN avoids building.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 3:
        raise ShapeError(f"expected (p, q, k) defining vectors, got {w.shape}")
    p, q, k = w.shape
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    # (p, q, k, k) grid of circulant blocks, then tile into a 2-D matrix.
    blocks = w[:, :, (i - j) % k]
    dense = blocks.transpose(0, 2, 1, 3).reshape(p * k, q * k)
    if m is not None or n is not None:
        dense = dense[: (m if m is not None else p * k),
                      : (n if n is not None else q * k)]
    return dense


def _check_spectrum_shape(spectrum: np.ndarray,
                          blocks_shape: tuple[int, ...]) -> None:
    # Works for every blocked tensor: (p, q, k) FC grids, (r², p, q, k)
    # CONV grids, (batch, ..., k) activation blocks — rfft replaces the
    # trailing k with k//2 + 1 bins.
    expected = (*blocks_shape[:-1], blocks_shape[-1] // 2 + 1)
    if np.shape(spectrum) != expected:
        raise ShapeError(
            f"spectrum must have shape {expected} for blocks "
            f"{blocks_shape}, got {np.shape(spectrum)}"
        )


def _check_block_shapes(w: np.ndarray, input_shape: tuple[int, ...]) -> None:
    if w.ndim != 3:
        raise ShapeError(f"weights must be (p, q, k), got shape {w.shape}")
    if len(input_shape) != 3:
        raise ShapeError(
            f"inputs must be (batch, q, k), got shape {input_shape}"
        )
    p, q, k = w.shape
    if input_shape[1:] != (q, k):
        raise ShapeError(
            f"input blocks must be (batch, {q}, {k}), got {input_shape}"
        )
