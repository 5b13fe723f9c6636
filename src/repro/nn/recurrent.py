"""Block-circulant recurrent layers — LSTM and GRU gate matrices on the
CirCNN fast path.

The FFT→GEMM→iFFT structure of Algorithms 1–2 is not feedforward-specific:
"Efficient Recurrent Neural Networks using Structured Matrices in FPGAs"
(Li et al., see PAPERS.md) applies the same block-circulant compression to
every LSTM/GRU gate matrix. These layers do exactly that, on top of the
time-stepped execution contract of
:class:`~repro.nn.module.StatefulModule`:

- Each gate projection is a full :class:`~repro.nn.BlockCirculantDense`
  **child module** (LSTM: ``xi xf xg xo`` input-to-hidden with bias,
  ``hi hf hg ho`` hidden-to-hidden without; GRU: ``xr xz xn`` /
  ``hr hz hn``). Children surface through
  :meth:`~repro.nn.module.Module.named_children`, so ``planned_layers()``
  yields one entry *per gate* — :class:`repro.plan.ExecutionPlan`,
  ``planned_view``, the artifact store and ``ModelRegistry.apply_plan``
  all work on recurrent networks unchanged, with per-gate backends and
  word lengths.
- The layer itself owns the sequence loop so the FFT economics beat a
  per-step, per-gate implementation: every **weight spectrum is computed
  (or cache-served) once per sequence** and reused across all timesteps —
  a bigger reuse win than the feedforward 5→3 FFT ratio, since a
  sequence of length ``T`` touches each gate matrix ``T`` times. The
  input-to-hidden projections for *all* timesteps run as one batched
  ``rfft`` + one :func:`~repro.circulant.ops.spectral_contract` per gate
  (time folded into the batch axis, t-major), and each recurrent step
  transforms the hidden state once, sharing that spectrum across the
  four (three) hidden gates. Compiled forward cost over ``T`` steps:
  ``1 + T`` forward FFTs and ``G·(1 + T)`` inverse FFTs for ``G``
  x-gates — asserted exactly with ``CountingFFTBackend`` in the tests.

Training extends the spectral tape to **BPTT**: the recording forward
keeps the per-timestep input and hidden spectra (weight spectra shared,
as always), the backward walk transforms each step's pre-activation
gradients once while accumulating the hidden-state gradient in the
frequency domain (one inverse FFT per step), and the weight gradients
are *deferred* — all ``T`` timesteps contract in one
:func:`~repro.circulant.ops.block_circulant_backward` call per gate with
``cached_spectrum`` / ``cached_input_spectrum`` / ``cached_grad_spectrum``
all supplied, so those calls perform zero forward FFTs.

State is threaded per call (``init_state`` → ``*_with_state`` →
``(y, state)``), never stored on ``self``, so ``inference_forward``
stays reentrant under the serving runtimes; see ``docs/recurrent.md``.
"""

from __future__ import annotations

import numpy as np

from repro.circulant.ops import (
    block_circulant_backward,
    partition_vector,
    spectral_contract,
    unpartition_vector,
    weight_spectrum,
)
from repro.errors import ConfigurationError, ShapeError
from repro.fftcore.backend import get_backend
from repro.nn.block_circulant_dense import BlockCirculantDense
from repro.nn.module import StatefulModule
from repro.utils.rng import make_rng
from repro.utils.validation import ensure_positive


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Split by sign so exp never sees a large positive argument.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class _BlockCirculantRecurrent(StatefulModule):
    """Shared scaffolding of the LSTM and GRU layers.

    Subclasses declare their gate rosters (``X_GATES`` input-to-hidden,
    ``H_GATES`` hidden-to-hidden, positionally paired) and the tape keys
    (``_X_KEYS`` / ``_H_KEYS``) naming which stacked pre-activation
    gradient drives each gate's deferred weight gradient.
    """

    X_GATES: tuple[str, ...] = ()
    H_GATES: tuple[str, ...] = ()
    _X_KEYS: tuple[str, ...] = ()
    _H_KEYS: tuple[str, ...] = ()

    def __init__(self, in_features: int, hidden_size: int, block_size: int,
                 bias: bool = True, seed=None, backend=None,
                 init: str = "he"):
        super().__init__()
        ensure_positive(in_features, "in_features")
        ensure_positive(hidden_size, "hidden_size")
        ensure_positive(block_size, "block_size")
        get_backend(backend)
        self.in_features = in_features
        self.hidden_size = hidden_size
        self.block_size = block_size
        self.backend = backend
        rng = make_rng(seed)
        for name in self.X_GATES:
            gate = BlockCirculantDense(
                in_features, hidden_size, block_size, bias=bias,
                seed=int(rng.integers(0, 2**31 - 1)), backend=backend,
                init=init,
            )
            setattr(self, name, gate)
        for name in self.H_GATES:
            gate = BlockCirculantDense(
                hidden_size, hidden_size, block_size, bias=False,
                seed=int(rng.integers(0, 2**31 - 1)), backend=backend,
                init=init,
            )
            setattr(self, name, gate)
        self._tape: dict | None = None
        #: Set False on the *first* trainable layer of a network to skip
        #: the ∂L/∂x contraction in backward (nobody consumes it there).
        self.needs_input_grad: bool = True

    # -- structure ------------------------------------------------------------
    def named_children(self):
        """The gate projections, input-to-hidden first — the traversal
        order behind per-gate plan entries and spectrum capture."""
        for name in (*self.X_GATES, *self.H_GATES):
            yield name, getattr(self, name)

    @property
    def input_sample_shape(self) -> tuple[int | None, ...]:
        """Per-sample ``(T, features)`` with the time axis free — the
        variable-length contract :attr:`time_axis` names axis 0 of."""
        return (None, self.in_features)

    # -- spectral-engine plumbing ---------------------------------------------
    def _gate_spectra(self) -> dict[str, np.ndarray]:
        """One weight half-spectrum per gate, resolved **once per
        sequence** — served from each gate's attached
        :class:`SpectralWeightCache` when present (zero FFTs while the
        weights are unchanged), else transformed here exactly once and
        reused across every timestep of the call."""
        spectra = {}
        for name, gate in self.named_children():
            wf = gate._weight_spectrum()
            if wf is None:
                wf = weight_spectrum(gate.weight.value, gate.backend)
            spectra[name] = wf
        return spectra

    def _project_rows(self, rows: np.ndarray, names: tuple[str, ...],
                      spectra: dict[str, np.ndarray]):
        """Run several gate projections over one set of input rows,
        sharing the input FFT.

        The gates in ``names`` all consume the same ``rows`` (all
        x-gates, or all h-gates), so the rows are partitioned and
        transformed once per distinct FFT backend among them — one
        ``rfft`` in the homogeneous case — and each gate then costs only
        its spectral contraction and inverse transform. Returns
        ``(outs, spectra_by_backend)`` so recording callers can keep the
        input spectra the BPTT tape needs.
        """
        outs: dict[str, np.ndarray] = {}
        rf_out: dict[str, np.ndarray] = {}
        groups: dict[str, tuple] = {}
        for name in names:
            be = get_backend(getattr(self, name).backend)
            groups.setdefault(be.name, (be, []))[1].append(name)
        for be, members in groups.values():
            blocks = partition_vector(
                rows, self.block_size, getattr(self, members[0]).q
            )
            rf = be.rfft(blocks)
            rf_out[be.name] = rf
            for name in members:
                gate = getattr(self, name)
                out = unpartition_vector(
                    be.irfft(
                        spectral_contract(spectra[name], rf),
                        n=self.block_size,
                    ),
                    gate.out_features,
                )
                if gate.bias is not None:
                    out = out + gate.bias.value
                outs[name] = out
        return outs, rf_out

    def _common_backend(self):
        """The single FFT backend shared by every gate — required on the
        recording (training) path, where the BPTT tape stacks activation
        spectra across gates. Heterogeneous per-gate backends are a
        serving-path feature (``planned_view``); the pure forwards handle
        them by grouping."""
        names = {get_backend(g.backend).name for _, g in self.named_children()}
        if len(names) > 1:
            raise ConfigurationError(
                f"training a {type(self).__name__} requires all gates on "
                f"one FFT backend, got {sorted(names)}; per-gate backends "
                "are for planned serving views, not the BPTT path"
            )
        return get_backend(next(iter(self.named_children()))[1].backend)

    def _check_sequence(self, x: np.ndarray) -> None:
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ShapeError(
                f"{type(self).__name__} expects (batch, T, "
                f"{self.in_features}) sequences, got {x.shape}"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ShapeError(
                f"batch and sequence length must be >= 1, got {x.shape}"
            )

    def _batched_x_preacts(self, x: np.ndarray,
                           spectra: dict[str, np.ndarray]):
        """All input-to-hidden pre-activations at once: time folds into
        the batch axis **t-major**, so row ``t·B + b`` is timestep ``t``
        of sample ``b`` — the same stacking order the BPTT tape uses for
        its per-step spectra, which is what lets the deferred weight
        gradients contract the recorded input spectrum as-is."""
        batch, steps, _ = x.shape
        flat = x.transpose(1, 0, 2).reshape(steps * batch, self.in_features)
        outs, rf = self._project_rows(flat, self.X_GATES, spectra)
        ax = {
            name: outs[name].reshape(steps, batch, self.hidden_size)
            for name in self.X_GATES
        }
        return ax, rf

    # -- deferred BPTT gradient plumbing --------------------------------------
    def _apply_deferred_grads(self, tape: dict, da: dict[str, np.ndarray],
                              gf_stack: dict[str, np.ndarray]) -> None:
        """The deferred weight (and bias) gradients, one kernel call per
        gate over the whole sequence.

        Every spectrum the contraction needs is already on the tape —
        the gate's weight spectrum, the t-major stacked input/hidden
        spectra from the forward walk, and the stacked pre-activation
        gradient spectra from the backward walk — so each
        :func:`block_circulant_backward` call performs **zero** forward
        FFTs (just the inverse transform of its result).
        """
        batch, steps = tape["shape"]
        k = self.block_size
        for gates, keys, spec_key in (
            (self.X_GATES, self._X_KEYS, "xf"),
            (self.H_GATES, self._H_KEYS, "hf"),
        ):
            for name, key in zip(gates, keys):
                gate = getattr(self, name)
                flat = da[key].reshape(steps * batch, self.hidden_size)
                if gate.bias is not None:
                    gate.bias.grad += flat.sum(axis=0)
                grad_w, _ = block_circulant_backward(
                    gate.weight.value, None,
                    partition_vector(flat, k, gate.p), gate.backend,
                    cached_spectrum=tape["spectra"][name],
                    cached_input_spectrum=tape[spec_key],
                    cached_grad_spectrum=gf_stack[key],
                    compute_input_grad=False,
                )
                gate.weight.grad += grad_w

    def _input_gradient(self, tape: dict,
                        gf_stack: dict[str, np.ndarray]) -> np.ndarray:
        """∂L/∂x for the whole sequence: the per-gate input-gradient
        contractions summed in the frequency domain, so the ``G`` gates
        cost one inverse FFT total."""
        batch, steps = tape["shape"]
        be = tape["backend"]
        acc = None
        for name, key in zip(self.X_GATES, self._X_KEYS):
            term = np.matmul(
                gf_stack[key].transpose(2, 0, 1),
                np.conj(tape["spectra"][name]).transpose(2, 0, 1),
            )
            acc = term if acc is None else acc + term
        dx = unpartition_vector(
            be.irfft(acc.transpose(1, 2, 0), n=self.block_size),
            self.in_features,
        )
        return dx.reshape(steps, batch, self.in_features).transpose(1, 0, 2)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.in_features} -> "
            f"{self.hidden_size}, k={self.block_size})"
        )


class BlockCirculantLSTM(_BlockCirculantRecurrent):
    """LSTM whose 8 gate matrices are block-circulant (grid of circulant
    blocks, defining vectors trained directly).

    Cell update per timestep (state ``(h, c)``)::

        i = σ(W_xi x + b_i + W_hi h)      f = σ(W_xf x + b_f + W_hf h)
        g = tanh(W_xg x + b_g + W_hg h)   o = σ(W_xo x + b_o + W_ho h)
        c' = f ∘ c + i ∘ g                h' = o ∘ tanh(c')

    Input ``(batch, T, in_features)``, output ``(batch, T, hidden_size)``
    (the full hidden sequence — the time axis is preserved, which is what
    lets the serving scheduler scatter length-bucketed ragged batches
    back to per-request true lengths).
    """

    X_GATES = ("xi", "xf", "xg", "xo")
    H_GATES = ("hi", "hf", "hg", "ho")
    _X_KEYS = ("i", "f", "g", "o")
    _H_KEYS = ("i", "f", "g", "o")

    def init_state(self, batch_size: int):
        h = np.zeros((batch_size, self.hidden_size))
        c = np.zeros((batch_size, self.hidden_size))
        return h, c

    def _check_state(self, state, batch: int):
        h, c = state
        h = np.asarray(h, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        expected = (batch, self.hidden_size)
        if h.shape != expected or c.shape != expected:
            raise ShapeError(
                f"LSTM state must be a pair of {expected} arrays, got "
                f"{h.shape} and {c.shape}"
            )
        return h, c

    def inference_forward_with_state(self, x: np.ndarray, state):
        x = np.asarray(x, dtype=np.float64)
        self._check_sequence(x)
        batch, steps, _ = x.shape
        h, c = self._check_state(state, batch)
        spectra = self._gate_spectra()
        ax, _ = self._batched_x_preacts(x, spectra)
        ys = np.empty((batch, steps, self.hidden_size))
        for t in range(steps):
            ah, _ = self._project_rows(h, self.H_GATES, spectra)
            gi = _sigmoid(ax["xi"][t] + ah["hi"])
            gf = _sigmoid(ax["xf"][t] + ah["hf"])
            gg = np.tanh(ax["xg"][t] + ah["hg"])
            go = _sigmoid(ax["xo"][t] + ah["ho"])
            c = gf * c + gi * gg
            h = go * np.tanh(c)
            ys[:, t] = h
        return ys, (h, c)

    def forward_with_state(self, x: np.ndarray, state):
        x = np.asarray(x, dtype=np.float64)
        self._check_sequence(x)
        batch, steps, _ = x.shape
        h, c = self._check_state(state, batch)
        be = self._common_backend()
        spectra = self._gate_spectra()
        k = self.block_size
        q_h = self.hi.q
        ax, xf_rec = self._batched_x_preacts(x, spectra)
        hf_stack = np.empty(
            (steps * batch, q_h, k // 2 + 1), dtype=np.complex128
        )
        acts = {
            key: np.empty((steps, batch, self.hidden_size))
            for key in ("i", "f", "g", "o", "cp", "tc")
        }
        ys = np.empty((batch, steps, self.hidden_size))
        for t in range(steps):
            ah, hf = self._project_rows(h, self.H_GATES, spectra)
            hf_stack[t * batch:(t + 1) * batch] = hf[be.name]
            gi = _sigmoid(ax["xi"][t] + ah["hi"])
            gf = _sigmoid(ax["xf"][t] + ah["hf"])
            gg = np.tanh(ax["xg"][t] + ah["hg"])
            go = _sigmoid(ax["xo"][t] + ah["ho"])
            acts["cp"][t] = c
            c = gf * c + gi * gg
            tc = np.tanh(c)
            h = go * tc
            acts["i"][t] = gi
            acts["f"][t] = gf
            acts["g"][t] = gg
            acts["o"][t] = go
            acts["tc"][t] = tc
            ys[:, t] = h
        self._tape = {
            "backend": be, "spectra": spectra, "shape": (batch, steps),
            "xf": xf_rec[be.name], "hf": hf_stack, "acts": acts,
        }
        return ys, (h, c)

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        tape = self._tape
        if tape is None:
            raise RuntimeError("backward called before forward")
        batch, steps = tape["shape"]
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.shape != (batch, steps, self.hidden_size):
            raise ShapeError(
                f"grad must be ({batch}, {steps}, {self.hidden_size}), "
                f"got {grad_output.shape}"
            )
        be = tape["backend"]
        spectra = tape["spectra"]
        acts = tape["acts"]
        k = self.block_size
        p = self.xi.p
        bins = k // 2 + 1
        da = {
            key: np.empty((steps, batch, self.hidden_size))
            for key in self._X_KEYS
        }
        gf_stack = {
            key: np.empty((steps * batch, p, bins), dtype=np.complex128)
            for key in self._X_KEYS
        }
        conj_h = {
            name: np.conj(spectra[name]).transpose(2, 0, 1)
            for name in self.H_GATES
        }
        dh = np.zeros((batch, self.hidden_size))
        dc = np.zeros((batch, self.hidden_size))
        for t in range(steps - 1, -1, -1):
            dh = dh + grad_output[:, t]
            gi, gf = acts["i"][t], acts["f"][t]
            gg, go = acts["g"][t], acts["o"][t]
            tc, cp = acts["tc"][t], acts["cp"][t]
            do = dh * tc
            dc = dc + dh * go * (1.0 - tc * tc)
            da["i"][t] = dc * gg * gi * (1.0 - gi)
            da["f"][t] = dc * cp * gf * (1.0 - gf)
            da["g"][t] = dc * gi * (1.0 - gg * gg)
            da["o"][t] = do * go * (1.0 - go)
            # One rfft per gate over this step's pre-activation gradient,
            # recorded t-major for the deferred weight contraction; the
            # four hidden-gate input-gradient products sum in the
            # frequency domain so ∂L/∂h_{t-1} costs a single irfft.
            acc = None
            for key, name in zip(self._H_KEYS, self.H_GATES):
                spec = be.rfft(partition_vector(da[key][t], k, p))
                gf_stack[key][t * batch:(t + 1) * batch] = spec
                term = np.matmul(spec.transpose(2, 0, 1), conj_h[name])
                acc = term if acc is None else acc + term
            dh = unpartition_vector(
                be.irfft(acc.transpose(1, 2, 0), n=k), self.hidden_size
            )
            dc = dc * gf
        self._apply_deferred_grads(tape, da, gf_stack)
        self._tape = None
        if not self.needs_input_grad:
            return None
        return self._input_gradient(tape, gf_stack)


class BlockCirculantGRU(_BlockCirculantRecurrent):
    """GRU whose 6 gate matrices are block-circulant.

    Cell update per timestep (state ``h``)::

        r = σ(W_xr x + b_r + W_hr h)      z = σ(W_xz x + b_z + W_hz h)
        n = tanh(W_xn x + b_n + r ∘ (W_hn h))
        h' = (1 - z) ∘ n + z ∘ h

    Same sequence contract as :class:`BlockCirculantLSTM`; the candidate
    gate couples the reset gate *inside* tanh (the standard "v3"
    formulation), so its hidden projection and input projection carry
    different pre-activation gradients — the tape keeps both stacks.
    """

    X_GATES = ("xr", "xz", "xn")
    H_GATES = ("hr", "hz", "hn")
    _X_KEYS = ("r", "z", "nx")
    _H_KEYS = ("r", "z", "nh")

    def init_state(self, batch_size: int):
        return np.zeros((batch_size, self.hidden_size))

    def _check_state(self, state, batch: int):
        h = np.asarray(state, dtype=np.float64)
        if h.shape != (batch, self.hidden_size):
            raise ShapeError(
                f"GRU state must be ({batch}, {self.hidden_size}), "
                f"got {h.shape}"
            )
        return h

    def inference_forward_with_state(self, x: np.ndarray, state):
        x = np.asarray(x, dtype=np.float64)
        self._check_sequence(x)
        batch, steps, _ = x.shape
        h = self._check_state(state, batch)
        spectra = self._gate_spectra()
        ax, _ = self._batched_x_preacts(x, spectra)
        ys = np.empty((batch, steps, self.hidden_size))
        for t in range(steps):
            ah, _ = self._project_rows(h, self.H_GATES, spectra)
            r = _sigmoid(ax["xr"][t] + ah["hr"])
            z = _sigmoid(ax["xz"][t] + ah["hz"])
            n = np.tanh(ax["xn"][t] + r * ah["hn"])
            h = (1.0 - z) * n + z * h
            ys[:, t] = h
        return ys, h

    def forward_with_state(self, x: np.ndarray, state):
        x = np.asarray(x, dtype=np.float64)
        self._check_sequence(x)
        batch, steps, _ = x.shape
        h = self._check_state(state, batch)
        be = self._common_backend()
        spectra = self._gate_spectra()
        k = self.block_size
        q_h = self.hr.q
        ax, xf_rec = self._batched_x_preacts(x, spectra)
        hf_stack = np.empty(
            (steps * batch, q_h, k // 2 + 1), dtype=np.complex128
        )
        acts = {
            key: np.empty((steps, batch, self.hidden_size))
            for key in ("r", "z", "n", "u", "hp")
        }
        ys = np.empty((batch, steps, self.hidden_size))
        for t in range(steps):
            ah, hf = self._project_rows(h, self.H_GATES, spectra)
            hf_stack[t * batch:(t + 1) * batch] = hf[be.name]
            r = _sigmoid(ax["xr"][t] + ah["hr"])
            z = _sigmoid(ax["xz"][t] + ah["hz"])
            u = ah["hn"]
            n = np.tanh(ax["xn"][t] + r * u)
            acts["hp"][t] = h
            h = (1.0 - z) * n + z * h
            acts["r"][t] = r
            acts["z"][t] = z
            acts["n"][t] = n
            acts["u"][t] = u
            ys[:, t] = h
        self._tape = {
            "backend": be, "spectra": spectra, "shape": (batch, steps),
            "xf": xf_rec[be.name], "hf": hf_stack, "acts": acts,
        }
        return ys, h

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        tape = self._tape
        if tape is None:
            raise RuntimeError("backward called before forward")
        batch, steps = tape["shape"]
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.shape != (batch, steps, self.hidden_size):
            raise ShapeError(
                f"grad must be ({batch}, {steps}, {self.hidden_size}), "
                f"got {grad_output.shape}"
            )
        be = tape["backend"]
        spectra = tape["spectra"]
        acts = tape["acts"]
        k = self.block_size
        p = self.xr.p
        bins = k // 2 + 1
        keys = ("r", "z", "nx", "nh")
        da = {
            key: np.empty((steps, batch, self.hidden_size)) for key in keys
        }
        gf_stack = {
            key: np.empty((steps * batch, p, bins), dtype=np.complex128)
            for key in keys
        }
        conj_h = {
            name: np.conj(spectra[name]).transpose(2, 0, 1)
            for name in self.H_GATES
        }
        dh = np.zeros((batch, self.hidden_size))
        for t in range(steps - 1, -1, -1):
            dh = dh + grad_output[:, t]
            r, z = acts["r"][t], acts["z"][t]
            n, u, hp = acts["n"][t], acts["u"][t], acts["hp"][t]
            dz = dh * (hp - n)
            dan = dh * (1.0 - z) * (1.0 - n * n)
            da["r"][t] = dan * u * r * (1.0 - r)
            da["z"][t] = dz * z * (1.0 - z)
            da["nx"][t] = dan
            da["nh"][t] = dan * r
            dh_direct = dh * z
            acc = None
            for key in keys:
                spec = be.rfft(partition_vector(da[key][t], k, p))
                gf_stack[key][t * batch:(t + 1) * batch] = spec
                if key == "nx":
                    continue  # drives only the xn weight/input gradients
                name = dict(zip(self._H_KEYS, self.H_GATES))[key]
                term = np.matmul(spec.transpose(2, 0, 1), conj_h[name])
                acc = term if acc is None else acc + term
            dh = dh_direct + unpartition_vector(
                be.irfft(acc.transpose(1, 2, 0), n=k), self.hidden_size
            )
        self._apply_deferred_grads(tape, da, gf_stack)
        self._tape = None
        if not self.needs_input_grad:
            return None
        return self._input_gradient(tape, gf_stack)
