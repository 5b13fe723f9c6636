"""Measured autotuner over the per-layer execution-plan space.

The search the paper's design-space figures imply (block size ×
quantisation × FFT datapath, Figs 13–15), run as a production
capacity-planning step:

1. **Calibrate** — time each candidate backend's batched real transforms
   at exactly the FFT sizes the network uses, plus a frequency-domain
   multiply probe (:func:`calibrate_backends`).
2. **Prior** — convert each layer's shape into exact op counts
   (:func:`repro.analysis.complexity.block_circulant_fc_work` /
   ``block_circulant_conv_work``) and combine them with the calibration
   to predict per-layer latency, and with the
   :class:`repro.arch.EnergyModel`'s bit-width scaling to predict energy.
   The prior *ranks* backends per layer and prunes the combinatorial
   space to a handful of candidate plans.
3. **Measure** — build a :func:`~repro.plan.planned_view` of every
   surviving candidate and time real compiled forwards on a sample
   batch. Priors propose; measurements decide.
4. **Assert bit-compatibility** — every candidate's output is compared
   against a same-word-length reference on the default backend; a
   candidate whose backend mix drifts past ``tolerance`` is rejected
   (recorded in the report), and :class:`~repro.errors.PlanError` is
   raised if nothing survives.

The bits axis is deliberately *not* latency-ranked by the prior: this
software stack simulates fixed point with float64 fake quantisation, so
word length cannot speed software up (the hardware's bits² multiplier
scaling lives in the energy prior instead, which is what
``objective="energy"`` trades against measured latency).

:func:`sweep_table` is the fresh-build counterpart — it rebuilds a
network at each block size and emits the machine-readable ``(k, backend,
bits) → measured seconds`` table that :func:`validate_prior` checks the
cost model's ranking against (see ``benchmarks/bench_ablation_blocksize.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.complexity import (
    LayerWork,
    block_circulant_conv_work,
    block_circulant_fc_work,
)
from repro.arch.energy import EnergyModel
from repro.errors import PlanError
from repro.fftcore.backend import available_backends, get_backend
from repro.models.descriptors import ConvSpec, DenseSpec
from repro.plan.execution_plan import ExecutionPlan, LayerPlan, planned_view
from repro.utils.rng import make_rng

#: Operation energies of the energy prior: the 45 nm ASIC operating
#: point of :func:`repro.arch.platforms.asic_45nm`.
_ENERGY = EnergyModel(
    mult_energy_j=0.35e-12,
    add_energy_j=0.05e-12,
    register_energy_j=0.01e-12,
)


# -- calibration --------------------------------------------------------------
@dataclass(frozen=True)
class BackendCalibration:
    """Measured per-operation costs the latency prior is built from.

    ``fft_seconds[(backend, k)]`` is the amortised wall time of one
    size-``k`` real transform (forward or inverse) on that backend, from
    a batched probe; ``cmult_seconds`` is one frequency-domain complex
    multiply.
    """

    fft_seconds: dict[tuple[str, int], float]
    cmult_seconds: float

    def fft_time(self, backend: str, k: int) -> float:
        return self.fft_seconds[(backend, k)]


def calibrate_backends(backends, fft_sizes, *, batch: int = 64,
                       repeats: int = 3, seed=0) -> BackendCalibration:
    """Time batched transforms per (backend, size) plus a multiply probe.

    Probes hit the same code path the compiled forward uses (batched
    ``rfft``/``irfft`` over the last axis), warm each backend's plan
    cache first, and keep the min over ``repeats`` — the standard
    defence against scheduler noise.
    """
    rng = make_rng(seed)
    sizes = sorted(set(int(k) for k in fft_sizes if k > 1))
    fft_seconds: dict[tuple[str, int], float] = {}
    for name in backends:
        be = get_backend(name)
        for k in sizes:
            rows = rng.standard_normal((batch, k))
            be.irfft(be.rfft(rows), k)  # warm plan/twiddle caches
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                be.irfft(be.rfft(rows), k)
                best = min(best, time.perf_counter() - start)
            fft_seconds[(be.name, k)] = best / (2 * batch)
    size = 1 << 14
    a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    a * b  # warm
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a * b
        best = min(best, time.perf_counter() - start)
    return BackendCalibration(
        fft_seconds=fft_seconds, cmult_seconds=best / size
    )


# -- the arch-model prior -----------------------------------------------------
def _layer_work(path: str, layer, input_shape) -> LayerWork | None:
    """Map a built layer onto the complexity model's work counts.

    Spectral FC/CONV layers get their block-circulant counts; a plain
    dense layer degenerates to ``k = 1`` (scalar MACs, no FFT axis);
    anything else contributes nothing to the prior (it is identical
    across candidate plans).
    """
    if hasattr(layer, "in_features") and hasattr(layer, "out_features"):
        k = layer.block_size if layer.spectral else 1
        return block_circulant_fc_work(
            DenseSpec(path, layer.in_features, layer.out_features), k
        )
    if layer.spectral and hasattr(layer, "in_channels") and hasattr(layer, "field"):
        if input_shape is None or len(input_shape) != 4:
            return None
        return block_circulant_conv_work(
            ConvSpec(
                path, layer.in_channels, layer.out_channels, layer.field,
                in_hw=(int(input_shape[2]), int(input_shape[3])),
                stride=layer.stride, padding=layer.padding,
            ),
            layer.block_size,
        )
    return None


def _trace_planned_shapes(network, sample_input) -> dict[str, tuple]:
    """Per-planned-layer input shapes from one layer-by-layer forward."""
    shapes: dict[str, tuple] = {}

    def run(seq, x, prefix):
        for index, layer in enumerate(seq.layers):
            path = f"{prefix}.{index}"
            if hasattr(layer, "layers") and hasattr(layer, "named_layers"):
                x = run(layer, x, f"{path}.layers")
            else:
                shapes[path] = tuple(x.shape)
                x = layer.inference_forward(x)
        return x

    run(network, np.asarray(sample_input, dtype=np.float64), "layers")
    return shapes


def prior_latency_s(work: LayerWork | None, backend: str | None,
                    calibration: BackendCalibration) -> float:
    """Predicted seconds for one layer on one backend (prior, not truth)."""
    if work is None or backend is None or work.fft_size <= 1:
        return 0.0
    return (
        work.num_fft * calibration.fft_time(backend, work.fft_size)
        + work.cmult * calibration.cmult_seconds
    )


def prior_energy_j(work: LayerWork | None, bits: int | None,
                   energy: EnergyModel) -> float:
    """Predicted joules for one layer at one word length.

    The hardware lever the latency prior cannot see: multiplier energy
    scales as bits², adder energy as bits
    (:meth:`repro.arch.EnergyModel.scaled`). ``bits=None`` prices the
    float path at 32-bit words.
    """
    if work is None:
        return 0.0
    em = energy.scaled(bits=bits if bits is not None else 32)
    return (
        work.butterflies * em.butterfly_energy_j
        + work.cmult * em.complex_mult_energy_j
        + work.cadd * 2 * em.add_energy_j
        + work.scalar_ops * em.mac_energy_j
    )


# -- candidate measurement ----------------------------------------------------
def measure_forward(network, sample_input, *,
                    repeats: int = 3) -> tuple[float, np.ndarray]:
    """``(seconds, output)`` of the compiled forward, min over repeats."""
    x = np.asarray(sample_input, dtype=np.float64)
    output = network.inference_forward(x)  # warm spectra / FFT tables
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        output = network.inference_forward(x)
        best = min(best, time.perf_counter() - start)
    return best, output


@dataclass
class CandidateResult:
    """One measured candidate plan and its verdict."""

    plan: ExecutionPlan
    label: str
    seconds: float
    max_rel_err: float
    admitted: bool
    prior_seconds: float
    prior_energy_j: float

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "plan": self.plan.to_json(),
            "seconds": self.seconds,
            "max_rel_err": self.max_rel_err,
            "admitted": self.admitted,
            "prior_seconds": self.prior_seconds,
            "prior_energy_j": self.prior_energy_j,
        }


@dataclass
class TuningReport:
    """Everything :func:`tune` decided and why.

    ``best`` is the winning plan; ``baseline_seconds`` is the measured
    as-built network (the plan-free reference point the bench gate's
    speedup is quoted against); ``candidates`` records every measured
    plan including rejected ones.
    """

    best: ExecutionPlan
    best_seconds: float
    baseline_seconds: float
    objective: str
    tolerance: float
    backends: tuple[str, ...]
    candidates: list[CandidateResult] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Measured as-built-over-best ratio (> 1 means the plan won)."""
        return self.baseline_seconds / self.best_seconds

    def to_json(self) -> dict:
        return {
            "best": self.best.to_json(),
            "best_seconds": self.best_seconds,
            "baseline_seconds": self.baseline_seconds,
            "speedup": self.speedup,
            "objective": self.objective,
            "tolerance": self.tolerance,
            "backends": list(self.backends),
            "candidates": [c.to_json() for c in self.candidates],
        }


def _plan_prior(plan: ExecutionPlan, works, calibration) -> tuple[float, float]:
    latency = 0.0
    joules = 0.0
    for entry, (backend_default, work) in zip(plan.layers, works):
        backend = entry.backend if entry.backend is not None else backend_default
        latency += prior_latency_s(work, backend, calibration)
        joules += prior_energy_j(work, entry.bits, _ENERGY)
    return latency, joules


def _price_layers(network, sample_input, backends):
    """The planned layers, their ``(default backend, LayerWork)`` pairs
    (positional; the backend is ``None`` on non-spectral layers) and one
    calibration of ``backends`` plus every backend the network is built
    on, which the as-built plan's prior needs."""
    planned = list(network.planned_layers())
    shapes = _trace_planned_shapes(network, sample_input)
    works = [
        (
            get_backend(layer.backend).name if layer.spectral else None,
            _layer_work(path, layer, shapes.get(path)),
        )
        for path, layer in planned
    ]
    calibration = calibrate_backends(
        sorted(set(backends) | {
            default for default, _work in works if default is not None
        }),
        (w.fft_size for _, w in works if w is not None),
    )
    return planned, works, calibration


def tune(network, sample_input, *,
         backends=None,
         bits=(None,),
         activation_bits: int | None = None,
         objective: str = "latency",
         tolerance: float = 1e-9,
         latency_slack: float = 0.10,
         max_plans: int = 12,
         repeats: int = 3) -> TuningReport:
    """Search the plan space for ``network`` and return a measured winner.

    ``network`` is a trained (not necessarily compiled) ``Sequential``;
    it is never mutated — every candidate runs in its own
    :func:`~repro.plan.planned_view`. ``backends`` defaults to every
    registered backend; ``bits`` is the word-length axis (``None`` =
    float); ``objective`` is ``"latency"`` (argmin measured seconds) or
    ``"energy"`` (among candidates within ``latency_slack`` of the
    fastest, argmin the arch model's energy prior).

    Bit compatibility is asserted explicitly: candidates are grouped by
    word-length signature, each group's reference output is the uniform
    default-backend plan at those word lengths, and any candidate whose
    max relative output error exceeds ``tolerance`` is rejected (raises
    :class:`~repro.errors.PlanError` if no candidate survives).
    """
    if objective not in ("latency", "energy"):
        raise PlanError(
            f"objective must be 'latency' or 'energy', got {objective!r}"
        )
    backends = tuple(backends) if backends is not None else available_backends()
    backends = tuple(get_backend(b).name for b in backends)
    bits = tuple(bits)
    default_backend = get_backend(None).name

    planned, works, calibration = _price_layers(
        network, sample_input, backends
    )
    if not planned:
        raise PlanError("network has no parameterised layers to plan")
    spectral_mask = [layer.spectral for _path, layer in planned]

    # Per-layer backend ranking by the latency prior, pruned to the
    # two best.
    ranked: list[list[str | None]] = []
    for spectral, (_default, work) in zip(spectral_mask, works):
        if not spectral:
            ranked.append([None])
            continue
        order = sorted(
            backends, key=lambda b: prior_latency_s(work, b, calibration)
        )
        ranked.append(order[:2])

    as_built = ExecutionPlan.from_network(network)

    def spectral_uniform(backend: str | None, layer_bits=None) -> ExecutionPlan:
        return ExecutionPlan(
            layers=tuple(
                LayerPlan(
                    backend=backend if spectral else None, bits=layer_bits
                )
                for spectral in spectral_mask
            ),
            activation_bits=activation_bits if layer_bits is not None else None,
        )

    greedy = ExecutionPlan(
        layers=tuple(
            LayerPlan(backend=choices[0]) for choices in ranked
        ),
        activation_bits=None,
    )

    candidates: list[tuple[str, ExecutionPlan]] = [("as-built", as_built)]
    candidates.append(("uniform-default", spectral_uniform(default_backend)))
    candidates.append(("greedy", greedy))
    for backend in backends:
        candidates.append((f"uniform-{backend}", spectral_uniform(backend)))
    # Runner-up flips: single-layer deviations from the greedy plan catch
    # layers where the prior mis-ranked a close call.
    for index, choices in enumerate(ranked):
        for alt in choices[1:]:
            candidates.append((
                f"greedy-flip-{index}-{alt}",
                greedy.with_layer(index, backend=alt),
            ))
    # Word-length variants of the greedy backend assignment (the energy
    # axis; measured latency still gets the final say).
    for b in bits:
        if b is None:
            continue
        candidates.append((
            f"greedy-{b}bit",
            ExecutionPlan(
                layers=tuple(
                    LayerPlan(backend=choices[0], bits=b) for choices in ranked
                ),
                activation_bits=activation_bits,
            ),
        ))

    seen: set[str] = set()
    unique: list[tuple[str, ExecutionPlan]] = []
    for label, plan in candidates:
        key = plan.dumps()
        if key not in seen:
            seen.add(key)
            unique.append((label, plan))
    # Cap the measured set, but never drop the three structural anchors.
    unique = unique[:max(max_plans, 3)]

    # Reference outputs per word-length signature, on the default backend.
    references: dict[tuple, np.ndarray] = {}

    def signature(plan: ExecutionPlan) -> tuple:
        return (
            tuple(entry.bits for entry in plan.layers), plan.activation_bits
        )

    results: list[CandidateResult] = []
    baseline_seconds = None
    for label, plan in unique:
        view = planned_view(network, plan)
        seconds, output = measure_forward(view, sample_input, repeats=repeats)
        sig = signature(plan)
        if sig not in references:
            ref_plan = ExecutionPlan(
                layers=tuple(
                    LayerPlan(
                        backend=default_backend if spectral else None,
                        bits=entry.bits,
                    )
                    for spectral, entry in zip(spectral_mask, plan.layers)
                ),
                activation_bits=plan.activation_bits,
            )
            references[sig] = planned_view(
                network, ref_plan
            ).inference_forward(np.asarray(sample_input, dtype=np.float64))
        ref = references[sig]
        scale = max(1.0, float(np.max(np.abs(ref))))
        err = float(np.max(np.abs(output - ref))) / scale
        prior_s, prior_j = _plan_prior(plan, works, calibration)
        results.append(CandidateResult(
            plan=plan, label=label, seconds=seconds, max_rel_err=err,
            admitted=err <= tolerance, prior_seconds=prior_s,
            prior_energy_j=prior_j,
        ))
        if label == "as-built":
            baseline_seconds = seconds

    admitted = [r for r in results if r.admitted]
    if not admitted:
        raise PlanError(
            f"no candidate plan met the bit-compatibility tolerance "
            f"{tolerance:g}; worst-case relative error "
            f"{max(r.max_rel_err for r in results):g}"
        )
    fastest = min(admitted, key=lambda r: r.seconds)
    if objective == "latency":
        best = fastest
    else:
        within = [
            r for r in admitted
            if r.seconds <= fastest.seconds * (1.0 + latency_slack)
        ]
        best = min(within, key=lambda r: r.prior_energy_j)
    return TuningReport(
        best=best.plan,
        best_seconds=best.seconds,
        baseline_seconds=(
            baseline_seconds if baseline_seconds is not None
            else fastest.seconds
        ),
        objective=objective,
        tolerance=tolerance,
        backends=backends,
        candidates=results,
    )


# -- fresh-build sweeps -------------------------------------------------------
def sweep_table(build, sample_input, *, block_sizes, backends=None,
                bits=(None,), repeats: int = 3) -> list[dict]:
    """Measured ``(k, backend, bits) → seconds`` table over fresh builds.

    ``build(k)`` must return a *fresh* trained-or-initialised network
    built at block size ``k`` (block size is fixed at construction, so
    the sweep rebuilds instead of re-planning). Each record carries the
    measured seconds alongside the arch-model priors, which is what
    :func:`validate_prior` checks the cost model's ranking against —
    the machine-readable ablation behind
    ``benchmarks/bench_ablation_blocksize.py``.
    """
    backends = tuple(backends) if backends is not None else available_backends()
    backends = tuple(get_backend(b).name for b in backends)
    records: list[dict] = []
    for k in block_sizes:
        network = build(k)
        planned, works, calibration = _price_layers(
            network, sample_input, backends
        )
        for backend in backends:
            for b in bits:
                plan = ExecutionPlan(
                    layers=tuple(
                        LayerPlan(
                            backend=backend if layer.spectral else None,
                            bits=b,
                            block_size=getattr(layer, "block_size", None),
                        )
                        for _path, layer in planned
                    ),
                )
                view = planned_view(network, plan)
                seconds, _ = measure_forward(
                    view, sample_input, repeats=repeats
                )
                prior_s, prior_j = _plan_prior(plan, works, calibration)
                records.append({
                    "k": int(k),
                    "backend": backend,
                    "bits": b,
                    "seconds": seconds,
                    "prior_seconds": prior_s,
                    "prior_energy_j": prior_j,
                })
    return records


def validate_prior(table: list[dict]) -> dict[tuple, float]:
    """Rank agreement between the latency prior and measured time.

    For each ``(backend, bits)`` group in a :func:`sweep_table` result,
    the fraction of block-size pairs the prior orders the same way as
    the measurement (1.0 = perfect Kendall concordance, 0.5 = random).
    Groups with fewer than two block sizes are skipped.
    """
    groups: dict[tuple, list[dict]] = {}
    for record in table:
        groups.setdefault(
            (record["backend"], record["bits"]), []
        ).append(record)
    agreement: dict[tuple, float] = {}
    for key, records in groups.items():
        if len(records) < 2:
            continue
        concordant = 0
        total = 0
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                a, b = records[i], records[j]
                total += 1
                prior_order = a["prior_seconds"] - b["prior_seconds"]
                measured_order = a["seconds"] - b["seconds"]
                if prior_order * measured_order > 0 or (
                    prior_order == 0 and measured_order == 0
                ):
                    concordant += 1
        agreement[key] = concordant / total
    return agreement
