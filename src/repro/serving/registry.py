"""Named model endpoints with atomic hot swap.

A serving process rarely holds one network: the CirCNN stack alone wants
the float FC model, the CONV model, and one or more fixed-point
(:func:`repro.quant.quantized_view`) variants live at the same time, each
behind a stable endpoint name. :class:`ModelRegistry` owns that mapping
and makes replacement *atomic*: a batch resolves its network exactly once
(:meth:`ModelRegistry.snapshot`), so a concurrent :meth:`swap` — a weight
push, a requantisation or any other execution re-plan
(:meth:`ModelRegistry.apply_plan`), a rollback — is
observed entirely or not at all, never as a mix of old and new layers. Old networks are not torn down: in-flight batches finish on
their snapshot, and the spectral cache's weak references let the retired
generation be garbage-collected once the last batch drops it.
"""

from __future__ import annotations

import logging
import threading

from repro.errors import ConfigurationError

logger = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "default"


class ModelRegistry:
    """Thread-safe mapping of endpoint names to compiled networks.

    Each endpoint carries a monotonically increasing *generation* counter
    (bumped on every :meth:`swap`), which serving responses echo so
    clients can tell which weight generation produced an answer.
    """

    def __init__(self) -> None:
        self._endpoints: dict[str, tuple[object, int]] = {}
        self._lock = threading.RLock()
        self._subscribers: list = []
        # Brownout ladders: endpoint -> ordered variant list (level 0 =
        # full precision) and the level currently being served.
        self._ladders: dict[str, list] = {}
        self._ladder_levels: dict[str, int] = {}
        # Execution-plan state: endpoint -> (source network, applied
        # ExecutionPlan, the planned view being served). Recorded by
        # apply_plan and invalidated whenever a foreign network is
        # swapped in (_sync_plan_state).
        self._plan_states: dict[str, tuple] = {}

    def subscribe(self, callback) -> None:
        """Call ``callback(name, network, generation)`` on every publish.

        Fires after each :meth:`register` and :meth:`swap` (and therefore
        after :meth:`load_endpoint` / :meth:`swap_from_store`), outside
        the registry lock, on the publishing thread. This is how a
        secondary serving plane — e.g. the multi-process server's
        shared-memory images — tracks weight pushes made directly on the
        registry without polling generations.
        """
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        """Remove a :meth:`subscribe` callback (missing ones are ignored)."""
        with self._lock:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

    def _notify(self, name: str, network, generation: int) -> None:
        # A subscriber that raises must not abort the publish: the swap
        # has already landed (the registry dict moved before _notify), so
        # propagating would misreport a successful swap as failed — and
        # skipping the remaining subscribers would leave a secondary
        # serving plane (e.g. the MP server's shm images) silently stale.
        # Log and continue; every subscriber sees every publish.
        with self._lock:
            subscribers = list(self._subscribers)
        for callback in subscribers:
            try:
                callback(name, network, generation)
            except Exception:
                logger.exception(
                    "registry subscriber %r failed during publish of "
                    "endpoint %r generation %d; continuing",
                    callback, name, generation,
                )

    @staticmethod
    def _prepare(network, compile: bool):
        # "Has a spectral cache" is no longer proof of serving-readiness:
        # attach_spectral_cache() (training mode) attaches one without
        # freezing or warming. Compile unless every parameter is actually
        # frozen — i.e. compile_inference() ran and nothing thawed since.
        needs_compile = compile and hasattr(network, "compile_inference") and (
            getattr(network, "spectral_cache", None) is None
            or not all(
                getattr(p, "frozen", True)
                for p in getattr(network, "parameters", list)()
            )
        )
        if needs_compile:
            network.compile_inference()  # puts the network in eval mode
        elif hasattr(network, "eval"):
            # Already compiled (or compile=False): still force eval mode —
            # a compiled network that went back to training (fine-tuning)
            # must not serve training-mode forwards (dropout noise,
            # non-reentrant state).
            network.eval()
        return network

    def register(self, name: str, network, *, compile: bool = True):
        """Add a new endpoint; raises if ``name`` is already taken.

        By default the network is compiled for serving
        (``compile_inference()``) unless it is already fully compiled —
        a warm spectral cache *and* every parameter frozen (a cache
        attached by ``attach_spectral_cache()`` for training does not
        count). Returns the (compiled) network.
        """
        # Prepare outside the lock: compile_inference() computes every
        # weight spectrum eagerly, and holding the lock for that long
        # would stall snapshot() — i.e. all serving traffic — meanwhile.
        net = self._prepare(network, compile)
        with self._lock:
            if name in self._endpoints:
                raise ConfigurationError(
                    f"endpoint {name!r} is already registered; use swap() "
                    "to replace it atomically"
                )
            self._endpoints[name] = (net, 0)
            self._sync_ladder_level(name, net)
            self._sync_plan_state(name, net)
        self._notify(name, net, 0)
        return net

    def swap(self, name: str, network, *, compile: bool = True):
        """Atomically replace (or create) an endpoint's network.

        In-flight batches keep the snapshot they already resolved; every
        batch formed after the swap sees the new network. Returns the
        previous network (``None`` if the endpoint was fresh) so callers
        can keep it for rollback.
        """
        # Prepare (possibly compiling spectra) outside the lock, so
        # serving traffic keeps resolving snapshots of the old network
        # until the atomic dict update below.
        net = self._prepare(network, compile)
        with self._lock:
            old = self._endpoints.get(name)
            generation = old[1] + 1 if old is not None else 0
            self._endpoints[name] = (net, generation)
            self._sync_ladder_level(name, net)
            self._sync_plan_state(name, net)
        self._notify(name, net, generation)
        return old[0] if old is not None else None

    def _sync_ladder_level(self, name: str, net) -> None:
        # Caller holds self._lock. Keep the ladder level honest across
        # *any* swap: swapping in a ladder variant records its rung;
        # swapping in a foreign network invalidates the ladder entirely
        # (its variants degrade a model that is no longer being served).
        ladder = self._ladders.get(name)
        if ladder is None:
            return
        for level, variant in enumerate(ladder):
            if variant is net:
                self._ladder_levels[name] = level
                return
        del self._ladders[name]
        del self._ladder_levels[name]

    def _sync_plan_state(self, name: str, net) -> None:
        # Caller holds self._lock. Keep the recorded plan honest across
        # *any* swap: a foreign network means the recorded ExecutionPlan
        # no longer describes what is being served, so drop it.
        state = self._plan_states.get(name)
        if state is not None and state[2] is not net:
            del self._plan_states[name]

    # -- execution plans -----------------------------------------------------
    def apply_plan(self, name: str, plan, *, source=None):
        """Atomically re-plan an endpoint: build, seed, compile, swap.

        A requantisation is this action with a uniform plan
        (``ExecutionPlan.uniform(n, bits=..., activation_bits=...)``).
        Builds an uncompiled
        :func:`repro.plan.planned_view` of ``source`` under ``plan``
        (per-layer backends, word lengths, activation quantisers), then
        compiles and :meth:`swap`\\ s it in — in-flight batches finish on
        their snapshot, new batches see the planned view, never a mix.

        **Zero-FFT-where-possible**: before compiling, every spectral
        layer whose planned weights and backend are identical to what the
        endpoint is currently serving has its spectrum *seeded* from the
        served network's warm cache
        (:meth:`~repro.circulant.spectral_cache.SpectralWeightCache.seed`)
        — a backend-only re-plan (the autotuner's common case) swaps with
        no new transforms for the unchanged layers, exactly like a
        brownout rung move.

        ``source`` defaults to the source recorded by the previous
        ``apply_plan`` (so successive re-plans derive from the same float
        original, not from an already-quantised view), falling back to
        the currently served network. The applied plan is retrievable
        via :meth:`applied_plan` until a foreign swap invalidates it.
        Returns the compiled planned view.
        """
        from repro.plan import planned_view

        with self._lock:
            state = self._plan_states.get(name)
            current = self._endpoints.get(name)
            served = current[0] if current is not None else None
        if source is None:
            source = state[0] if state is not None else served
            if source is None:
                raise ConfigurationError(
                    f"endpoint {name!r} is not registered; pass source= "
                    "to apply a plan to a fresh endpoint"
                )
        view = planned_view(source, plan, compile=False)
        from repro.circulant.spectral_cache import SpectralWeightCache

        cache = SpectralWeightCache()
        if served is not None and hasattr(served, "spectral_layers"):
            self._seed_unchanged_spectra(served, view, cache)
        view.compile_inference(cache)
        with self._lock:
            self._plan_states[name] = (source, plan, view)
        self.swap(name, view, compile=False)
        return view

    @staticmethod
    def _seed_unchanged_spectra(served, view, cache) -> None:
        # Positional pairing, mirroring ExecutionPlan's positional
        # layers. A structural mismatch (the served endpoint holds an
        # unrelated network) just skips seeding; compile recomputes.
        import numpy as np

        from repro.fftcore.backend import get_backend

        served_layers = list(served.spectral_layers())
        view_layers = list(view.spectral_layers())
        if len(served_layers) != len(view_layers):
            return
        for (_, old), (_, new) in zip(served_layers, view_layers):
            old_cache = getattr(old, "spectral_cache", None)
            if old_cache is None:
                continue
            backend_name = get_backend(new.backend).name
            if get_backend(old.backend).name != backend_name:
                continue
            old_value = old.weight.value
            new_value = new.weight.value
            if old_value.shape != new_value.shape:
                continue
            if not np.array_equal(old_value, new_value):
                continue
            cache.seed(
                new.weight,
                old_cache.spectrum(old.weight, old.backend),
                backend=backend_name,
            )

    def applied_plan(self, name: str):
        """The :class:`~repro.plan.ExecutionPlan` ``name`` serves under.

        ``None`` when no plan was applied — or when a later
        :meth:`swap` installed a network the plan does not describe.
        """
        with self._lock:
            state = self._plan_states.get(name)
            return state[1] if state is not None else None

    def load_endpoint(self, name: str, path, *, mmap: bool = True):
        """Register a new endpoint straight from a stored artifact.

        Loads the artifact at ``path`` via
        :func:`repro.store.load_artifact` — a serving-ready network whose
        weight spectra are seeded from disk, no FFT recomputed — and
        registers it under ``name`` (``compile=False``: the loaded
        network is already frozen and warm). Raises if ``name`` exists;
        use :meth:`swap_from_store` for a live endpoint. Returns the
        loaded network.
        """
        from repro.store import load_artifact

        net = load_artifact(path, mmap=mmap)
        return self.register(name, net, compile=False)

    def swap_from_store(self, name: str, path, *, mmap: bool = True):
        """Atomically hot-swap (or create) an endpoint from a stored artifact.

        The disk-to-serving weight push: load the artifact at ``path``
        (spectra seeded, zero FFTs), then :meth:`swap` it in — in-flight
        batches finish on their snapshot, the generation counter bumps,
        and the previous network is returned for rollback. Rolling back
        is the same call with the prior artifact's path, so a store
        directory of content-hash-versioned artifacts doubles as the
        rollback history (see ``docs/model_store.md``).
        """
        from repro.store import load_artifact

        net = load_artifact(path, mmap=mmap)
        old = self.swap(name, net, compile=False)
        return old

    # -- brownout ladders ----------------------------------------------------
    def set_ladder(self, name: str, variants, *, compile: bool = True):
        """Register ``name``'s degradation ladder: ordered fallback variants.

        ``variants[0]`` is the full-precision network (rung 0);
        ``variants[1:]`` are progressively cheaper fallbacks — typically
        lower-bit :func:`~repro.quant.quantized_view` twins or
        coarser-block models, the accuracy/cost knob of CirCNN fig 7c.
        Every variant is prepared for serving **now** (compiled unless
        already frozen and warm, exactly like :meth:`register`), so a
        later :meth:`serve_level` swap runs zero FFTs — the downshift
        under pressure is a pure atomic pointer move (plus, on the
        multi-process server, a memcpy into a fresh shared image).

        If ``name`` is not yet registered, rung 0 is registered for it;
        if it is, the current network must be one of ``variants`` (the
        ladder must describe what is actually being served). Returns the
        prepared variant list.
        """
        if len(variants) < 2:
            raise ConfigurationError(
                "a degradation ladder needs at least two variants (the "
                f"full-precision rung plus one fallback), got "
                f"{len(variants)}"
            )
        prepared = [self._prepare(net, compile) for net in variants]
        with self._lock:
            current = self._endpoints.get(name)
            if current is None:
                level = 0
            else:
                matches = [
                    i for i, net in enumerate(prepared)
                    if net is current[0]
                ]
                if not matches:
                    raise ConfigurationError(
                        f"endpoint {name!r} is serving a network that is "
                        "not in the ladder; include the currently served "
                        "network among the variants"
                    )
                level = matches[0]
            self._ladders[name] = prepared
            self._ladder_levels[name] = level
        if current is None:
            self.register(name, prepared[0], compile=False)
        return prepared

    def ladder(self, name: str) -> list:
        """The endpoint's registered variant list (raises if none)."""
        with self._lock:
            try:
                return list(self._ladders[name])
            except KeyError:
                raise ConfigurationError(
                    f"endpoint {name!r} has no degradation ladder; call "
                    "set_ladder() first"
                ) from None

    def ladder_level(self, name: str) -> int:
        """The rung currently being served (0 = full precision)."""
        with self._lock:
            if name not in self._ladders:
                raise ConfigurationError(
                    f"endpoint {name!r} has no degradation ladder; call "
                    "set_ladder() first"
                )
            return self._ladder_levels[name]

    def serve_level(self, name: str, level: int):
        """Atomically serve ladder rung ``level`` (idempotent per level).

        The brownout step: swaps the pre-compiled variant in through
        :meth:`swap` (``compile=False`` — the FFTs ran at
        :meth:`set_ladder` time), bumping the generation so in-flight
        batches stay old-or-new, never mixed. Returns the variant now
        being served.
        """
        with self._lock:
            ladder = self._ladders.get(name)
            if ladder is None:
                raise ConfigurationError(
                    f"endpoint {name!r} has no degradation ladder; call "
                    "set_ladder() first"
                )
            if not 0 <= level < len(ladder):
                raise ConfigurationError(
                    f"ladder level {level} out of range for endpoint "
                    f"{name!r} (0..{len(ladder) - 1})"
                )
            if self._ladder_levels[name] == level:
                return ladder[level]
            variant = ladder[level]
        # Swap outside this method's critical section work: swap() takes
        # the same reentrant lock for its atomic dict move and records
        # the new level via _sync_ladder_level.
        self.swap(name, variant, compile=False)
        return variant

    def snapshot(self, name: str):
        """``(network, generation)`` — the atomic unit a batch runs on."""
        with self._lock:
            try:
                return self._endpoints[name]
            except KeyError:
                known = ", ".join(sorted(self._endpoints)) or "<none>"
                raise ConfigurationError(
                    f"unknown endpoint {name!r}; registered: {known}"
                ) from None

    def get(self, name: str):
        """The network currently behind ``name``."""
        return self.snapshot(name)[0]

    def generation(self, name: str) -> int:
        """How many times ``name`` has been swapped since registration."""
        return self.snapshot(name)[1]

    def unregister(self, name: str):
        """Remove an endpoint; returns the network that was serving it."""
        with self._lock:
            net, _ = self.snapshot(name)
            del self._endpoints[name]
            self._ladders.pop(name, None)
            self._ladder_levels.pop(name, None)
            self._plan_states.pop(name, None)
        return net

    def endpoints(self) -> list[str]:
        """Sorted endpoint names."""
        with self._lock:
            return sorted(self._endpoints)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._endpoints

    def __len__(self) -> int:
        with self._lock:
            return len(self._endpoints)

    def __repr__(self) -> str:
        return f"ModelRegistry(endpoints={self.endpoints()})"
