"""Runtime parity of the compiled-network image.

A compiled network reaches a server either through the artifact store
(``save_artifact`` → ``load_artifact``) or through a shared-memory image
(``publish_image`` → ``attach_image``). Both rebuild through one
``rebuild_image``, so for random stacks (``tests/test_compile_walk.py``'s
FC with non-divisible k, CONV, LSTM and nested ``Sequential``) under random
per-layer plans, each round trip must give the same forward bits, the same
execution plan, the same serving signature, and run zero FFTs.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fftcore.backend import CountingFFTBackend
from repro.nn import BlockCirculantDense, ReLU, Sequential
from repro.plan import ExecutionPlan, planned_view
from repro.serving import attach_image, publish_image
from repro.store import load_artifact, save_artifact
from tests.test_compile_walk import _input, stacks


@st.composite
def planned_stacks(draw):
    """``(compiled planned view, per-sample input shape)``."""
    net, sample = draw(stacks())
    plan = ExecutionPlan.from_network(net)
    layers = tuple(
        replace(
            entry,
            bits=draw(st.sampled_from([None, 8, 12, 16])),
            backend=(
                draw(st.sampled_from(["numpy", "radix2"]))
                if entry.backend is not None else None
            ),
        )
        for entry in plan.layers
    )
    activation_bits = draw(st.sampled_from([None, 16]))
    return planned_view(net, ExecutionPlan(layers, activation_bits)), sample


@contextmanager
def _store_round_trip(net, backend=None):
    with tempfile.TemporaryDirectory() as directory:
        save_artifact(net, directory, overwrite=True)
        yield load_artifact(directory, backend=backend)


@contextmanager
def _shm_round_trip(net, backend=None):
    image = publish_image("parity", net, 0)
    try:
        attached = attach_image(image.descriptor, backend=backend)
        try:
            yield attached.network
        finally:
            attached.close()
    finally:
        image.close_and_unlink()


def _assert_parity(net, x):
    expected = net.inference_forward(x)
    plan = ExecutionPlan.from_network(net)
    signature = net.serving_signature()
    for round_trip in (_store_round_trip, _shm_round_trip):
        with round_trip(net) as rebuilt:
            np.testing.assert_array_equal(
                rebuilt.inference_forward(x), expected
            )
            assert ExecutionPlan.from_network(rebuilt) == plan
            assert rebuilt.serving_signature() == signature
        counting = CountingFFTBackend("numpy")
        with round_trip(net, backend=counting):
            assert counting.total() == 0


@settings(max_examples=20, deadline=None)
@given(planned_stacks(), st.integers(1, 3))
def test_store_and_shm_round_trips_agree(case, batch):
    net, sample = case
    _assert_parity(net, _input(sample, batch))


def test_mixed_precision_plan_survives_both_round_trips():
    net = Sequential(
        BlockCirculantDense(32, 32, 8, seed=0),
        ReLU(),
        BlockCirculantDense(32, 16, 4, seed=1),
    )
    plan = ExecutionPlan.from_network(net).with_layer(0, bits=8)
    view = planned_view(net, plan.with_layer(1, bits=16))
    _assert_parity(view, _input((32,), 4))
    with _shm_round_trip(view) as attached:
        bits = [entry.bits for entry in ExecutionPlan.from_network(attached)]
    assert bits == [8, 16]
