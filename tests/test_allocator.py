"""glibc malloc thresholds (``repro.utils.allocator``): once warm, a
stream of compiled forwards reuses its heap memory instead of mapping and
faulting it in again on every call."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils.allocator import is_glibc, tune_malloc

_SRC = Path(__file__).resolve().parent.parent / "src"

# 3 warm-up forwards, then the minor page faults of 20 more.
_FORWARDS = """
import resource

import numpy as np

from repro.models.alexnet import build_alexnet_mini
from repro.models.descriptors import CompressionPlan

plan = CompressionPlan(block_sizes={"conv2": 8, "fc1": 64, "fc2": 2})
net = build_alexnet_mini(plan, seed=7).compile_inference()
x = np.random.default_rng(1).standard_normal((32, 3, 32, 32))
for _ in range(3):
    net.inference_forward(x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    net.inference_forward(x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

glibc_only = pytest.mark.skipif(not is_glibc(), reason="glibc malloc only")


@glibc_only
def test_mallopt_accepts_the_thresholds():
    assert tune_malloc()


@glibc_only
def test_steady_state_forward_takes_at_most_one_page_fault():
    # A fresh process: in this one, earlier tests' large frees have
    # already raised glibc's adaptive thresholds, which would hide a
    # missing setting.
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _FORWARDS], env=env, capture_output=True,
        text=True, check=True,
    )
    faults = int(proc.stdout.split()[-1])
    assert faults <= 20, f"{faults} minor page faults over 20 forwards"
