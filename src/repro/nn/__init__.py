"""A from-scratch NumPy neural-network framework.

No autograd library ships in this environment, so the training experiments
of the paper (Fig 7b, §3.4) run on this explicit forward/backward
framework. Every layer implements the :class:`~repro.nn.module.Module`
protocol: ``forward`` caches what its ``backward`` needs, ``backward``
accumulates parameter gradients and returns the input gradient.

The two block-circulant layers — :class:`~repro.nn.BlockCirculantDense`
(Algorithms 1–2) and :class:`~repro.nn.BlockCirculantConv2D` (§3.2) — are
drop-in replacements for :class:`~repro.nn.Dense` and
:class:`~repro.nn.Conv2D`; swapping them is the entire CirCNN compression
story at the software level.
"""

from repro.nn.module import Module, Parameter, StatefulModule
from repro.nn.activations import ReLU, Sigmoid, Tanh
from repro.nn.dense import Dense
from repro.nn.block_circulant_dense import BlockCirculantDense
from repro.nn.conv import Conv2D
from repro.nn.block_circulant_conv import BlockCirculantConv2D
from repro.nn.pooling import AvgPool2D, MaxPool2D
from repro.nn.reshape import Flatten
from repro.nn.dropout import Dropout
from repro.nn.fft_conv import FFTConv2D
from repro.nn.recurrent import BlockCirculantGRU, BlockCirculantLSTM
from repro.nn.losses import MSELoss, SoftmaxCrossEntropyLoss
from repro.nn.network import Sequential
from repro.nn.optim import SGD, Adam
from repro.nn.training import TrainingHistory, Trainer
from repro.nn.schedules import EarlyStopping, StepDecay
from repro.nn.gradcheck import GradCheckReport, check_module
from repro.nn.serialization import (
    load_parameters,
    parameters_nbytes,
    save_parameters,
)

__all__ = [
    "Module",
    "Parameter",
    "StatefulModule",
    "BlockCirculantLSTM",
    "BlockCirculantGRU",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Dense",
    "BlockCirculantDense",
    "Conv2D",
    "BlockCirculantConv2D",
    "MaxPool2D",
    "AvgPool2D",
    "Flatten",
    "Dropout",
    "SoftmaxCrossEntropyLoss",
    "MSELoss",
    "Sequential",
    "SGD",
    "Adam",
    "Trainer",
    "TrainingHistory",
    "FFTConv2D",
    "StepDecay",
    "EarlyStopping",
    "check_module",
    "GradCheckReport",
    "save_parameters",
    "load_parameters",
    "parameters_nbytes",
]
