"""Library front door to the dense trainer (momentum SGD on MSE).

The paper only evaluates *inference*; training exists here so the
examples can produce genuinely trained models (Iris classification,
time-series regression heads) instead of random weights.  :func:`fit`
runs the same trainer as the engine's ``CREATE MODEL ... AS TRAIN``
(:class:`repro.nn.backward.DenseBackward` on the host device, with
the :func:`~repro.nn.backward.minibatch_epochs` schedule), so a model
trained here is bit-identical to the one ``CREATE MODEL`` trains from
the same seed, rows and hyperparameters with ``loss='mse'``.
Dense-only: LSTM training is out of scope, exactly as it is for the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.host import HostDevice
from repro.errors import ModelError
from repro.nn.backward import DenseBackward, minibatch_epochs
from repro.nn.model import Sequential


@dataclass
class TrainingReport:
    """Loss trajectory of one :func:`fit` call."""

    epochs: int
    losses: list[float]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def fit(
    model: Sequential,
    inputs: np.ndarray,
    targets: np.ndarray,
    epochs: int = 100,
    learning_rate: float = 0.01,
    batch_size: int = 32,
    momentum: float = 0.9,
    seed: int = 0,
) -> TrainingReport:
    """Train a dense-only *model* against MSE with momentum SGD.

    Targets of shape ``(n,)`` are reshaped to ``(n, 1)``.
    """
    inputs = np.asarray(inputs, dtype=np.float32)
    targets = np.asarray(targets, dtype=np.float32)
    if targets.ndim == 1:
        targets = targets[:, np.newaxis]
    if len(inputs) != len(targets):
        raise ModelError(
            f"{len(inputs)} inputs vs {len(targets)} targets"
        )
    stepper = DenseBackward(
        model,
        HostDevice(),
        learning_rate=learning_rate,
        momentum=momentum,
    )
    losses: list[float] = []
    for batches in minibatch_epochs(
        inputs, targets, epochs, batch_size, seed
    ):
        batch_losses = [stepper.train_batch(x, y) for x, y in batches]
        losses.append(sum(batch_losses) / max(len(batch_losses), 1))
    return TrainingReport(epochs=epochs, losses=losses)


def accuracy(
    model: Sequential, inputs: np.ndarray, class_labels: np.ndarray
) -> float:
    """Classification accuracy: argmax over the output columns.

    For single-output models the prediction is thresholded at 0.5.
    """
    predicted = model.predict(inputs)
    if predicted.shape[1] == 1:
        chosen = (predicted[:, 0] >= 0.5).astype(np.int64)
    else:
        chosen = predicted.argmax(axis=1)
    return float(np.mean(chosen == np.asarray(class_labels)))
