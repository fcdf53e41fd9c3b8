"""Neural-network substrate — the Keras/Tensorflow stand-in.

The paper runs inference of feed-forward (dense) and LSTM networks with
Keras semantics.  This package provides:

- :mod:`repro.nn.layers` / :mod:`repro.nn.model` — Dense and LSTM layers
  with the exact Keras inference recurrence, float32 arithmetic,
- :mod:`repro.nn.runtime` — an "ML runtime" exposing a C-API-flavoured
  session interface (row-major tensors, explicit buffers) used by the
  Raven-like integration approach,
- :mod:`repro.nn.training` — ``fit``, the library front door to the
  dense momentum-SGD trainer (:mod:`repro.nn.backward`) that
  ``CREATE MODEL`` also runs, so the examples can train real models,
- :mod:`repro.nn.serialization` — JSON save/load.
"""

from repro.nn.activations import Activation, get_activation
from repro.nn.layers import Dense, Layer, Lstm
from repro.nn.model import Sequential

__all__ = [
    "Activation",
    "get_activation",
    "Layer",
    "Dense",
    "Lstm",
    "Sequential",
]
