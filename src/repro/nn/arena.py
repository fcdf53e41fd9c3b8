"""Named, reusable float32 workspaces for the dense kernels.

One :class:`BufferArena` backs every loop that runs the same layer
kernels over many equally shaped batches: the ModelJoin inference
loop (one arena per partition pipeline, sized at the vector size) and
the minibatch trainer (:class:`repro.nn.backward.DenseBackward`,
sized at the batch size).  It lives in ``repro.nn`` so the network
substrate, the engine's training operator and the ModelJoin runtime
all import it without a cycle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class BufferArena:
    """Named, preallocated float32 workspaces.

    ``take(tag, rows, cols)`` returns a ``(rows, cols)`` view of a
    buffer allocated once at ``max(rows, capacity_rows)`` rows; the
    same tag returns the same storage on every later call, so the
    steady state of a kernel loop allocates nothing.  *counters* (a
    profile's ``increment(name, amount)``) receives the reused bytes
    as ``buffer-bytes-reused``.  Not thread-safe by design — each
    pipeline or training run owns its own arena.
    """

    def __init__(self, capacity_rows: int, counters=None):
        if capacity_rows < 1:
            raise ModelError("arena capacity must be positive")
        self.capacity_rows = capacity_rows
        self.counters = counters
        self._buffers: dict[str, np.ndarray] = {}
        #: bytes of allocation avoided by handing out reused buffers
        self.reused_bytes = 0

    def take(self, tag: str, rows: int, cols: int) -> np.ndarray:
        buffer = self._buffers.get(tag)
        if (
            buffer is None
            or buffer.shape[0] < rows
            or buffer.shape[1] != cols
        ):
            capacity = max(rows, self.capacity_rows)
            buffer = np.empty((capacity, cols), dtype=np.float32)
            self._buffers[tag] = buffer
        else:
            saved = rows * cols * buffer.itemsize
            self.reused_bytes += saved
            if self.counters is not None:
                self.counters.increment("buffer-bytes-reused", saved)
        return buffer[:rows]

    def nominal_bytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())
