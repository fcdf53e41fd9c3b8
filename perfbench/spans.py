"""In-memory spans recorded around calls into the engine's layers.

The engine is not changed: :class:`SpanRecorder` replaces public
functions and methods of the layers with timing wrappers for the
duration of a traced run and restores them afterwards.  Each span has a
name, start, end, parent span and request id; spans stay in memory and
are written once, when the run ends (Chrome trace format).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """Collects ``(id, name, start_ns, end_ns, parent, request, thread)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread context ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self):
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value) -> None:
        self._local.request = value

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording -----------------------------------------------------------
    def call(self, name: str, function, *args, **kwargs):
        """Run ``function(*args, **kwargs)`` inside a span called *name*."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self.request,
                 threading.get_ident())
            )

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as a span *name*."""
        original = getattr(owner, attribute)
        call = self.call

        def traced(*args, **kwargs):
            return call(name, original, *args, **kwargs)

        self.patch(owner, attribute, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self seconds)}`` over all recorded spans.

        A span's self time is its duration minus the part of that
        interval its child spans cover (children on other threads are
        clipped to the parent's interval and merged before subtracting).
        """
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _sid, _name, start, end, parent, _req, _tid in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, list] = defaultdict(lambda: [0, 0])
        for sid, name, start, end, _parent, _req, _tid in self.spans:
            covered = 0
            cursor = start
            for child_start, child_end in sorted(children.get(sid, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            totals[name][0] += 1
            totals[name][1] += end - start - covered
        return {
            name: (calls, nanos / 1e9)
            for name, (calls, nanos) in totals.items()
        }

    def write_chrome_trace(self, path) -> int:
        """Write the spans as Chrome trace events; returns the count."""
        if not self.spans:
            return 0
        origin = min(span[2] for span in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {"id": sid, "parent": parent, "request": request},
            }
            for sid, name, start, end, parent, request, tid in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
        return len(events)


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.db.engine as engine
    import repro.db.serve.server as server_module
    import repro.db.train as train
    from repro.core.modeljoin.cache import ModelCache
    from repro.core.modeljoin.inference import VectorizedInference
    from repro.db.compile.kernels import KernelCompiler
    from repro.db.planner import Planner
    from repro.db.serve.admission import AdmissionQueue, AdmittedQuery
    from repro.db.serve.session import Session

    recorder.wrap(engine, "parse_statement", "sql.parse")
    recorder.wrap(server_module, "parse_statement", "sql.parse")
    recorder.wrap(engine.Database, "execute_statement", "engine.execute")
    recorder.wrap(engine.Database, "checkpoint", "storage.checkpoint")
    recorder.wrap(Planner, "prepare", "plan.prepare")
    recorder.wrap(KernelCompiler, "compile_kernel", "compile")
    recorder.wrap(KernelCompiler, "compile_expression", "compile")
    recorder.wrap(ModelCache, "get", "modeljoin.cache_get")
    recorder.wrap(train, "execute_create_model", "train.create_model")
    recorder.wrap(train, "execute_alter_model", "train.alter_model")
    recorder.wrap(Session, "submit", "serve.submit")
    recorder.wrap(AdmittedQuery, "wait", "serve.wait")

    lower = Planner.lower

    def traced_lower(planner, *args, **kwargs):
        plan = recorder.call("plan.lower", lower, planner, *args, **kwargs)
        # Draining may happen on a worker thread (parallel plans): the
        # drain span is parented to the span that lowered the plan.
        parent, request = recorder.current(), recorder.request
        batches = plan.batches

        def traced_batches():
            previous = recorder.request
            recorder.request = request
            stack = recorder._stack()
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                yield from batches()
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.request = previous
                recorder.spans.append(
                    (span_id, "exec.drain", start, end, parent, request,
                     threading.get_ident())
                )

        plan.batches = traced_batches
        return plan

    recorder.patch(Planner, "lower", traced_lower)

    # Inference work is computed from the layer shapes, not measured.
    infer = VectorizedInference.infer
    recorder.work = {"tuples": 0, "flops": 0, "bytes": 0}

    def traced_infer(inference, matrix, *args, **kwargs):
        result = recorder.call(
            "modeljoin.infer", infer, inference, matrix, *args, **kwargs
        )
        flops, weight_bytes, activations = _model_shape(inference.built)
        rows = len(matrix)
        work = recorder.work
        work["tuples"] += rows
        work["flops"] += rows * flops
        work["bytes"] += weight_bytes + rows * activations * 4
        return result

    recorder.patch(VectorizedInference, "infer", traced_infer)

    # Request ids follow a served query from the client thread that
    # submitted it to the dispatcher thread that runs it.
    init = AdmittedQuery.__init__

    def tagged_init(entry, *args, **kwargs):
        init(entry, *args, **kwargs)
        entry.perfbench_request = recorder.request

    recorder.patch(AdmittedQuery, "__init__", tagged_init)
    take = AdmissionQueue.take
    recorder.queue_waits = []

    def traced_take(queue, *args, **kwargs):
        entry = take(queue, *args, **kwargs)
        if entry is not None:
            now = time.perf_counter()
            recorder.queue_waits.append(now - entry.enqueued_at)
            recorder.request = getattr(entry, "perfbench_request", None)
        return entry

    recorder.patch(AdmissionQueue, "take", traced_take)


def _model_shape(built) -> tuple[int, int, int]:
    """(flops per tuple, weight bytes, activations per tuple) of a model."""
    flops = weight_bytes = activations = 0
    for layer in built.layers:
        weight_bytes += layer.nominal_bytes()
        inputs, width = layer.kernel.shape
        if hasattr(layer, "recurrent_kernel"):
            steps = layer.time_steps
            flops += steps * 2 * (layer.kernel.size + layer.recurrent_kernel.size)
            activations += steps * (inputs + 2 * width)
        else:
            flops += 2 * layer.kernel.size
            activations += inputs + width
    return flops, weight_bytes, activations
