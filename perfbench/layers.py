"""Per-layer metrics of a traced pass.

Span self times come from :mod:`spans`; counts come from what the engine
already exposes (``export_metrics_text()``, ``system.buffer_pool``,
``system.queries``, the query log file), read before and after the
traced pass.  Every time reported here is measured on every workload;
layers only some workloads use (checkpoints, training) report the share
of the traced pass they kept busy, which is 0 where they are not used.
"""

from __future__ import annotations

import contextlib
import os
import resource
import time

import numpy as np

from spans import SpanRecorder, instrument

VARIANTS = ("native-cpu", "native-gpu", "runtime-api", "udf", "external", "ml-to-sql")

#: per-layer metric -> the span whose mean self time per call it reports
SPAN_METRICS = {
    "sql.parse_ms": "sql.parse",
    "plan.prepare_ms": "plan.prepare",
    "plan.lower_ms": "plan.lower",
    "compile.ms": "compile",
    "engine.execute_ms": "engine.execute",
    "exec.ms": "exec.drain",
    "modeljoin.cache_get_ms": "modeljoin.cache_get",
    "modeljoin.infer_ms": "modeljoin.infer",
    "serve.submit_ms": "serve.submit",
}

#: per-layer metric -> the spans whose self time it reports as a share
#: of the traced pass's wall time
SHARE_METRICS = {
    "storage.checkpoint_share": ("storage.checkpoint",),
    "train.share": ("train.create_model", "train.alter_model"),
}

#: every per-layer metric with its unit, in report order
UNITS = {
    **{name: "ms" for name in SPAN_METRICS},
    **{name: "share" for name in SHARE_METRICS},
    "plan.rows_read_per_row_returned": "rows/row",
    **{f"plan.variant.{v}": "share" for v in VARIANTS},
    "compile.kernel_hit_ratio": "ratio",
    "parallel.speedup": "ratio",
    "bufferpool.hit_ratio": "ratio",
    "bufferpool.evictions": "1/query",
    "scan.blocks_skipped_share": "share",
    "scan.bytes_read": "B/query",
    "storage.bytes_written_per_user_byte": "B/B",
    "modeljoin.cache_hit_ratio": "ratio",
    "modeljoin.build_ms": "ms",
    "nn.gflop_per_s": "GFLOP/s",
    "nn.bytes_moved": "B/tuple",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.rejected": "count",
    "loadgen.lag_p99_ms": "ms",
    "introspect.log_bytes_per_query": "B/query",
    "trace.overhead_share": "share",
}


def _written_bytes() -> int:
    """Bytes this process has written to storage (512-byte blocks)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_oublock * 512


def _snapshot(database) -> dict:
    from repro.db.introspect.prometheus import parse_prometheus_text

    pool = database.execute(
        "SELECT hits, misses, evictions FROM system.buffer_pool"
    ).rows
    log = database.query_log.path
    return {
        "metrics": parse_prometheus_text(database.export_metrics_text()),
        "pool": pool[0] if pool else (0, 0, 0),
        "query_id": max(
            [row[0] for row in database.execute(
                "SELECT query_id FROM system.queries").rows] or [0]
        ),
        "log_bytes": os.path.getsize(log) if log and os.path.exists(log) else 0,
        "written": _written_bytes(),
    }


def _delta(before: dict, after: dict, name: str, field: str = "value") -> float:
    def read(snapshot):
        family = snapshot["metrics"].get("repro_" + name, {})
        return float(family.get(field, 0.0) or 0.0)

    return read(after) - read(before)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class TracedPass:
    """Installs the span wrappers around one pass and turns it into metrics."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.before: dict = {}
        self.after: dict = {}
        self.queries: list = []
        self.seconds = 0.0

    @contextlib.contextmanager
    def active(self, database):
        self.before = _snapshot(database)
        instrument(self.recorder)
        started = time.perf_counter()
        try:
            yield self.recorder
        finally:
            self.seconds = time.perf_counter() - started
            self.recorder.restore()
            self.after = _snapshot(database)
            self.queries = database.execute(
                "SELECT sql, rows_read, rows_returned, bytes_read, "
                "blocks_scanned, blocks_skipped, modeljoin_variant "
                f"FROM system.queries WHERE query_id > {self.before['query_id']}"
            ).rows

    def detail(self) -> dict:
        """Per-call times of the layers only some workloads use (0 = unused)."""
        times = self.recorder.self_times()
        detail = {}
        for name, span in (("storage.checkpoint_ms", "storage.checkpoint"),
                           ("train.retrain_ms", "train.create_model"),
                           ("train.swap_ms", "train.alter_model")):
            calls, seconds = times.get(span, (0, 0.0))
            detail[name] = _ratio(seconds * 1e3, calls)
        detail["train.epoch_ms"] = _ratio(
            _delta(self.before, self.after, "training_epoch_seconds", "sum") * 1e3,
            _delta(self.before, self.after, "training_epoch_seconds", "count"),
        )
        return detail

    def metrics(self, outcome) -> dict:
        before, after, recorder = self.before, self.after, self.recorder
        values = dict.fromkeys(UNITS, 0.0)
        times = recorder.self_times()
        for metric, span in SPAN_METRICS.items():
            calls, seconds = times.get(span, (0, 0.0))
            values[metric] = _ratio(seconds * 1e3, calls)
        for metric, spans in SHARE_METRICS.items():
            busy = sum(times.get(span, (0, 0.0))[1] for span in spans)
            values[metric] = _ratio(busy, self.seconds)

        selects = [q for q in self.queries if q[0].lstrip().upper().startswith("SELECT")
                   and "system." not in q[0]]
        values["plan.rows_read_per_row_returned"] = _ratio(
            sum(q[1] for q in selects), sum(q[2] for q in selects)
        )
        joined = [q[6] for q in selects if q[6]]
        for variant in VARIANTS:
            values[f"plan.variant.{variant}"] = _ratio(joined.count(variant), len(joined))
        values["scan.bytes_read"] = _ratio(sum(q[3] for q in selects), len(selects))
        values["scan.blocks_skipped_share"] = _ratio(
            sum(q[5] for q in selects), sum(q[4] + q[5] for q in selects)
        )
        hits, misses, evictions = (a - b for a, b in zip(after["pool"], before["pool"]))
        values["bufferpool.hit_ratio"] = _ratio(hits, hits + misses)
        values["bufferpool.evictions"] = _ratio(evictions, len(selects))

        values["compile.kernel_hit_ratio"] = _ratio(
            _delta(before, after, "compile_cache_hit"),
            _delta(before, after, "compile_requests"),
        )
        cache_hits = _delta(before, after, "cache_hits")
        values["modeljoin.cache_hit_ratio"] = _ratio(
            cache_hits, cache_hits + _delta(before, after, "cache_misses")
        )
        values["modeljoin.build_ms"] = _ratio(
            _delta(before, after, "modeljoin_build_seconds", "sum") * 1e3,
            _delta(before, after, "modeljoin_build_seconds", "count"),
        )
        values["serve.rejected"] = _delta(before, after, "server_queries_rejected")
        values["introspect.log_bytes_per_query"] = _ratio(
            after["log_bytes"] - before["log_bytes"],
            after["query_id"] - before["query_id"],
        )
        values["storage.bytes_written_per_user_byte"] = _ratio(
            after["written"] - before["written"],
            outcome.inputs.get("user_bytes", 0),
        )

        work = getattr(recorder, "work", {})
        infer_seconds = times.get("modeljoin.infer", (0, 0.0))[1]
        values["nn.gflop_per_s"] = _ratio(work.get("flops", 0) / 1e9, infer_seconds)
        values["nn.bytes_moved"] = _ratio(work.get("bytes", 0), work.get("tuples", 0))

        waits = getattr(recorder, "queue_waits", [])
        if waits:
            values["serve.queue_wait_p50_ms"] = float(np.percentile(waits, 50)) * 1e3
            values["serve.queue_wait_p99_ms"] = float(np.percentile(waits, 99)) * 1e3
        lags = outcome.layer.get("lags")
        if lags:
            values["loadgen.lag_p99_ms"] = float(np.percentile(lags, 99))
        values["parallel.speedup"] = outcome.layer.get("parallel.speedup", 0.0)
        headline = outcome.headline_ms
        values["trace.overhead_share"] = _ratio(
            headline.get("traced", 0.0), headline.get("untraced", 0.0)
        ) - 1.0
        return values
