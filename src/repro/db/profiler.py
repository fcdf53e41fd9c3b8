"""Engine-side resource accounting.

The paper's Table 3 reports the *peak memory of the database engine*
during model inference.  A C++ engine measures RSS; in Python, process
RSS is dominated by the interpreter, so the engine instead accounts its
own logical allocations: hash-table builds, buffered aggregation state,
materialized intermediates, model weight matrices.  Operators register
allocations/releases with the :class:`MemoryAccountant` attached to the
execution context; the peak over a query is the reported number.

A :class:`Stopwatch` times phases and :class:`ProfileCounters` counts
events.  :class:`QueryProfile` is the one per-query record that holds
them, from registration to the ``system.queries`` row, and
:func:`finalize_profile` folds it into the engine metrics registry.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field

from repro.db.types import SqlType
from repro.errors import (
    QueryCancelledError,
    QueryRejectedError,
    QueryTimeoutError,
)


class MemoryAccountant:
    """Tracks logically allocated bytes and the high-water mark.

    Releasing more than was allocated (a double release, or a release
    against the wrong category) clamps the balance at zero instead of
    letting it go negative: a negative balance would silently deflate
    every later peak — the Table-3-style numbers — for the rest of the
    query.  Each clamp increments :attr:`underflows`, which the engine
    surfaces as the ``memory.release_underflow`` counter so accounting
    bugs are visible instead of corrupting the measurements.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.peak_bytes = 0
        self.by_category: dict[str, int] = {}
        #: releases that exceeded the tracked balance (clamped at zero)
        self.underflows = 0

    def allocate(self, nbytes: int, category: str = "other") -> None:
        if nbytes < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        with self._lock:
            self.current_bytes += nbytes
            self.by_category[category] = (
                self.by_category.get(category, 0) + nbytes
            )
            if self.current_bytes > self.peak_bytes:
                self.peak_bytes = self.current_bytes

    def release(self, nbytes: int, category: str = "other") -> None:
        if nbytes < 0:
            raise ValueError("cannot release a negative number of bytes")
        with self._lock:
            underflow = False
            balance = self.by_category.get(category, 0) - nbytes
            if balance < 0:
                underflow = True
                balance = 0
            self.by_category[category] = balance
            total = self.current_bytes - nbytes
            if total < 0:
                underflow = True
                total = 0
            self.current_bytes = total
            if underflow:
                self.underflows += 1

    def reset(self) -> None:
        with self._lock:
            self.current_bytes = 0
            self.peak_bytes = 0
            self.by_category.clear()
            self.underflows = 0

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.by_category)


@dataclass
class Stopwatch:
    """Accumulates named wall-clock phase timings.

    Partition pipelines share one stopwatch through the execution
    context, so the read-modify-write in :meth:`add` must be locked —
    unsynchronized pipelines would lose each other's time.
    """

    phases: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @contextlib.contextmanager
    def measure(self, name: str):
        """Context manager adding the elapsed time to phase *name*."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.phases[name] = self.phases.get(name, 0.0) + seconds

    def total(self) -> float:
        with self._lock:
            return sum(self.phases.values())


class ProfileCounters:
    """Thread-safe named event counters (cache hits, morsels, ...).

    Operators increment counters through the execution context.  A
    counter carries its event's one name: the end-of-query fold adds
    it to the metrics registry under that name.  Per-worker breakdowns
    use ``name.worker-i`` keys next to the aggregate ``name`` key.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


#: the ``system.queries`` columns in order: ``(column, SQL type,
#: counter)``.  A resource column reads the named per-query counter;
#: every other column reads the :class:`QueryProfile` attribute of the
#: same name.
QUERY_COLUMNS = (
    ("query_id", SqlType.INTEGER, None),
    ("sql", SqlType.VARCHAR, None),
    ("status", SqlType.VARCHAR, None),
    ("error_class", SqlType.VARCHAR, None),
    ("started_at", SqlType.DOUBLE, None),
    ("latency_seconds", SqlType.DOUBLE, None),
    ("slow", SqlType.BOOLEAN, None),
    ("rows_returned", SqlType.INTEGER, None),
    ("rows_read", SqlType.INTEGER, "scan.rows_read"),
    ("bytes_read", SqlType.INTEGER, "scan.bytes_read"),
    ("blocks_scanned", SqlType.INTEGER, "scan.blocks_scanned"),
    ("blocks_skipped", SqlType.INTEGER, "scan.blocks_skipped"),
    ("morsels", SqlType.INTEGER, "morsels"),
    ("cache_hits", SqlType.INTEGER, "cache.hits"),
    ("cache_misses", SqlType.INTEGER, "cache.misses"),
    ("retries", SqlType.INTEGER, "query.retries"),
    ("parallel", SqlType.BOOLEAN, None),
    ("compiled", SqlType.BOOLEAN, None),
    ("fallback", SqlType.BOOLEAN, None),
    ("modeljoin_variant", SqlType.VARCHAR, None),
    # appended later so older JSONL rows (without them) still load:
    # the restore path reads entries with .get(name, default)
    ("session_id", SqlType.VARCHAR, None),
    ("tenant", SqlType.VARCHAR, None),
)


def query_status(error: BaseException | None) -> str:
    """The ``system.queries`` status of a query that raised *error*."""
    if error is None:
        return "ok"
    if isinstance(error, QueryRejectedError):
        return "rejected"
    if isinstance(error, QueryCancelledError):
        # before QueryTimeoutError: cancelled is its subclass
        return "cancelled"
    if isinstance(error, QueryTimeoutError):
        return "timeout"
    return "error"


@dataclass(eq=False)
class QueryProfile:
    """One query's record, from registration to its log row.

    Identity (id, SQL, session, tenant, start time), the resources its
    operators charge (memory accountant, stopwatch phases, counters),
    and its outcome (latency, rows, status).  ``Result.profile``,
    ``system.active_queries`` and the ``system.queries`` row all read
    this one object; the counters are thread-safe, so other threads can
    read live progress while the query runs.
    """

    query_id: int = -1
    sql: str = ""
    session_id: str = ""
    tenant: str = ""
    #: wall-clock start (unix seconds; latency uses perf_counter)
    started_at: float = field(default_factory=time.time)
    parallel: bool = False
    memory: MemoryAccountant = field(default_factory=MemoryAccountant)
    stopwatch: Stopwatch = field(default_factory=Stopwatch)
    counters: ProfileCounters = field(default_factory=ProfileCounters)
    wall_seconds: float = 0.0
    rows_returned: int = 0
    status: str = "running"
    error_class: str = ""
    slow: bool = False
    #: total morsels of the shared queue (0 = not morsel-driven); set
    #: by the parallel executor when it attaches the morsel source
    morsels_total: int = 0
    #: a generated kernel failed and the query re-ran interpreted
    fallback: bool = False
    #: the optimizer's chosen ModelJoin execution variant ("" = none)
    modeljoin_variant: str = ""
    #: the query's cooperative cancellation token (if any); lets
    #: ``Database.close()`` and session teardown cancel in-flight
    #: queries found through the active-query registry
    cancellation: object | None = field(default=None, repr=False)
    _started_perf: float = field(
        default_factory=time.perf_counter, repr=False
    )

    @property
    def peak_memory_bytes(self) -> int:
        return self.memory.peak_bytes

    @property
    def latency_seconds(self) -> float:
        return self.wall_seconds

    @property
    def compiled(self) -> bool:
        """At least one generated kernel executed for this query."""
        return self.counters.get("compile.fused_pipelines") > 0

    @property
    def elapsed_seconds(self) -> float:
        """Wall time since the query started (live reads while running,
        frozen to the final latency once finished)."""
        if self.status != "running":
            return self.wall_seconds
        return time.perf_counter() - self._started_perf

    def morsels_completed(self) -> int:
        """Live morsel progress (0 until the scan loop starts)."""
        return self.counters.get("morsels")

    def restart(self) -> None:
        """Fresh resources for a re-execution: the record keeps those of
        the attempt that produced (or failed to produce) the result."""
        self.memory = MemoryAccountant()
        self.stopwatch = Stopwatch()
        self.counters = ProfileCounters()

    def finish(self, error: BaseException | None = None) -> None:
        """Freeze the latency and outcome."""
        self.wall_seconds = time.perf_counter() - self._started_perf
        self.status = query_status(error)
        if error is not None:
            self.error_class = type(error).__name__

    def to_entry(self) -> dict:
        """The finished query as a plain JSON-serializable log row."""
        counts = self.counters.snapshot()
        return {
            name: counts.get(counter, 0) if counter else getattr(self, name)
            for name, _, counter in QUERY_COLUMNS
        }


def finalize_profile(profile: QueryProfile, metrics=None) -> None:
    """Fold one finished query into the engine metrics registry.

    Runs once at the end of every query, on success and on failure.
    Memory-release underflows become the ``memory.release_underflow``
    counter; then, given a registry (duck-typed: see
    :class:`repro.db.tracing.MetricsRegistry`), every per-query counter
    is added under its own name, next to ``query.latency``
    (histogram), ``query.count`` and ``query.rows``, and the
    ``cache.hit_ratio`` gauge is refreshed.  Per-worker
    (``morsels.worker-<i>``) and per-shard (``<name>.shard-<i>``)
    breakdown keys stay in the query's counters only.
    """
    underflows = profile.memory.underflows
    if underflows:
        profile.counters.increment("memory.release_underflow", underflows)
    if metrics is None:
        return
    metrics.histogram("query.latency").observe(profile.wall_seconds)
    metrics.counter("query.count").increment()
    metrics.counter("query.rows").increment(profile.rows_returned)
    counts = profile.counters.snapshot()
    for name, value in counts.items():
        if not name.rpartition(".")[2].startswith(("worker-", "shard-")):
            metrics.counter(name).increment(value)
    if "cache.hits" in counts or "cache.misses" in counts:
        hits = metrics.counter("cache.hits").value
        misses = metrics.counter("cache.misses").value
        metrics.gauge("cache.hit_ratio").set(hits / (hits + misses))
