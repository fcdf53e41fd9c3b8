"""The three workloads: ``point_score``, ``batch_score``, ``ingest_serve``.

Each workload gets a reopened persistent database built from the seed,
drives it for the measured seconds, and fills a :class:`Outcome` with
latency samples, output-check problems and the inputs it depended on.
A traced run splits its seconds: the traffic runs untraced, then again
with the layer wrappers of :mod:`spans` installed.
"""

from __future__ import annotations

import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from inputs import Sizes

PARALLELISM = 2
CLIENTS = 2
DISPATCHERS = 2
SETUP_REPEATS = 3
#: ingest_serve reads/s at which read latency is reported
REFERENCE_RATE = 60
#: (name, reads/s, share of the measured seconds, retrain-and-swap):
#: the reference rate, the same rate with the swap, then the ladder,
#: whose top rung is above point_score's closed-loop capacity
PHASES = (
    ("reference", REFERENCE_RATE, 0.55, False),
    ("swap", REFERENCE_RATE, 0.10, True),
    ("rung_90", 90, 0.05, False),
    ("rung_120", 120, 0.05, False),
    ("rung_200", 200, 0.25, False),
)
#: a rung meets the limit when its read p99 stays under this and all its
#: reads complete within 1.25x the rung's duration (no growing backlog)
READ_P99_LIMIT_MS = 750.0
RANGE_SHARE = 0.05
#: latency recorded for a failed read
FAILED_MS = 1e9
WRITE_PERIOD_S = 2.0
#: raw bytes of one iris row: id, four FLOAT features, species
ROW_BYTES = 8 + 4 * 4 + 8


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: output-check mismatches; any one makes the run incorrect
    problems: list = field(default_factory=list)
    #: the first few errors of failed requests (counted in ``failed``)
    errors: list = field(default_factory=list)
    #: end-to-end values by metric name (untraced pass)
    e2e: dict = field(default_factory=dict)
    #: the same headline latency (ms) per pass, for the trace overhead
    headline_ms: dict = field(default_factory=dict)
    #: named end-to-end figures of this workload, with units
    named: dict = field(default_factory=dict)
    #: inputs the figures depend on
    inputs: dict = field(default_factory=dict)
    #: per-layer values the workload measures itself
    layer: dict = field(default_factory=dict)
    #: ids of acknowledged inserts, checked again after a reopen
    durable_ids: object = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_seconds(seconds: float, tracer) -> float:
    """A traced run splits its seconds between an untraced and a traced pass."""
    return seconds if tracer is None else seconds / 2


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
@dataclass
class Data:
    seed: int
    sizes: Sizes
    iris: dict
    model: object
    series: dict | None = None
    lstm: object | None = None


def make_data(seed: int, sizes: Sizes, with_series: bool) -> Data:
    from repro.workloads.models import make_dense_model, make_lstm_model

    rng = np.random.default_rng(seed)
    data = Data(
        seed=seed,
        sizes=sizes,
        iris=inputs.iris_rows(rng, 0, sizes.rows),
        model=make_dense_model(
            inputs.DENSE_WIDTH, inputs.DENSE_DEPTH, seed=seed
        ),
    )
    if with_series:
        data.series = inputs.series_rows(rng, sizes.windows)
        data.lstm = make_lstm_model(
            inputs.LSTM_WIDTH, inputs.TIME_STEPS, seed=seed + 1
        )
    return data


def _connect(path: Path, sizes: Sizes):
    import repro

    return repro.connect(
        parallelism=PARALLELISM, path=str(path),
        buffer_pool_bytes=sizes.pool_bytes,
    )


def build_database(path: Path, data: Data):
    """Create, load, checkpoint, close and reopen; returns (db, seconds)."""
    from repro.core.registry import publish_model
    from repro.db.schema import Schema
    from repro.db.types import SqlType

    started = time.perf_counter()
    database = _connect(path, data.sizes)
    iris = database.create_table(
        "iris",
        Schema.of(
            ("id", SqlType.INTEGER),
            *((name, SqlType.FLOAT) for name in inputs.FEATURES),
            ("species", SqlType.INTEGER),
        ),
        num_partitions=PARALLELISM, partition_key="id", sort_key=("id",),
    )
    iris.append_columns(**data.iris)
    publish_model(database, "m", data.model)
    if data.series is not None:
        series = database.create_table(
            "series",
            Schema.of(
                ("id", SqlType.INTEGER), ("bucket", SqlType.INTEGER),
                *((f"x{s + 1}", SqlType.FLOAT) for s in range(inputs.TIME_STEPS)),
            ),
            sort_key=("id",),
        )
        series.append_columns(**data.series)
        publish_model(database, "lstm", data.lstm)
    database.checkpoint()
    database.close()
    database = _connect(path, data.sizes)
    return database, time.perf_counter() - started


def set_up(work: Path, data: Data):
    """Build the database several times; keep the last, report the median."""
    import shutil

    seconds, database = [], None
    for attempt in range(SETUP_REPEATS):
        if database is not None:
            database.close()
        path = work / f"db{attempt}"
        shutil.rmtree(path, ignore_errors=True)
        database, elapsed = build_database(path, data)
        seconds.append(elapsed)
        if attempt:
            shutil.rmtree(work / f"db{attempt - 1}", ignore_errors=True)
    return database, statistics.median(seconds)


def describe(database, data: Data) -> dict:
    """Table and model sizes and the buffer-pool cap against them."""
    sizes = dict(database.execute(
        "SELECT table_name, SUM(raw_bytes) FROM system.storage_blocks "
        "GROUP BY table_name"
    ).rows)
    described = {
        "seed": data.seed,
        "iris_rows": data.sizes.rows,
        "iris_bytes": int(sizes.get("iris", 0)),
        "dense_model": f"{inputs.DENSE_WIDTH}x{inputs.DENSE_DEPTH}",
        "dense_parameters": data.model.parameter_count(),
        "buffer_pool_bytes": data.sizes.pool_bytes,
    }
    if data.series is not None:
        described.update(
            series_windows=data.sizes.windows,
            series_bytes=int(sizes.get("series", 0)),
            lstm_model=f"lstm{inputs.LSTM_WIDTH}x{inputs.TIME_STEPS}",
            lstm_parameters=data.lstm.parameter_count(),
        )
    return described


# ---------------------------------------------------------------------------
# point_score: closed loop, 2 clients, one served session each
# ---------------------------------------------------------------------------
def point_score(database, data: Data, seconds: float, tracer) -> Outcome:
    from repro.db.serve import Server

    outcome = Outcome()
    rng = np.random.default_rng(data.seed + 100)
    streams = [
        inputs.skewed_ids(rng, data.sizes.rows, 100_000) for _ in range(CLIENTS)
    ]
    cursors = [0] * CLIENTS
    looked_up: list = []
    #: closed loop: a client's delay between a reply and its next request
    lags: list = outcome.layer.setdefault("lags", [])
    with Server(database, queue_capacity=64, dispatchers=DISPATCHERS) as server:
        sessions = [
            server.open_session(tenant=f"client{k}") for k in range(CLIENTS)
        ]

        def run(duration: float, traced) -> list:
            samples: list = []

            def client(k: int) -> None:
                session, stream = sessions[k], streams[k]
                deadline = time.perf_counter() + duration
                done = None
                while time.perf_counter() < deadline:
                    key = int(stream[cursors[k] % len(stream)])
                    cursors[k] += 1
                    sql = inputs.POINT_SQL.format(id=key)
                    started = time.perf_counter()
                    if traced is not None and done is not None:
                        lags.append((started - done) * 1e3)
                    try:
                        if traced is None:
                            rows = session.execute(sql).rows
                        else:
                            traced.request = f"c{k}-{cursors[k]}"
                            rows = traced.call("request", session.execute, sql)
                            rows = rows.rows
                    except Exception as error:  # counted, never fatal
                        samples.append((key, None, 0.0, repr(error)))
                        continue
                    done = time.perf_counter()
                    samples.append((key, rows, done - started, None))

            _run_threads(client, CLIENTS)
            return samples

        run(min(1.0, seconds / 4), None)  # warm caches, not reported
        seconds = pass_seconds(seconds, tracer)
        passes = {"untraced": run(seconds, None)}
        if tracer is not None:
            with tracer.active(database) as recorder:
                passes["traced"] = run(seconds, recorder)
        for session in sessions:
            session.close()

    outcome.e2e["peak_rss_mb"] = peak_rss_mb()
    for name, samples in passes.items():
        ok = [s for s in samples if s[3] is None]
        latencies = [s[2] for s in ok]
        outcome.attempted += len(samples)
        outcome.failed += len(samples) - len(ok)
        outcome.errors += [s[3] for s in samples if s[3] is not None][:3]
        looked_up += ok
        outcome.headline_ms[name] = percentile(latencies, 50) * 1e3
        if name == "untraced":
            p50, p99 = percentile(latencies, 50), percentile(latencies, 99)
            qps = len(ok) / seconds
            outcome.e2e.update(p50_ms=p50 * 1e3, throughput_per_s=qps)
            outcome.named.update(
                point_p50_ms=(p50 * 1e3, "ms"), point_p99_ms=(p99 * 1e3, "ms"),
                point_qps=(qps, "1/s"),
            )
            outcome.inputs.update(
                lookups=len(samples),
                repeated_id_share=inputs.repeated_share(s[0] for s in samples),
            )

    # output check: every lookup against a NumPy forward of the model
    keys = np.array([s[0] for s in looked_up], dtype=np.int64)
    shapes_ok = [
        len(s[1]) == 1 and s[1][0][0] == s[0] for s in looked_up
    ]
    if not all(shapes_ok):
        outcome.problems.append(
            f"point_score: {shapes_ok.count(False)} lookups returned "
            "other than exactly the requested row"
        )
    else:
        observed = [s[1][0][1] for s in looked_up]
        features = _features(data.iris, keys)
        outcome.problems += checks.compare_predictions(
            "point_score", keys, observed, reference_forward(data.model, features)
        )
    return outcome


def reference_forward(model, features):
    """The NumPy reference the checks compare against."""
    return checks.forward(model, features)


def _features(iris: dict, keys: np.ndarray) -> np.ndarray:
    return np.column_stack([iris[name][keys] for name in inputs.FEATURES])


def _run_threads(target, count: int) -> None:
    threads = [
        threading.Thread(target=target, args=(k,), name=f"perfbench-{k}")
        for k in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ---------------------------------------------------------------------------
# batch_score: Figures 8/9 on the reopened database
# ---------------------------------------------------------------------------
#: one round; serial dense scoring runs twice, as it carries the
#: workload's end-to-end metrics
BATCH_QUERIES = (
    ("dense", inputs.DENSE_SQL, False),
    ("dense_parallel", inputs.DENSE_SQL, True),
    ("dense", inputs.DENSE_SQL, False),
    ("lstm", inputs.LSTM_SQL, False),
)


def batch_score(database, data: Data, seconds: float, tracer) -> Outcome:
    """One client scores the tables through one served session."""
    from repro.db.serve import Server

    outcome = Outcome()
    answers: dict = {name: [] for name, _sql, _parallel in BATCH_QUERIES}
    #: closed loop: the client's delay between a reply and its next query
    lags: list = outcome.layer.setdefault("lags", [])

    def run(session, duration: float, traced, minimum_rounds: int) -> dict:
        latencies: dict = {name: [] for name, _sql, _parallel in BATCH_QUERIES}
        deadline = time.perf_counter() + duration
        rounds, done = 0, None
        while rounds < minimum_rounds or time.perf_counter() < deadline:
            rounds += 1
            for name, sql, parallel in BATCH_QUERIES:
                outcome.attempted += 1
                started = time.perf_counter()
                try:
                    if traced is None:
                        result = session.execute(sql, parallel=parallel)
                    else:
                        if done is not None:
                            lags.append((started - done) * 1e3)
                        traced.request = f"{name}-{rounds}"
                        result = traced.call(
                            "request", session.execute, sql, parallel=parallel
                        )
                except Exception as error:  # counted, never fatal
                    outcome.failed += 1
                    outcome.errors.append(f"{name}: {error!r}")
                    continue
                done = time.perf_counter()
                latencies[name].append(done - started)
                answers[name].append(result.rows)
        return latencies

    # One dispatcher: the client waits for each query, and every query
    # then allocates on the same thread, which keeps peak RSS steady.
    with Server(database, queue_capacity=64, dispatchers=1) as server:
        with server.open_session(tenant="batch") as session:
            run(session, 0.0, None, 1)  # warm caches, not reported
            seconds = pass_seconds(seconds, tracer)
            passes = {"untraced": run(session, seconds, None, 3)}
            if tracer is not None:
                with tracer.active(database) as recorder:
                    passes["traced"] = run(session, seconds, recorder, 3)

    outcome.e2e["peak_rss_mb"] = peak_rss_mb()
    rates = {}
    for pass_name, latencies in passes.items():
        medians = {name: statistics.median(values) for name, values in latencies.items()}
        outcome.headline_ms[pass_name] = medians["dense"] * 1e3
        rates[pass_name] = {
            "dense": data.sizes.rows / medians["dense"],
            "dense_parallel": data.sizes.rows / medians["dense_parallel"],
            "lstm": data.sizes.windows / medians["lstm"],
        }
    untraced = passes["untraced"]
    outcome.inputs["latencies_ms"] = {
        name: [round(v * 1e3, 1) for v in values] for name, values in untraced.items()
    }
    outcome.e2e.update(
        p50_ms=statistics.median(untraced["dense"]) * 1e3,
        throughput_per_s=rates["untraced"]["dense"],
    )
    outcome.named.update(
        dense_tuples_per_s=(rates["untraced"]["dense"], "1/s"),
        dense_parallel_tuples_per_s=(rates["untraced"]["dense_parallel"], "1/s"),
        lstm_tuples_per_s=(rates["untraced"]["lstm"], "1/s"),
    )
    last = rates.get("traced", rates["untraced"])
    outcome.layer["parallel.speedup"] = last["dense_parallel"] / last["dense"]

    # output checks: serial against NumPy, parallel and LSTM likewise
    dense_expected = checks.grouped_reference(
        data.iris["species"],
        reference_forward(data.model, _features(data.iris, slice(None))),
    )
    lstm_expected = checks.grouped_reference(
        data.series["bucket"],
        reference_forward(
            data.lstm,
            np.column_stack([data.series[f"x{s + 1}"] for s in range(inputs.TIME_STEPS)]),
        ),
    )
    for rows in answers["dense"]:
        outcome.problems += checks.compare_groups(
            "dense", checks.merge_partials(rows), dense_expected
        )
    serial = checks.merge_partials(answers["dense"][0])
    for rows in answers["dense_parallel"]:
        outcome.problems += checks.compare_groups(
            "dense_parallel", checks.merge_partials(rows), serial
        )
    for rows in answers["lstm"]:
        outcome.problems += checks.compare_groups(
            "lstm", checks.merge_partials(rows), lstm_expected
        )
    outcome.inputs["parallel_rows_per_group"] = (
        len(answers["dense_parallel"][0]) / max(len(serial), 1)
    )
    return outcome


# ---------------------------------------------------------------------------
# ingest_serve: open loop over 2 sessions, reads beside writes and a swap
# ---------------------------------------------------------------------------
@dataclass
class Request:
    due: float
    kind: str  # point | range | write | retrain | alter
    sql: str
    #: the id, range start, inserted columns or model version
    payload: object = None
    submitted: float = 0.0
    entry: object = None
    error: str | None = None

    @property
    def finished(self) -> float:
        return getattr(self.entry, "perfbench_finished", self.submitted)


class IngestState:
    """Everything that outlives one phase: next ids, models, versions."""

    def __init__(self, data: Data):
        self.data = data
        self.rng = np.random.default_rng(data.seed + 200)
        self.ids = inputs.skewed_ids(self.rng, data.sizes.rows, 200_000)
        self.cursor = 0
        self.next_insert = data.sizes.rows
        self.acknowledged: list = []
        #: (swap submitted, swap finished, model) per published version
        self.versions: list = [(-np.inf, -np.inf, data.model)]
        self.trained: dict = {}
        self.version_changes: list = []

    def schedule(self, rate: float, duration: float, writes: bool,
                 retrain: bool) -> list:
        events = []
        for index in range(int(rate * duration)):
            if self.rng.random() < RANGE_SHARE:
                blocks = max(self.data.sizes.rows // inputs.RANGE_ROWS, 1)
                lo = int(self.rng.integers(0, blocks)) * inputs.RANGE_ROWS
                sql = inputs.RANGE_SQL.format(lo=lo, hi=lo + inputs.RANGE_ROWS)
                events.append(Request(index / rate, "range", sql, lo))
            else:
                key = int(self.ids[self.cursor % len(self.ids)])
                self.cursor += 1
                sql = inputs.POINT_SQL.format(id=key)
                events.append(Request(index / rate, "point", sql, key))
        if writes:
            offset = WRITE_PERIOD_S / 2
            while offset < duration:
                count = self.data.sizes.insert_rows
                columns = inputs.iris_rows(self.rng, self.next_insert, count)
                self.next_insert += count
                events.append(
                    Request(offset, "write", inputs.insert_sql(columns), columns)
                )
                offset += WRITE_PERIOD_S
        if retrain:
            sql = inputs.RETRAIN_SQL.format(seed=self.data.seed)
            events.append(Request(0.1 * duration, "retrain", sql))
        return sorted(events, key=lambda event: event.due)


def _stamp_completions(patches: list) -> None:
    """Record when each served query finishes (open-loop latency)."""
    from repro.db.serve.admission import AdmittedQuery

    for name in ("finish", "fail"):
        original = getattr(AdmittedQuery, name)

        def stamped(entry, *args, _original=original, **kwargs):
            entry.perfbench_finished = time.perf_counter()
            return _original(entry, *args, **kwargs)

        patches.append((AdmittedQuery, name, original))
        setattr(AdmittedQuery, name, stamped)


def _capture_trained_models(state: IngestState, patches: list) -> None:
    """Keep each model the engine publishes, for the NumPy reference."""
    import repro.core.ml_to_sql.loader as loader

    original = loader.load_model_table

    def capture(database, table_name, model, *args, **kwargs):
        state.trained[table_name] = model
        return original(database, table_name, model, *args, **kwargs)

    patches.append((loader, "load_model_table", original))
    loader.load_model_table = capture


def _run_phase(sessions, state: IngestState, events: list, traced) -> list:
    """Submit *events* on their schedule from 2 generator threads."""
    start = time.perf_counter() + 0.01
    mine = [
        [e for i, e in enumerate(events) if (e.kind == "write" and k == 0)
         or (e.kind == "retrain" and k == 1)
         or (e.kind in ("point", "range") and i % CLIENTS == k)]
        for k in range(CLIENTS)
    ]
    alters: list = []

    def submit(session, request: Request) -> None:
        request.submitted = time.perf_counter()
        if traced is not None:
            traced.request = f"{request.kind}-{id(request)}"
        try:
            request.entry = session.submit(request.sql)
        except Exception as error:  # rejected at admission: a failure
            request.error = repr(error)

    def maybe_alter(session, retrain: Request | None) -> Request | None:
        if retrain is None or retrain.entry is None or not retrain.entry.done:
            return retrain
        if retrain.entry.error is None:
            version = retrain.entry.result.rows[0][1]
            alter = Request(
                time.perf_counter() - start, "alter",
                f"ALTER MODEL m SET VERSION {version}", version,
            )
            submit(session, alter)
            alters.append(alter)
        return None

    def generator(k: int) -> None:
        session, pending = sessions[k], None
        for request in mine[k]:
            due = start + request.due
            while True:
                pending = maybe_alter(session, pending)
                remaining = due - time.perf_counter()
                if remaining <= 0:
                    break
                time.sleep(min(remaining, 0.005) if pending else remaining)
            if request.kind == "retrain":
                pending = request
            submit(session, request)
        while pending is not None:
            pending = maybe_alter(session, pending)
            time.sleep(0.005)

    _run_threads(generator, CLIENTS)
    finished = events + alters
    for request in finished:
        request.due += start
        if request.entry is not None:
            try:
                request.entry.wait(timeout=120)
            except Exception as error:  # counted as failed
                request.error = repr(error)
    for alter in alters:
        if alter.error is None:
            table = f"m__v{alter.payload}"
            state.versions.append(
                (alter.submitted, alter.finished, state.trained[table])
            )
            state.version_changes.append(alter.finished)
    for request in finished:
        if request.kind == "write" and request.error is None:
            state.acknowledged.append(request.payload["id"])
            state.version_changes.append(request.finished)
    return finished


def _phase_stats(requests: list, rate: float, duration: float) -> dict:
    reads = [r for r in requests if r.kind in ("point", "range")]
    ok = [r for r in reads if r.error is None]
    # a failed read misses every latency limit
    latencies = [(r.finished - r.due) * 1e3 for r in ok]
    latencies += [FAILED_MS] * (len(reads) - len(ok))
    writes = [(r.finished - r.due) * 1e3 for r in requests
              if r.kind == "write" and r.error is None]
    # reads completed per second, from the first read's due time to the
    # last read's completion (the phase plus the backlog it left)
    first_due = min(r.due for r in reads)
    drained = max(r.finished for r in ok) - first_due if ok else np.inf
    p99 = percentile(latencies, 99)
    return {
        "rate": rate, "reads": len(reads),
        "p50_ms": percentile(latencies, 50), "p99_ms": p99,
        "write_p50_ms": percentile(writes, 50),
        "goodput_per_s": len(ok) / drained,
        "meets_limit": p99 <= READ_P99_LIMIT_MS and drained <= 1.25 * duration,
        "lag_p99_ms": percentile([(r.submitted - r.due) * 1e3 for r in requests], 99),
    }


def ingest_serve(database, data: Data, seconds: float, tracer) -> Outcome:
    from repro.db.serve import Server

    outcome = Outcome()
    state = IngestState(data)
    patches: list = []
    measured = pass_seconds(seconds, tracer)
    results: dict = {}
    try:
        _stamp_completions(patches)
        _capture_trained_models(state, patches)
        with Server(database, queue_capacity=4096, dispatchers=DISPATCHERS,
                    checkpoint_on_write=True) as server:
            sessions = [
                server.open_session(tenant=f"gen{k}") for k in range(CLIENTS)
            ]
            warm = state.schedule(REFERENCE_RATE, min(1.0, seconds / 4), False, False)
            _run_phase(sessions, state, warm, None)  # not reported

            def run_pass(traced) -> dict:
                return {
                    name: _run_phase(
                        sessions, state,
                        state.schedule(rate, share * measured, True, retrain),
                        traced,
                    )
                    for name, rate, share, retrain in PHASES
                }

            results["untraced"] = run_pass(None)
            if tracer is not None:
                with tracer.active(database) as recorder:
                    results["traced"] = run_pass(recorder)
            for session in sessions:
                session.close()
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
    outcome.e2e["peak_rss_mb"] = peak_rss_mb()

    stats = {}
    for pass_name, phase_results in results.items():
        stats[pass_name] = {
            name: _phase_stats(phase_results[name], rate, share * measured)
            for name, rate, share, _retrain in PHASES
        }
        for requests in phase_results.values():
            outcome.attempted += len(requests)
            failed = [r.error for r in requests if r.error is not None]
            outcome.failed += len(failed)
            outcome.errors += failed[:3]
        outcome.headline_ms[pass_name] = stats[pass_name]["reference"]["p50_ms"]
    if "traced" in results:
        traced = [r for phase in results["traced"].values() for r in phase]
        # open loop: how late the generator submitted each request
        outcome.layer["lags"] = [(r.submitted - r.due) * 1e3 for r in traced]
        outcome.inputs["user_bytes"] = sum(
            len(r.payload["id"]) * ROW_BYTES for r in traced
            if r.kind == "write" and r.error is None
        )

    phases = stats["untraced"]
    reference, top = phases["reference"], phases[PHASES[-1][0]]
    outcome.e2e.update(
        p50_ms=reference["p50_ms"],
        throughput_per_s=top["goodput_per_s"],
    )
    ladder = [v["rate"] for k, v in phases.items() if k != "swap" and v["meets_limit"]]
    outcome.named.update(
        read_p50_ms=(reference["p50_ms"], "ms"),
        read_p99_ms=(reference["p99_ms"], "ms"),
        write_p50_ms=(reference["write_p50_ms"], "ms"),
        max_rate_qps=(float(max(ladder, default=0)), "1/s"),
        top_rung_goodput_per_s=(top["goodput_per_s"], "1/s"),
        swap_read_p99_ms=(phases["swap"]["p99_ms"], "ms"),
    )
    retrain = next(r for r in results["untraced"]["swap"] if r.kind == "retrain")
    if len(state.versions) > 1 and retrain.error is None:
        outcome.named["retrain_swap_s"] = (state.versions[1][1] - retrain.due, "s")
    else:
        outcome.problems.append("ingest_serve: the retrain and swap did not complete")

    reads = [
        r for phase_results in results.values() for phase in phase_results.values()
        for r in phase if r.kind in ("point", "range")
    ]
    submitted = np.sort([r.submitted for r in reads])
    firsts = {int(np.searchsorted(submitted, t)) for t in state.version_changes}
    outcome.inputs.update(
        phases=phases,
        read_after_version_change_share=len(firsts - {len(submitted)}) / max(len(submitted), 1),
        repeated_id_share=inputs.repeated_share(r.payload for r in reads if r.kind == "point"),
        inserted_rows=state.next_insert - data.sizes.rows,
        range_share=RANGE_SHARE, read_p99_limit_ms=READ_P99_LIMIT_MS,
    )
    outcome.problems += _check_ingest(database, data, state, reads)
    outcome.durable_ids = _acknowledged(state)
    return outcome


def _acknowledged(state: IngestState) -> np.ndarray:
    if not state.acknowledged:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(state.acknowledged))


def _inserted_ids(database, rows: int) -> np.ndarray:
    result = database.execute(f"SELECT id FROM iris WHERE id >= {rows}")
    return np.sort(np.array([row[0] for row in result.rows], dtype=np.int64))


def check_durable(work: Path, data: Data, outcome: Outcome) -> list:
    """After close and reopen, every acknowledged insert is still there."""
    if outcome.durable_ids is None:
        return []
    database = _connect(work / f"db{SETUP_REPEATS - 1}", data.sizes)
    try:
        found = _inserted_ids(database, data.sizes.rows)
    finally:
        database.close()
    if np.array_equal(found, outcome.durable_ids):
        return []
    return [
        f"ingest_serve: {len(outcome.durable_ids)} acknowledged inserted "
        f"rows, {len(found)} found after reopening"
    ]


def _check_ingest(database, data: Data, state: IngestState, reads: list) -> list:
    """Reads against the version current at admission; inserts visible."""
    ok = [r for r in reads if r.error is None]
    keys = np.array(sorted({r.payload for r in ok if r.kind == "point"}), dtype=np.int64)
    index = {int(k): i for i, k in enumerate(keys)}
    features = _features(data.iris, keys)
    models = [model for _start, _end, model in state.versions]
    predicted = [reference_forward(model, features) for model in models]
    ranges: dict = {}
    wrong = torn = 0
    for read in ok:
        # versions current at some instant while the read was in flight
        allowed = [
            v for v, (swap_start, _end, _model) in enumerate(state.versions)
            if swap_start <= read.finished
            and (v + 1 == len(state.versions)
                 or read.submitted <= state.versions[v + 1][1])
        ]
        rows = read.entry.result.rows
        if read.kind == "point":
            i = index[read.payload]
            wrong += not (
                len(rows) == 1 and rows[0][0] == read.payload
                and any(np.isclose(rows[0][1], predicted[v][i],
                                   **checks.PREDICTION_TOLERANCE) for v in allowed)
            )
            continue
        lo = read.payload
        if lo not in ranges:
            span = np.arange(lo, min(lo + inputs.RANGE_ROWS, data.sizes.rows))
            ranges[lo] = [
                checks.grouped_reference(
                    data.iris["species"][span],
                    reference_forward(model, _features(data.iris, span)),
                )
                for model in models
            ]
        observed = checks.merge_partials(rows)
        torn += all(
            checks.compare_groups("range", observed, ranges[lo][v]) for v in allowed
        )
    problems = []
    if wrong:
        problems.append(
            f"ingest_serve: {wrong} point reads match no model version "
            "current while they ran"
        )
    if torn:
        problems.append(
            f"ingest_serve: {torn} analytics reads match no single model version"
        )
    expected, visible = _acknowledged(state), _inserted_ids(database, data.sizes.rows)
    if not np.array_equal(visible, expected):
        problems.append(
            f"ingest_serve: {len(expected)} acknowledged inserted rows, "
            f"{len(visible)} visible"
        )
    return problems
