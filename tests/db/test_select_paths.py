"""Differential test: every SELECT front door returns the same answer.

One generated SELECT (filters, GROUP BY, ORDER BY ... LIMIT, MODEL
JOIN) runs through every way the engine can execute it — direct serial
and ``parallel=True``, a served :class:`~repro.db.serve.Session`
(serial and parallel), and ``explain_analyze`` serial and parallel —
with the optimizer rules and the compiled kernels each on and off, on
a single-process database and on 1-, 2- and 3-shard fleets.  Every
result must agree with the single-process direct serial run under the
merge contract of docs/SHARDING.md: bit-exact, except that a sharded
``partial`` merge (re-aggregated shard partials) may differ in
floating-point aggregates by re-association rounding.

Partition-parallel execution is only defined for partition-compatible
queries (GROUP BY including the partition key ``k``, or no
aggregation), so the parallel paths run only for those.

Key lookups (``WHERE id = k`` on an INTEGER partition key) read only
the partition inserts route ``k`` to; they run against a checkpointed
table with overlay rows and must match ``use_block_pruning=False``
bit-exactly on every path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core.registry import publish_model
from repro.db.planner import PlannerOptions
from repro.db.serve import Server
from repro.db.sql.parser import parse_statement
from repro.db.vector import VectorBatch
from repro.nn.layers import Dense
from repro.nn.model import Sequential

ROWS = 400
#: relative tolerance of floating aggregates under a ``partial`` merge
#: (docs/SHARDING.md): FLOAT sums accumulate in float32, and the
#: re-associated partials of same-sign values stay within ~100 ulps
PARTIAL_MERGE_RTOL = 1e-5


def _load(db):
    db.execute(
        "CREATE TABLE fact (k INTEGER, id INTEGER, g INTEGER, "
        "a FLOAT, b FLOAT) PARTITION BY (k) PARTITIONS 2"
    )
    rng = np.random.default_rng(5)
    table = db.table("fact")
    table.append_batch(
        VectorBatch.from_dict(
            table.schema,
            {
                "k": rng.integers(0, 6, ROWS).astype(np.int64),
                "id": np.arange(ROWS, dtype=np.int64),
                "g": rng.integers(0, 4, ROWS).astype(np.int64),
                # same-sign values: re-associated sums stay well
                # conditioned, so a relative tolerance is meaningful
                "a": rng.random(ROWS, dtype=np.float32),
                "b": rng.random(ROWS, dtype=np.float32),
            },
        )
    )
    model = Sequential(
        [Dense(4, "relu"), Dense(1, "sigmoid")], input_width=2, seed=9
    )
    publish_model(db, "m", model)
    # The sharded-read reproducer: three rows in a partitioned table.
    db.execute(
        "CREATE TABLE trio (id INTEGER, x FLOAT) "
        "PARTITION BY (id) PARTITIONS 2"
    )
    db.execute("INSERT INTO trio VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
    return db


class _Engine:
    def __init__(self, db):
        self.db = db
        self.server = Server(self.db, queue_capacity=8, dispatchers=1)
        self.session = self.server.open_session(tenant="paths")

    def close(self) -> None:
        self.session.close()
        self.server.close()
        self.db.close()


@pytest.fixture(scope="module")
def engines():
    opened = {
        shards: _Engine(_load(repro.connect(shards=shards, parallelism=2)))
        for shards in (0, 1, 2, 3)
    }
    yield opened
    for engine in opened.values():
        engine.close()


class Query(NamedTuple):
    sql: str
    ordered: bool
    #: partition-compatible, so the parallel paths are defined
    parallel_ok: bool


@st.composite
def queries(draw) -> Query:
    modeljoin = draw(st.booleans())
    source = "fact MODEL JOIN m USING (a, b)" if modeljoin else "fact"
    predicates = [
        st.integers(0, 9).map(lambda v: f"a > 0.{v}"),
        st.integers(0, 5).map(lambda v: f"k = {v}"),
        st.integers(0, ROWS).map(lambda v: f"id < {v}"),
        st.integers(0, 3).map(lambda v: f"g <> {v}"),
    ]
    if modeljoin:
        predicates.append(
            st.integers(1, 9).map(lambda v: f"prediction_0 > 0.{v}")
        )
    filters = draw(st.lists(st.one_of(*predicates), max_size=2))
    where = f" WHERE {' AND '.join(filters)}" if filters else ""
    group = draw(st.sampled_from([None, ("k",), ("k", "g"), ("g",)]))
    if group is None:
        columns = ["id", "k", "a"] + (["prediction_0"] if modeljoin else [])
        keys = ["id"]
        sql = f"SELECT {', '.join(columns)} FROM {source}{where}"
    else:
        measure = "prediction_0" if modeljoin else "a"
        aggregates = (
            f"SUM({measure}) AS s, COUNT(*) AS c, MIN(b) AS lo, "
            f"MAX(b) AS hi, AVG({measure}) AS av"
        )
        keys = list(group)
        sql = (
            f"SELECT {', '.join(group)}, {aggregates} FROM {source}{where} "
            f"GROUP BY {', '.join(group)}"
        )
    ordered = draw(st.booleans())
    if ordered:
        direction = draw(st.sampled_from(["", " DESC"]))
        limit = draw(st.integers(0, 30))
        order = ", ".join(f"{key}{direction}" for key in keys)
        sql += f" ORDER BY {order} LIMIT {limit}"
    return Query(sql, ordered, parallel_ok=group is None or "k" in group)


def _paths(engine: _Engine, query: Query) -> dict:
    db, session, sql = engine.db, engine.session, query.sql
    results = {
        "direct": db.execute(sql),
        "served": session.execute(sql),
        "explain-analyze": db.explain_analyze(sql)[1],
    }
    if query.parallel_ok:
        results["direct-parallel"] = db.execute(sql, parallel=True)
        results["served-parallel"] = session.execute(sql, parallel=True)
        results["explain-analyze-parallel"] = db.explain_analyze(
            sql, parallel=True
        )[1]
    return results


def _canonical(result, ordered: bool) -> list[tuple]:
    rows = [
        tuple(
            value.item() if isinstance(value, np.generic) else value
            for value in row
        )
        for row in result.rows
    ]
    return rows if ordered else sorted(rows)


def _assert_agree(expected, actual, ordered: bool, tolerant: bool, label):
    assert tuple(actual.schema.names) == tuple(expected.schema.names), label
    want = _canonical(expected, ordered)
    got = _canonical(actual, ordered)
    if not tolerant:
        assert got == want, label
        return
    assert len(got) == len(want), label
    for got_row, want_row in zip(got, want):
        for left, right in zip(got_row, want_row):
            if isinstance(right, float):
                assert math.isclose(
                    left, right, rel_tol=PARTIAL_MERGE_RTOL, abs_tol=1e-12
                ), label
            else:
                assert left == right, label


def _check(engines, query: Query) -> None:
    reference = engines[0].db.execute(query.sql)
    fleet = engines[2].db
    merge = fleet.sharding.plan_fragments(
        parse_statement(query.sql), fleet.catalog
    ).merge
    for shards, engine in engines.items():
        for rules in (True, False):
            for compiled in (True, False):
                engine.db.planner_options = PlannerOptions(
                    use_optimizer_rules=rules,
                    use_compiled_kernels=compiled,
                )
                try:
                    results = _paths(engine, query)
                finally:
                    engine.db.planner_options = PlannerOptions()
                for path, result in results.items():
                    _assert_agree(
                        reference,
                        result,
                        query.ordered,
                        tolerant=shards > 0 and merge == "partial",
                        label=(
                            f"{path} shards={shards} rules={rules} "
                            f"compiled={compiled}: {query.sql}"
                        ),
                    )


def test_three_row_reproducer(engines):
    """A sharded read returns the three rows on every front door."""
    query = Query("SELECT id, x FROM trio", ordered=False, parallel_ok=True)
    for engine in engines.values():
        for path, result in _paths(engine, query).items():
            assert sorted(result.rows) == [
                (1, 1.5), (2, 2.5), (3, 3.5)
            ], path
    _check(engines, query)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(query=queries())
@example(
    query=Query(
        "SELECT id, k, a FROM fact WHERE id < 3",
        ordered=False,
        parallel_ok=True,
    )
)
def test_every_path_agrees(engines, query):
    _check(engines, query)


# ----------------------------------------------------------------------
# partition-key lookups on a checkpointed table with overlay rows
# ----------------------------------------------------------------------
INT64_MIN = -(2**63)
#: 3 partitions: NumPy routes INT64_MIN to 1, Python's abs(k) % 3 to 2;
#: and 2**53 + 1 routes to 0 where its float, 2**53, routes to 2
KEYED_PARTITIONS = 3
#: checkpointed ids: the extremes, then three 4096-row blocks per
#: partition; the overlay adds new ids, a duplicate and 2**53 + 1
DISK_IDS = [INT64_MIN, 2**53, *range(-15_000, 15_000)]
OVERLAY_IDS = [2**53 + 1, 20_000, 20_001, 20_002, 4, -15_003]
LOOKUPS = [
    *(f"id = {key}" for key in (0, 1, 2, 4, 20_001, -15_003)),
    "id = 123456789",  # absent
    "id = -7",  # negative, on disk
    "id = -8",
    f"id = {INT64_MIN}",
    f"id = {2**53 + 1}",
    f"id = {2**53}",
    "id = 2.5",  # never equal to an INTEGER
    "id = 3 AND id = 4",  # contradiction
    "id = 3 AND x > 0.0",
]


def _keyed_rows(ids: list[int]) -> str:
    return ", ".join(f"({key}, {(key % 97) / 8})" for key in ids)


def _open_keyed(path: str, shards: int):
    return repro.connect(shards=shards, parallelism=2, path=path)


@pytest.fixture(scope="module")
def keyed_engines(tmp_path_factory):
    opened = {}
    for shards in (0, 1, 2, 3):
        path = str(tmp_path_factory.mktemp(f"keyed{shards}") / "db")
        db = _open_keyed(path, shards)
        db.execute(
            "CREATE TABLE keyed (id INTEGER, x FLOAT) "
            f"PARTITION BY (id) PARTITIONS {KEYED_PARTITIONS}"
        )
        table = db.table("keyed")
        ids = np.array(DISK_IDS, dtype=np.int64)
        table.append_batch(
            VectorBatch.from_dict(
                table.schema,
                {"id": ids, "x": ((ids % 97) / 8).astype(np.float32)},
            )
        )
        db.close()  # checkpoints
        db = _open_keyed(path, shards)
        db.execute(f"INSERT INTO keyed VALUES {_keyed_rows(OVERLAY_IDS)}")
        publish_model(
            db,
            "mk",
            Sequential([Dense(2, "relu"), Dense(1, "sigmoid")],
                       input_width=1, seed=4),
        )
        opened[shards] = _Engine(db)
    yield opened
    for engine in opened.values():
        engine.close()


def _expected_ids(predicate: str) -> list[int]:
    matches = {
        "id = 2.5": [],
        "id = 3 AND id = 4": [],
        "id = 3 AND x > 0.0": [3],
    }
    if predicate in matches:
        return matches[predicate]
    key = int(predicate.removeprefix("id = "))
    return [key] * (DISK_IDS + OVERLAY_IDS).count(key)


@pytest.mark.parametrize("predicate", LOOKUPS)
@pytest.mark.parametrize("modeljoin", [False, True])
def test_partition_key_lookups_agree(keyed_engines, predicate, modeljoin):
    if modeljoin:
        sql = (
            "SELECT id, x, prediction_0 FROM keyed MODEL JOIN mk "
            f"USING (x) WHERE {predicate}"
        )
    else:
        sql = f"SELECT id, x FROM keyed WHERE {predicate}"
    query = Query(sql, ordered=False, parallel_ok=True)
    reference_db = keyed_engines[0].db
    reference_db.planner_options = PlannerOptions(use_block_pruning=False)
    try:
        reference = reference_db.execute(sql)
    finally:
        reference_db.planner_options = PlannerOptions()
    assert sorted(row[0] for row in reference.rows) == _expected_ids(
        predicate
    )
    for shards, engine in keyed_engines.items():
        for path, result in _paths(engine, query).items():
            _assert_agree(
                reference,
                result,
                ordered=False,
                tolerant=False,
                label=f"{path} shards={shards}: {sql}",
            )


def test_key_lookup_reads_one_partition(keyed_engines):
    """An equality on the key skips every block of the other partitions."""
    db = keyed_engines[0].db
    table = db.table("keyed")
    for key in (1, INT64_MIN, 2**53 + 1):
        result = db.execute(f"SELECT id FROM keyed WHERE id = {key}")
        assert result.column("id").tolist() == [key]
        counters = result.profile.counters
        blocks = sum(
            len(partition.blocks()) for partition in table.partitions
        )
        assert counters.get("scan.blocks_scanned") == 1, key
        assert counters.get("scan.blocks_skipped") == blocks - 1, key
