"""Block selection: zone-map arrays agree with the per-block check.

``select_blocks`` prunes the sealed blocks of a disk partition with one
NumPy mask over their footer zone maps and checks overlay blocks one by
one.  Property: on random ranges (open bounds, columns without
statistics, NaN-bearing statistics, partition-key equalities) it keeps
exactly the blocks :func:`stats_may_match` keeps, in the partition the
key routes to — for the live table and for a snapshot of it — and the
planner's zone-map estimate equals the rows of the blocks a scan reads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.db.column import ColumnRange, stats_may_match
from repro.db.operators.base import ExecutionContext
from repro.db.operators.scan import TableScan, select_blocks
from repro.db.plan.logical import _zone_map_row_estimate
from repro.db.table import key_partition

DISK_ROWS = 30_000
OVERLAY_ROWS = 5_000


def _columns(ids: np.ndarray, rng) -> dict:
    f = ((ids // 4096) * 10 + rng.random(len(ids))).astype(np.float32)
    f[::97] = np.nan  # some blocks carry NaN statistics
    return {
        "id": ids,
        "f": f,
        "d": rng.standard_normal(len(ids)),
        "tag": np.array([f"t{i % 7}" for i in ids], dtype=object),
    }


@pytest.fixture(scope="module")
def database(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("selection") / "db")
    db = repro.connect(path=path)
    db.execute(
        "CREATE TABLE fact (id INTEGER, f FLOAT, d DOUBLE, tag VARCHAR) "
        "PARTITION BY (id) PARTITIONS 3"
    )
    rng = np.random.default_rng(3)
    db.table("fact").append_columns(
        **_columns(np.arange(DISK_ROWS, dtype=np.int64), rng)
    )
    db.close()
    db = repro.connect(path=path)
    overlay = np.arange(DISK_ROWS, DISK_ROWS + OVERLAY_ROWS, dtype=np.int64)
    db.table("fact").append_columns(**_columns(overlay, rng))
    yield db
    db.close()


bounds = {
    "id": st.integers(-10, DISK_ROWS + OVERLAY_ROWS + 10).map(float),
    "f": st.floats(-5.0, 100.0),
    "d": st.floats(-4.0, 4.0),
    "tag": st.floats(-1.0, 1.0),  # no statistics: never prunes
}


@st.composite
def column_ranges(draw) -> list[ColumnRange]:
    ranges = []
    for column in draw(st.lists(st.sampled_from(sorted(bounds)), max_size=3)):
        low = draw(st.none() | bounds[column])
        high = draw(st.none() | bounds[column])
        ranges.append(ColumnRange(column, low, high))
    if draw(st.booleans()):
        key = draw(st.integers(-3, DISK_ROWS + OVERLAY_ROWS + 3))
        ranges.append(ColumnRange("id", float(key), float(key), key))
    return ranges


def _per_block(table, ranges) -> list:
    """The reference: every block of the routed partitions, one by one."""
    routed = key_partition(table, ranges)
    return [
        (index, [
            block
            for block in partition.blocks()
            if stats_may_match(block.stats, table.schema, ranges)
        ])
        for index, partition in enumerate(table.partitions)
        if routed is None or index == routed
    ]


def _assert_same_blocks(selection, expected) -> None:
    got = [(index, [id(b) for b in blocks])
           for index, blocks in selection.partitions]
    want = [(index, [id(b) for b in blocks]) for index, blocks in expected]
    assert got == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ranges=column_ranges())
def test_array_selection_matches_per_block_check(database, ranges):
    live = database.table("fact")
    with database.snapshot() as snapshot:
        frozen = snapshot.catalog.table("fact")
        for table in (live, frozen):
            selection = select_blocks(table, ranges)
            expected = _per_block(table, ranges)
            _assert_same_blocks(selection, expected)
            total = sum(len(p.blocks()) for p in table.partitions)
            kept = sum(len(blocks) for _, blocks in expected)
            assert selection.skipped == total - kept


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ranges=column_ranges())
def test_zone_map_estimate_is_rows_scanned(database, ranges):
    table = database.table("fact")
    scan = TableScan(ExecutionContext(), table, ranges=ranges)
    for _ in scan.batches():
        pass
    assert _zone_map_row_estimate(table, ranges) == scan.rows_emitted
