import numpy as np
import pytest

from repro.db.column import ColumnRange
from repro.db.operators.base import ExecutionContext
from repro.db.operators.scan import TableScan
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import SqlType
from repro.errors import DatabaseError


@pytest.fixture
def schema() -> Schema:
    return Schema.of(("id", SqlType.INTEGER), ("v", SqlType.FLOAT))


def fill(table: Table, n: int) -> None:
    table.append_columns(
        id=np.arange(n, dtype=np.int64),
        v=np.arange(n, dtype=np.float32),
    )


class TestBasics:
    def test_row_count(self, schema):
        table = Table("t", schema)
        fill(table, 10)
        assert table.row_count == 10

    def test_append_rows(self, schema):
        table = Table("t", schema)
        table.append_rows([(1, 2.0), (2, 4.0)])
        rows = [row for batch in table.scan() for row in batch.to_rows()]
        assert rows == [(1, 2.0), (2, 4.0)]

    def test_invalid_partition_count(self, schema):
        with pytest.raises(DatabaseError):
            Table("t", schema, num_partitions=0)

    def test_unknown_partition_key(self, schema):
        from repro.errors import BindError

        with pytest.raises(BindError):
            Table("t", schema, partition_key="nope")

    def test_nominal_bytes_grows(self, schema):
        table = Table("t", schema)
        before = table.nominal_bytes()
        fill(table, 100)
        assert table.nominal_bytes() > before


class TestPartitioning:
    def test_hash_partitioning_covers_all_rows(self, schema):
        table = Table("t", schema, num_partitions=4, partition_key="id")
        fill(table, 1000)
        assert (
            sum(partition.row_count for partition in table.partitions)
            == 1000
        )
        # Unique key => reasonably balanced partitions.
        counts = [partition.row_count for partition in table.partitions]
        assert min(counts) > 0

    def test_hash_routing_is_deterministic(self, schema):
        table = Table("t", schema, num_partitions=3, partition_key="id")
        fill(table, 30)
        for index, partition in enumerate(table.partitions):
            for batch in partition.scan():
                assert (batch.column("id") % 3 == index).all()

    def test_round_robin_without_key(self, schema):
        table = Table("t", schema, num_partitions=3)
        fill(table, 10)
        counts = [partition.row_count for partition in table.partitions]
        assert sorted(counts) == [3, 3, 4]

    def test_partition_preserves_relative_order(self, schema):
        table = Table(
            "t",
            schema,
            num_partitions=4,
            partition_key="id",
            sort_key=("id",),
        )
        fill(table, 500)
        for partition in table.partitions:
            ids = np.concatenate(
                [batch.column("id") for batch in partition.scan()]
            )
            assert (np.diff(ids) > 0).all()

    def test_scan_partition_out_of_range(self, schema):
        from repro.errors import ExecutionError

        table = Table("t", schema, num_partitions=2)
        with pytest.raises(ExecutionError):
            list(table.scan_partition(5))


class TestScan:
    def test_scan_respects_vector_size(self, schema):
        table = Table("t", schema, block_size=64)
        fill(table, 200)
        sizes = [len(batch) for batch in table.scan(vector_size=50)]
        assert max(sizes) <= 50
        assert sum(sizes) == 200

    def test_scan_with_pruning_skips_blocks(self, schema):
        table = Table("t", schema, block_size=10)
        fill(table, 100)
        scan = TableScan(
            ExecutionContext(), table, ranges=[ColumnRange("id", 95, None)]
        )
        batches = list(scan.batches())
        total = sum(len(batch) for batch in batches)
        # Only the last block (ids 90..99) survives pruning.
        assert total == 10

    def test_pruning_never_loses_matching_rows(self, schema):
        table = Table("t", schema, block_size=7)
        fill(table, 100)
        scan = TableScan(
            ExecutionContext(), table, ranges=[ColumnRange("id", 50, 60)]
        )
        batches = list(scan.batches())
        ids = np.concatenate([batch.column("id") for batch in batches])
        assert set(range(50, 61)) <= set(ids.tolist())
