"""Coordinator-side stand-in for a table whose rows live on shards.

A :class:`ShardedTable` sits in the coordinator catalog under the
table's name so binding, EXPLAIN and ``system.tables`` keep working
unchanged, but it stores no rows locally: appends hash-route whole
batches to the owning shard processes (the same ``abs(hash) % n`` rule
:class:`~repro.db.table.Table` uses for local partitions, so a table
sharded N ways places every row exactly where an N-partition local
table would), and scanning it at the coordinator is a planning bug that
raises instead of silently returning zero rows — on every path, because
the stub's one local partition raises when its blocks are read.
"""

from __future__ import annotations

from repro.db.schema import Schema
from repro.db.table import Partition, Table, partition_of
from repro.db.vector import VectorBatch
from repro.errors import ShardError


class _StubPartition(Partition):
    """The stub's single local partition: empty, and unreadable.

    Every coordinator-local read — ``Table.scan``, a ``TableScan``
    operator, a morsel queue — goes through :meth:`blocks`, so each
    one raises instead of scanning as empty.
    """

    def __init__(self, table: "ShardedTable"):
        super().__init__(table.schema)
        self._table = table

    def blocks(self):
        raise ShardError(
            f"table {self._table.name!r} is sharded across "
            f"{self._table.shard_count} processes and cannot be scanned "
            "at the coordinator; this query should have been dispatched "
            "through the shard coordinator"
        )


class ShardedTable(Table):
    """A catalog stub routing appends to the shard that owns each row."""

    sharded = True

    def __init__(
        self,
        name: str,
        schema: Schema,
        partition_key: str,
        coordinator,
        sort_key: tuple[str, ...] = (),
    ):
        super().__init__(
            name,
            schema,
            num_partitions=1,
            partition_key=partition_key,
            sort_key=sort_key,
        )
        self._coordinator = coordinator
        self.shard_count = coordinator.shard_count
        # One local partition: enough for the binder/lowering to build
        # coordinator plans and for EXPLAIN, but draining one raises.
        self.partitions = [_StubPartition(self)]
        #: routed-row accounting, kept coordinator-side so row_count /
        #: cost estimates never need a cross-process round trip
        self.rows_per_shard = [0] * self.shard_count

    @property
    def row_count(self) -> int:  # type: ignore[override]
        return sum(self.rows_per_shard)

    def append_batch(self, batch: VectorBatch) -> None:
        if len(batch) == 0:
            return
        self.version += 1
        assignment = partition_of(
            batch.column(self.partition_key), self.shard_count
        )
        for shard_id in range(self.shard_count):
            mask = assignment == shard_id
            if not mask.any():
                continue
            routed = batch.filter(mask)
            self._coordinator.append_to_shard(shard_id, self.name, routed)
            self.rows_per_shard[shard_id] += len(routed)

    def __getstate__(self) -> dict:
        # The stub is never shipped to workers (fragments reference
        # tables by name), but snapshots/pickles of the catalog must
        # not drag a process handle along.
        state = self.__dict__.copy()
        state["_coordinator"] = None
        return state
