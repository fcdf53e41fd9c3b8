"""Partitioned columnar tables.

A :class:`Table` is split into a fixed number of partitions (the paper
runs with 12).  Rows are routed to partitions by hashing the partition
key — a unique key yields balanced partitions and, because the ModelJoin
group key ``(ID, Node)`` is derivable from an ``ID`` partitioning, no
repartitioning is ever needed (paper Section 4.4).

Tables may declare a *sort key*: the engine then trusts (and optionally
verifies) that rows arrive in that order per partition, which unlocks
order-based aggregation downstream.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

import numpy as np

from repro.db.column import (
    BLOCK_SIZE,
    Block,
    BlockBuilder,
    ColumnRange,
    ZoneMaps,
)
from repro.db.schema import Schema
from repro.db.types import SqlType
from repro.db.vector import VECTOR_SIZE, VectorBatch
from repro.errors import DatabaseError, ExecutionError


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def partition_of(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Partition index of each partition-key value: ``abs(key) % n``.

    The one routing rule: inserts place rows with it (and the shard
    coordinator picks shards with it); partition-key pruning finds a
    key's partition with it.  Numeric keys route on their int64 value
    and others on ``hash()``.  NumPy's int64 ``abs`` of the minimum
    value wraps to itself, whose floor modulo differs from Python's
    ``abs(k) % n``, so every caller must compute it here.
    """
    if keys.dtype == object:
        hashes = np.fromiter(
            (hash(key) for key in keys), dtype=np.int64, count=len(keys)
        )
    else:
        hashes = keys.astype(np.int64, copy=False)
    return np.abs(hashes) % num_partitions


def key_partition(table, ranges: list[ColumnRange]) -> int | None:
    """The only partition an equality on the partition key can match.

    Defined for an exact equality with an integer literal on an
    ``INTEGER`` partition key (``range.key``), routed like an insert;
    None means every partition may hold matching rows.
    """
    name = table.partition_key
    if name is None or table.num_partitions == 1:
        return None
    if table.schema.column(name).sql_type is not SqlType.INTEGER:
        return None
    for predicate in ranges:
        if predicate.key is not None and predicate.column.lower() == name.lower():
            if not INT64_MIN <= predicate.key <= INT64_MAX:
                return None
            keys = np.array([predicate.key], dtype=np.int64)
            return int(partition_of(keys, table.num_partitions)[0])
    return None


def scan_blocks(
    partition, vector_size: int = VECTOR_SIZE
) -> Iterator[VectorBatch]:
    """Every block of *partition*, in order, as vectors.

    The one unpruned scan body of memory, snapshot and disk
    partitions.  Pruned scans pick their blocks with
    :func:`repro.db.operators.scan.select_blocks`.
    """
    for block in partition.blocks():
        batch = block.to_batch(partition.schema)
        for start in range(0, len(batch), vector_size):
            yield batch.slice(start, start + vector_size)


class Partition:
    """One horizontal slice of a table, stored as sealed blocks."""

    def __init__(self, schema: Schema, block_size: int = BLOCK_SIZE):
        self.schema = schema
        self._builder = BlockBuilder(schema, block_size)

    @property
    def row_count(self) -> int:
        return self._builder.row_count

    def append(self, batch: VectorBatch) -> None:
        self._builder.append(batch)

    def blocks(self) -> list[Block]:
        return self._builder.all_blocks()

    def zone_maps(self) -> tuple[ZoneMaps | None, list]:
        """Blocks with zone-map arrays, and the blocks checked one by one.

        Memory blocks are all checked one by one; disk partitions
        return their footer zone maps as arrays (see
        :class:`repro.db.storage.store.DiskPartition`).
        """
        return None, self.blocks()

    def nominal_bytes(self) -> int:
        return self._builder.nominal_bytes()

    def scan(self, vector_size: int = VECTOR_SIZE) -> Iterator[VectorBatch]:
        return scan_blocks(self, vector_size)


#: process-wide unique table identities (survives DROP + re-CREATE of
#: the same name, so caches keyed by identity can never alias tables)
_next_table_uid = 0
_uid_lock = threading.Lock()


def _allocate_uid() -> int:
    global _next_table_uid
    with _uid_lock:
        uid = _next_table_uid
        _next_table_uid += 1
        return uid


def ensure_uid_floor(minimum: int) -> None:
    """Never hand out a uid below *minimum* again.

    Reopening a persistent database restores tables with their saved
    uids (version-keyed caches, e.g. the model cache, persist entries
    under them); raising the floor keeps later CREATEs from aliasing a
    restored identity.
    """
    global _next_table_uid
    with _uid_lock:
        _next_table_uid = max(_next_table_uid, minimum)


class Table:
    """A named, partitioned, columnar base table."""

    #: whether the table's partitions read their blocks from column
    #: files (see repro.db.storage); scans account file opens when set
    disk_resident = False
    #: whether the rows live in shard processes and this object is only
    #: the coordinator's catalog stub (see repro.db.shard.tables):
    #: checkpoints and block listings skip it, snapshots keep it as is
    sharded = False

    def __init__(
        self,
        name: str,
        schema: Schema,
        num_partitions: int = 1,
        partition_key: str | None = None,
        sort_key: tuple[str, ...] = (),
        block_size: int = BLOCK_SIZE,
    ):
        if num_partitions < 1:
            raise DatabaseError("a table needs at least one partition")
        if partition_key is not None:
            schema.position_of(partition_key)  # validates existence
        for key in sort_key:
            schema.position_of(key)
        self.name = name
        self.schema = schema
        self.partition_key = partition_key
        self.sort_key = tuple(sort_key)
        self.partitions = [
            Partition(schema, block_size) for _ in range(num_partitions)
        ]
        #: identity that distinguishes this table object from any other
        #: ever created (even under the same name)
        self.uid = _allocate_uid()
        #: data version, bumped on every append — caches derived from
        #: the table's contents key on (uid, version)
        self.version = 0

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def row_count(self) -> int:
        return sum(partition.row_count for partition in self.partitions)

    def nominal_bytes(self) -> int:
        return sum(partition.nominal_bytes() for partition in self.partitions)

    def append_batch(self, batch: VectorBatch) -> None:
        """Route the rows of *batch* to their partitions and store them."""
        if len(batch) == 0:
            return
        self.version += 1
        if self.num_partitions == 1:
            self.partitions[0].append(batch)
            return
        if self.partition_key is None:
            # Round-robin in whole batches keeps insertion order per
            # partition, which is what preserves a declared sort key.
            sizes = np.full(self.num_partitions, len(batch) // self.num_partitions)
            sizes[: len(batch) % self.num_partitions] += 1
            start = 0
            for partition, size in zip(self.partitions, sizes):
                partition.append(batch.slice(start, start + int(size)))
                start += int(size)
            return
        assignment = partition_of(
            batch.column(self.partition_key), self.num_partitions
        )
        for index, partition in enumerate(self.partitions):
            mask = assignment == index
            if mask.any():
                partition.append(batch.filter(mask))

    def append_columns(self, **columns: np.ndarray) -> None:
        """Convenience bulk load from named arrays."""
        batch = VectorBatch.from_dict(self.schema, columns)
        self.append_batch(batch)

    def append_rows(self, rows: list[tuple]) -> None:
        """Load Python row tuples (used by INSERT ... VALUES)."""
        if not rows:
            return
        columns: dict[str, np.ndarray] = {}
        for position, column in enumerate(self.schema):
            values = [row[position] for row in rows]
            if column.sql_type.numpy_dtype == np.dtype(object):
                columns[column.name] = np.array(values, dtype=object)
            else:
                columns[column.name] = np.asarray(
                    values, dtype=column.sql_type.numpy_dtype
                )
        self.append_batch(VectorBatch(self.schema, list(columns.values())))

    def scan_partition(
        self, partition_index: int, vector_size: int = VECTOR_SIZE
    ) -> Iterator[VectorBatch]:
        if not 0 <= partition_index < self.num_partitions:
            raise ExecutionError(
                f"table {self.name!r} has no partition {partition_index}"
            )
        return self.partitions[partition_index].scan(vector_size)

    def scan(self, vector_size: int = VECTOR_SIZE) -> Iterator[VectorBatch]:
        """Scan all partitions in order."""
        for partition in self.partitions:
            yield from partition.scan(vector_size)
