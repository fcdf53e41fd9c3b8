"""MVCC-lite snapshots: pinned, immutable views of a database.

A :class:`DatabaseSnapshot` captures, at one instant, an immutable view
of every user table — a :class:`FrozenTable` whose partitions hold a
frozen list of sealed blocks — inside a read-only
:class:`~repro.db.catalog.Catalog` clone that the planner consumes
exactly like the live catalog.  Because sealed blocks are immutable
(memory blocks by construction, disk blocks because the backing
generation directory is *pinned*), a query planned against the snapshot
sees bit-exactly the state at capture time no matter how many appends,
checkpoints or generation publishes happen concurrently:

* **Memory tables** — :meth:`~repro.db.table.Partition.blocks` seals
  the pending buffer and returns the sealed blocks; appends only ever
  add *new* blocks, so the captured list is a stable prefix.
* **Disk tables** — the snapshot pins the current checkpoint
  generation in the :class:`~repro.db.storage.store.StorageEngine`
  (refcounted).  A later checkpoint publishes a *fresh* generation
  directory and retires the old one, but the storage layer defers
  closing and deleting a pinned generation until its last pin drops
  (see ``StorageEngine.unpin_generations``), so the snapshot's block
  readers stay valid for the snapshot's whole lifetime.

Capture happens under the engine's ``catalog_lock`` — the same lock
writers hold for the whole mutating statement and ``checkpoint`` holds
while swapping partitions — so a snapshot can never observe a write or
a generation publish half-applied (no torn reads across partitions or
tables).

The serving layer (:mod:`repro.db.serve`) gives every admitted read
query such a snapshot; release is mandatory (use the context manager)
so pinned generations are garbage-collected promptly.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.db.catalog import Catalog
from repro.db.table import scan_blocks
from repro.db.vector import VECTOR_SIZE, VectorBatch
from repro.errors import ExecutionError


class FrozenPartition:
    """An immutable view of one partition's sealed blocks.

    The source's zone-map arrays (disk partitions) are shared, not
    copied: they are captured in the same step as the block list, so
    the view prunes exactly the blocks it holds.
    """

    def __init__(self, partition):
        self.schema = partition.schema
        zone_maps, others = partition.zone_maps()
        self._zone_maps = zone_maps
        self._others = list(others)
        self._rows = sum(block.length for block in self._others) + (
            zone_maps.rows if zone_maps is not None else 0
        )

    @property
    def row_count(self) -> int:
        return self._rows

    def blocks(self) -> list:
        if self._zone_maps is None:
            return list(self._others)
        return list(self._zone_maps.blocks) + self._others

    def zone_maps(self) -> tuple:
        return self._zone_maps, self._others

    def nominal_bytes(self) -> int:
        return sum(block.nominal_bytes() for block in self.blocks())

    def append(self, batch: VectorBatch) -> None:
        raise ExecutionError("snapshot partitions are read-only")

    def scan(self, vector_size: int = VECTOR_SIZE) -> Iterator[VectorBatch]:
        return scan_blocks(self, vector_size)


class FrozenTable:
    """A read-only table view duck-typing :class:`~repro.db.table.Table`.

    Carries the source table's ``uid``/``version``, so version-keyed
    caches (the ModelJoin build cache, compiled epilogue kernels) hit
    for snapshot scans exactly as they do for live scans.
    """

    def __init__(self, table):
        self.name = table.name
        self.schema = table.schema
        self.partition_key = table.partition_key
        self.sort_key = table.sort_key
        self.uid = table.uid
        self.version = table.version
        self.disk_resident = table.disk_resident
        self.partitions = [
            FrozenPartition(partition) for partition in table.partitions
        ]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def row_count(self) -> int:
        return sum(partition.row_count for partition in self.partitions)

    def nominal_bytes(self) -> int:
        return sum(
            partition.nominal_bytes() for partition in self.partitions
        )

    def append_batch(self, batch: VectorBatch) -> None:
        raise ExecutionError(
            f"table {self.name!r} is a read-only snapshot; "
            "write through the live catalog"
        )

    def append_columns(self, **columns) -> None:
        raise ExecutionError(
            f"table {self.name!r} is a read-only snapshot; "
            "write through the live catalog"
        )

    def append_rows(self, rows: list[tuple]) -> None:
        raise ExecutionError(
            f"table {self.name!r} is a read-only snapshot; "
            "write through the live catalog"
        )

    def scan_partition(
        self, partition_index: int, vector_size: int = VECTOR_SIZE
    ) -> Iterator[VectorBatch]:
        if not 0 <= partition_index < self.num_partitions:
            raise ExecutionError(
                f"table {self.name!r} has no partition {partition_index}"
            )
        return self.partitions[partition_index].scan(vector_size)

    def scan(self, vector_size: int = VECTOR_SIZE) -> Iterator[VectorBatch]:
        for partition in self.partitions:
            yield from partition.scan(vector_size)


class DatabaseSnapshot:
    """A pinned point-in-time view of a database's user tables.

    ``snapshot.catalog`` is a read-only :class:`Catalog` clone whose
    tables are :class:`FrozenTable` views (sharded-table stubs are kept
    as they are); model registrations and the ``system.*`` provider
    pass through (system tables always render live state — they are
    observability, not data).  Call
    :meth:`release` (or use the snapshot as a context manager) when the
    query finishes, so pinned checkpoint generations can be
    garbage-collected.

    Construction must happen under ``database.catalog_lock`` —
    :meth:`repro.db.engine.Database.snapshot` does this for you.
    """

    def __init__(self, database):
        live = database.catalog
        self._storage = database.storage
        self._pin = (
            self._storage.pin_generations()
            if self._storage is not None
            else None
        )
        self.catalog = Catalog(
            # A sharded table's stub holds no rows to freeze: it stays
            # as is, so fragment planning against the snapshot sees it
            # and dispatches to the shards (which serve their latest
            # state — there is no fleet-wide pinned cut yet).
            tables={
                key: table if table.sharded else FrozenTable(table)
                for key, table in live.tables.items()
            },
            models=dict(live.models),
            # Version bindings are copied too, so `MODEL JOIN m` (and
            # `... VERSION k`) resolved against this snapshot keep the
            # versions current at capture time even while a concurrent
            # retrain publishes (records are frozen dataclasses).
            model_versions={
                name: dict(versions)
                for name, versions in live.model_versions.items()
            },
            current_versions=dict(live.current_versions),
            system_schema=live.system_schema,
        )
        self._released = False

    def release(self) -> None:
        """Unpin the snapshot's checkpoint generations (idempotent)."""
        if self._released:
            return
        self._released = True
        if self._pin is not None:
            self._storage.unpin_generations(self._pin)

    def __enter__(self) -> "DatabaseSnapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()
