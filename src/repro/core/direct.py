"""Shared execution loop of the programmatic (SQL-free) ModelJoin runners.

:class:`~repro.core.modeljoin.runner.NativeModelJoin` and
:class:`~repro.core.runtime_api.runner.RuntimeApiModelJoin` both build
the plan shape the engine's parallel executor would produce for
``SELECT * FROM fact MODEL JOIN m`` — a partition scan feeding one
inference operator per pipeline — without the SQL layer in the measured
path.  They differ only in that operator; :class:`DirectRunner` does
the rest (context, timeout, device window, ``query`` span, pipelines,
and the engine's query lifecycle, so each run is logged and folded
like a SELECT).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.db.engine import Database
from repro.db.operators import ExecutionContext, PhysicalOperator, TableScan
from repro.db.parallel import run_plans
from repro.db.profiler import QueryProfile
from repro.db.resilience import CancellationToken
from repro.db.table import Table
from repro.db.vector import VectorBatch
from repro.device.base import Device, DeviceWindow

#: builds one pipeline's operator: (context, scan, partition index)
OperatorBuilder = Callable[
    [ExecutionContext, TableScan, int], PhysicalOperator
]


class DirectRunner:
    """Runs a scan → operator pipeline per partition and profiles it."""

    def __init__(self, database: Database, device: Device):
        self.database = database
        self.device = device
        self.last_profile: QueryProfile | None = None
        #: device-adjusted seconds of the last run (see DeviceWindow)
        self.last_seconds: float = 0.0
        #: the last run's pipeline roots (retry instances included)
        self.last_plans: list[PhysicalOperator] = []

    def _run(
        self,
        table: Table,
        build_operator: OperatorBuilder,
        parallel: bool,
        timeout_seconds: float | None,
        span_args: dict,
    ) -> tuple[list[VectorBatch], ExecutionContext]:
        database = self.database
        parallelism = (
            database.parallelism
            if parallel and database.parallelism > 1
            else 1
        )
        cancellation = None
        if timeout_seconds is not None:
            cancellation = CancellationToken.with_timeout(timeout_seconds)
        with database._track_query(
            f"<{span_args['kind']}>",
            parallel=parallelism > 1,
            cancellation=cancellation,
        ) as profile:
            context = database._context(parallelism, profile)
            context.cancellation = cancellation
            tracer = context.tracer

            def build(partition_index: int) -> PhysicalOperator:
                scan_partition = None
                if parallelism > 1 and table.num_partitions > 1:
                    scan_partition = partition_index
                scan = TableScan(
                    context, table, partition_index=scan_partition
                )
                return build_operator(context, scan, partition_index)

            pool = database.worker_pool if parallelism > 1 else None
            with DeviceWindow(self.device) as window:
                with tracer.span(
                    "query",
                    category="query",
                    args={**span_args, "parallel": parallelism > 1},
                ):
                    context.trace_parent = tracer.current_span_id()
                    self.last_plans = [build(i) for i in range(parallelism)]
                    _, batches = run_plans(
                        self.last_plans,
                        pool=pool,
                        morsel_driven=True,
                        plan_builder=build,
                        retries=database.task_retries,
                    )
            profile.rows_returned = sum(len(batch) for batch in batches)
        self.last_seconds = window.seconds
        self.last_profile = profile
        return batches, context


def predictions_by_id(
    batches: list[VectorBatch], id_column: str, width: int
) -> np.ndarray:
    """The ``prediction_i`` columns as a matrix ordered by *id_column*."""
    ids = np.concatenate([batch.column(id_column) for batch in batches])
    order = np.argsort(ids, kind="stable")
    return np.column_stack(
        [
            np.concatenate(
                [batch.column(f"prediction_{index}") for batch in batches]
            )[order]
            for index in range(width)
        ]
    )
