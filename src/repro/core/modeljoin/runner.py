"""Direct execution of the native ModelJoin (bench + API convenience).

Builds the minimal physical plan — partition scan of the fact table
feeding the ModelJoin operator — one pipeline per partition, exactly
the shape the engine's parallel executor would produce for
``SELECT * FROM fact MODEL JOIN m``, without the SQL layer in the
measured path.
"""

from __future__ import annotations

import numpy as np

from repro.core.direct import DirectRunner, predictions_by_id
from repro.core.modeljoin.operator import ModelJoinOperator
from repro.db.catalog import ModelMetadata
from repro.db.engine import Database
from repro.db.operators import ExecutionContext
from repro.db.vector import VectorBatch
from repro.device.base import Device
from repro.device.host import HostDevice


class NativeModelJoin(DirectRunner):
    """Runs a registered model with the native operator."""

    def __init__(
        self,
        database: Database,
        model_name: str,
        device: Device | None = None,
        replicate_bias: bool = True,
    ):
        super().__init__(database, device or HostDevice())
        self.metadata: ModelMetadata = database.catalog.model(model_name)
        #: with no explicit device the cost-based variant selector picks
        #: between the in-plan native variants per executed workload
        self._auto_device = device is None
        self.replicate_bias = replicate_bias

    def _device_from_selector(self, tuples: int) -> Device | None:
        """With no explicit device, let the database's cost-based
        variant selector pick between the in-plan native variants."""
        selector = getattr(self.database, "variant_selector", None)
        if selector is None:
            return None
        try:
            estimates = selector.rank(self.metadata, max(tuples, 1))
        except Exception:
            return None
        for estimate in estimates:
            if estimate.variant == "native-cpu":
                return HostDevice()
            if estimate.variant == "native-gpu":
                from repro.device.gpu import SimulatedGpu

                return SimulatedGpu()
        return None

    def execute(
        self,
        fact_table: str,
        input_columns: list[str] | None = None,
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> tuple[list[VectorBatch], ExecutionContext]:
        """Run the ModelJoin; returns output batches and the context."""
        table = self.database.table(fact_table)
        model_table = self.database.table(self.metadata.table_name)
        if self._auto_device:
            chosen = self._device_from_selector(table.row_count)
            if chosen is not None:
                self.device = chosen

        def build(context, scan, partition_index) -> ModelJoinOperator:
            return ModelJoinOperator(
                context,
                scan,
                self.metadata,
                model_table,
                input_columns=input_columns,
                device=self.device,
                partition_index=partition_index,
                replicate_bias=self.replicate_bias,
                model_cache=self.database.model_cache,
            )

        return self._run(
            table,
            build,
            parallel,
            timeout_seconds,
            {"kind": "native-modeljoin", "model": self.metadata.model_name},
        )

    def predict(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str] | None = None,
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> np.ndarray:
        """Predictions ordered by the fact table's unique ID."""
        batches, _ = self.execute(
            fact_table,
            input_columns=input_columns,
            parallel=parallel,
            timeout_seconds=timeout_seconds,
        )
        return predictions_by_id(
            batches, id_column, self.metadata.output_width
        )
