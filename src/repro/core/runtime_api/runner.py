"""Direct execution of the runtime-API integration (TF_CAPI variants)."""

from __future__ import annotations

import numpy as np

from repro.core.direct import DirectRunner, predictions_by_id
from repro.core.runtime_api.operator import RuntimeApiOperator
from repro.db.engine import Database
from repro.db.operators import ExecutionContext
from repro.db.vector import VectorBatch
from repro.device.base import Device
from repro.device.host import HostDevice
from repro.nn.model import Sequential
from repro.nn.runtime import MlRuntime


class RuntimeApiModelJoin(DirectRunner):
    """Runs inference through the embedded ML runtime (paper approach 2).

    Each partition pipeline gets its own runtime session, mirroring the
    per-thread private plans of the engine; the runtime itself (and the
    device) is shared.
    """

    def __init__(
        self,
        database: Database,
        model: Sequential,
        device: Device | None = None,
    ):
        super().__init__(database, device or HostDevice())
        self.model = model
        self.runtime = MlRuntime(self.device)

    def execute(
        self,
        fact_table: str,
        input_columns: list[str],
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> tuple[list[VectorBatch], ExecutionContext]:
        def build(context, scan, _partition_index) -> RuntimeApiOperator:
            return RuntimeApiOperator(
                context,
                scan,
                self.model,
                input_columns=input_columns,
                runtime=self.runtime,
            )

        return self._run(
            self.database.table(fact_table),
            build,
            parallel,
            timeout_seconds,
            {"kind": "runtime-api"},
        )

    def predict(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str],
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> np.ndarray:
        batches, _ = self.execute(
            fact_table,
            input_columns,
            parallel=parallel,
            timeout_seconds=timeout_seconds,
        )
        return predictions_by_id(batches, id_column, self.model.output_width)
