"""Seeded inputs: table rows, model weights, request streams and SQL.

Everything the engine receives is generated here from the workload
seed, so the same seed always produces the same rows, weights and
request sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEATURES = ("sepal_length", "sepal_width", "petal_length", "petal_width")
#: iris-like class means (sepal length/width, petal length/width)
CLASS_MEANS = np.array(
    [[5.01, 3.43, 1.46, 0.25], [5.94, 2.77, 4.26, 1.33],
     [6.59, 2.97, 5.55, 2.03]]
)
CLASS_STDS = np.array(
    [[0.35, 0.38, 0.17, 0.11], [0.52, 0.31, 0.47, 0.20],
     [0.64, 0.32, 0.55, 0.27]]
)

DENSE_WIDTH, DENSE_DEPTH = 128, 4
LSTM_WIDTH, TIME_STEPS = 128, 3
POINT_SQL = "SELECT id, prediction_0 FROM iris MODEL JOIN m WHERE id = {id}"
DENSE_SQL = (
    "SELECT species, COUNT(*), SUM(prediction_0) "
    "FROM iris MODEL JOIN m GROUP BY species"
)
LSTM_SQL = (
    "SELECT bucket, COUNT(*), SUM(prediction_0) "
    "FROM series MODEL JOIN lstm USING (x1, x2, x3) GROUP BY bucket"
)
#: analytics read of ``ingest_serve``: one 4096-row id range
RANGE_ROWS = 4096
RANGE_SQL = (
    "SELECT species, COUNT(*), SUM(prediction_0) FROM iris MODEL JOIN m "
    "WHERE id >= {lo} AND id < {hi} GROUP BY species"
)
#: retrains ``m`` (same architecture) on 2000 rows; the next version
RETRAIN_SQL = (
    "CREATE MODEL m AS RETRAIN DENSE("
    + ", ".join([f"{DENSE_WIDTH} relu"] * DENSE_DEPTH + ["1 sigmoid"])
    + f") ON (SELECT {', '.join(FEATURES)}, species FROM iris "
    "WHERE id < 2000) WITH (epochs=1, batch_size=64, lr=0.01, seed={seed})"
)


@dataclass
class Sizes:
    """Input sizes; ``smoke`` shrinks them for the self-tests."""

    rows: int = 500_000
    windows: int = 50_000
    #: buffer pool cap: about a quarter of the 16 MB iris scan
    pool_bytes: int = 4 << 20
    insert_rows: int = 500

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(rows=20_000, windows=2_000, pool_bytes=256 << 10,
                   insert_rows=50)


def iris_rows(rng: np.random.Generator, start: int, count: int) -> dict:
    """Columns of *count* iris-like rows with ids ``start..start+count``."""
    species = rng.integers(0, 3, size=count)
    features = (
        CLASS_MEANS[species] + rng.normal(size=(count, 4)) * CLASS_STDS[species]
    ).astype(np.float32)
    columns = {"id": np.arange(start, start + count, dtype=np.int64)}
    for index, name in enumerate(FEATURES):
        columns[name] = features[:, index]
    columns["species"] = species.astype(np.int64)
    return columns


def series_rows(rng: np.random.Generator, count: int) -> dict:
    """Pre-windowed noisy sinus series: ``(id, bucket, x1, x2, x3)``."""
    length = count + TIME_STEPS - 1
    phase = rng.uniform(0, 2 * np.pi)
    values = np.sin(2 * np.pi * np.arange(length) / 50.0 + phase)
    values = (values + rng.normal(scale=0.05, size=length)).astype(np.float32)
    columns = {
        "id": np.arange(count, dtype=np.int64),
        "bucket": np.arange(count, dtype=np.int64) % 4,
    }
    for step in range(TIME_STEPS):
        columns[f"x{step + 1}"] = values[step : step + count]
    return columns


def insert_sql(columns: dict) -> str:
    values = ", ".join(
        f"({i}, {a!r}, {b!r}, {c!r}, {d!r}, {s})"
        for i, a, b, c, d, s in zip(
            columns["id"].tolist(),
            *(columns[name].tolist() for name in FEATURES),
            columns["species"].tolist(),
        )
    )
    return f"INSERT INTO iris VALUES {values}"


def skewed_ids(rng: np.random.Generator, rows: int, count: int) -> np.ndarray:
    """Zipf-skewed lookup ids over a seeded permutation of the table."""
    ranks = np.empty(0, dtype=np.int64)
    while len(ranks) < count:
        draw = rng.zipf(1.2, size=count)
        ranks = np.concatenate([ranks, draw[draw <= rows] - 1])
    return rng.permutation(rows)[ranks[:count]]


def repeated_share(ids) -> float:
    """Share of lookups whose id was already looked up earlier."""
    ids = list(ids)
    return 1.0 - len(set(ids)) / len(ids) if ids else 0.0
