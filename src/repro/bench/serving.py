"""Cold-vs-warm serving benchmark for the ModelJoin build cache.

A serving workload issues the same scoring query repeatedly; with the
engine-lifetime :class:`~repro.core.modeljoin.cache.ModelCache` only
the first query pays the model build, every later one serves the
finalized weights from the cache.  This module measures exactly that:
per model cell it runs one *cold* query against a fresh engine and
several *warm* repeats, and records

* cold and warm end-to-end latency (warm = best of the repeats),
* the ``modeljoin-build`` phase seconds of both,
* the cache hit/miss and morsel counters from the query profiles,
* bit-exactness of warm vs cold predictions **and** vs a run on an
  engine with no cache installed at all.

``python -m repro.bench serving --check-regression`` turns the result
into a gate: it fails when any warm run is not faster than its cold
run (or predictions diverge), which is the observable contract of the
cache.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.bench.harness import BenchConfig
from repro.core.attach import connect
from repro.core.modeljoin.runner import NativeModelJoin
from repro.core.registry import publish_model
from repro.db.tracing import flatten_metrics
from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table
from repro.workloads.models import make_dense_model, make_lstm_model
from repro.workloads.timeseries import load_windowed_series_table

#: warm repeats per cell; the fastest is reported
WARM_REPEATS = 3


def _measure(runner: NativeModelJoin, env: dict) -> dict:
    started = time.perf_counter()
    predictions = runner.predict(
        env["fact_table"],
        env["id_column"],
        env["input_columns"],
        parallel=env["parallel"],
    )
    elapsed = time.perf_counter() - started
    profile = runner.last_profile
    return {
        "seconds": elapsed,
        "build_seconds": profile.stopwatch.phases.get(
            "modeljoin-build", 0.0
        ),
        "counters": profile.counters.snapshot(),
        "predictions": predictions,
    }


def _run_cell(cell: dict, config: BenchConfig) -> dict:
    parallelism = config.parallelism if config.parallel else 1

    def fresh_engine(with_cache: bool = True):
        database = connect(parallelism=parallelism)
        if not with_cache:
            database.model_cache = None
        if cell["kind"] == "dense":
            load_iris_table(
                database,
                cell["rows"],
                num_partitions=parallelism,
            )
            model = make_dense_model(
                cell["width"], cell["depth"], seed=17
            )
            env = {
                "fact_table": "iris",
                "id_column": "id",
                "input_columns": list(FEATURE_COLUMNS),
                "parallel": config.parallel,
            }
        else:
            load_windowed_series_table(
                database,
                cell["rows"],
                time_steps=cell["time_steps"],
                num_partitions=parallelism,
            )
            model = make_lstm_model(
                cell["width"], time_steps=cell["time_steps"], seed=17
            )
            env = {
                "fact_table": "sinus_windows",
                "id_column": "id",
                "input_columns": [
                    f"x{step}" for step in range(1, cell["time_steps"] + 1)
                ],
                "parallel": config.parallel,
            }
        publish_model(database, "serving_model", model, replace=True)
        return database, NativeModelJoin(database, "serving_model"), env

    database, runner, env = fresh_engine()
    cold = _measure(runner, env)
    warm_runs = [_measure(runner, env) for _ in range(WARM_REPEATS)]
    warm = min(warm_runs, key=lambda run: run["seconds"])
    bit_exact_warm = all(
        np.array_equal(run["predictions"], cold["predictions"])
        for run in warm_runs
    )
    cache_stats = database.model_cache.statistics()
    # Engine-lifetime metrics over the cold + warm runs: latency
    # percentiles, cumulative cache hit ratio, build-time histogram.
    engine_metrics = flatten_metrics(database.metrics.snapshot())
    database.close()

    # Reference run on an engine without any cache installed: the
    # cached path must be bit-exact with the plain build-every-time one.
    uncached_db, uncached_runner, uncached_env = fresh_engine(
        with_cache=False
    )
    uncached = _measure(uncached_runner, uncached_env)
    bit_exact_uncached = np.array_equal(
        uncached["predictions"], cold["predictions"]
    )
    uncached_db.close()

    warm_counters = warm["counters"]
    result = {
        "cell": {
            key: value
            for key, value in cell.items()
            if key != "predictions"
        },
        "cold_seconds": cold["seconds"],
        "warm_seconds": warm["seconds"],
        "cold_build_seconds": cold["build_seconds"],
        "warm_build_seconds": warm["build_seconds"],
        "speedup": (
            cold["seconds"] / warm["seconds"]
            if warm["seconds"] > 0
            else float("inf")
        ),
        "cold_counters": cold["counters"],
        "warm_counters": warm_counters,
        "cache_statistics": cache_stats,
        "metrics": engine_metrics,
        "bit_exact_warm": bool(bit_exact_warm),
        "bit_exact_uncached": bool(bit_exact_uncached),
        "warm_cache_hits": warm_counters.get("cache.hits", 0),
        "morsels": warm_counters.get("morsels", 0),
    }
    result["ok"] = (
        result["warm_seconds"] < result["cold_seconds"]
        and result["warm_cache_hits"] == 1
        and result["bit_exact_warm"]
        and result["bit_exact_uncached"]
    )
    return result


def serving_cells(config: BenchConfig) -> list[dict]:
    """The measured model grid: the dense cells plus one LSTM cell."""
    rows = min(config.fact_rows)
    cells = [
        {
            "kind": "dense",
            "rows": rows,
            "width": width,
            "depth": depth,
        }
        for width, depth in config.dense_grid
    ]
    cells.append(
        {
            "kind": "lstm",
            "rows": rows,
            "width": config.lstm_widths[0],
            "depth": 1,
            "time_steps": config.time_steps,
        }
    )
    return cells


def run_cache_serving(config: BenchConfig) -> dict:
    """Run the full serving sweep; returns the JSON-ready report."""
    results = [_run_cell(cell, config) for cell in serving_cells(config)]
    return {
        "experiment": "cache_serving",
        "preset": config.preset,
        "parallel": config.parallel,
        "parallelism": config.parallelism,
        "warm_repeats": WARM_REPEATS,
        "cells": results,
        "ok": all(result["ok"] for result in results),
    }


def format_serving_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_cache_serving` result."""
    from repro.bench.reporting import format_seconds

    title = (
        "Serving — cold vs warm ModelJoin latency "
        f"(preset {report['preset']})"
    )
    lines = [title, "=" * len(title)]
    header = (
        f"{'model':<22} {'cold':>9} {'warm':>9} {'speedup':>8} "
        f"{'build cold':>11} {'build warm':>11} {'hits':>5} {'ok':>4}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for result in report["cells"]:
        cell = result["cell"]
        if cell["kind"] == "dense":
            label = f"dense w={cell['width']} d={cell['depth']}"
        else:
            label = f"lstm w={cell['width']} t={cell['time_steps']}"
        lines.append(
            f"{label:<22} "
            f"{format_seconds(result['cold_seconds']):>9} "
            f"{format_seconds(result['warm_seconds']):>9} "
            f"{result['speedup']:>7.1f}x "
            f"{format_seconds(result['cold_build_seconds']):>11} "
            f"{format_seconds(result['warm_build_seconds']):>11} "
            f"{result['warm_cache_hits']:>5} "
            f"{'yes' if result['ok'] else 'NO':>4}"
        )
    verdict = "PASS" if report["ok"] else "FAIL"
    lines.append(
        f"\nRegression check: {verdict} "
        "(warm < cold, one cache hit, bit-exact predictions)"
    )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
