"""Serving — warm ModelJoin queries against the model build cache.

A serving workload repeats the same scoring query against one engine;
the engine-lifetime model cache makes every query after the first skip
the build phase entirely.  Cells benchmark the *warm* latency (the
cold run happens once, outside the timed rounds) and assert the
cache's observable contract: exactly one cache hit per warm query, a
near-zero build phase, and bit-exact predictions.

The sweep with the cold/warm comparison and the JSON evidence is
``python -m repro.bench serving --check-regression``.
"""

import numpy as np
import pytest

from benchmarks.conftest import dense_environment, lstm_environment
from repro.bench.variants import make_variant


def _cold_then_benchmark_warm(benchmark, env):
    variant = make_variant("ModelJoin_CPU")
    variant.prepare(env)
    env.keep_predictions = True
    cold = variant.run(env)  # builds the model, populates the cache
    warm = benchmark.pedantic(
        lambda: variant.run(env), rounds=3, iterations=1, warmup_rounds=1
    )
    cold_build = cold.extra["phases"].get("modeljoin-build", 0.0)
    warm_build = warm.extra["phases"].get("modeljoin-build", 0.0)
    benchmark.extra_info["cold_build_seconds"] = cold_build
    benchmark.extra_info["warm_build_seconds"] = warm_build
    benchmark.extra_info["warm_counters"] = warm.extra["counters"]
    assert warm.extra["counters"].get("cache.hits") == 1
    assert warm_build < cold_build
    assert np.array_equal(warm.predictions, cold.predictions)
    return cold, warm


@pytest.mark.parametrize("width,depth", [(32, 2), (128, 4)])
def test_cache_serving_dense_warm(benchmark, width, depth):
    env = dense_environment(width, depth)
    _cold_then_benchmark_warm(benchmark, env)


def test_cache_serving_lstm_warm(benchmark):
    env = lstm_environment(32)
    _cold_then_benchmark_warm(benchmark, env)


def test_cache_serving_parallel_warm(benchmark):
    """Warm serving on the morsel-driven parallel path."""
    env = dense_environment(64, 4, parallelism=4, parallel=True)
    cold, warm = _cold_then_benchmark_warm(benchmark, env)
    assert warm.extra["counters"].get("morsels", 0) > 0
