"""Cross-query model build cache: hits, invalidation, correctness."""

import random
import statistics
import sys
import threading

import numpy as np
import pytest

import repro
from repro.core.modeljoin.cache import CacheKey, ModelCache
from repro.core.modeljoin.runner import NativeModelJoin
from repro.core.registry import publish_model
from repro.nn.layers import Dense
from repro.nn.model import Sequential

ROWS = 600
COLD_WARM_PAIRS = 7


def make_db(parallelism: int = 1):
    db = repro.connect(parallelism=parallelism)
    db.execute(
        "CREATE TABLE fact (id BIGINT, f0 FLOAT, f1 FLOAT, f2 FLOAT) "
        "PARTITION BY (id) PARTITIONS "
        f"{max(parallelism, 1)}"
    )
    rng = np.random.default_rng(11)
    db.table("fact").append_columns(
        id=np.arange(ROWS, dtype=np.int64),
        f0=rng.random(ROWS, dtype=np.float32),
        f1=rng.random(ROWS, dtype=np.float32),
        f2=rng.random(ROWS, dtype=np.float32),
    )
    return db


def make_model(seed: int = 1) -> Sequential:
    return Sequential(
        [Dense(8, "relu"), Dense(2, "sigmoid")], input_width=3, seed=seed
    )


def run_query(db):
    """One ModelJoin query; returns (predictions, profile)."""
    runner = NativeModelJoin(db, "m")
    predictions = runner.predict(
        "fact", "id", ["f0", "f1", "f2"], parallel=db.parallelism > 1
    )
    return predictions, runner.last_profile


class TestWarmQueries:
    def test_second_query_hits_cache(self):
        db = make_db()
        publish_model(db, "m", make_model())
        cold_predictions, cold_profile = run_query(db)
        warm_predictions, warm_profile = run_query(db)
        assert cold_profile.counters.get("cache.misses") == 1
        assert cold_profile.counters.get("cache.hits") == 0
        assert warm_profile.counters.get("cache.hits") == 1
        assert warm_profile.counters.get("cache.misses") == 0
        np.testing.assert_array_equal(cold_predictions, warm_predictions)
        db.close()

    def test_warm_build_phase_near_zero(self):
        # One cold/warm pair is a single timing sample and flickers
        # under load; the median ratio over several pairs does not.
        # Re-publishing the model gives its table a fresh identity, so
        # every pair's first query is a genuine cold build.
        db = make_db()
        ratios = []
        for _ in range(COLD_WARM_PAIRS):
            publish_model(db, "m", make_model(), replace=True)
            _, cold_profile = run_query(db)
            _, warm_profile = run_query(db)
            assert cold_profile.counters.get("cache.misses") == 1
            assert warm_profile.counters.get("cache.hits") == 1
            cold_build = cold_profile.stopwatch.phases["modeljoin-build"]
            warm_build = warm_profile.stopwatch.phases["modeljoin-build"]
            ratios.append(warm_build / cold_build)
        assert statistics.median(ratios) < 1 / 5
        db.close()

    def test_cached_predictions_match_uncached_engine(self):
        cached = make_db()
        publish_model(cached, "m", make_model())
        run_query(cached)  # populate
        warm_predictions, _ = run_query(cached)

        uncached = make_db()
        uncached.model_cache = None
        publish_model(uncached, "m", make_model())
        plain_predictions, plain_profile = run_query(uncached)
        assert plain_profile.counters.get("cache.hits") == 0
        assert plain_profile.counters.get("cache.misses") == 0
        np.testing.assert_array_equal(warm_predictions, plain_predictions)
        cached.close()
        uncached.close()

    def test_parallel_pipelines_share_one_hit(self):
        db = make_db(parallelism=4)
        publish_model(
            db, "m", make_model(), model_table_partitions=4
        )
        run_query(db)
        warm_predictions, warm_profile = run_query(db)
        # One decision per query, not one per pipeline — a split
        # decision would deadlock on the build barrier.
        assert warm_profile.counters.get("cache.hits") == 1
        assert len(warm_predictions) == ROWS
        db.close()

    def test_sql_model_join_uses_the_same_cache(self):
        db = make_db()
        publish_model(db, "m", make_model())
        run_query(db)  # native API populates the cache
        db.execute(
            "SELECT id, m.prediction_0 FROM fact "
            "MODEL JOIN m USING (f0, f1, f2)"
        )
        assert db.last_profile.counters.get("cache.hits") == 1
        db.close()


class TestInvalidation:
    def test_insert_into_model_table_misses_and_changes_predictions(self):
        db = make_db()
        publish_model(db, "m", make_model())
        before, _ = run_query(db)
        run_query(db)  # warm: entry definitely resident

        # Overwrite one weight: rows fill by (node_in, node) coordinates
        # and later rows win, so re-inserting an existing coordinate
        # with a new w_i value changes the rebuilt model.
        table = db.table("m_table")
        batch = next(table.scan())
        row = list(batch.to_rows()[len(batch) // 2])
        weight_position = table.schema.position_of("w_i")
        row[weight_position] = float(row[weight_position]) + 5.0
        version_before = table.version
        table.append_rows([tuple(row)])
        assert table.version == version_before + 1

        after, profile = run_query(db)
        assert profile.counters.get("cache.misses") == 1
        assert profile.counters.get("cache.hits") == 0
        assert not np.array_equal(before, after)
        db.close()

    def test_reregister_invalidates_and_changes_predictions(self):
        db = make_db()
        publish_model(db, "m", make_model(seed=1))
        before, _ = run_query(db)
        publish_model(db, "m", make_model(seed=2), replace=True)
        after, profile = run_query(db)
        assert profile.counters.get("cache.misses") == 1
        assert not np.array_equal(before, after)
        db.close()

    def test_drop_table_evicts_entries(self):
        db = make_db()
        publish_model(db, "m", make_model())
        run_query(db)
        assert len(db.model_cache) == 1
        db.execute("DROP TABLE m_table")
        assert len(db.model_cache) == 0
        assert db.model_cache.statistics()["invalidations"] == 1
        assert db.model_cache.resident_bytes == 0
        db.close()

    def test_recreated_table_cannot_alias_old_entry(self):
        db = make_db()
        publish_model(db, "m", make_model(seed=1))
        run_query(db)
        old_uid = db.table("m_table").uid
        db.execute("DROP TABLE m_table")
        publish_model(db, "m", make_model(seed=2))
        # Same name, fresh identity: version counters restart but the
        # uid differs, so even a stale entry could never match.
        assert db.table("m_table").uid != old_uid
        _, profile = run_query(db)
        assert profile.counters.get("cache.misses") == 1
        db.close()


class _StubModel:
    def __init__(self, nbytes: int):
        self._nbytes = nbytes

    def nominal_bytes(self) -> int:
        return self._nbytes


def stub_key(tag: int) -> CacheKey:
    return CacheKey(
        model_table="t",
        table_uid=tag,
        table_version=0,
        model_name="m",
        device="cpu",
        vector_size=1024,
        replicate_bias=True,
    )


class TestCacheDataStructure:
    def test_lru_eviction_respects_capacity(self):
        cache = ModelCache(capacity_bytes=250)
        cache.put(stub_key(1), _StubModel(100))
        cache.put(stub_key(2), _StubModel(100))
        cache.get(stub_key(1))  # make key 2 the LRU entry
        cache.put(stub_key(3), _StubModel(100))
        assert cache.get(stub_key(2)) is None
        assert cache.get(stub_key(1)) is not None
        assert cache.get(stub_key(3)) is not None
        assert cache.statistics()["evictions"] == 1
        assert cache.resident_bytes <= 250

    def test_oversized_build_not_retained(self):
        cache = ModelCache(capacity_bytes=50)
        cache.put(stub_key(1), _StubModel(100))
        assert len(cache) == 0
        assert cache.resident_bytes == 0

    def test_invalidate_table_releases_bytes(self):
        cache = ModelCache()
        cache.put(stub_key(1), _StubModel(100))
        removed = cache.invalidate_table("T")  # case-insensitive
        assert removed == 1
        assert cache.resident_bytes == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ModelCache(capacity_bytes=-1)


# ----------------------------------------------------------------------
# concurrency: hits are verified outside the cache and query locks
# ----------------------------------------------------------------------
class _BlockingChecksum:
    """Stands in for ``model_checksum``; counts calls and can stall one.

    A call on the build registered as *stalled* signals ``entered`` and
    waits for ``release`` before delegating (or, with ``wrong`` set,
    returning a checksum that cannot match).
    """

    def __init__(self, original):
        self.original = original
        self.calls = 0
        self.stalled = None
        self.wrong = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, built) -> int:
        self.calls += 1
        if built is self.stalled:
            self.entered.set()
            assert self.release.wait(10), "checksum never released"
            if self.wrong:
                return self.original(built) + 1
        return self.original(built)


@pytest.fixture
def blocking_checksum(monkeypatch):
    from repro.core.modeljoin import cache as cache_module

    checksum = _BlockingChecksum(cache_module.model_checksum)
    monkeypatch.setattr(cache_module, "model_checksum", checksum)
    yield checksum
    checksum.release.set()


def _in_thread(target) -> tuple[threading.Thread, list]:
    outcome: list = []

    def run() -> None:
        try:
            outcome.append(target())
        except BaseException as error:  # re-raised by the test
            outcome.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def _score(db, model: str):
    return db.execute(
        f"SELECT id, prediction_0 FROM fact MODEL JOIN {model} "
        "USING (f0, f1, f2) WHERE id = 7"
    ).rows


def _cached(db, model: str):
    return next(
        built
        for key, built in db.model_cache.entries()
        if key.model_name == model
    )


class TestConcurrentHits:
    def _warm(self):
        db = make_db(parallelism=2)
        publish_model(db, "m1", make_model(seed=1))
        publish_model(db, "m2", make_model(seed=2))
        expected = {name: _score(db, name) for name in ("m1", "m2")}
        return db, expected

    def test_stalled_hit_blocks_neither_statistics_nor_other_queries(
        self, blocking_checksum
    ):
        db, expected = self._warm()
        blocking_checksum.stalled = _cached(db, "m1")
        stalled, stalled_rows = _in_thread(lambda: _score(db, "m1"))
        assert blocking_checksum.entered.wait(10)
        # The stalled hit holds neither the cache lock ...
        statistics, stats_out = _in_thread(db.model_cache.statistics)
        statistics.join(5)
        assert not statistics.is_alive()
        assert stats_out[0]["entries"] == 2
        # ... nor a lock another query's ModelJoin decision needs.
        other, other_rows = _in_thread(lambda: _score(db, "m2"))
        other.join(10)
        assert not other.is_alive()
        assert other_rows == [expected["m2"]]
        assert stalled.is_alive()
        blocking_checksum.release.set()
        stalled.join(10)
        assert stalled_rows == [expected["m1"]]
        db.close()

    def test_quarantine_spares_an_entry_put_meanwhile(
        self, blocking_checksum
    ):
        cache = ModelCache()
        key = stub_key(1)
        stale, fresh = _StubModel(100), _StubModel(40)
        cache.put(key, stale)
        blocking_checksum.stalled = stale
        blocking_checksum.wrong = True  # the stale entry fails its check
        lookup, found = _in_thread(lambda: cache.get(key))
        assert blocking_checksum.entered.wait(10)
        assert cache.invalidate_table("t") == 1
        cache.put(key, fresh)
        blocking_checksum.release.set()
        lookup.join(10)
        assert found == [None]  # the corrupt build is never served
        statistics = cache.statistics()
        assert statistics["corruptions"] == 1
        assert statistics["entries"] == 1
        assert cache.resident_bytes == 40
        assert cache.get(key) is fresh

    @pytest.mark.parametrize("parallel", [False, True])
    def test_every_hit_checksums_exactly_once(
        self, blocking_checksum, parallel
    ):
        db, _ = self._warm()
        before = db.model_cache.statistics()["hits"]
        calls = blocking_checksum.calls
        for model in ("m1", "m2", "m1", "m1"):
            db.execute(
                f"SELECT id, prediction_0 FROM fact MODEL JOIN {model} "
                "USING (f0, f1, f2)",
                parallel=parallel,
            )
        hits = db.model_cache.statistics()["hits"] - before
        assert hits == 4
        assert blocking_checksum.calls - calls == hits
        db.close()

    def test_stress_keeps_counts_and_bytes_consistent(self):
        """Many threads, a tiny switch interval: no lost update."""
        cache = ModelCache(capacity_bytes=350)
        keys = [stub_key(tag) for tag in range(6)]
        gets = [0] * 8

        def worker(index: int) -> None:
            rng = random.Random(index)
            for _ in range(2000):
                key, roll = rng.choice(keys), rng.random()
                if roll < 0.6:
                    cache.get(key)
                    gets[index] += 1
                elif roll < 0.95:
                    cache.put(key, _StubModel(100))
                else:
                    cache.invalidate_table("t")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(len(gets))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        statistics = cache.statistics()
        assert statistics["hits"] + statistics["misses"] == sum(gets)
        assert statistics["corruptions"] == 0
        assert cache.resident_bytes == 100 * statistics["entries"] <= 350
