"""Tests for the persistent result store and study service (:mod:`repro.store`)."""

from __future__ import annotations

import json
import sqlite3
import threading
import urllib.error
import urllib.request
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Tuple

import pytest

from repro.config import GeneticParameters
from repro.errors import StoreError
from repro.scenarios import Scenario, ScenarioResult, Study, execute_scenario
from repro.scenarios.study import fetch_or_execute
from repro.store import MemoryStore, ResultStore, StoreBackend, create_server
from repro.store.sqlite import STORE_SCHEMA


def smoke_scenario(**changes) -> Scenario:
    """A fast-running paper scenario for the tests."""
    base = Scenario(
        name="store-smoke",
        genetic=GeneticParameters(population_size=16, generations=4),
    )
    return base.derive(**changes) if changes else base


@pytest.fixture(scope="module")
def smoke_result() -> ScenarioResult:
    """One real scenario result, executed once for the whole module."""
    return execute_scenario(smoke_scenario()).summary()


def _put_repeatedly(arguments: Tuple[str, Dict[str, Any], int]) -> int:
    """Process-pool worker: open the store at ``path`` and upsert ``count`` times."""
    path, document, count = arguments
    result = ScenarioResult.from_dict(document)
    with ResultStore(path) as store:
        for _ in range(count):
            store.put(result)
    return count


# -------------------------------------------------------------------- protocol
class TestStoreBackendProtocol:
    def test_memory_store_satisfies_protocol(self):
        assert isinstance(MemoryStore(), StoreBackend)

    def test_result_store_satisfies_protocol(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert isinstance(store, StoreBackend)


# ---------------------------------------------------------------- memory store
class TestMemoryStore:
    def test_round_trip_preserves_identity(self, smoke_result):
        store = MemoryStore()
        store.put(smoke_result)
        assert store.get(smoke_result.fingerprint) is smoke_result
        assert smoke_result.fingerprint in store
        assert len(store) == 1

    def test_hit_miss_counters(self, smoke_result):
        store = MemoryStore()
        assert store.get("absent") is None
        store.put(smoke_result)
        store.get(smoke_result.fingerprint)
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["backend"] == "memory" and stats["path"] is None

    def test_peek_does_not_touch_stats(self, smoke_result):
        store = MemoryStore()
        store.put(smoke_result)
        store.peek(smoke_result.fingerprint)
        store.peek("absent")
        assert store.stats()["hits"] == 0 and store.stats()["misses"] == 0

    def test_gc_max_entries_evicts_least_recently_used(self, smoke_result):
        store = MemoryStore()
        others = [
            execute_scenario(smoke_scenario(name=f"gc{n}", wavelength_count=n)).summary()
            for n in (4, 6)
        ]
        for result in [smoke_result, *others]:
            store.put(result)
        store.get(smoke_result.fingerprint)  # most recently used
        removed = store.gc(max_entries=1)
        assert removed == 2
        assert store.fingerprints() == [smoke_result.fingerprint]
        assert store.stats()["evictions"] == 2

    def test_record_study(self, smoke_result):
        store = MemoryStore()
        store.put(smoke_result)
        store.record_study("demo", [smoke_result.fingerprint])
        store.record_study("demo", [smoke_result.fingerprint])
        assert store.studies() == {"demo": [smoke_result.fingerprint]}


# ---------------------------------------------------------------- sqlite store
class TestResultStore:
    def test_round_trip_equality_and_bit_identical_document(self, tmp_path, smoke_result):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(smoke_result)
            restored = store.get(smoke_result.fingerprint)
        assert restored == smoke_result
        assert restored.to_dict() == smoke_result.to_dict()

    def test_survives_reopen(self, tmp_path, smoke_result):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
        with ResultStore(path) as store:
            assert store.get(smoke_result.fingerprint) == smoke_result

    def test_upsert_by_fingerprint_keeps_one_row(self, tmp_path, smoke_result):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(smoke_result)
            store.put(smoke_result)
            store.put(smoke_result)
            assert len(store) == 1
            assert store.fingerprints() == [smoke_result.fingerprint]

    def test_fingerprint_is_a_content_address(self, tmp_path, smoke_result):
        forged = smoke_result.to_dict()
        forged["fingerprint"] = "0" * 16
        with ResultStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(StoreError, match="content address"):
                store.put(ScenarioResult.from_dict(forged))

    def test_non_result_rejected(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(StoreError, match="ScenarioResult"):
                store.put({"not": "a result"})

    def test_corrupt_file_rejected_with_store_error(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is definitely not a sqlite database" * 30)
        with pytest.raises(StoreError, match="not a readable SQLite database"):
            ResultStore(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "old.sqlite"
        with sqlite3.connect(path) as connection:
            connection.execute(
                "CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            connection.execute(
                "INSERT INTO store_meta (key, value) VALUES ('schema', 'repro.store/0')"
            )
        with pytest.raises(StoreError, match="repro.store/0"):
            ResultStore(path)

    def test_pre_schema_database_rejected(self, tmp_path):
        path = tmp_path / "legacy.sqlite"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE results (fingerprint TEXT PRIMARY KEY)")
        with pytest.raises(StoreError, match="store_meta"):
            ResultStore(path)

    def test_open_does_not_wait_for_another_writer(self, tmp_path, smoke_result):
        """Opening a current-schema store only reads, so a held write lock
        (another process mid-transaction) neither delays nor fails it."""
        path = tmp_path / "busy.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
        writer = sqlite3.connect(path, isolation_level=None)
        try:
            writer.execute("BEGIN IMMEDIATE")
            with ResultStore(path, timeout=0.2) as store:
                assert len(store) == 1
                assert store.peek(smoke_result.fingerprint) == smoke_result
        finally:
            writer.execute("ROLLBACK")
            writer.close()

    def test_corrupt_row_rejected_on_read(self, tmp_path, smoke_result):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE results SET document = 'not json'",
            )
        with ResultStore(path) as store:
            with pytest.raises(StoreError, match="not valid JSON"):
                store.get(smoke_result.fingerprint)

    def test_two_processes_writing_the_same_fingerprint(self, tmp_path, smoke_result):
        path = str(tmp_path / "shared.sqlite")
        document = smoke_result.to_dict()
        with ProcessPoolExecutor(max_workers=2) as pool:
            counts = list(
                pool.map(_put_repeatedly, [(path, document, 25), (path, document, 25)])
            )
        assert counts == [25, 25]
        with ResultStore(path) as store:
            assert len(store) == 1
            assert store.get(smoke_result.fingerprint) == smoke_result

    def test_gc_by_entry_count_and_age(self, tmp_path, smoke_result):
        results = [smoke_result] + [
            execute_scenario(smoke_scenario(name=f"gc{n}", wavelength_count=n)).summary()
            for n in (4, 6)
        ]
        with ResultStore(tmp_path / "s.sqlite") as store:
            for result in results:
                store.put(result)
            assert store.gc(max_age_seconds=3600) == 0
            removed = store.gc(max_entries=1)
            assert removed == 2
            assert len(store) == 1
            assert store.stats()["evictions"] == 2
            assert store.gc(max_age_seconds=0.0) == 1
            assert len(store) == 0

    def test_gc_drops_orphaned_study_rows(self, tmp_path, smoke_result):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(smoke_result)
            store.record_study("demo", [smoke_result.fingerprint])
            store.gc(max_entries=0)
            assert store.studies() == {}

    def test_result_from_another_version_is_a_warm_start_miss(
        self, tmp_path, smoke_result
    ):
        """Fingerprints address the scenario, not the code: results written by
        a different library version must not silently warm-start a study,
        though listings and peek still serve them as archive rows."""
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE results SET repro_version = '0.0.1'")
        with ResultStore(path) as store:
            assert store.get(smoke_result.fingerprint) is None
            assert store.stats()["misses"] == 1
            assert store.peek(smoke_result.fingerprint) == smoke_result
            (row,) = store.rows()
            assert row["repro_version"] == "0.0.1"
            # Re-executing upserts the row back to the current version.
            store.put(smoke_result)
            assert store.get(smoke_result.fingerprint) == smoke_result

    def test_counters_persist_across_instances(self, tmp_path, smoke_result):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
            store.get(smoke_result.fingerprint)
            store.get("absent")
        # A fresh connection (e.g. a later `repro cache stats` invocation)
        # still sees the usage of every earlier process.
        with ResultStore(path) as store:
            stats = store.stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            store.gc(max_entries=0)
        with ResultStore(path) as store:
            assert store.stats()["evictions"] == 1

    def test_stats_and_rows(self, tmp_path, smoke_result):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(smoke_result)
            store.get(smoke_result.fingerprint)
            store.get("absent")
            stats = store.stats()
            assert stats["backend"] == "sqlite"
            assert stats["schema"] == STORE_SCHEMA
            assert stats["entries"] == 1
            assert stats["hits"] == 1 and stats["misses"] == 1
            assert stats["size_bytes"] > 0
            (row,) = store.rows()
            assert row["fingerprint"] == smoke_result.fingerprint
            assert row["access_count"] == 1


# -------------------------------------------------------------- study + store
class TestStudyWithStore:
    def scenarios(self):
        return [
            smoke_scenario(name=f"nw{count}", wavelength_count=count)
            for count in (4, 8)
        ]

    def test_warm_rerun_executes_zero_backends(self, tmp_path, monkeypatch):
        path = tmp_path / "study.sqlite"
        with ResultStore(path) as store:
            cold = Study(self.scenarios(), name="warmup", store=store).run()
        assert cold.store_hits == 0 and cold.store_misses == 2

        import repro.scenarios.study as study_module

        def forbidden(*args, **kwargs):
            raise AssertionError("optimizer backend executed on a warm re-run")

        monkeypatch.setattr(study_module, "execute_scenario", forbidden)
        with ResultStore(path) as store:
            warm = Study(self.scenarios(), name="warmup", store=store).run()
        assert warm.store_hits == 2 and warm.store_misses == 0
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]

    def test_store_telemetry_in_report_rows_and_csv(self, tmp_path):
        path = tmp_path / "study.sqlite"
        with ResultStore(path) as store:
            Study(self.scenarios(), store=store).run()
        with ResultStore(path) as store:
            result = Study(self.scenarios(), store=store).run()
            report = result.report()
        assert result.store_backend == "sqlite"
        assert result.store_path == str(path)
        assert "Result store: sqlite" in report
        assert "2 hit(s), 0 miss(es)" in report
        assert all(row["store_hit"] for row in result.rows())
        csv_path = result.to_csv(tmp_path / "out.csv")
        header, *lines = csv_path.read_text().strip().splitlines()
        assert "store_hit" in header.split(",")
        assert all(line.endswith("True") for line in lines)

    def test_default_memory_store_reports_misses_then_hits(self):
        study = Study([smoke_scenario()])
        first = study.run()
        second = study.run()
        assert (first.store_hits, first.store_misses) == (0, 1)
        assert (second.store_hits, second.store_misses) == (1, 0)
        assert first.results[0] is second.results[0]

    def test_parallel_study_writes_through_the_store(self, tmp_path):
        path = tmp_path / "parallel.sqlite"
        with ResultStore(path) as store:
            Study(self.scenarios(), name="par", store=store).run(parallel=2)
        with ResultStore(path) as store:
            assert len(store) == 2
            assert {
                name: sorted(fingerprints)
                for name, fingerprints in store.studies().items()
            } == {"par": sorted(s.fingerprint() for s in self.scenarios())}

    def test_fetch_or_execute_hits_after_execute(self, tmp_path):
        scenario = smoke_scenario()
        with ResultStore(tmp_path / "s.sqlite") as store:
            first, hit_first = fetch_or_execute(scenario, store=store)
            second, hit_second = fetch_or_execute(scenario, store=store)
        assert (hit_first, hit_second) == (False, True)
        assert first.to_dict() == second.to_dict()

    def test_execute_scenario_writes_through(self, tmp_path):
        scenario = smoke_scenario()
        with ResultStore(tmp_path / "s.sqlite") as store:
            outcome = execute_scenario(scenario, store=store)
            assert store.peek(scenario.fingerprint()) == outcome.summary()

    def test_preseeding_the_cache_skips_execution(self, smoke_result, monkeypatch):
        scenario = Scenario.from_dict(smoke_result.scenario)
        study = Study([scenario])
        study.cache[scenario.fingerprint()] = smoke_result

        import repro.scenarios.study as study_module

        def forbidden(*args, **kwargs):
            raise AssertionError("pre-seeded scenario was re-executed")

        monkeypatch.setattr(study_module, "execute_scenario", forbidden)
        result = study.run()
        assert result.results[0] is smoke_result
        assert result.store_hits == 1

    def test_cache_view_is_dict_like(self, smoke_result):
        scenario = Scenario.from_dict(smoke_result.scenario)
        study = Study([scenario])
        cache = study.cache
        assert len(cache) == 0 and scenario.fingerprint() not in cache
        cache[smoke_result.fingerprint] = smoke_result
        assert len(study.cache) == 1
        assert study.cache[smoke_result.fingerprint] is smoke_result
        assert list(study.cache) == [smoke_result.fingerprint]
        assert dict(study.cache.items()) == {smoke_result.fingerprint: smoke_result}
        assert study.cache.get("absent") is None
        with pytest.raises(KeyError):
            study.cache["absent"]
        with pytest.raises(Exception, match="fingerprint"):
            study.cache["wrong-key"] = smoke_result


# ------------------------------------------------------------------- http api
@pytest.fixture(scope="module")
def api(tmp_path_factory, smoke_result):
    """A live server over a one-result store; yields (port, scenario_fingerprint)."""
    path = tmp_path_factory.mktemp("serve") / "api.sqlite"
    store = ResultStore(path)
    store.put(smoke_result)
    store.record_study("api-study", [smoke_result.fingerprint])
    server = create_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1], smoke_result
    finally:
        server.shutdown()
        server.server_close()
        store.close()


def _get(port: int, path: str):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return response.status, json.loads(response.read())


class TestHttpApi:
    def test_health_and_stats(self, api):
        port, _ = api
        status, payload = _get(port, "/api/v1/health")
        assert status == 200 and payload["status"] == "ok" and payload["entries"] == 1
        status, stats = _get(port, "/api/v1/stats")
        assert status == 200 and stats["backend"] == "sqlite"

    def test_index_lists_endpoints(self, api):
        port, _ = api
        status, payload = _get(port, "/")
        assert status == 200
        assert any("pareto" in endpoint for endpoint in payload["endpoints"])

    def test_result_document_round_trips(self, api):
        port, result = api
        _, listing = _get(port, "/api/v1/results")
        assert listing["results"][0]["fingerprint"] == result.fingerprint
        status, document = _get(port, f"/api/v1/results/{result.fingerprint}")
        assert status == 200
        assert ScenarioResult.from_dict(document) == result

    def test_cached_pareto_front_served_without_reoptimisation(self, api):
        port, result = api
        status, payload = _get(port, f"/api/v1/results/{result.fingerprint}/pareto")
        assert status == 200
        assert payload["pareto_rows"] == [dict(row) for row in result.pareto_rows]

    def test_verification_endpoint(self, api):
        port, result = api
        status, payload = _get(
            port, f"/api/v1/results/{result.fingerprint}/verification"
        )
        assert status == 200
        assert payload["verified"] == result.verified

    def test_studies_listing(self, api):
        port, result = api
        _, studies = _get(port, "/api/v1/studies")
        assert studies["studies"] == {"api-study": [result.fingerprint]}
        status, detail = _get(port, "/api/v1/studies/api-study")
        assert status == 200
        assert detail["results"][0]["name"] == result.name

    def test_post_scenario_returns_fingerprint_and_cached_flag(self, api):
        port, result = api
        scenario = Scenario.from_dict(result.scenario)
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/v1/scenarios",
            data=json.dumps(scenario.to_dict()).encode("utf-8"),
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        assert payload == {
            "fingerprint": result.fingerprint,
            "cached": True,
            "result_url": f"/api/v1/results/{result.fingerprint}",
            "pareto_url": f"/api/v1/results/{result.fingerprint}/pareto",
        }

    def test_post_uncached_scenario(self, api):
        port, _ = api
        scenario = smoke_scenario(name="never-ran", wavelength_count=12)
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/v1/scenarios",
            data=json.dumps(scenario.to_dict()).encode("utf-8"),
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        assert payload["cached"] is False
        assert payload["fingerprint"] == scenario.fingerprint()

    def test_unknown_fingerprint_is_404(self, api):
        port, _ = api
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(port, "/api/v1/results/doesnotexist")
        assert excinfo.value.code == 404
        assert "doesnotexist" in json.loads(excinfo.value.read())["error"]

    def test_invalid_scenario_post_is_400(self, api):
        port, _ = api
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/v1/scenarios",
            data=b'{"schema": "bogus/9"}',
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, api):
        port, _ = api
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(port, "/api/v9/results")
        assert excinfo.value.code == 404

    def test_archived_rows_from_other_versions_are_still_served(
        self, tmp_path, smoke_result
    ):
        """The HTTP service is an archive: get()'s version freshness policy
        applies to warm-starting studies, not to serving stored fronts."""
        path = tmp_path / "archive.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE results SET repro_version = '0.0.1'")
        with ResultStore(path) as store:
            server = create_server(store, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                port = server.server_address[1]
                status, document = _get(
                    port, f"/api/v1/results/{smoke_result.fingerprint}"
                )
                assert status == 200
                assert ScenarioResult.from_dict(document) == smoke_result
            finally:
                server.shutdown()
                server.server_close()

    def test_serving_a_result_counts_as_cache_usage(self, tmp_path, smoke_result):
        """GETs bump hit stats and recency, so gc never evicts served results."""
        with ResultStore(tmp_path / "usage.sqlite") as store:
            store.put(smoke_result)
            server = create_server(store, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                port = server.server_address[1]
                before = store.stats()["hits"]
                _get(port, f"/api/v1/results/{smoke_result.fingerprint}")
                _get(port, f"/api/v1/results/{smoke_result.fingerprint}/pareto")
                assert store.stats()["hits"] == before + 2
                (row,) = store.rows()
                assert row["access_count"] == 2
            finally:
                server.shutdown()
                server.server_close()
