"""SQLite-backed, content-addressed persistent result store.

:class:`ResultStore` persists full
:class:`~repro.scenarios.study.ScenarioResult` documents keyed by the scenario
fingerprint (the content address — the SHA-256 digest of the canonical
scenario document).  It is the durable
:class:`~repro.store.backend.StoreBackend` implementation:

* **Durability & sharing** — the database runs in WAL journal mode with a
  busy timeout, and every write is an upsert-by-fingerprint, so parallel
  :class:`~repro.scenarios.study.Study` workers and multiple processes can
  point at the same file without clobbering each other.
* **Schema versioning** — the ``store_meta`` table pins :data:`STORE_SCHEMA`;
  opening a corrupt file or one written by a different schema raises a clear
  :class:`~repro.errors.StoreError` instead of silently misreading documents.
* **Integrity** — ``put`` re-derives the fingerprint from the embedded
  scenario document and refuses mismatches; ``get`` validates that the stored
  document still carries the requested fingerprint.
* **Stats & GC** — per-instance hit/miss/eviction counters plus an LRU /
  max-age eviction policy (:meth:`gc`) keep long-lived stores bounded.
* **Job queue** — a durable ``jobs`` table implements the
  :class:`~repro.store.jobs.JobQueue` protocol (``queued → leased →
  done|failed|dead`` with lease/heartbeat columns), so ``POST /jobs``
  submissions survive restarts and any number of ``repro work`` processes
  can claim work from the same file.

The store is thread-safe (one connection guarded by a lock — the threading
HTTP server in :mod:`repro.store.server` shares a single instance) and may be
used as a context manager.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import JobError, StoreError
from ..scenarios.scenario import Scenario
from ..scenarios.study import ScenarioResult
from ..telemetry import get_registry
from .jobs import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    TERMINAL_STATES,
    Job,
    _require_state,
    _scenario_document,
    failure_transition,
    new_job_id,
    note_job_claimed,
    note_job_enqueued,
    note_job_expired_dead,
    note_job_finished,
    summarise_jobs,
)

__all__ = ["MIGRATABLE_SCHEMAS", "STORE_SCHEMA", "ResultStore"]

#: Identifier pinned in every store database; bump on incompatible layouts.
STORE_SCHEMA = "repro.store/2"

#: Older schemas :class:`ResultStore` upgrades in place on open.  ``/2`` only
#: *adds* the ``jobs`` table, so a ``/1`` database migrates losslessly.
MIGRATABLE_SCHEMAS = ("repro.store/1",)

def _current_version() -> str:
    """The installed library version (imported lazily: the package root is
    still initialising when this module loads through the lazy store API)."""
    from .. import __version__

    return __version__


_TABLES = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    fingerprint      TEXT PRIMARY KEY,
    name             TEXT NOT NULL,
    optimizer        TEXT NOT NULL,
    workload         TEXT NOT NULL,
    mapping          TEXT NOT NULL,
    topology         TEXT NOT NULL,
    wavelength_count INTEGER NOT NULL,
    pareto_size      INTEGER NOT NULL,
    runtime_seconds  REAL NOT NULL,
    document         TEXT NOT NULL,
    repro_version    TEXT NOT NULL,
    created_at       REAL NOT NULL,
    accessed_at      REAL NOT NULL,
    access_count     INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS studies (
    study       TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    recorded_at REAL NOT NULL,
    PRIMARY KEY (study, fingerprint)
);
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    state            TEXT NOT NULL,
    fingerprint      TEXT NOT NULL,
    scenario         TEXT NOT NULL,
    priority         INTEGER NOT NULL DEFAULT 0,
    study            TEXT,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    not_before       REAL NOT NULL DEFAULT 0,
    lease_owner      TEXT,
    lease_expires_at REAL,
    heartbeat_at     REAL,
    error            TEXT,
    enqueued_at      REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    updated_at       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_claim_idx
    ON jobs (state, priority DESC, enqueued_at, id);
"""


class ResultStore:
    """Content-addressed SQLite store of scenario results (see module docs)."""

    backend_name = "sqlite"

    def __init__(self, path: str | Path, timeout: float = 30.0) -> None:
        self._path = Path(path)
        self._lock = threading.RLock()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._connection = sqlite3.connect(
                str(self._path), timeout=timeout, check_same_thread=False
            )
        except sqlite3.Error as error:  # pragma: no cover - connect rarely fails
            raise StoreError(f"cannot open result store {self._path}: {error}") from None
        self._connection.row_factory = sqlite3.Row
        try:
            self._initialise(timeout)
        except sqlite3.Error as error:
            self._connection.close()
            raise StoreError(
                f"result store {self._path} is not a readable SQLite database: {error}"
            ) from None
        except StoreError:
            self._connection.close()
            raise

    def _initialise(self, timeout: float) -> None:
        with self._lock, self._connection:
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
            existing = {
                row[0]
                for row in self._connection.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            if existing and "store_meta" not in existing:
                raise StoreError(
                    f"result store {self._path} predates schema tracking "
                    f"(no store_meta table); rebuild it with {STORE_SCHEMA!r}"
                )
            # A store already at the current schema opens with reads only, so
            # opening it never waits for another connection's write lock.
            schema = self._schema() if existing else None
            if schema == STORE_SCHEMA:
                return
            if schema is not None and schema not in MIGRATABLE_SCHEMAS:
                raise self._schema_error(schema)
            self._connection.executescript(_TABLES)
            # INSERT OR IGNORE so two processes racing to initialise a fresh
            # database both succeed; the re-read below validates whatever won.
            self._connection.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES ('schema', ?)",
                (STORE_SCHEMA,),
            )
            self._connection.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES "
                "('created_at', ?)",
                (repr(time.time()),),
            )
            # Hit/miss/eviction counters live in the database, not the
            # connection, so `repro cache stats` sees usage from every process.
            for counter in ("hits", "misses", "evictions"):
                self._connection.execute(
                    "INSERT OR IGNORE INTO store_meta (key, value) VALUES (?, '0')",
                    (counter,),
                )
            schema = self._schema()
            if schema in MIGRATABLE_SCHEMAS:
                # The executescript above already created the tables this
                # schema adds; stamping the new identifier completes the
                # in-place upgrade (older builds will then refuse the file,
                # which is the safe direction).
                self._connection.execute(
                    "UPDATE store_meta SET value = ? WHERE key='schema'",
                    (STORE_SCHEMA,),
                )
            elif schema != STORE_SCHEMA:
                raise self._schema_error(schema)

    def _schema(self) -> Optional[str]:
        """The schema identifier stamped in ``store_meta`` (None before stamping)."""
        row = self._connection.execute(
            "SELECT value FROM store_meta WHERE key='schema'"
        ).fetchone()
        return None if row is None else str(row[0])

    def _schema_error(self, schema: Optional[str]) -> StoreError:
        return StoreError(
            f"result store {self._path} uses schema {schema!r}; "
            f"this build reads {STORE_SCHEMA!r} — run its matching "
            f"version or export/re-import the documents"
        )

    # -------------------------------------------------------------------- meta
    @property
    def path(self) -> Path:
        """Filesystem location of the database."""
        return self._path

    @property
    def location(self) -> Optional[str]:
        return str(self._path)

    @property
    def schema(self) -> str:
        """The schema identifier this store was opened with."""
        return STORE_SCHEMA

    # ---------------------------------------------------------------- documents
    def get(self, fingerprint: str) -> Optional[ScenarioResult]:
        """The stored result for ``fingerprint``; bumps the recency columns.

        A result produced by a *different* library version is a miss: the
        scenario fingerprint addresses the description, not the code that
        evaluated it, so warm-starting across versions would silently serve
        stale fronts.  (:meth:`peek` — listings and the HTTP archive service —
        still returns such rows; :meth:`rows` exposes ``repro_version``.)
        """
        with self._lock:
            row = self._execute(
                "SELECT document, repro_version FROM results WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            with self._connection:
                if row is None or row["repro_version"] != _current_version():
                    self._bump_counter("misses", 1)
                    get_registry().counter(
                        "repro_store_misses_total", backend=self.backend_name
                    ).inc()
                    return None
                self._bump_counter("hits", 1)
                get_registry().counter(
                    "repro_store_hits_total", backend=self.backend_name
                ).inc()
                self._execute(
                    "UPDATE results SET accessed_at = ?, access_count = access_count + 1 "
                    "WHERE fingerprint = ?",
                    (time.time(), fingerprint),
                )
        return self._decode(fingerprint, row["document"])

    def peek(self, fingerprint: str) -> Optional[ScenarioResult]:
        """Like :meth:`get` but without stats, recency or the version policy."""
        with self._lock:
            row = self._execute(
                "SELECT document FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        if row is None:
            return None
        return self._decode(fingerprint, row["document"])

    def touch(self, fingerprint: str) -> None:
        """Record usage of an entry (hit counter + recency), policy-free."""
        with self._lock, self._connection:
            cursor = self._execute(
                "UPDATE results SET accessed_at = ?, access_count = access_count + 1 "
                "WHERE fingerprint = ?",
                (time.time(), fingerprint),
            )
            if cursor.rowcount:
                self._bump_counter("hits", 1)
                get_registry().counter(
                    "repro_store_hits_total", backend=self.backend_name
                ).inc()

    def put(self, result: ScenarioResult) -> None:
        """Insert or replace (upsert) the document under its content address."""
        if not isinstance(result, ScenarioResult):
            raise StoreError(
                f"a result store holds ScenarioResult documents, got "
                f"{type(result).__name__}"
            )
        derived = Scenario.from_dict(result.scenario).fingerprint()
        if derived != result.fingerprint:
            raise StoreError(
                f"result fingerprint {result.fingerprint!r} does not match its "
                f"scenario document (content address {derived!r}); refusing to "
                f"store an inconsistent result"
            )
        # Key order is preserved (no sort_keys): pareto/verification row dicts
        # define the column order of every downstream table and CSV.
        document = json.dumps(result.to_dict())
        now = time.time()
        with self._lock, self._connection:
            self._execute(
                """
                INSERT INTO results (
                    fingerprint, name, optimizer, workload, mapping, topology,
                    wavelength_count, pareto_size, runtime_seconds, document,
                    repro_version, created_at, accessed_at, access_count
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)
                ON CONFLICT(fingerprint) DO UPDATE SET
                    name = excluded.name,
                    optimizer = excluded.optimizer,
                    workload = excluded.workload,
                    mapping = excluded.mapping,
                    topology = excluded.topology,
                    wavelength_count = excluded.wavelength_count,
                    pareto_size = excluded.pareto_size,
                    runtime_seconds = excluded.runtime_seconds,
                    document = excluded.document,
                    repro_version = excluded.repro_version,
                    accessed_at = excluded.accessed_at
                """,
                (
                    result.fingerprint,
                    result.name,
                    result.optimizer,
                    result.workload,
                    result.mapping,
                    result.topology,
                    result.wavelength_count,
                    result.pareto_size,
                    result.runtime_seconds,
                    document,
                    _current_version(),
                    now,
                    now,
                ),
            )
        get_registry().counter(
            "repro_store_puts_total", backend=self.backend_name
        ).inc()

    def _decode(self, fingerprint: str, document: str) -> ScenarioResult:
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as error:
            raise StoreError(
                f"stored document for {fingerprint!r} is not valid JSON: {error}"
            ) from None
        try:
            result = ScenarioResult.from_dict(payload)
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(
                f"stored document for {fingerprint!r} does not decode to a "
                f"ScenarioResult: {error}"
            ) from None
        if result.fingerprint != fingerprint:
            raise StoreError(
                f"stored document under {fingerprint!r} carries fingerprint "
                f"{result.fingerprint!r}; the store row is corrupt"
            )
        return result

    def fingerprints(self) -> List[str]:
        with self._lock:
            rows = self._execute(
                "SELECT fingerprint FROM results ORDER BY created_at, fingerprint"
            ).fetchall()
        return [row["fingerprint"] for row in rows]

    def items(self) -> Iterator[Tuple[str, ScenarioResult]]:
        with self._lock:
            rows = self._execute(
                "SELECT fingerprint, document FROM results "
                "ORDER BY created_at, fingerprint"
            ).fetchall()
        for row in rows:
            yield row["fingerprint"], self._decode(row["fingerprint"], row["document"])

    def rows(self) -> List[Dict[str, Any]]:
        """One flat metadata row per stored result (for listings and CSV)."""
        with self._lock:
            rows = self._execute(
                """
                SELECT fingerprint, name, optimizer, workload, mapping, topology,
                       wavelength_count, pareto_size, runtime_seconds,
                       repro_version, created_at, accessed_at, access_count
                FROM results ORDER BY created_at, fingerprint
                """
            ).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------ studies
    def record_study(self, name: str, fingerprints: Sequence[str]) -> None:
        now = time.time()
        with self._lock, self._connection:
            for fingerprint in fingerprints:
                self._execute(
                    "INSERT OR IGNORE INTO studies (study, fingerprint, recorded_at) "
                    "VALUES (?, ?, ?)",
                    (name, fingerprint, now),
                )

    def studies(self) -> Dict[str, List[str]]:
        with self._lock:
            rows = self._execute(
                "SELECT study, fingerprint FROM studies "
                "ORDER BY recorded_at, study, fingerprint"
            ).fetchall()
        index: Dict[str, List[str]] = {}
        for row in rows:
            index.setdefault(row["study"], []).append(row["fingerprint"])
        return index

    # -------------------------------------------------------------- job queue
    def enqueue(
        self,
        scenario: Union[Scenario, Dict[str, Any]],
        priority: int = 0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        study: Optional[str] = None,
    ) -> Job:
        """Validate and append one scenario job; returns the queued job."""
        fingerprint, document = _scenario_document(scenario)
        now = time.time()
        job_id = new_job_id()
        with self._lock, self._connection:
            self._execute(
                """
                INSERT INTO jobs (
                    id, state, fingerprint, scenario, priority, study,
                    attempts, max_attempts, not_before, enqueued_at, updated_at
                ) VALUES (?, 'queued', ?, ?, ?, ?, 0, ?, ?, ?, ?)
                """,
                (
                    job_id,
                    fingerprint,
                    json.dumps(document),
                    int(priority),
                    study,
                    max(1, int(max_attempts)),
                    now,
                    now,
                    now,
                ),
            )
        note_job_enqueued()
        return self.job(job_id)

    def claim(
        self, worker_id: str, lease_seconds: float = DEFAULT_LEASE_SECONDS
    ) -> Optional[Job]:
        """Atomically lease the next runnable job, or ``None``.

        Runnable means queued with ``not_before`` due, or leased with an
        *expired* lease (a crashed or wedged worker) — re-claiming such a job
        is the crash-recovery path and counts as a fresh attempt.  Expired
        jobs whose attempt budget is already spent are marked dead instead.
        The candidate row is re-checked inside the conditional UPDATE, so
        concurrent workers (threads or processes on the same file) never
        claim the same job twice.
        """
        while True:
            with self._lock, self._connection:
                now = time.time()
                row = self._execute(
                    """
                    SELECT id, state, attempts, max_attempts, started_at FROM jobs
                    WHERE (state = 'queued' AND not_before <= ?)
                       OR (state = 'leased' AND lease_expires_at <= ?)
                    ORDER BY priority DESC, enqueued_at, id LIMIT 1
                    """,
                    (now, now),
                ).fetchone()
                if row is None:
                    return None
                guard = (
                    "(state = 'queued' AND not_before <= ?) "
                    "OR (state = 'leased' AND lease_expires_at <= ?)"
                )
                if row["state"] == "leased" and row["attempts"] >= row["max_attempts"]:
                    cursor = self._execute(
                        f"""
                        UPDATE jobs SET state = 'dead', error = ?,
                            lease_owner = NULL, lease_expires_at = NULL,
                            finished_at = ?, updated_at = ?
                        WHERE id = ? AND ({guard})
                        """,
                        (
                            f"lease expired after attempt "
                            f"{row['attempts']}/{row['max_attempts']}",
                            now,
                            now,
                            row["id"],
                            now,
                            now,
                        ),
                    )
                    if cursor.rowcount:
                        note_job_expired_dead()
                    continue
                cursor = self._execute(
                    f"""
                    UPDATE jobs SET state = 'leased', attempts = attempts + 1,
                        lease_owner = ?, lease_expires_at = ?, heartbeat_at = ?,
                        started_at = COALESCE(started_at, ?), updated_at = ?
                    WHERE id = ? AND ({guard})
                    """,
                    (worker_id, now + lease_seconds, now, now, now, row["id"], now, now),
                )
                if cursor.rowcount:
                    note_job_claimed(reclaimed=row["state"] == "leased")
                    return self._job_locked(row["id"])
            # Lost the race for this candidate; look for the next one.

    def heartbeat(
        self, job_id: str, worker_id: str, lease_seconds: float = DEFAULT_LEASE_SECONDS
    ) -> bool:
        """Extend a held lease; False when the lease was lost in the meantime."""
        now = time.time()
        with self._lock, self._connection:
            cursor = self._execute(
                "UPDATE jobs SET lease_expires_at = ?, heartbeat_at = ?, updated_at = ? "
                "WHERE id = ? AND state = 'leased' AND lease_owner = ?",
                (now + lease_seconds, now, now, job_id, worker_id),
            )
        return bool(cursor.rowcount)

    def _transition_held(
        self, job_id: str, worker_id: str, sql: str, parameters: Tuple[Any, ...]
    ) -> Job:
        """Run a guarded leased-job UPDATE; raise :class:`JobError` on a lost lease."""
        with self._lock, self._connection:
            cursor = self._execute(
                f"{sql} WHERE id = ? AND state = 'leased' AND lease_owner = ?",
                parameters + (job_id, worker_id),
            )
            if cursor.rowcount:
                return self._job_locked(job_id)
            current = self._job_locked(job_id)
        if current is None:
            raise JobError(f"no job {job_id!r} in the queue")
        raise JobError(
            f"job {job_id!r} is not leased by {worker_id!r} "
            f"(state {current.state!r}, owner {current.lease_owner!r})"
        )

    def complete(self, job_id: str, worker_id: str) -> Job:
        """Mark a leased job done (the result is already in the store)."""
        now = time.time()
        job = self._transition_held(
            job_id,
            worker_id,
            "UPDATE jobs SET state = 'done', error = NULL, lease_owner = NULL, "
            "lease_expires_at = NULL, finished_at = ?, updated_at = ?",
            (now, now),
        )
        note_job_finished(job.to_dict())
        return job

    def fail(
        self,
        job_id: str,
        worker_id: str,
        error: str,
        retryable: bool = True,
        delay_seconds: float = 0.0,
    ) -> Job:
        """Record a failed attempt; re-queues (with backoff), fails or kills."""
        with self._lock:
            current = self._job_locked(job_id)
        if current is None:
            raise JobError(f"no job {job_id!r} in the queue")
        now = time.time()
        state, not_before = failure_transition(
            current.attempts, current.max_attempts, retryable, now, delay_seconds
        )
        job = self._transition_held(
            job_id,
            worker_id,
            "UPDATE jobs SET state = ?, error = ?, not_before = ?, "
            "lease_owner = NULL, lease_expires_at = NULL, finished_at = ?, "
            "updated_at = ?",
            (state, str(error), not_before, None if state == "queued" else now, now),
        )
        note_job_finished(job.to_dict())
        return job

    def release(self, job_id: str, worker_id: str) -> Job:
        """Give a leased job back untouched (graceful shutdown mid-claim).

        The released claim doesn't count against the retry budget.
        """
        now = time.time()
        return self._transition_held(
            job_id,
            worker_id,
            "UPDATE jobs SET state = 'queued', attempts = MAX(0, attempts - 1), "
            "not_before = ?, lease_owner = NULL, lease_expires_at = NULL, "
            "updated_at = ?",
            (now, now),
        )

    def cancel(self, job_id: str) -> bool:
        """Drop a *queued* job; False when absent or no longer cancellable."""
        with self._lock, self._connection:
            cursor = self._execute(
                "DELETE FROM jobs WHERE id = ? AND state = 'queued'", (job_id,)
            )
        return bool(cursor.rowcount)

    def requeue(self, job_id: str) -> Job:
        """Reset a terminal (done/failed/dead) job to queued with a fresh budget."""
        now = time.time()
        placeholders = ", ".join("?" for _ in TERMINAL_STATES)
        with self._lock, self._connection:
            cursor = self._execute(
                f"""
                UPDATE jobs SET state = 'queued', attempts = 0, not_before = ?,
                    error = NULL, lease_owner = NULL, lease_expires_at = NULL,
                    heartbeat_at = NULL, started_at = NULL, finished_at = NULL,
                    updated_at = ?
                WHERE id = ? AND state IN ({placeholders})
                """,
                (now, now, job_id) + TERMINAL_STATES,
            )
            if cursor.rowcount:
                return self._job_locked(job_id)
            current = self._job_locked(job_id)
        if current is None:
            raise JobError(f"no job {job_id!r} in the queue")
        raise JobError(
            f"only done/failed/dead jobs can be requeued; "
            f"{job_id!r} is {current.state!r}"
        )

    def job(self, job_id: str) -> Optional[Job]:
        """The job with this id, or ``None``."""
        with self._lock:
            return self._job_locked(job_id)

    def _job_locked(self, job_id: str) -> Optional[Job]:
        row = self._execute("SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        return None if row is None else self._decode_job(row)

    def jobs(self, state: Optional[str] = None, limit: Optional[int] = None) -> List[Job]:
        """Jobs newest-first, optionally filtered by state."""
        _require_state(state)
        sql = "SELECT * FROM jobs"
        parameters: Tuple[Any, ...] = ()
        if state is not None:
            sql += " WHERE state = ?"
            parameters += (state,)
        sql += " ORDER BY enqueued_at DESC, id"
        if limit is not None:
            sql += " LIMIT ?"
            parameters += (max(0, int(limit)),)
        with self._lock:
            rows = self._execute(sql, parameters).fetchall()
        return [self._decode_job(row) for row in rows]

    def jobs_stats(self) -> Dict[str, Any]:
        """Queue telemetry: per-state counts, depth, mean wait/run times."""
        with self._lock:
            rows = self._execute(
                "SELECT state, enqueued_at, started_at, finished_at FROM jobs"
            ).fetchall()
        return summarise_jobs([dict(row) for row in rows])

    def _decode_job(self, row: sqlite3.Row) -> Job:
        record = dict(row)
        try:
            record["scenario"] = json.loads(record["scenario"])
        except json.JSONDecodeError as error:
            raise StoreError(
                f"stored scenario for job {record['id']!r} is not valid JSON: {error}"
            ) from None
        return Job(**record)

    # -------------------------------------------------------------- maintenance
    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
    ) -> int:
        """Evict expired and least-recently-used entries; returns rows removed."""
        removed = 0
        now = time.time()
        with self._lock, self._connection:
            if max_age_seconds is not None:
                cutoff = now - max_age_seconds
                cursor = self._execute(
                    "DELETE FROM results WHERE accessed_at < ?", (cutoff,)
                )
                removed += cursor.rowcount
            if max_entries is not None:
                cursor = self._execute(
                    """
                    DELETE FROM results WHERE fingerprint IN (
                        SELECT fingerprint FROM results
                        ORDER BY accessed_at DESC, created_at DESC, fingerprint
                        LIMIT -1 OFFSET ?
                    )
                    """,
                    (max(0, max_entries),),
                )
                removed += cursor.rowcount
            self._execute(
                "DELETE FROM studies WHERE fingerprint NOT IN "
                "(SELECT fingerprint FROM results)"
            )
            if max_age_seconds is not None:
                # Finished job rows age out alongside the results they
                # produced; live (queued/leased) jobs are never collected.
                placeholders = ", ".join("?" for _ in TERMINAL_STATES)
                self._execute(
                    f"DELETE FROM jobs WHERE state IN ({placeholders}) "
                    f"AND updated_at < ?",
                    TERMINAL_STATES + (now - max_age_seconds,),
                )
            self._bump_counter("evictions", removed)
        if removed:
            get_registry().counter(
                "repro_store_evictions_total", backend=self.backend_name
            ).inc(removed)
        return removed

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            entries = self._execute("SELECT COUNT(*) FROM results").fetchone()[0]
            studies = self._execute(
                "SELECT COUNT(DISTINCT study) FROM studies"
            ).fetchone()[0]
            accesses = self._execute(
                "SELECT COALESCE(SUM(access_count), 0) FROM results"
            ).fetchone()[0]
            counters = {
                key: self._read_counter(key)
                for key in ("hits", "misses", "evictions")
            }
        try:
            size_bytes = self._path.stat().st_size
        except OSError:  # pragma: no cover - racing deletion
            size_bytes = 0
        stats = {
            "backend": self.backend_name,
            "path": str(self._path),
            "schema": STORE_SCHEMA,
            "entries": entries,
            "studies": studies,
            "size_bytes": size_bytes,
            "hits": counters["hits"],
            "misses": counters["misses"],
            "evictions": counters["evictions"],
            "total_accesses": accesses,
        }
        # Queue telemetry rides along with the cache counters, so
        # `GET /stats` and `repro cache stats` surface both in one payload.
        for key, value in self.jobs_stats().items():
            stats[f"jobs_{key}"] = value
        return stats

    def export_documents(self) -> List[Dict[str, Any]]:
        """Every stored document, decoded (for ``repro cache export``)."""
        return [result.to_dict() for _, result in self.items()]

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # ------------------------------------------------------------------- dunder
    def _bump_counter(self, key: str, delta: int) -> None:
        """Add ``delta`` to a persistent store_meta counter (caller holds lock)."""
        # A nested `with self._connection:` here would commit the caller's
        # half-finished transaction early.
        self._execute(  # repro-lint: allow R003 — caller holds the transaction
            "UPDATE store_meta SET value = CAST(value AS INTEGER) + ? WHERE key = ?",
            (delta, key),
        )

    def _read_counter(self, key: str) -> int:
        row = self._execute(
            "SELECT value FROM store_meta WHERE key = ?", (key,)
        ).fetchone()
        return 0 if row is None else int(row[0])

    def _execute(self, sql: str, parameters: Tuple[Any, ...] = ()) -> sqlite3.Cursor:
        try:
            return self._connection.execute(sql, parameters)
        except sqlite3.Error as error:
            raise StoreError(
                f"result store {self._path} query failed: {error}"
            ) from None

    def __len__(self) -> int:
        with self._lock:
            return self._execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            row = self._execute(
                "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return row is not None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self._path)!r})"
