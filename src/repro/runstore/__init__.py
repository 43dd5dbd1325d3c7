"""Crash-safe, resumable run orchestration (the run store).

Every long-running study allocates ``results/runs/<run_id>/`` with an
atomic ``manifest.json``, an append-only checksummed
``journal.jsonl`` of fsync'd per-cell records, and a pidfile
lock; a SQLite index (``index.sqlite``) makes cross-run queries one
``repro-affinity runs query`` instead of N journal replays.  See
:mod:`repro.runstore.store` for the directory contract and
``docs/INTERNALS.md`` §13 for the journal format, checksum/replay
rules, lock protocol, and index schema.
"""

from repro.runstore.fsio import (
    atomic_write_json,
    atomic_write_text,
    read_json,
)
from repro.runstore.index import (
    index_path,
    query_cells,
    query_sql,
    rebuild_index,
    update_index,
)
from repro.runstore.journal import RunJournal
from repro.runstore.locks import LockHeldError, PidfileLock
from repro.runstore.signals import GracefulShutdown, ShutdownRequested
from repro.runstore.store import (
    RunStore,
    RunStoreError,
    UnknownRunError,
    effective_status,
    list_runs,
    runs_root,
)

__all__ = [
    "GracefulShutdown",
    "LockHeldError",
    "PidfileLock",
    "RunJournal",
    "RunStore",
    "RunStoreError",
    "ShutdownRequested",
    "UnknownRunError",
    "atomic_write_json",
    "atomic_write_text",
    "effective_status",
    "index_path",
    "list_runs",
    "query_cells",
    "query_sql",
    "read_json",
    "rebuild_index",
    "runs_root",
    "update_index",
]
