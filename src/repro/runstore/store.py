"""The run store: crash-safe, resumable orchestration state.

Every long-running study (``repro-affinity sweep/scale/diagnose``,
``tools/bench.py --runstore``) allocates one run directory::

    results/runs/<run_id>/
        manifest.json    command, args, git sha, status, sessions
        journal.jsonl    append-only fsync'd per-cell records
        lock.pid         pidfile of the live orchestrator
        report.txt       final rendered report (and study-specific
        ...              artifacts such as diagnosis.json)

The manifest is rewritten atomically (tempfile + ``os.replace``, the
PR 1 cache discipline); the journal is append-only with per-record
checksums and replay-to-last-good recovery; the pidfile prevents two
orchestrators from interleaving writes and is reclaimed when its pid
is dead.  ``ENOSPC`` anywhere degrades to a one-time warning -- a
full disk costs durability, never the sweep itself.

Resuming (``repro-affinity runs resume <run_id>``) re-drives the
recorded command; cells already in the journal are *replayed* (no
re-execution) and the rest run normally, so the final report is
byte-identical to an uninterrupted run -- cell results are seeded
simulations and every renderer is a pure function of them.

Override the root with ``REPRO_RUNS_DIR`` (like the result cache's
``REPRO_RESULTS_DIR``).
"""

import json
import os
import subprocess
import time
import warnings

from repro.core.experiment import ExperimentResult
from repro.runstore.fsio import atomic_write_json, atomic_write_text, read_json
from repro.runstore.journal import RunJournal
from repro.runstore.locks import LOCK_NAME, PidfileLock, pid_alive

DEFAULT_ROOT = os.path.join("results", "runs")
MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: Terminal manifest statuses (anything else means a live -- or
#: crashed-without-cleanup -- orchestrator; the lock disambiguates).
TERMINAL_STATUSES = ("completed", "incomplete", "interrupted", "failed")


class RunStoreError(RuntimeError):
    """A run directory is missing, malformed, or unusable."""


class UnknownRunError(RunStoreError):
    """No run directory exists for the requested run id."""


def runs_root(root=None):
    """The run-store root: explicit arg, ``REPRO_RUNS_DIR``, or
    ``results/runs`` (resolved lazily, like the result cache dir)."""
    if root is not None:
        return root
    return os.environ.get("REPRO_RUNS_DIR", DEFAULT_ROOT)


def git_sha():
    """The current git commit, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _validate_run_id(run_id):
    if not run_id or run_id != os.path.basename(run_id) or \
            run_id.startswith("."):
        raise RunStoreError("invalid run id %r" % run_id)


def effective_status(directory, manifest):
    """The manifest status, downgraded to ``crashed`` when a run says
    ``running`` but its lock pid is dead (SIGKILL/OOM aftermath)."""
    status = manifest.get("status", "unknown")
    if status != "running":
        return status
    lock = PidfileLock(os.path.join(directory, LOCK_NAME))
    pid, _host = lock._read()
    if pid is None or not pid_alive(pid):
        return "crashed"
    return status


class RunStore:
    """One run directory: manifest + journal + lock + artifacts.

    Construction goes through :meth:`create` (new run) or
    :meth:`resume` (existing directory; reclaims a stale lock and
    recovers the journal tail).  The store doubles as the *journal*
    argument of :class:`repro.core.parallel.SweepRunner` via
    :meth:`lookup_cell` / :meth:`record_cell`; the ``executed`` /
    ``replayed`` counters land in the manifest's per-session records
    (the crash/resume tests assert on them), persisted at
    :meth:`checkpoint` (which :func:`repro.diagnose.driver.run_diagnosis`
    calls between bisection waves) and :meth:`finalize`.  Cells are
    the only records it writes; a resumed study rebuilds any other
    state by replaying them.
    """

    def __init__(self, directory, manifest, journal, lock):
        self.directory = directory
        self.manifest = manifest
        self.journal = journal
        self.lock = lock
        self.executed = 0
        self.replayed = 0
        self._disk_warned = False

    # -- construction ---------------------------------------------------

    @classmethod
    def create(cls, command, args=None, root=None, run_id=None):
        """Allocate a fresh run directory and mark it ``running``."""
        root = runs_root(root)
        os.makedirs(root, exist_ok=True)
        if run_id is not None:
            _validate_run_id(run_id)
            directory = os.path.join(root, run_id)
            try:
                os.makedirs(directory, exist_ok=False)
            except FileExistsError:
                raise RunStoreError(
                    "run %r already exists (resume it with "
                    "'repro-affinity runs resume %s', or pick another "
                    "--run-id)" % (run_id, run_id)
                )
        else:
            while True:
                run_id = "%s-%s-%s" % (
                    time.strftime("%Y%m%dT%H%M%S"),
                    command,
                    os.urandom(3).hex(),
                )
                directory = os.path.join(root, run_id)
                try:
                    os.makedirs(directory, exist_ok=False)
                    break
                except FileExistsError:
                    continue
        lock = PidfileLock(os.path.join(directory, LOCK_NAME))
        lock.acquire()
        now = time.time()
        manifest = {
            "schema": 1,
            "run_id": run_id,
            "command": command,
            "args": dict(args or {}),
            "created": now,
            "created_iso": time.strftime(
                "%Y-%m-%dT%H:%M:%S", time.localtime(now)
            ),
            "git_sha": git_sha(),
            "status": "running",
            "sessions": [cls._new_session(now)],
        }
        journal = RunJournal.open(os.path.join(directory, JOURNAL_NAME))
        store = cls(directory, manifest, journal, lock)
        store._write_manifest()
        return store

    @classmethod
    def resume(cls, run_id, root=None):
        """Reopen an existing run: reclaim a stale lock, recover the
        journal tail, append a session, and mark it ``running``."""
        _validate_run_id(run_id)
        directory = os.path.join(runs_root(root), run_id)
        manifest = read_json(os.path.join(directory, MANIFEST_NAME))
        if manifest is None:
            raise UnknownRunError(
                "no readable manifest for run %r under %s"
                % (run_id, runs_root(root))
            )
        lock = PidfileLock(os.path.join(directory, LOCK_NAME))
        lock.acquire()
        journal = RunJournal.open(os.path.join(directory, JOURNAL_NAME))
        manifest["status"] = "running"
        manifest.setdefault("sessions", []).append(
            cls._new_session(time.time())
        )
        store = cls(directory, manifest, journal, lock)
        store._write_manifest()
        return store

    @classmethod
    def load(cls, run_id, root=None):
        """Read-only view (no lock, no truncation): list/show/index."""
        _validate_run_id(run_id)
        directory = os.path.join(runs_root(root), run_id)
        manifest = read_json(os.path.join(directory, MANIFEST_NAME))
        if manifest is None:
            raise UnknownRunError(
                "no readable manifest for run %r under %s"
                % (run_id, runs_root(root))
            )
        journal = RunJournal.load(os.path.join(directory, JOURNAL_NAME))
        return cls(directory, manifest, journal, lock=None)

    @staticmethod
    def _new_session(now):
        return {
            "pid": os.getpid(),
            "started": now,
            "ended": None,
            "executed": 0,
            "replayed": 0,
        }

    # -- identity -------------------------------------------------------

    @property
    def run_id(self):
        return self.manifest["run_id"]

    @property
    def status(self):
        return self.manifest.get("status", "unknown")

    def __repr__(self):
        return "RunStore(%s, %s)" % (self.run_id, self.status)

    # -- journal-facing sweep API ---------------------------------------

    def lookup_cell(self, config):
        """The journaled result for ``config``, or ``None``.

        A hit counts as *replayed*: the cell is not re-executed and
        its payload round-trips bit-identically (it was serialized
        with the same ``to_dict`` the cache uses)."""
        payload = self.journal.cell_payload(config.key())
        if payload is None:
            return None
        self.replayed += 1
        return ExperimentResult.from_dict(payload)

    def record_cell(self, config, result):
        """Durably journal one executed cell."""
        self.executed += 1
        self.journal.append({
            "type": "cell",
            "key": config.key(),
            "label": config.label(),
            "payload": result.to_dict(),
        })

    # -- artifacts and manifest -----------------------------------------

    def artifact_path(self, name):
        return os.path.join(self.directory, name)

    def write_artifact(self, name, content):
        """Atomically write a report artifact; warn-and-continue on
        disk errors (a lost report never kills a finished sweep)."""
        try:
            if isinstance(content, str):
                atomic_write_text(self.artifact_path(name), content)
            else:
                atomic_write_json(self.artifact_path(name), content)
        except OSError as exc:
            self._warn_disk("artifact %s" % name, exc)

    def _session(self):
        return self.manifest["sessions"][-1]

    def _sync_session(self):
        session = self._session()
        session["executed"] = self.executed
        session["replayed"] = self.replayed

    def _write_manifest(self):
        try:
            atomic_write_json(
                os.path.join(self.directory, MANIFEST_NAME),
                self.manifest,
            )
        except OSError as exc:
            self._warn_disk("manifest", exc)

    def _warn_disk(self, what, exc):
        if self._disk_warned:
            return
        self._disk_warned = True
        warnings.warn(
            "run %s: writing %s failed (%s); continuing degraded"
            % (self.run_id, what, exc),
            RuntimeWarning,
            stacklevel=3,
        )

    def checkpoint(self):
        """Persist session counters mid-run (e.g. between waves)."""
        self._sync_session()
        self._write_manifest()

    def finalize(self, status):
        """Terminal transition: stamp the manifest, update the index,
        release the lock, close the journal."""
        if status not in TERMINAL_STATUSES:
            raise ValueError("not a terminal status: %r" % status)
        self._sync_session()
        self._session()["ended"] = time.time()
        self.manifest["status"] = status
        self._write_manifest()
        try:
            from repro.runstore.index import update_index

            update_index(self)
        except Exception as exc:
            self._warn_disk("index", exc)
        if self.lock is not None:
            self.lock.release()
        self.journal.close()


def list_runs(root=None):
    """``[(run_id, manifest, effective_status)]`` newest first.

    Directories without a readable manifest are skipped (a crash can
    strike between mkdir and the first manifest write)."""
    root = runs_root(root)
    out = []
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return out
    for name in names:
        directory = os.path.join(root, name)
        manifest = read_json(os.path.join(directory, MANIFEST_NAME))
        if manifest is None or not os.path.isdir(directory):
            continue
        out.append(
            (name, manifest, effective_status(directory, manifest))
        )
    out.sort(key=lambda item: item[1].get("created", 0), reverse=True)
    return out


def journal_stats(directory):
    """Journal summary for ``runs list``: the number of cells."""
    journal = RunJournal.load(os.path.join(directory, JOURNAL_NAME))
    return len(journal.cells)


def summarize_manifest(manifest):
    """One session roll-up: total executed/replayed across sessions."""
    executed = sum(
        s.get("executed") or 0 for s in manifest.get("sessions", [])
    )
    replayed = sum(
        s.get("replayed") or 0 for s in manifest.get("sessions", [])
    )
    return executed, replayed


def render_show(store):
    """Human-readable ``runs show`` text for a read-only store."""
    manifest = store.manifest
    executed, replayed = summarize_manifest(manifest)
    lines = [
        "run %s" % manifest.get("run_id"),
        "  command:  %s" % manifest.get("command"),
        "  status:   %s" % effective_status(store.directory, manifest),
        "  created:  %s" % manifest.get("created_iso"),
        "  git sha:  %s" % (manifest.get("git_sha") or "unknown"),
        "  journal:  %d cell(s), %d record(s)"
        % (len(store.journal.cells), len(store.journal.records)),
        "  sessions: %d (executed %d, replayed %d)"
        % (len(manifest.get("sessions", [])), executed, replayed),
        "  args:     %s" % json.dumps(
            manifest.get("args", {}), sort_keys=True
        ),
    ]
    artifacts = sorted(
        name for name in os.listdir(store.directory)
        if name not in (MANIFEST_NAME, JOURNAL_NAME, LOCK_NAME)
        and not name.startswith(".")
    )
    if artifacts:
        lines.append("  artifacts: %s" % ", ".join(artifacts))
    return "\n".join(lines)
