"""The one cell-execution path: parallel, fault-tolerant sweeps.

Every paper artefact is regenerated from sweeps of independent
experiment cells (direction x size x mode x seed).  Cells share no
state -- each builds a fresh :class:`~repro.kernel.machine.Machine`
and all randomness is derived from the config seed via
:class:`repro.sim.rng.RngStreams` -- so a sweep is embarrassingly
parallel, and a parallel run must produce *byte-identical*
``ExperimentResult.to_dict()`` payloads to a serial one.

Every study driver (:func:`~repro.core.metrics.run_size_sweep`, the
scale/coalesce/offload sweeps, :mod:`repro.core.repeat` and
:mod:`repro.diagnose`) hands its cells to one :class:`SweepRunner`,
passed as ``runner=``.  The runner optionally shards cells across a
``ProcessPoolExecutor``:

* **In-flight dedup** -- configs with the same cache key are simulated
  once, however many times they appear in the request.
* **Single writer** -- workers only simulate: they take a config dict
  and return a payload dict, touching neither the result cache nor
  the journal.  The parent persists each fresh cell exactly once, in
  :meth:`SweepRunner._store`: journal first, then cache.
* **Serial fallback** -- ``jobs=1`` runs everything in-process with no
  executor, byte-identical to the parallel path and under the same
  failure contract.
* **Fault tolerance** -- one cell raising (an invariant violation, a
  bad cost override) or hanging (a runaway simulation) no longer
  throws away every other in-flight cell.  Each cell runs under a
  try/except plus an optional wall-clock watchdog (``timeout``
  seconds); a failing cell is retried with the same seed up to
  ``retries`` times, then *quarantined*: its result slot is ``None``,
  later ``run()`` calls skip it, and the per-run
  :class:`FailureReport` (``runner.report``) names it.  Hung worker
  processes are abandoned via a parent-side backstop deadline so the
  sweep itself always terminates -- and the abandoned workers are
  then actively SIGTERM'd (SIGKILL'd if that doesn't take) so an
  interactive session or CI runner never leaks live processes.
* **Journaling** -- an optional ``journal`` (duck-typed; in practice
  a :class:`repro.runstore.RunStore`) records every executed cell's
  result durably and answers lookups for cells executed by an
  earlier, interrupted session.  A journal hit ("replayed") fills
  the result slot without re-executing the simulation, which is what
  makes ``repro-affinity runs resume`` byte-identical to an
  uninterrupted run.

Workers are forked/spawned fresh per sweep; the result payloads are
plain JSON-serializable dicts, so nothing simulation-side needs to be
picklable.
"""

import os
import signal
import threading
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool

from repro.core.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)

#: Seconds past the in-worker watchdog before the parent abandons a
#: worker as wedged (the watchdog signal itself failed to fire).
WATCHDOG_GRACE = 5.0


def default_jobs():
    """Worker count: ``REPRO_JOBS`` if set, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                "ignoring invalid REPRO_JOBS=%r (not an integer); "
                "falling back to os.cpu_count()" % env,
                RuntimeWarning,
                stacklevel=2,
            )
    return os.cpu_count() or 1


class CellTimeout(Exception):
    """A sweep cell exceeded its wall-clock watchdog."""


class _Watchdog:
    """SIGALRM-based wall-clock limit around one experiment cell.

    Arms only in the main thread of a process with SIGALRM (workers
    qualify; so does a serial run under pytest).  Elsewhere it is a
    no-op -- the parent-side backstop deadline still bounds the sweep.
    """

    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label
        self._prev = None
        self._armed = False

    def __enter__(self):
        if not self.seconds or not hasattr(signal, "SIGALRM"):
            return self
        if threading.current_thread() is not threading.main_thread():
            return self

        def _fire(signum, frame):
            raise CellTimeout(
                "cell %s exceeded %.1fs watchdog"
                % (self.label, self.seconds)
            )

        self._prev = signal.signal(signal.SIGALRM, _fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        self._armed = True
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._prev)
        return False


def _run_cell(config_dict, timeout=None):
    """Simulate one cell in a worker process.

    Module-level so the executor can pickle it.  Takes and returns
    plain dicts and persists nothing: the parent is the only writer of
    the journal and the result cache.  Never raises: failures come
    back as ``{"ok": False, ...}`` envelopes so a bad cell cannot
    poison the pool.
    """
    config = ExperimentConfig(**config_dict)
    try:
        with _Watchdog(timeout, config.label()):
            result = run_experiment(config)
    except CellTimeout as exc:
        return {"ok": False, "kind": "timeout", "error": str(exc)}
    except Exception as exc:
        return {
            "ok": False,
            "kind": "error",
            "error": "%s: %s" % (type(exc).__name__, exc),
        }
    # Live-run-only attributes ride outside the payload (they must not
    # enter hashes or cache keys); ship them as a sidecar so the scale
    # report's resources table works under parallel sweeps too.
    live = {
        name: getattr(result, name, None)
        for name in ("wall_s", "peak_rss_kb", "events_fired",
                     "charge_engine")
    }
    return {"ok": True, "payload": result.to_dict(), "live": live}


class CellFailure:
    """One quarantined sweep cell."""

    def __init__(self, key, config, kind, error, attempts):
        self.key = key
        self.config = config
        self.label = config.label()
        self.kind = kind  # "timeout" | "error"
        self.error = error
        self.attempts = attempts

    def describe(self):
        return "%s [%s after %d attempt(s)]: %s" % (
            self.label, self.kind, self.attempts, self.error
        )

    def __repr__(self):
        return "CellFailure(%s)" % self.describe()


class FailureReport:
    """The failed cells of one ``SweepRunner.run`` call."""

    def __init__(self, failures=()):
        self.failures = list(failures)

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        if self.ok:
            return "all cells completed"
        lines = ["%d cell(s) failed:" % len(self.failures)]
        lines.extend("  - %s" % f.describe() for f in self.failures)
        return "\n".join(lines)

    def __repr__(self):
        return "FailureReport(%d failure(s))" % len(self.failures)


class SweepRunner:
    """Run a batch of :class:`ExperimentConfig` cells, possibly in
    parallel, tolerating per-cell failures.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs serially in-process (no
        executor); ``None`` uses :func:`default_jobs`.
    cache:
        A :class:`~repro.core.experiment.ResultCache` consulted
        before running and written by the parent after each fresh
        result (workers never touch it).
    progress:
        Optional callback receiving human-readable status strings
        (``cached tx-128-none``, ``running tx-128-full``, ``done 3/8
        tx-128-full``, ``failed ...``, ``quarantined ...``) -- one
        formatter shared by the serial and parallel paths.
    timeout:
        Per-cell wall-clock watchdog in seconds (``None`` disables).
        In parallel mode the parent additionally abandons workers
        ``WATCHDOG_GRACE`` seconds past the deadline.
    retries:
        Re-runs (same seed) granted to a failing cell before it is
        quarantined.
    journal:
        Optional run-store hook (``lookup_cell(config)`` /
        ``record_cell(config, result)``; in practice a
        :class:`repro.runstore.RunStore`).  Consulted *before* the
        cache -- a journal hit means an earlier session of the same
        run already executed the cell, so it is replayed, never
        re-run.  Every freshly executed result is recorded durably
        before the cache write.

    The study drivers default to ``SweepRunner(jobs=1)``: serial,
    uncached and unjournaled.

    After each ``run()``, :attr:`report` is the
    :class:`FailureReport`; failed cells occupy their result slots as
    ``None``.  Quarantined keys persist across ``run()`` calls on the
    same runner.  :attr:`killed_workers` accumulates the PIDs of
    worker processes the runner had to SIGTERM/SIGKILL (hung cells,
    interrupted sweeps) -- none are left running behind the parent.
    """

    def __init__(self, jobs=None, cache=None, progress=None,
                 timeout=None, retries=1, journal=None):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.cache = cache
        self.progress = progress
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.journal = journal
        self.quarantined = {}  # key -> CellFailure
        self.report = FailureReport()
        self.killed_workers = []  # PIDs actively reaped, all runs

    # -- progress formatting (shared by serial and parallel paths) ------

    def _say(self, msg):
        if self.progress:
            self.progress(msg)

    def _say_cached(self, config):
        self._say("cached %s" % config.label())

    def _say_running(self, config, attempt=1):
        if attempt > 1:
            self._say(
                "running %s (retry %d/%d)"
                % (config.label(), attempt - 1, self.retries)
            )
        else:
            self._say("running %s" % config.label())

    def _say_done(self, n, total, config):
        self._say("done %d/%d %s" % (n, total, config.label()))

    def _say_failed(self, failure):
        self._say("failed %s" % failure.describe())

    def _say_quarantined(self, config):
        self._say("quarantined %s (failed earlier this session)"
                  % config.label())

    # -- the sweep ------------------------------------------------------

    def run(self, configs):
        """Run every config; returns results in input order.

        Duplicate configs (same cache key) are simulated once and the
        shared result is fanned back out to every requesting slot.
        Failed cells leave ``None`` in their slots and are collected
        in :attr:`report`.
        """
        configs = list(configs)
        results = [None] * len(configs)
        failures = []

        # Dedup by cache key: one simulation per unique cell.
        slots = {}  # key -> [index, ...]
        unique = {}  # key -> config
        for i, config in enumerate(configs):
            key = config.key()
            slots.setdefault(key, []).append(i)
            unique.setdefault(key, config)

        pending = []
        for key, config in unique.items():
            if key in self.quarantined:
                self._say_quarantined(config)
                failures.append(self.quarantined[key])
                continue
            hit = None
            if self.journal is not None:
                hit = self.journal.lookup_cell(config)
                if hit is not None:
                    self._say("replayed %s (journal)" % config.label())
            if hit is None and self.cache is not None:
                hit = self.cache.get(config)
                if hit is not None:
                    self._say_cached(config)
            if hit is not None:
                for i in slots[key]:
                    results[i] = hit
            else:
                pending.append((key, config))

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                self._run_serial(pending, slots, results, failures)
            else:
                self._run_parallel(pending, slots, results, failures)
        self.report = FailureReport(failures)
        return results

    def _store(self, key, config, result, slots, results):
        # The only place a cell is persisted, serial or parallel.
        # Journal first: the durable run record must never trail the
        # (best-effort) cache, or a crash between the two writes would
        # lose the cell from the resume path.
        if self.journal is not None:
            self.journal.record_cell(config, result)
        if self.cache is not None:
            self.cache.put(config, result)
        for i in slots[key]:
            results[i] = result

    def _quarantine(self, key, config, kind, error, attempts, failures):
        failure = CellFailure(key, config, kind, error, attempts)
        self.quarantined[key] = failure
        failures.append(failure)
        self._say_failed(failure)

    def _run_serial(self, pending, slots, results, failures):
        total = len(pending)
        done = 0
        for key, config in pending:
            attempt = 0
            while True:
                attempt += 1
                self._say_running(config, attempt)
                try:
                    with _Watchdog(self.timeout, config.label()):
                        result = run_experiment(config)
                except Exception as exc:
                    kind = (
                        "timeout" if isinstance(exc, CellTimeout)
                        else "error"
                    )
                    detail = (
                        str(exc) if isinstance(exc, CellTimeout)
                        else "%s: %s" % (type(exc).__name__, exc)
                    )
                    if attempt <= self.retries:
                        continue
                    self._quarantine(
                        key, config, kind, detail, attempt, failures
                    )
                    break
                self._store(key, config, result, slots, results)
                done += 1
                self._say_done(done, total, config)
                break

    def _run_parallel(self, pending, slots, results, failures):
        total = len(pending)
        workers = min(self.jobs, total)
        executor = ProcessPoolExecutor(max_workers=workers)
        inflight = {}  # future -> (key, config, attempt, deadline)
        done_count = 0
        hung_workers = False
        pool_broken = False

        def submit(key, config, attempt):
            self._say_running(config, attempt)
            future = executor.submit(
                _run_cell, config.to_dict(), self.timeout
            )
            deadline = (
                time.monotonic() + self.timeout + WATCHDOG_GRACE
                if self.timeout else None
            )
            inflight[future] = (key, config, attempt, deadline)

        def failed(key, config, attempt, kind, error):
            # Retry in a fresh slot, or quarantine for good.
            if attempt <= self.retries and not pool_broken:
                submit(key, config, attempt + 1)
            else:
                self._quarantine(
                    key, config, kind, error, attempt, failures
                )

        try:
            for key, config in pending:
                submit(key, config, 1)
            while inflight:
                wait_for = None
                if self.timeout is not None:
                    soonest = min(
                        d for (_, _, _, d) in inflight.values()
                    )
                    wait_for = max(0.0, soonest - time.monotonic())
                ready, _ = wait(
                    list(inflight), timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )
                if not ready:
                    # Backstop: the watchdog inside some worker failed
                    # to fire (wedged interpreter); abandon overdue
                    # futures so the sweep terminates.
                    now = time.monotonic()
                    for future in list(inflight):
                        key, config, attempt, deadline = inflight[future]
                        if deadline is not None and now >= deadline:
                            del inflight[future]
                            future.cancel()
                            hung_workers = True
                            failed(
                                key, config, attempt, "timeout",
                                "worker unresponsive %.1fs past the "
                                "%.1fs watchdog; abandoned"
                                % (WATCHDOG_GRACE, self.timeout),
                            )
                    continue
                for future in ready:
                    key, config, attempt, _ = inflight.pop(future)
                    try:
                        envelope = future.result()
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        failed(
                            key, config, self.retries + 1, "error",
                            "worker pool broke: %s" % exc,
                        )
                        continue
                    except Exception as exc:
                        failed(
                            key, config, attempt, "error",
                            "%s: %s" % (type(exc).__name__, exc),
                        )
                        continue
                    if not envelope.get("ok"):
                        failed(
                            key, config, attempt,
                            envelope.get("kind", "error"),
                            envelope.get("error", "unknown failure"),
                        )
                        continue
                    result = ExperimentResult.from_dict(
                        envelope["payload"]
                    )
                    for name, value in envelope.get("live", {}).items():
                        if value is not None:
                            setattr(result, name, value)
                    self._store(key, config, result, slots, results)
                    done_count += 1
                    self._say_done(done_count, total, config)
        except BaseException:
            # SIGINT/SIGTERM or an unexpected runner bug: drop queued
            # cells, reap the worker processes (a graceful-shutdown
            # checkpoint must not leave orphans running the old grid),
            # and let the atomic cache writes guarantee no torn files.
            self.killed_workers.extend(_terminate_workers(executor))
            raise
        if hung_workers:
            # A plain shutdown would block forever joining wedged
            # workers; SIGTERM them (SIGKILL stragglers) instead of
            # leaking live processes past the sweep.
            self.killed_workers.extend(_terminate_workers(executor))
        else:
            executor.shutdown(wait=True, cancel_futures=True)


def _terminate_workers(executor, grace=2.0):
    """Shut the executor down without waiting and actively reap its
    worker processes.

    Snapshots the worker list *before* calling ``shutdown()`` --
    CPython drops ``_processes`` during shutdown even with
    ``wait=False`` -- then SIGTERMs every live worker, gives the
    batch ``grace`` seconds to exit, SIGKILLs any survivor, and
    joins so nothing is left as a zombie.  Returns the PIDs that
    needed reaping.  Reaches into
    ``ProcessPoolExecutor._processes`` (private but stable across
    CPython 3.8+); degrades to a plain no-wait shutdown if the
    attribute moves.
    """
    procs = getattr(executor, "_processes", None)
    procs = list(procs.values()) if isinstance(procs, dict) else []
    executor.shutdown(wait=False, cancel_futures=True)
    reaped = []
    for proc in procs:
        if proc.is_alive():
            reaped.append(proc.pid)
            try:
                proc.terminate()
            except OSError:
                pass
    deadline = time.monotonic() + grace
    for proc in procs:
        if proc.is_alive():
            proc.join(max(0.0, deadline - time.monotonic()))
    for proc in procs:
        if proc.is_alive():
            try:
                proc.kill()
            except OSError:
                pass
    for proc in procs:
        proc.join(1.0)
    return reaped
