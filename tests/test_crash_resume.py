"""Integration: SIGKILL a live study subprocess, resume, byte-compare.

The run-store acceptance property end to end: a scale sweep and a
diagnosis killed mid-run (-9, no chance to clean up) must resume from
their journals, re-executing only the cells that never made it to
disk, and produce final reports byte-identical to an uninterrupted
run of the same parameters.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCALE_ARGS = [
    "scale", "--cpus", "2", "4", "--sizes", "4096", "16384",
    "--modes", "rss", "--queues", "2", "--connections", "4",
    "--warmup-ms", "1", "--measure-ms", "2", "--no-cache",
]
SCALE_CELLS = 4

DIAG_ARGS = [
    "diagnose", "--direction", "rx", "--modes", "none",
    "--knobs", "copy-engine", "--steps", "1", "--size", "16384",
    "--connections", "4", "--cpus", "2", "--warmup-ms", "1",
    "--measure-ms", "2", "--jobs", "1", "--no-cache",
]


def _env(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["REPRO_RUNS_DIR"] = str(tmp_path / "runs")
    env["REPRO_RESULTS_DIR"] = str(tmp_path / "cache")
    return env


def _cli(args, env, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli"] + args,
        env=env, capture_output=True, text=True, timeout=300,
        **kwargs
    )


def _count_cells(journal_path):
    try:
        with open(journal_path, "rb") as fh:
            return fh.read().count(b'"type":"cell"')
    except OSError:
        return 0


def _spawn_and_signal(args, env, journal_path, min_cells, signum):
    """Start a study subprocess, wait for ``min_cells`` journal
    records, deliver ``signum``; returns (journaled_at_kill, rc).

    The study runs in its own process group and SIGKILL goes to the
    whole group: a parallel study's pool workers die with it, as in a
    power loss, instead of outliving their parent."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli"] + args,
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.monotonic() + 240
    while time.monotonic() < deadline:
        if _count_cells(journal_path) >= min_cells:
            break
        if proc.poll() is not None:
            break  # finished before we could interrupt: handled below
        time.sleep(0.05)
    try:
        if signum == signal.SIGKILL:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
    except ProcessLookupError:
        pass
    rc = proc.wait(timeout=120)
    # Count *after* the kill landed: the race between "saw N cells"
    # and "signal delivered" means more may have been journaled.
    return _count_cells(journal_path), rc


def _manifest(tmp_path, run_id):
    path = tmp_path / "runs" / run_id / "manifest.json"
    return json.loads(path.read_text())


class TestScaleCrashResume:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sigkill_resume_byte_identical(self, tmp_path, jobs):
        env = _env(tmp_path)
        args = SCALE_ARGS + ["--jobs", jobs]
        journal = tmp_path / "runs" / "crash" / "journal.jsonl"
        journaled, rc = _spawn_and_signal(
            args + ["--run-id", "crash"], env, str(journal),
            min_cells=2, signum=signal.SIGKILL,
        )
        assert journaled >= 1, "nothing journaled before the kill"

        resume = _cli(["runs", "resume", "crash"], env)
        assert resume.returncode == 0, resume.stderr

        baseline = _cli(args + ["--run-id", "base"], env)
        assert baseline.returncode == 0, baseline.stderr

        crash_report = (tmp_path / "runs" / "crash" / "report.txt")
        base_report = (tmp_path / "runs" / "base" / "report.txt")
        assert crash_report.read_bytes() == base_report.read_bytes()

        # Already-journaled cells were replayed, never re-executed.
        manifest = _manifest(tmp_path, "crash")
        assert manifest["status"] == "completed"
        resumed_session = manifest["sessions"][-1]
        assert resumed_session["replayed"] == journaled
        assert resumed_session["executed"] == SCALE_CELLS - journaled

    def test_sigterm_checkpoints_gracefully(self, tmp_path):
        env = _env(tmp_path)
        journal = tmp_path / "runs" / "t" / "journal.jsonl"
        journaled, rc = _spawn_and_signal(
            SCALE_ARGS + ["--jobs", "1", "--run-id", "t"], env,
            str(journal), min_cells=1, signum=signal.SIGTERM,
        )
        if journaled >= SCALE_CELLS and rc == 0:
            pytest.skip("sweep finished before SIGTERM landed")
        assert rc == 128 + signal.SIGTERM
        assert _manifest(tmp_path, "t")["status"] == "interrupted"

        resume = _cli(["runs", "resume", "t"], env)
        assert resume.returncode == 0, resume.stderr
        assert _manifest(tmp_path, "t")["status"] == "completed"
        assert (tmp_path / "runs" / "t" / "report.txt").exists()


class TestDiagnoseCrashResume:
    def test_sigkill_resume_byte_identical(self, tmp_path):
        env = _env(tmp_path)
        journal = tmp_path / "runs" / "crash" / "journal.jsonl"
        out_json = str(tmp_path / "c.json")
        journaled, rc = _spawn_and_signal(
            DIAG_ARGS + ["--run-id", "crash", "--json", out_json],
            env, str(journal), min_cells=1, signum=signal.SIGKILL,
        )
        assert journaled >= 1, "nothing journaled before the kill"

        resume = _cli(["runs", "resume", "crash"], env)
        assert resume.returncode == 0, resume.stderr

        baseline = _cli(
            DIAG_ARGS + ["--run-id", "base", "--json",
                         str(tmp_path / "b.json")],
            env,
        )
        assert baseline.returncode == 0, baseline.stderr

        crash = tmp_path / "runs" / "crash" / "diagnosis.json"
        base = tmp_path / "runs" / "base" / "diagnosis.json"
        assert crash.read_bytes() == base.read_bytes()

        manifest = _manifest(tmp_path, "crash")
        assert manifest["status"] == "completed"
        total = sum(
            s["executed"] + s["replayed"] for s in manifest["sessions"]
        )
        resumed_session = manifest["sessions"][-1]
        assert resumed_session["replayed"] >= journaled
        # Resume re-executed only what the kill lost.
        assert resumed_session["executed"] < total
