"""The repository benchmark: end-to-end simulator metrics per workload,
and a traced per-layer breakdown.

    python3 perfbench/run.py --workload paper-rx64k --seed 3 \\
        --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` times whole passes of
the workload with no instrumentation and prints the end-to-end
metrics; ``--trace 1`` runs one untraced pass, then one pass with
every layer boundary wrapped (see ``hooks.py``), and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Progress,
the engine that ran and whether ``cc`` was found go to standard error.

Every pass runs in fresh temporary result and run-store directories
under ``$CARGO_TARGET_DIR`` (default ``.bench_build``), never the
repository's ``results/``; the compiled engine is built into the same
directory, untimed, before timing starts.  README.md in this directory
maps each workload to the layers and metrics it exercises.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
CLI_ENTRY = os.path.join(HERE, "cli_entry.py")
PASS_ENTRY = os.path.join(HERE, "pass_entry.py")

sys.path.insert(0, HERE)

import hooks  # noqa: E402

#: The workloads.  ``paper`` workloads run the paper's Table 3 pair
#: (affinity none and full) through ``run_experiment``; ``scale`` runs
#: the ``repro-affinity scale`` CLI, then the identical command again,
#: which replays every cell from the result cache.
WORKLOADS = {
    # The paper's headline cell: compiled engine, 64KB receive.  Time
    # goes to repro.net, the kernel->cpu charge dispatch and repro.sim.
    "paper-rx64k": dict(
        kind="paper", engine="compiled", seed=3, direction="rx",
        message_size=65536, n_connections=8, n_cpus=2,
        warmup_ms=20, measure_ms=30,
    ),
    # The Python charge engine on the transmit path with the smallest
    # messages: the most charge calls per byte.  Half the default
    # windows, so a 30 s run holds three passes: with the default ones
    # it held two, and their median moved 20% from run to run.
    "paper-tx1k-pure": dict(
        kind="paper", engine="pure", seed=3, direction="tx",
        message_size=1024, n_connections=8, n_cpus=2,
        warmup_ms=10, measure_ms=15,
    ),
    # 72 short multi-queue cells: per-cell fixed costs (pool dispatch,
    # construction, payload build, journal and cache writes) dominate;
    # RSS, Flow Director and flow-class aggregation all run.
    "scale-sweep": dict(
        kind="scale", engine="compiled", seed=7,
        argv=["scale", "--direction", "rx", "--cpus", "2", "4", "8",
              "--sizes", "1024", "4096", "16384", "65536",
              "--queues", "2", "--connections", "16", "1000", "100000",
              "--warmup-ms", "1", "--measure-ms", "1"],
        cells=72,
    ),
}

AFFINITIES = ("none", "full")

#: Import-and-construct probes per run; setup_s takes their median.
SETUP_PROBES = 5

#: A run stops starting passes once this much wall time is spent, so
#: it always ends well inside three minutes.
RUN_BUDGET_S = 140.0

CLI_TIMEOUT_S = 120.0

_IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
import repro.cli
from repro.kernel.machine import Machine
Machine(n_cpus=2)
sys.stdout.write(repr(time.perf_counter() - t0))
"""


def log(msg):
    print("[perfbench] %s" % msg, file=sys.stderr, flush=True)


def cpu_now():
    """CPU seconds of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_now():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


class Env:
    """Process-wide settings for one benchmark run: build and scratch
    directories inside the checkout, and the subprocess environment."""

    def __init__(self, engine):
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.build = os.path.join(ROOT, build)
        self.scratch = os.path.join(self.build, "tmp", str(os.getpid()))
        os.makedirs(self.scratch, exist_ok=True)
        os.environ["REPRO_ENGINE_CACHE"] = os.path.join(self.build, "engine")
        os.environ["REPRO_ENGINE"] = engine
        os.environ["TMPDIR"] = self.scratch
        os.environ["REPRO_RESULTS_DIR"] = os.path.join(self.scratch, "cache")
        os.environ["REPRO_RUNS_DIR"] = os.path.join(self.scratch, "runs")
        tempfile.tempdir = self.scratch
        old = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
        if SRC not in sys.path:
            sys.path.insert(0, SRC)

    def fresh_dir(self, prefix):
        return tempfile.mkdtemp(prefix=prefix, dir=self.scratch)

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def measure_setup_probe():
    """Seconds to import the CLI and build a machine (engine load
    included), measured inside a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
        text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip())


# ---------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------


class Pass:
    """One pass over a workload: timings and per-cell outcomes."""

    def __init__(self):
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.events = 0
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.hashes = {}       # cell id -> payload sha256
        self.payloads = []
        self.attempted = 0
        self.failed = []       # (cell id, reason)
        self.extra = {}


def paper_configs(spec, seed):
    from repro.core.experiment import ExperimentConfig

    return [
        ExperimentConfig(
            direction=spec["direction"], message_size=spec["message_size"],
            affinity=affinity, n_connections=spec["n_connections"],
            n_cpus=spec["n_cpus"], warmup_ms=spec["warmup_ms"],
            measure_ms=spec["measure_ms"], seed=seed,
        )
        for affinity in AFFINITIES
    ]


def paper_pass(spec, seed, cell_log=None):
    """Run the workload's cells in this process; only the
    ``run_experiment`` calls are timed."""
    from repro.core import experiment

    result_pass = Pass()
    for config in paper_configs(spec, seed):
        label = config.label()
        result_pass.attempted += 1
        cpu0, wall0 = cpu_now(), time.perf_counter()
        try:
            # Looked up at call time: the hooks rebind this attribute.
            result = experiment.run_experiment(config, cache=None)
        except Exception as exc:
            result_pass.failed.append((label, "%s: %s" % (
                type(exc).__name__, exc)))
            continue
        finally:
            result_pass.wall_s += time.perf_counter() - wall0
            result_pass.cpu_s += cpu_now() - cpu0
        result_pass.events += result.events_fired
        if result.charge_engine != spec["engine"]:
            result_pass.failed.append((label, "ran on the %s engine" %
                                       result.charge_engine))
        payload = result.to_dict()
        result_pass.payloads.append(payload)
        result_pass.hashes[label] = hooks.payload_sha256(payload)
        if cell_log is not None and cell_log.records:
            result_pass.setup_s += cell_log.records[-1]["setup_s"]
    return result_pass


def _run_cli(argv, env_extra, timeout):
    env = dict(os.environ, **env_extra)
    cpu0, wall0 = children_cpu_now(), time.perf_counter()
    # Its own session, so a timeout kills the sweep workers too.
    proc = subprocess.Popen(
        [sys.executable, CLI_ENTRY] + argv, env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        rc = "timeout"
    return rc, stderr, children_cpu_now() - cpu0, time.perf_counter() - wall0


def scale_pass(spec, seed, env, trace=False):
    """The fresh sweep, then the identical command replaying it."""
    work = env.fresh_dir("scale-")
    jobs = str(min(2, os.cpu_count() or 1))
    argv = spec["argv"] + ["--seed", str(seed), "--jobs", jobs]
    base = {
        "REPRO_RESULTS_DIR": os.path.join(work, "cache"),
        "REPRO_RUNS_DIR": os.path.join(work, "runs"),
        "PERFBENCH_TRACE": "1" if trace else "0",
    }
    result_pass = Pass()
    runs = {}
    for phase in ("fresh", "replay"):
        hook_dir = os.path.join(work, phase)
        os.makedirs(hook_dir)
        rc, stderr, cpu_s, wall_s = _run_cli(
            argv, dict(base, PERFBENCH_HOOKS=hook_dir), CLI_TIMEOUT_S)
        result_pass.cpu_s += cpu_s
        result_pass.wall_s += wall_s
        runs[phase] = (rc, stderr, hook_dir, wall_s)
    check_scale_pass(spec, work, runs, result_pass)
    return result_pass


def check_scale_pass(spec, work, runs, result_pass):
    """Cell outcomes of one scale pass, from the files it left."""
    n_cells = spec["cells"]
    result_pass.attempted += 2 * n_cells
    rc, stderr, hook_dir, _ = runs["fresh"]
    if rc != 0:
        log("fresh sweep exited %s:\n%s" % (rc, stderr[-2000:]))
    records = hooks.read_cell_logs(hook_dir)
    for record in records:
        result_pass.setup_s += record["setup_s"]
        result_pass.events += record["events"] or 0
        if record["engine"] != spec["engine"]:
            result_pass.failed.append((record["label"], "ran on the %s "
                                       "engine" % record["engine"]))
    cache_dir = os.path.join(work, "cache")
    names = sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []
    for name in names:
        if not name.endswith(".json"):
            continue
        with open(os.path.join(cache_dir, name)) as fh:
            payload = json.load(fh)
        result_pass.payloads.append(payload)
        result_pass.hashes[name[:-len(".json")]] = \
            hooks.payload_sha256(payload)
    missing = n_cells - len(result_pass.payloads)
    if missing > 0 or len(records) != n_cells:
        result_pass.failed.extend(
            [("fresh", "cell missing or not executed")]
            * max(missing, n_cells - len(records)))
    if rc != 0:
        result_pass.failed.append(("fresh", "exited %s" % rc))
    reports = [_run_report(os.path.join(work, "runs"), runs[phase][2])
               for phase in ("fresh", "replay")]
    rc_replay, replay_err, _, replay_wall = runs["replay"]
    replayed = replay_err.count("[repro] cached ")
    if rc_replay != 0 or replayed != n_cells:
        result_pass.failed.extend(
            [("replay", "cell not replayed from the cache")]
            * max(n_cells - replayed, 1 if rc_replay != 0 else 0))
    elif reports[0] is None or reports[0] != reports[1]:
        result_pass.failed.extend(
            [("replay", "report.txt differs from the fresh run")] * n_cells)
    if reports[0] is not None:
        result_pass.hashes["report.txt"] = hashlib.sha256(
            reports[0].encode()).hexdigest()
    result_pass.peak_rss_mb = max(
        _read_meta(runs[p][2]).get("peak_rss_kb", 0) for p in runs) / 1024.0
    result_pass.extra["replay_wall_s"] = replay_wall
    result_pass.extra["hook_dirs"] = [runs[p][2] for p in runs]


def _run_report(runs_root, hook_dir):
    """The report.txt of the run-store run one command wrote, or None."""
    run_dir = _read_meta(hook_dir).get("run_dir")
    if not run_dir:
        return None
    path = os.path.join(runs_root, os.path.basename(run_dir), "report.txt")
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


# ---------------------------------------------------------------------
# Correctness.
# ---------------------------------------------------------------------


def check_hashes(result_pass, expected, reference):
    """Compare a pass's payload digests with the stored ones, or, for a
    seed with none stored, with the first pass of this run."""
    want = expected if expected is not None else reference
    for cell, digest in sorted(result_pass.hashes.items()):
        if cell not in want:
            if expected is not None:
                result_pass.failed.append((cell, "no expected digest"))
            else:
                reference[cell] = digest
        elif want[cell] != digest:
            result_pass.failed.append((cell, "payload digest differs"))


# ---------------------------------------------------------------------
# End-to-end run.
# ---------------------------------------------------------------------


def isolated_paper_pass(name, seed):
    """One paper pass in a fresh interpreter (see ``pass_entry.py``)."""
    result_pass = Pass()
    try:
        proc = subprocess.run(
            [sys.executable, PASS_ENTRY, name, str(seed)], cwd=ROOT,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        log("pass process failed: %s" % exc)
        result_pass.attempted = len(AFFINITIES)
        result_pass.failed = [("pass", "process failed")] * len(AFFINITIES)
        return result_pass
    for key in ("cpu_s", "wall_s", "events", "setup_s", "hashes",
                "attempted"):
        setattr(result_pass, key, out[key])
    result_pass.failed = [tuple(f) for f in out["failed"]]
    result_pass.peak_rss_mb = out["peak_rss_kb"] / 1024.0
    return result_pass


def timed_run(name, spec, seed, seconds, env, expected):
    setup_probes = [measure_setup_probe() for _ in range(SETUP_PROBES)]
    passes = []
    reference = {}
    start = time.perf_counter()
    while True:
        if spec["kind"] == "paper":
            result_pass = isolated_paper_pass(name, seed)
        else:
            result_pass = scale_pass(spec, seed, env)
        check_hashes(result_pass, expected, reference)
        passes.append(result_pass)
        elapsed = time.perf_counter() - start
        log("%s pass %d: cpu %.3fs wall %.3fs events %d setup %.3fs "
            "failed %d" % (name, len(passes), result_pass.cpu_s,
                           result_pass.wall_s, result_pass.events,
                           result_pass.setup_s, len(result_pass.failed)))
        last = elapsed / len(passes)
        if elapsed >= seconds or elapsed + last > RUN_BUDGET_S:
            break
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failed]
    for cell, reason in failures[:10]:
        log("FAILED %s: %s" % (cell, reason))
    cpu = statistics.median(p.cpu_s for p in passes)
    wall = statistics.median(p.wall_s for p in passes)
    rate = statistics.median(p.events / p.cpu_s for p in passes)
    setup = statistics.median(setup_probes) + statistics.median(
        p.setup_s for p in passes)
    log("%d passes; setup probes %s" % (
        len(passes), " ".join("%.3f" % s for s in setup_probes)))
    metrics = {
        "cpu_s": (cpu, "s"),
        "wall_s": (wall, "s"),
        "events_per_s": (rate, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes),
                        "MB"),
        "ok_frac": (1.0 - len(failures) / float(attempted), "ratio"),
    }
    return not failures, attempted, len(failures), metrics


# ---------------------------------------------------------------------
# Traced run.
# ---------------------------------------------------------------------


def traced_paper(spec, seed, expected, probe_dir):
    """One untraced pass, then one traced pass, in this process."""
    plain = paper_pass(spec, seed)
    check_hashes(plain, expected, {})
    found = hooks.discover(lambda: hooks.probe_cells(probe_dir))
    tracer = hooks.Tracer()
    present = hooks.install(tracer, found)
    cell_log = hooks.CellLog(tracer=tracer)
    cell_log.install()
    tracer.reset()
    traced = paper_pass(spec, seed, cell_log)
    merged = hooks.merge_dumps([tracer.dump()])
    return plain, traced, merged, present, {
        "setup_s": traced.setup_s,
        "events": sum(r["events"] for r in cell_log.records),
        "worker_util": 0.0,
        "replay_s": 0.0,
    }


def traced_scale(spec, seed, expected, env):
    plain = scale_pass(spec, seed, env)
    check_hashes(plain, expected, {})
    traced = scale_pass(spec, seed, env, trace=True)
    dumps, present, discovery_cpu = [], set(), 0.0
    for hook_dir in traced.extra["hook_dirs"]:
        dumps.extend(hooks.read_span_dumps(hook_dir))
        meta = _read_meta(hook_dir)
        discovery_cpu += meta.get("discovery_cpu_s", 0.0)
        present.update(meta.get("present", ()))
    traced.cpu_s -= discovery_cpu
    fresh = _read_meta(plain.extra["hook_dirs"][0])
    jobs = min(2, os.cpu_count() or 1)
    return plain, traced, hooks.merge_dumps(dumps), present, {
        "setup_s": traced.setup_s,
        "events": traced.events,
        "worker_util": fresh.get("children_cpu_s", 0.0)
        / (jobs * fresh.get("main_wall_s", float("inf"))),
        "replay_s": plain.extra["replay_wall_s"],
    }


def _read_meta(hook_dir):
    """What ``cli_entry.py`` recorded about one command ({} if it died)."""
    try:
        with open(os.path.join(hook_dir, "meta.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def traced_passes(spec, seed, env, expected):
    """An untraced and a traced pass, and the traced pass's per-layer
    metrics: ``(plain, traced, metrics, facts)``."""
    if spec["kind"] == "paper":
        plain, traced, merged, present, facts = traced_paper(
            spec, seed, expected, env.fresh_dir("probe-"))
    else:
        plain, traced, merged, present, facts = traced_scale(
            spec, seed, expected, env)
    # Instrumentation must not perturb the simulation.
    if traced.hashes != plain.hashes:
        traced.failed.append(("traced", "payload digests differ from the "
                              "untraced pass"))
    metrics = layer_metrics(merged, present, facts, plain, traced)
    return plain, traced, metrics, facts


def traced_run(name, spec, seed, env, expected):
    plain, traced, metrics, _ = traced_passes(spec, seed, env, expected)
    failures = plain.failed + traced.failed
    for cell, reason in failures[:10]:
        log("FAILED %s: %s" % (cell, reason))
    attempted = plain.attempted + traced.attempted
    return not failures, attempted, len(failures), metrics


def layer_metrics(merged, present, facts, plain, traced):
    """The per-layer metrics; a metric whose target no longer exists in
    the program is left out."""
    from repro.cpu.events import LLC_MISSES, MACHINE_CLEARS

    sites, groups = merged["sites"], merged["groups"]
    by_layer = {}
    event_calls = 0
    for (layer, name), (calls, self_ns, _) in sites.items():
        by_layer[layer] = by_layer.get(layer, 0.0) + self_ns / 1e9
        if name == "<event>":
            event_calls += calls

    def group_self(metric):
        members = merged["members"].get(metric, ())
        return sum(sites[tuple(m)][1] for m in members) / 1e9

    out = {}

    def put(key, value, unit, needs=None):
        if needs is None or needs in present:
            out[key] = (value, unit)

    def calls(metric):
        return groups.get(metric, (0, 0))[0]

    def total_s(metric):
        return groups.get(metric, (0, 0))[1] / 1e9

    if event_calls != facts["events"]:
        log("event callbacks %d != engine events_fired %d; sim.events "
            "left out" % (event_calls, facts["events"]))
    else:
        put("sim.events", event_calls, "count", "sim.schedule")
    put("sim.schedule.calls", calls("sim.schedule"), "count", "sim.schedule")
    put("sim.self_s", by_layer.get("sim", 0.0), "s")
    if event_calls:
        put("sim.ns_per_event", by_layer.get("sim", 0.0) * 1e9 / event_calls,
            "ns", "sim.schedule")
    put("kernel.charge.calls", calls("kernel.charge"), "count",
        "kernel.charge")
    put("kernel.charge.self_s", group_self("kernel.charge"), "s",
        "kernel.charge")
    put("kernel.hardirq.calls", calls("kernel.hardirq"), "count",
        "kernel.hardirq")
    put("kernel.wakeup.calls", calls("kernel.wakeup"), "count",
        "kernel.wakeup")
    put("kernel.self_s", by_layer.get("kernel", 0.0), "s")
    put("cpu.charge.calls", calls("cpu.charge"), "count", "cpu.charge")
    put("cpu.self_s", by_layer.get("cpu", 0.0), "s")
    core_s = by_layer.get(hooks.CORE_LAYER, 0.0)
    if calls("cpu.charge"):
        # The whole charge path: Python dispatch plus the C core.
        put("cpu.ns_per_charge", (by_layer.get("cpu", 0.0) + core_s) * 1e9
            / calls("cpu.charge"), "ns", "cpu.charge")
    if hooks.CORE_LAYER in by_layer:
        put("cpu.core.self_s", core_s, "s")
    put("mem.dma.calls", calls("mem.dma"), "count", "mem.dma")
    put("mem.field.calls", calls("mem.field"), "count", "mem.field")
    put("mem.self_s", by_layer.get("mem", 0.0), "s")
    put("prof.self_s", by_layer.get("prof", 0.0), "s")
    put("net.self_s", by_layer.get("net", 0.0), "s")
    for op in ("rx_action", "sys_read", "sys_write", "deliver_frame",
               "skb_alloc", "base_instructions"):
        metric = "net." + op
        put(metric + ".calls", calls(metric), "count", metric)
    put("apps.self_s", by_layer.get("apps", 0.0), "s")
    put("core.setup_s", facts["setup_s"], "s")
    put("core.result_s", total_s("core.result"), "s", "core.result")
    put("core.cache_put_s", total_s("core.cache_put"), "s", "core.cache_put")
    put("core.cache_get_s", total_s("core.cache_get"), "s", "core.cache_get")
    put("core.pool_wait_s", total_s("core.pool_wait"), "s",
        "core.pool_wait")
    put("core.worker_util", facts["worker_util"], "ratio")
    put("runstore.record_cell.calls", calls("runstore.record_cell"),
        "count", "runstore.record_cell")
    put("runstore.record_cell_s", total_s("runstore.record_cell"), "s",
        "runstore.record_cell")
    put("runstore.lookup_cell_s", total_s("runstore.lookup_cell"), "s",
        "runstore.lookup_cell")
    put("runstore.replay_s", facts["replay_s"], "s")

    payloads = traced.payloads
    n = float(len(payloads)) or 1.0
    put("model.throughput_gbps",
        sum(p["throughput_gbps"] for p in payloads) / n, "Gb/s")
    put("model.ghz_per_gbps",
        sum(p["cost_ghz_per_gbps"] for p in payloads) / n, "GHz/Gbps")
    put("model.llc_misses", sum(v[LLC_MISSES] for p in payloads
                                for v in p["bins"].values()), "count")
    put("model.machine_clears", sum(v[MACHINE_CLEARS] for p in payloads
                                    for v in p["bins"].values()), "count")
    put("model.ipis", sum(sum(p["ipis"]) for p in payloads), "count")

    # Spans measure wall time: in a single process the share can pass
    # 1.0 by the time the process spent preempted.
    attributed = sum(t for layer, t in by_layer.items()
                     if layer != hooks.HOST)
    put("trace.overhead_ratio", traced.cpu_s / plain.cpu_s, "ratio")
    put("trace.coverage", attributed / traced.cpu_s, "ratio")
    top = sorted(by_layer.items(), key=lambda kv: -kv[1])
    log("self time by layer: " + ", ".join(
        "%s %.3fs" % kv for kv in top) + "; traced cpu %.3fs, untraced "
        "cpu %.3fs" % (traced.cpu_s, plain.cpu_s))
    top = sorted(sites.items(), key=lambda kv: -kv[1][1])[:25]
    log("top sites by self time:\n" + "\n".join(
        "  %-8s %-40s %9d calls %8.3fs self" % (
            layer, name, calls, self_ns / 1e9)
        for (layer, name), (calls, self_ns, _) in top))
    return out


# ---------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------


def run(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    env = Env(spec["engine"])
    try:
        log("engine requested %s; cc %s" % (
            spec["engine"], shutil.which("cc") or "not found"))
        # Untimed: builds the compiled engine into the build directory
        # on a first run, and compiles the sources' bytecode.
        measure_setup_probe()
        expected = load_expected().get(name, {}).get(str(seed))
        if expected is None:
            log("no stored digests for seed %d: checking that every pass "
                "reproduces the first" % seed)
        if trace:
            return traced_run(name, spec, seed, env, expected)
        return timed_run(name, spec, seed, seconds, env, expected)
    finally:
        env.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="simulation seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep starting timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no simulator sources at %s" % SRC, file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload]["seed"] if args.seed is None \
        else args.seed
    correct, attempted, failed, metrics = run(
        args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
