"""Self-tests of the benchmark's traced run.

    python3 -m pytest perfbench -q

Each scenario runs in a fresh interpreter
(``python3 perfbench/test_perfbench.py <scenario>``): the span
wrappers stay installed for the life of a process, so two traced runs
cannot share one.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hooks  # noqa: E402
import run  # noqa: E402

#: A short paper-rx64k: every single-NIC layer runs in a few seconds.
SHORT = dict(run.WORKLOADS["paper-rx64k"], warmup_ms=2, measure_ms=3)

#: Four scale cells on a forked pool: both steering modes, exact and
#: flow-class-aggregated populations.
SCALE_SHORT = dict(
    run.WORKLOADS["scale-sweep"], cells=4,
    argv=["scale", "--direction", "rx", "--cpus", "2", "--sizes", "4096",
          "--queues", "2", "--connections", "16", "1000",
          "--warmup-ms", "1", "--measure-ms", "1"],
)

#: Total busy-wait the attribution test injects at one boundary.
INJECTED_S = 2.0


def scenario(name, *args):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), name]
        + [str(a) for a in args],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_counts_match_the_program_and_outputs_are_unperturbed():
    out = scenario("plain")
    # Includes the check that traced payload digests equal untraced.
    assert out["failed"] == []
    m = out["metrics"]
    # sim.events is only reported when the wrapped event callbacks
    # equal the engines' own events_fired.
    assert m["sim.events"] == out["engine_events"] > 0
    assert m["trace.coverage"] >= 0.9
    for key in ("kernel.charge.calls", "cpu.charge.calls", "mem.field.calls",
                "net.sys_read.calls", "net.rx_action.calls",
                "cpu.core.self_s"):
        assert m[key] > 0, key


def test_missing_target_is_reported_absent():
    out = scenario("without-kernel-charge")
    assert out["failed"] == []
    m = out["metrics"]
    assert "kernel.charge.calls" not in m
    assert "kernel.charge.self_s" not in m
    assert m["cpu.charge.calls"] > 0
    assert m["sim.events"] > 0


def test_injected_delay_lands_in_its_own_layer():
    """Ren et al.'s check of an operator-cost attribution: add a known
    cost to one operator and see where the measured delta lands."""
    base = scenario("plain")
    per_call = INJECTED_S / base["metrics"]["net.sys_read.calls"]
    slow = scenario("delay-sys-read", per_call)
    assert slow["failed"] == []
    d_cpu = slow["traced_cpu_s"] - base["traced_cpu_s"]
    delta = {k: slow["metrics"][k] - base["metrics"][k]
             for k in ("net.self_s", "apps.self_s", "kernel.self_s",
                       "cpu.self_s")}
    assert d_cpu > 0.8 * INJECTED_S, d_cpu
    assert delta["net.self_s"] >= 0.9 * d_cpu, (d_cpu, delta)
    for parent_or_child in ("apps.self_s", "kernel.self_s", "cpu.self_s"):
        assert abs(delta[parent_or_child]) < 0.1 * d_cpu, (d_cpu, delta)


def test_spans_of_forked_workers_are_merged():
    out = scenario("scale")
    assert out["failed"] == []
    m = out["metrics"]
    assert out["span_files"] >= 2  # the CLI process and its workers
    assert m["sim.events"] == out["engine_events"] > 0
    assert m["runstore.record_cell.calls"] == SCALE_SHORT["cells"]
    assert m["net.self_s"] > 0
    assert m["core.worker_util"] > 0


# ---------------------------------------------------------------------
# Scenarios (each in its own interpreter).
# ---------------------------------------------------------------------


def _hide(layer, name):
    """Make discovery behave as if ``layer``'s ``name`` were gone, as
    after a refactor that folds it into its caller."""
    real = hooks.discover

    def discover(probe):
        found = real(probe)
        for code, where in list(found.called.items()):
            if where == layer and code.co_name == name:
                del found.called[code]
                found.boundary.discard(code)
        return found

    hooks.discover = discover


def _delay_sys_read(per_call_s):
    """Busy-wait ``per_call_s`` at the start of every ``sys_read``.

    The replacement is compiled in the namespace of the module that
    defines ``sys_read``, so the tracer files it in the same layer."""
    from repro.net import stack as module

    source = (
        "def sys_read(self, ctx, conn, nbytes, _orig=None, _clock=None,\n"
        "             _delay=0.0):\n"
        "    end = _clock() + _delay\n"
        "    while _clock() < end:\n"
        "        pass\n"
        "    return (yield from _orig(self, ctx, conn, nbytes))\n"
    )
    namespace = {}
    exec(source, vars(module), namespace)
    delayed = namespace["sys_read"]
    delayed.__defaults__ = (module.NetworkStack.sys_read,
                            time.perf_counter, per_call_s)
    module.NetworkStack.sys_read = delayed


def main(argv):
    name = argv[0]
    spec = SCALE_SHORT if name == "scale" else SHORT
    env = run.Env(spec["engine"])
    try:
        if name == "without-kernel-charge":
            _hide("kernel", "charge")
        elif name == "delay-sys-read":
            _delay_sys_read(float(argv[1]))
        plain, traced, metrics, facts = run.traced_passes(
            spec, spec["seed"], env, None)
        span_files = sum(
            len(hooks.read_span_dumps(d))
            for d in traced.extra.get("hook_dirs", ()))
        print(json.dumps({
            "failed": plain.failed + traced.failed,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "engine_events": facts["events"],
            "traced_cpu_s": traced.cpu_s,
            "span_files": span_files,
        }))
    finally:
        env.close()


if __name__ == "__main__":
    main(sys.argv[1:])
