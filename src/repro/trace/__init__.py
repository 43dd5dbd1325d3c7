"""Trace-event observability: tracepoints, analyses, exporters.

Attach a :class:`Tracer` to a machine (``machine.attach_tracer``) or
run a traced experiment (``ExperimentConfig(trace=True)``); analyse
with :mod:`repro.trace.analyses`; export with
:mod:`repro.trace.export` (Chrome trace-event JSON for Perfetto, or
collapsed stacks for flamegraphs).

====================  ==============================================
:mod:`.tracer`        ``Tracer``, ``TraceOptions``, ``TraceEvent``,
                      ``EVENT_NAMES``
:mod:`.analyses`      ``LatencyStats``, ``summarize``,
                      ``irq_to_softirq_latencies``,
                      ``irq_to_copy_latencies``, ``render_timeline``,
                      ``top_producers`` and the per-CPU counts
:mod:`.export`        ``to_chrome_trace``/``write_chrome_trace``,
                      ``to_flamegraph``/``write_flamegraph``
====================  ==============================================

Import names from their defining module; the package re-exports
nothing.
"""
