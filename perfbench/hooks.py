"""Call hooks for the benchmark: per-cell phase records and layer spans.

Nothing here edits the simulator.  Both mechanisms replace attributes
of live modules and classes with wrappers, from outside:

* :class:`CellLog` (always on) wraps ``run_experiment`` and
  ``Machine.start`` to record, per executed cell, the construction
  time up to ``Machine.start``, the charging engine that actually ran
  and the events the engine fired.
* :class:`Tracer` (traced runs only) wraps the functions at every
  layer boundary.  A layer is a ``repro.<pkg>`` package.  The targets
  are found by :func:`discover`, which runs small probe cells under
  ``sys.setprofile`` and keeps every function called from a different
  layer, plus the named functions of :data:`NAMED`.  Nothing is looked
  up by class path, so a target that a refactor removes simply stops
  being wrapped and its metric is reported as absent.

Each wrapper counts calls and keeps a span.  Self time is charged by
layer transitions: entering a span charges the elapsed time to the
span below it, leaving charges it to the span being left.  A site's
self time is therefore its span time minus the time of its child
spans.  Event callbacks are wrapped as they are scheduled, so the
event loop's own cost stays in ``sim`` and every fired callback runs
in a span of the layer that defined it.

Forked sweep workers inherit the wrappers.  ``os.register_at_fork``
zeroes the inherited counters in the child, and the child writes its
totals to ``spans-<pid>.json`` after every cell; :func:`merge_dumps`
sums them.
"""

import functools
import hashlib
import inspect
import json
import os
import sys
import sysconfig
import time
import types

HOST = "host"

#: Named per-layer metrics: metric prefix -> (layer, function name)
#: pairs.  Calls are counted only at the outermost member, so a wrapper
#: that calls another member is not counted twice.
NAMED = {
    "sim.schedule": (("sim", "schedule"),),
    "kernel.charge": (("kernel", "charge"),),
    "kernel.hardirq": (("kernel", "deliver_pending_hardirqs"),),
    "kernel.wakeup": (("kernel", "wake_up"),),
    "cpu.charge": (("cpu", "charge"),),
    "mem.dma": (("mem", "dma_read"), ("mem", "dma_write")),
    "mem.field": (("mem", "field"),),
    "net.rx_action": (("net", "net_rx_action"),),
    "net.sys_read": (("net", "sys_read"),),
    "net.sys_write": (("net", "sys_write"),),
    "net.deliver_frame": (("net", "deliver_frame"),),
    "net.skb_alloc": (("net", "alloc"),),
    "net.base_instructions": (("net", "base_instructions"),),
    # No metric of its own: it puts a sweep worker's cells, which
    # ``_run_cell`` calls from inside core, in a core span.
    "core.run_experiment": (("core", "run_experiment"),),
    "core.result": (("core", "from_machine"), ("faults", "check")),
    "core.cache_put": (("core", "put"),),
    "core.cache_get": (("core", "get"),),
    "runstore.record_cell": (("runstore", "record_cell"),),
    "runstore.lookup_cell": (("runstore", "lookup_cell"),),
}

#: The compiled charge core is a C extension loaded from a build
#: cache; its entry points get their own layer so ``cpu`` keeps only
#: the Python dispatch in front of them.
CORE_LAYER = "cpu.core"

_STDLIB_DIRS = tuple(sorted({
    path for key in ("stdlib", "platstdlib", "purelib", "platlib")
    for path in [sysconfig.get_paths().get(key)] if path
}))


def layer_of(module_name):
    """``repro.net.stack`` -> ``net``; anything outside repro -> host."""
    if module_name and module_name.startswith("repro."):
        return module_name.split(".")[1]
    return HOST


def payload_sha256(payload):
    """The golden-table digest of one result payload."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _repro_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _replace_everywhere(old, new):
    """Rebind every repro module global that refers to ``old``."""
    for mod in _repro_modules():
        namespace = vars(mod)
        for name, value in list(namespace.items()):
            if value is old:
                namespace[name] = new


# ---------------------------------------------------------------------
# Per-cell phase records.
# ---------------------------------------------------------------------


class CellLog:
    """Records construction time, engine and events of every cell.

    ``directory`` set: each record is also appended to
    ``cells-<pid>.jsonl`` there, which is how forked sweep workers
    report back.  ``tracer`` set: worker processes flush the tracer's
    totals after every cell.
    """

    def __init__(self, directory=None, tracer=None):
        self.directory = directory
        self.tracer = tracer
        self.records = []
        self._t0 = None
        self._setup = None

    def install(self):
        from repro.core import experiment
        from repro.kernel.machine import Machine

        run_experiment = experiment.run_experiment
        log = self

        @functools.wraps(run_experiment)
        def logged_run(config, *args, **kwargs):
            log._t0 = time.perf_counter()
            log._setup = None
            result = run_experiment(config, *args, **kwargs)
            if log._setup is not None:  # executed, not a cache hit
                log._record(config, result)
            return result

        start = Machine.start

        @functools.wraps(start)
        def logged_start(machine, *args, **kwargs):
            if log._setup is None and log._t0 is not None:
                log._setup = time.perf_counter() - log._t0
            return start(machine, *args, **kwargs)

        _replace_everywhere(run_experiment, logged_run)
        Machine.start = logged_start

    def _record(self, config, result):
        record = {
            "label": config.label(),
            "setup_s": self._setup,
            "engine": getattr(result, "charge_engine", None),
            "events": getattr(result, "events_fired", None),
        }
        self.records.append(record)
        if self.directory:
            path = os.path.join(self.directory,
                                "cells-%d.jsonl" % os.getpid())
            with open(path, "a") as fh:
                fh.write(json.dumps(record) + "\n")
        tracer = self.tracer
        if tracer is not None and os.getpid() != tracer.root_pid:
            tracer.flush()


def read_cell_logs(directory):
    """All records written under ``directory`` by :class:`CellLog`."""
    records = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("cells-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as fh:
                records.extend(json.loads(line) for line in fh if line)
    return records


# ---------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------


class Site:
    """One wrapped function: its call count and times."""

    __slots__ = ("layer", "name", "calls", "self_ns", "total_ns", "depth",
                 "groups")

    def __init__(self, layer, name):
        self.layer = layer
        self.name = name
        self.groups = ()
        self.zero()

    def zero(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.depth = 0


class Group:
    """A named metric over one or more sites, counted outermost."""

    __slots__ = ("name", "calls", "total_ns", "depth", "sites")

    def __init__(self, name):
        self.name = name
        self.sites = []
        self.zero()

    def zero(self):
        self.calls = 0
        self.total_ns = 0
        self.depth = 0


class Tracer:
    """Span bookkeeping for one process (reset in forked children).

    Every span costs the tracer about a microsecond, split between the
    span and its parent, so call-heavy layers read high; the counts
    are exact.  No constant per-span correction is subtracted: the
    cost depends on the call site, and such a correction moves the
    layer shares away from a sampling profiler's."""

    def __init__(self, flush_dir=None):
        self.sites = {}
        self.groups = {}
        self.root = self.site(HOST, "<root>")
        self.stack = [self.root]
        self.last = time.perf_counter_ns()
        self.root_pid = os.getpid()
        self.flush_dir = flush_dir
        self._event_sites = {}
        os.register_at_fork(after_in_child=self._after_fork)

    def site(self, layer, name):
        key = (layer, name)
        site = self.sites.get(key)
        if site is None:
            site = self.sites[key] = Site(layer, name)
        return site

    def group(self, name):
        group = self.groups.get(name)
        if group is None:
            group = self.groups[name] = Group(name)
        return group

    def reset(self, root=None):
        """Zero every total and restart from an empty span stack."""
        for site in self.sites.values():
            site.zero()
        for group in self.groups.values():
            group.zero()
        del self.stack[:]
        self.stack.append(root or self.root)
        self.last = time.perf_counter_ns()

    def _after_fork(self):
        # The child inherits the parent's totals and span stack; it
        # never returns through the parent's frames, so start afresh.
        self.reset(self.site(HOST, "<worker>"))

    # -- wrappers -------------------------------------------------------

    def _enter(self, site, now):
        self.stack[-1].self_ns += now - self.last
        self.stack.append(site)
        self.last = now
        site.depth += 1
        for group in site.groups:
            group.depth += 1

    def _leave(self, site, t_enter):
        end = time.perf_counter_ns()
        site.self_ns += end - self.last
        self.last = end
        self.stack.pop()
        site.depth -= 1
        if not site.depth:
            site.total_ns += end - t_enter
        for group in site.groups:
            group.depth -= 1
            if not group.depth:
                group.total_ns += end - t_enter

    def wrap_callable(self, fn, site):
        """A span around every call of ``fn`` (the hot path of a traced
        run, hence the inlined bookkeeping)."""
        stack, clock, tracer = self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            now = clock()
            stack[-1].self_ns += now - tracer.last
            stack.append(site)
            tracer.last = now
            site.calls += 1
            site.depth += 1
            groups = site.groups
            for group in groups:
                if not group.depth:
                    group.calls += 1
                group.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                site.self_ns += end - tracer.last
                tracer.last = end
                stack.pop()
                site.depth -= 1
                if not site.depth:
                    site.total_ns += end - now
                for group in groups:
                    group.depth -= 1
                    if not group.depth:
                        group.total_ns += end - now

        return spanned

    def wrap_generator_function(self, fn, site):
        """A span around every resumption of the generators ``fn``
        makes; the call itself is counted once, at creation."""
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            site.calls += 1
            for group in site.groups:
                if not group.depth:
                    group.calls += 1
            return _SpannedGenerator(fn(*args, **kwargs), site, tracer)

        return spanned

    def wrap_scheduler(self, fn, site, callback_index):
        """A span around ``fn`` that also wraps the event callback it
        receives, so the callback fires in a span of its own layer."""
        spanned = self.wrap_callable(fn, site)
        event_wrapper = self.event_callback

        @functools.wraps(fn)
        def scheduling(*args, **kwargs):
            if len(args) > callback_index:
                args = list(args)
                args[callback_index] = event_wrapper(args[callback_index])
            elif "callback" in kwargs:
                kwargs["callback"] = event_wrapper(kwargs["callback"])
            return spanned(*args, **kwargs)

        return scheduling

    def event_callback(self, callback):
        owner = getattr(callback, "func", callback)
        layer = layer_of(getattr(owner, "__module__", None))
        site = self._event_sites.get(layer)
        if site is None:
            site = self._event_sites[layer] = self.site(layer, "<event>")
        stack, clock, tracer = self.stack, time.perf_counter_ns, self

        def fire():
            now = clock()
            stack[-1].self_ns += now - tracer.last
            stack.append(site)
            tracer.last = now
            site.calls += 1
            site.depth += 1
            try:
                return callback()
            finally:
                end = clock()
                site.self_ns += end - tracer.last
                tracer.last = end
                stack.pop()
                site.depth -= 1
                if not site.depth:
                    site.total_ns += end - now

        return fire

    # -- results --------------------------------------------------------

    def dump(self):
        """Plain-data totals (closes the open root interval first)."""
        now = time.perf_counter_ns()
        self.stack[-1].self_ns += now - self.last
        self.last = now
        return {
            "sites": [
                [s.layer, s.name, s.calls, s.self_ns, s.total_ns]
                for s in self.sites.values()
            ],
            "groups": {
                g.name: [g.calls, g.total_ns] for g in self.groups.values()
            },
            "members": {
                g.name: [[s.layer, s.name] for s in g.sites]
                for g in self.groups.values()
            },
        }

    def flush(self):
        if not self.flush_dir:
            return
        path = os.path.join(self.flush_dir, "spans-%d.json" % os.getpid())
        tmp = path + ".part"
        with open(tmp, "w") as fh:
            json.dump(self.dump(), fh)
        os.replace(tmp, path)


class _SpannedGenerator:
    """Generator proxy that runs every resumption inside a span."""

    __slots__ = ("_gen", "_site", "_tracer")

    def __init__(self, gen, site, tracer):
        self._gen = gen
        self._site = site
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _resume(self, method, *args):
        now = time.perf_counter_ns()
        tracer = self._tracer
        tracer._enter(self._site, now)
        try:
            return method(*args)
        finally:
            tracer._leave(self._site, now)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._resume(self._gen.close)


def merge_dumps(dumps):
    """Sum several :meth:`Tracer.dump` results (parent + workers)."""
    sites = {}
    groups = {}
    members = {}
    for dump in dumps:
        for layer, name, calls, self_ns, total_ns in dump["sites"]:
            row = sites.setdefault((layer, name), [0, 0, 0])
            row[0] += calls
            row[1] += self_ns
            row[2] += total_ns
        for name, (calls, total_ns) in dump["groups"].items():
            row = groups.setdefault(name, [0, 0])
            row[0] += calls
            row[1] += total_ns
        for name, sites_of in dump["members"].items():
            known = members.setdefault(name, [])
            known.extend(m for m in sites_of if m not in known)
    return {"sites": sites, "groups": groups, "members": members}


def read_span_dumps(directory):
    dumps = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                dumps.append(json.load(fh))
    return dumps


# ---------------------------------------------------------------------
# Discovery: which functions sit on a layer boundary.
# ---------------------------------------------------------------------


class Discovery:
    """What a probe run called: boundary functions, named functions and
    C-extension entry points, keyed by code object."""

    def __init__(self):
        self.called = {}        # code -> layer of every repro function
        self.boundary = set()   # codes called from another layer
        self.c_entries = {}     # (module, name) -> builtin function


def _is_foreign_extension(module):
    path = getattr(module, "__file__", None)
    return bool(path) and not path.startswith(_STDLIB_DIRS)


def discover(probe):
    """Run ``probe()`` under a profile hook and return a
    :class:`Discovery` of the functions it crossed layers into."""
    found = Discovery()
    seen = set()
    c_seen = set()
    module_type = types.ModuleType

    def frame_layer(frame):
        if frame is None:
            return HOST
        return layer_of(frame.f_globals.get("__name__"))

    def hook(frame, event, arg):
        if event == "call":
            back = frame.f_back
            key = (frame.f_code, back.f_code if back is not None else None)
            if key in seen:
                return
            seen.add(key)
            callee = frame_layer(frame)
            if callee == HOST:
                return
            found.called[frame.f_code] = callee
            if frame_layer(back) != callee:
                found.boundary.add(frame.f_code)
        elif event == "c_call":
            module = getattr(arg, "__self__", None)
            if type(module) is not module_type or module in c_seen:
                return
            if frame_layer(frame) == HOST:
                return
            if _is_foreign_extension(module):
                for name in dir(module):
                    value = getattr(module, name)
                    if isinstance(value, types.BuiltinFunctionType):
                        found.c_entries[(module, name)] = value
            c_seen.add(module)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        probe()
    finally:
        sys.setprofile(previous)
    return found


def _index_functions():
    """code object -> (owner, attribute, kind) over loaded repro code."""
    index = {}
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType):
                if value.__module__ == mod.__name__:
                    index[value.__code__] = (mod, name, "func")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    if isinstance(member, types.FunctionType):
                        index[member.__code__] = (value, attr, "func")
                    elif isinstance(member, (staticmethod, classmethod)):
                        inner = member.__func__
                        if isinstance(inner, types.FunctionType):
                            kind = type(member).__name__
                            index[inner.__code__] = (value, attr, kind)
                    elif isinstance(member, property):
                        if isinstance(member.fget, types.FunctionType):
                            index[member.fget.__code__] = (
                                value, attr, "property")
    return index


def _owner_layer(owner):
    name = owner.__name__ if isinstance(owner, types.ModuleType) \
        else owner.__module__
    return layer_of(name)


def _owner_label(owner, attr):
    if isinstance(owner, types.ModuleType):
        return attr
    return "%s.%s" % (owner.__name__, attr)


def install(tracer, found):
    """Wrap every discovered target in ``tracer`` spans.

    Returns the names of :data:`NAMED` metrics whose targets exist.
    """
    index = _index_functions()
    named_codes = {}
    for metric, members in NAMED.items():
        for code, layer in found.called.items():
            if (layer, code.co_name) in members:
                named_codes.setdefault(code, []).append(metric)
    targets = set(found.boundary) | set(named_codes)
    present = set()
    for code in targets:
        where = index.get(code)
        if where is None:
            continue  # a closure or lambda: not reachable by attribute
        owner, attr, kind = where
        layer = _owner_layer(owner)
        if layer == HOST:
            continue
        site = tracer.site(layer, _owner_label(owner, attr))
        metrics = named_codes.get(code, ())
        site.groups = tuple(tracer.group(m) for m in metrics)
        for group in site.groups:
            group.sites.append(site)
        present.update(metrics)
        _wrap_attribute(tracer, owner, attr, kind, site)
    for (module, name), fn in found.c_entries.items():
        site = tracer.site(CORE_LAYER, name)
        setattr(module, name, tracer.wrap_callable(fn, site))
    if _wrap_pool_wait(tracer):
        present.add("core.pool_wait")
    return present


def _wrap_attribute(tracer, owner, attr, kind, site):
    member = vars(owner)[attr] if not isinstance(owner, types.ModuleType) \
        else getattr(owner, attr)
    if kind == "property":
        fn = member.fget
    elif kind in ("staticmethod", "classmethod"):
        fn = member.__func__
    else:
        fn = member
    if fn.__code__.co_flags & inspect.CO_GENERATOR:
        wrapped = tracer.wrap_generator_function(fn, site)
    elif site.layer == "sim" and fn.__code__.co_name == "schedule":
        params = list(inspect.signature(fn).parameters)
        if "callback" in params:
            wrapped = tracer.wrap_scheduler(fn, site,
                                            params.index("callback"))
        else:
            wrapped = tracer.wrap_callable(fn, site)
    else:
        wrapped = tracer.wrap_callable(fn, site)
    if kind == "property":
        setattr(owner, attr, property(wrapped, member.fset, member.fdel,
                                      member.__doc__))
    elif kind == "staticmethod":
        setattr(owner, attr, staticmethod(wrapped))
    elif kind == "classmethod":
        setattr(owner, attr, classmethod(wrapped))
    elif isinstance(owner, types.ModuleType):
        _replace_everywhere(fn, wrapped)
    else:
        setattr(owner, attr, wrapped)


def _wrap_pool_wait(tracer):
    """Time the sweep parent spends blocked on its worker pool.

    Kept in the host layer: the parent is idle there, so it is wall
    time, not CPU time attributed to a layer."""
    futures = sys.modules.get("concurrent.futures")
    if futures is None or not any(
            value is futures.wait
            for mod in _repro_modules() for value in vars(mod).values()):
        return False
    site = tracer.site(HOST, "pool_wait")
    site.groups = (tracer.group("core.pool_wait"),)
    site.groups[0].sites.append(site)
    _replace_everywhere(futures.wait, tracer.wrap_callable(futures.wait, site))
    return True


def probe_cells(directory):
    """Small cells that walk every path the workloads use: both
    engines, single- and multi-queue stacks, flow-class aggregation,
    and a sweep that writes, then reads back, its cache and journal.
    Only public entry points are called."""
    from repro.core.experiment import (
        ExperimentConfig,
        ResultCache,
        run_experiment,
    )
    from repro.core.parallel import SweepRunner
    from repro.runstore import RunStore

    tiny = dict(warmup_ms=1, measure_ms=1)
    saved = os.environ.get("REPRO_ENGINE")
    try:
        for engine, direction, size in (("compiled", "rx", 65536),
                                        ("pure", "tx", 1024)):
            os.environ["REPRO_ENGINE"] = engine
            for affinity in ("none", "full"):
                run_experiment(ExperimentConfig(
                    direction=direction, message_size=size,
                    affinity=affinity, n_connections=4, **tiny))
        os.environ["REPRO_ENGINE"] = "compiled"
        sweep = [
            ExperimentConfig(direction="rx", message_size=4096,
                             affinity=mode, n_cpus=4, n_queues=2,
                             n_connections=flows, aggregation="auto", **tiny)
            for mode in ("rss", "flow-director") for flows in (16, 1000)
        ]
        cache_dir = os.path.join(directory, "cache")
        runs = os.path.join(directory, "runs")
        store = RunStore.create("probe", root=runs)
        SweepRunner(jobs=1, cache=ResultCache(cache_dir),
                    journal=store).run(sweep)
        store.finalize("completed")
        store = RunStore.resume(store.run_id, root=runs)
        SweepRunner(jobs=1, journal=store).run(sweep)
        store.finalize("completed")
        SweepRunner(jobs=1, cache=ResultCache(cache_dir)).run(sweep)
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved
