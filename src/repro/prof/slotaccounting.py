"""Slot registry and flat-array accounting for the compiled engine.

The reference :class:`~repro.prof.accounting.ExactAccounting` keys a
dict by ``(cpu_index, spec)``.  The compiled engine instead numbers
every function spec with a small dense **slot** the first time it is
charged, and accumulates events in one flat ``array('q')`` of
``capacity * n_cpus * N_EVENTS`` -- a single indexed add per event
from C, no hashing, no boxing.

:class:`SlotRegistry` owns the spec -> slot mapping.  Slots are
assigned on demand (function tables grow lazily: IRQ entry stubs and
fault-path functions register mid-run), and growth notifies every
dependent array owner (accounting rows, per-domain branch-predictor
state) and bumps a generation counter the C engine watches to re-bind
buffers.

:class:`ArrayAccounting` reproduces ``ExactAccounting``'s observable
behaviour exactly, including chronological ``rows()`` order: the first
charge of each ``(cpu, spec)`` pair appends its flat index to an order
log, so aggregation order -- and therefore every report -- matches the
dict-insertion order of the reference.
"""

from array import array

from repro.cpu.events import N_EVENTS, zero_counts
from repro.cpu.function import BINS

#: ``SlotRegistry._meta`` layout (bound by the compiled engine).
REG_GENERATION = 0
#: ``ArrayAccounting._meta`` layout.
ACCT_ENABLED = 0
ACCT_ORDER_COUNT = 1


class SlotRegistry:
    """Dense function-slot numbering shared by accounting and the BP."""

    __slots__ = ("capacity", "specs", "names", "_spec_to_slot",
                 "_name_to_slot", "_meta", "_growers")

    def __init__(self, capacity=256):
        self.capacity = capacity
        self.specs = []   # slot -> the one FunctionSpec under that name
        self.names = []   # slot -> function name
        self._spec_to_slot = {}
        self._name_to_slot = {}
        self._meta = array("q", [0])
        self._growers = []

    def add_grower(self, callback):
        """Register ``callback(new_capacity)`` to run on every growth."""
        self._growers.append(callback)

    def _assign(self, spec):
        slot = len(self.names)
        if slot >= self.capacity:
            new_capacity = self.capacity * 2
            for grower in self._growers:
                grower(new_capacity)
            self.capacity = new_capacity
            self._meta[REG_GENERATION] += 1
        self.names.append(spec.name)
        self.specs.append(spec)
        self._name_to_slot[spec.name] = slot
        self._spec_to_slot[spec] = slot
        return slot

    def slot_for(self, spec):
        """Slot of ``spec``, assigning one on first sight.

        A second, distinct spec under a known name is rejected: the
        compiled engine would charge the first spec's code to it and
        merge both into one accounting row, where the pure engine keeps
        two.  :meth:`~repro.cpu.function.FunctionTable.register`
        never builds one.
        """
        slot = self._spec_to_slot.get(spec)
        if slot is not None:
            return slot
        if spec.name in self._name_to_slot:
            raise ValueError(
                "function %r already has a slot for a different spec"
                % spec.name
            )
        return self._assign(spec)

    def __len__(self):
        return len(self.names)


class ArrayAccounting:
    """Flat-array twin of :class:`~repro.prof.accounting.ExactAccounting`."""

    __slots__ = ("n_cpus", "registry", "_rows", "_touched", "_order",
                 "_meta")

    def __init__(self, n_cpus, registry):
        self.n_cpus = n_cpus
        self.registry = registry
        pairs = registry.capacity * n_cpus
        self._rows = array("q", [0]) * (pairs * N_EVENTS)
        self._touched = array("q", [0]) * pairs
        self._order = array("q", [0]) * pairs
        self._meta = array("q", [1, 0])  # enabled, order count
        registry.add_grower(self._grow)

    def _grow(self, new_capacity):
        pairs = new_capacity * self.n_cpus
        for name, width in (("_rows", N_EVENTS), ("_touched", 1),
                            ("_order", 1)):
            old = getattr(self, name)
            new = array("q", [0]) * (pairs * width)
            new[: len(old)] = old
            setattr(self, name, new)

    @property
    def enabled(self):
        return bool(self._meta[ACCT_ENABLED])

    @enabled.setter
    def enabled(self, value):
        self._meta[ACCT_ENABLED] = 1 if value else 0

    # -- recording -----------------------------------------------------

    def record(
        self,
        cpu_index,
        spec,
        cycles,
        instructions,
        branches,
        mispredicts,
        llc_misses,
        l2_hits,
        l3_hits,
        tc_misses,
        itlb_walks,
        dtlb_walks,
        machine_clears,
    ):
        """Accumulate one charge's events (same contract as the
        reference ``record``; the compiled engine performs these adds
        in C on the same buffers)."""
        meta = self._meta
        if not meta[ACCT_ENABLED]:
            return
        slot = self.registry.slot_for(spec)
        idx = slot * self.n_cpus + cpu_index
        touched = self._touched
        if not touched[idx]:
            touched[idx] = 1
            self._order[meta[ACCT_ORDER_COUNT]] = idx
            meta[ACCT_ORDER_COUNT] += 1
        rows = self._rows
        base = idx * N_EVENTS
        rows[base] += cycles
        rows[base + 1] += instructions
        rows[base + 2] += branches
        rows[base + 3] += mispredicts
        rows[base + 4] += llc_misses
        rows[base + 5] += l2_hits
        rows[base + 6] += l3_hits
        rows[base + 7] += tc_misses
        rows[base + 8] += itlb_walks
        rows[base + 9] += dtlb_walks
        rows[base + 10] += machine_clears

    def reset(self):
        """Drop all accumulated data (slot assignments survive)."""
        meta = self._meta
        rows = self._rows
        touched = self._touched
        order = self._order
        for k in range(meta[ACCT_ORDER_COUNT]):
            idx = order[k]
            touched[idx] = 0
            base = idx * N_EVENTS
            for i in range(base, base + N_EVENTS):
                rows[i] = 0
        meta[ACCT_ORDER_COUNT] = 0

    # -- aggregation (same outputs as the reference) -------------------

    def rows(self):
        """``((cpu_index, spec), vector)`` pairs, first-charge order."""
        out = []
        order = self._order
        rows = self._rows
        specs = self.registry.specs
        n_cpus = self.n_cpus
        for k in range(self._meta[ACCT_ORDER_COUNT]):
            idx = order[k]
            slot, cpu = divmod(idx, n_cpus)
            base = idx * N_EVENTS
            out.append(((cpu, specs[slot]),
                        list(rows[base: base + N_EVENTS])))
        return out

    def per_function(self, cpu_index=None, include_idle=False):
        out = {}
        for (cpu, spec), vec in self.rows():
            if cpu_index is not None and cpu != cpu_index:
                continue
            if not include_idle and spec.bin == "other":
                continue
            entry = out.get(spec.name)
            if entry is None:
                out[spec.name] = (spec, vec)
            else:
                row = entry[1]
                for i in range(N_EVENTS):
                    row[i] += vec[i]
        return out

    def per_bin(self, cpu_index=None):
        out = {name: zero_counts() for name in BINS}
        for (cpu, spec), vec in self.rows():
            if cpu_index is not None and cpu != cpu_index:
                continue
            row = out[spec.bin]
            for i in range(N_EVENTS):
                row[i] += vec[i]
        return out

    def total(self, include_idle=False):
        out = zero_counts()
        for (_, spec), vec in self.rows():
            if not include_idle and spec.bin == "other":
                continue
            for i in range(N_EVENTS):
                out[i] += vec[i]
        return out

    def cpus(self):
        return sorted({cpu for (cpu, _), _ in self.rows()})


class ClassColumns:
    """Fixed-size per-class accounting columns over one flat array.

    The scale study's aggregated workloads account bytes/messages per
    flow class.  Unlike the slot-registered arrays above, the class
    count is known exactly at stack-build time and never grows, so the
    columns are allocated once at final size: no growers, no
    generation bumps, and therefore no buffer re-binding churn in the
    compiled engine for code that holds a view.  Each named field is a
    contiguous ``array('q')`` segment exposed as a writable
    ``memoryview`` (buffer-protocol compatible, bindable by the C
    path), laid out field-major: ``[f0 c0..cN-1, f1 c0..cN-1, ...]``.
    """

    __slots__ = ("n_classes", "fields", "_data", "_views")

    def __init__(self, n_classes, fields):
        if n_classes < 1:
            raise ValueError("n_classes must be >= 1, got %d" % n_classes)
        self.n_classes = n_classes
        self.fields = tuple(fields)
        self._data = array("q", bytes(8 * n_classes * len(self.fields)))
        view = memoryview(self._data)
        self._views = {
            name: view[i * n_classes:(i + 1) * n_classes]
            for i, name in enumerate(self.fields)
        }

    def column(self, field):
        """The writable fixed-size view for one field."""
        return self._views[field]

    def zero(self):
        """Reset every column in place (views stay valid -- that is
        the point: measurement-window resets must not re-bind)."""
        for i in range(len(self._data)):
            self._data[i] = 0
