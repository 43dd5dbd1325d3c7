"""Flat-array layouts of the compiled engine's microarchitectural state.

These classes hold exactly the state of their reference counterparts
(:class:`~repro.cpu.cache.SetAssocCache`,
:class:`~repro.cpu.cache.TraceCache`, :class:`~repro.cpu.tlb.Tlb`,
:class:`~repro.cpu.branch.BranchPredictor`) in flat ``array('q')`` /
``array('d')`` buffers keyed by ``(set, way)``, instead of per-set
Python lists and dicts.  They are layouts, not engines: the C
extension (``repro.cpu._enginecore``) binds the buffers once and runs
every transition over raw int64 loads.  Python keeps only what the
machine layer needs between charges -- construction, the counter
views, :meth:`ArrayTlb.flush_below` -- and the read-only views
(``sets_snapshot``, ``resident_pages``, ``tracked_names``) that
``tests/test_engine_equivalence.py`` compares against the reference
classes after every operation of a random pure-vs-compiled script.
Each transition thus exists twice: once in the reference classes
(the pure engine and the oracle) and once in C.

Layout invariants the C code relies on:

* cache sets are ``ways``-long segments of ``_tags``, MRU-first,
  packed (all valid entries precede the first ``-1``);
* TLB entries are one MRU-first packed segment of ``capacity`` pages;
* branch-predictor state is indexed by the machine-wide function slot
  (see :class:`repro.prof.slotaccounting.SlotRegistry`) with an
  intrusive doubly-linked LRU list in ``_prev`` / ``_next``;
* counters live in small ``array('q')`` stats buffers, so C's adds and
  the machine layer's attribute reads see the same cells.
"""

from array import array

from repro.cpu.cache import set_mask

#: Stats-buffer layout shared with the C extension.
CACHE_HITS = 0
CACHE_MISSES = 1
TLB_HITS = 0
TLB_WALKS = 1
BP_MISPREDICTS = 0
BP_COLD_EVENTS = 1
#: Branch-predictor ``_meta`` layout.
BP_HEAD = 0
BP_TAIL = 1
BP_COUNT = 2


class ArraySetAssocCache:
    """Flat-array layout of :class:`~repro.cpu.cache.SetAssocCache`."""

    __slots__ = ("_tags", "_stats", "_mask", "_ways")

    def __init__(self, geometry):
        self._mask = set_mask(geometry)
        self._ways = geometry.ways
        self._tags = array("q", [-1]) * ((self._mask + 1) * geometry.ways)
        self._stats = array("q", [0, 0])

    # -- counters ------------------------------------------------------

    @property
    def hits(self):
        return self._stats[CACHE_HITS]

    @hits.setter
    def hits(self, value):
        self._stats[CACHE_HITS] = value

    @property
    def misses(self):
        return self._stats[CACHE_MISSES]

    @misses.setter
    def misses(self, value):
        self._stats[CACHE_MISSES] = value

    def sets_snapshot(self):
        """Per-set tag lists, MRU first -- comparable to the reference
        class's ``_sets``."""
        tags = self._tags
        ways = self._ways
        out = []
        for s in range(self._mask + 1):
            base = s * ways
            out.append([t for t in tags[base:base + ways] if t != -1])
        return out

    def __repr__(self):
        return "%s(hits=%d, misses=%d)" % (
            type(self).__name__, self.hits, self.misses)


class ArrayTraceCache(ArraySetAssocCache):
    """Array layout of :class:`~repro.cpu.cache.TraceCache`.

    The reference trace cache is behaviourally identical to
    ``SetAssocCache`` (same replacement, counters and geometry), so
    the array form is the same class under the fetch-path name.
    """

    __slots__ = ()


class ArrayTlb:
    """Flat-array layout of :class:`~repro.cpu.tlb.Tlb`."""

    __slots__ = ("_pages", "_stats", "_capacity")

    def __init__(self, geometry):
        self._capacity = geometry.entries
        self._pages = array("q", [-1]) * geometry.entries
        self._stats = array("q", [0, 0])

    @property
    def hits(self):
        return self._stats[TLB_HITS]

    @hits.setter
    def hits(self, value):
        self._stats[TLB_HITS] = value

    @property
    def walks(self):
        return self._stats[TLB_WALKS]

    @walks.setter
    def walks(self, value):
        self._stats[TLB_WALKS] = value

    def flush_below(self, boundary_page):
        """In-place compaction keeping pages >= ``boundary_page``.

        The reference reassigns ``_entries``; this buffer is bound by
        the compiled engine and must keep its identity, so survivors
        are compacted to the front and the tail cleared instead.
        """
        pages = self._pages
        out = 0
        for i in range(self._capacity):
            page = pages[i]
            if page == -1:
                break
            if page >= boundary_page:
                pages[out] = page
                out += 1
        for i in range(out, self._capacity):
            pages[i] = -1

    def resident_pages(self):
        out = []
        for page in self._pages:
            if page == -1:
                break
            out.append(page)
        return out

    def __repr__(self):
        return "ArrayTlb(hits=%d, walks=%d)" % (self.hits, self.walks)


class ArrayBranchPredictor:
    """Array layout of :class:`~repro.cpu.branch.BranchPredictor`.

    State is indexed by the machine-wide function slot from a
    :class:`~repro.prof.slotaccounting.SlotRegistry` (function names
    and slots are 1:1 per machine, so the slot-keyed C predictor
    matches the name-keyed reference), with the reference class's
    ``OrderedDict`` LRU realised as an intrusive doubly-linked list:
    ``seen[slot] < 0`` means "not tracked", eviction unlinks the LRU
    head, a hit moves the slot to the tail.
    """

    __slots__ = ("_capacity", "_registry", "_seen", "_residual", "_prev",
                 "_next", "_meta", "_stats")

    def __init__(self, capacity, registry):
        self._capacity = capacity
        self._registry = registry
        slots = registry.capacity
        self._seen = array("q", [-1]) * slots
        self._residual = array("d", [0.0]) * slots
        self._prev = array("q", [-1]) * slots
        self._next = array("q", [-1]) * slots
        self._meta = array("q", [-1, -1, 0])  # head, tail, count
        self._stats = array("q", [0, 0])
        registry.add_grower(self._grow)

    def _grow(self, new_capacity):
        for name in ("_seen", "_prev", "_next"):
            old = getattr(self, name)
            new = array("q", [-1]) * new_capacity
            new[: len(old)] = old
            setattr(self, name, new)
        old = self._residual
        new = array("d", [0.0]) * new_capacity
        new[: len(old)] = old
        self._residual = new

    @property
    def mispredicts(self):
        return self._stats[BP_MISPREDICTS]

    @mispredicts.setter
    def mispredicts(self, value):
        self._stats[BP_MISPREDICTS] = value

    @property
    def cold_events(self):
        return self._stats[BP_COLD_EVENTS]

    @cold_events.setter
    def cold_events(self, value):
        self._stats[BP_COLD_EVENTS] = value

    def tracked_names(self):
        """LRU-to-MRU tracked function names -- comparable to the
        reference class's ``_entries``."""
        names = self._registry.names
        out = []
        slot = self._meta[BP_HEAD]
        while slot >= 0:
            out.append(names[slot])
            slot = self._next[slot]
        return out
