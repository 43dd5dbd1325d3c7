"""Set-associative caches with true-LRU replacement.

Tags are full cache-line numbers (byte address / 64); the set index is
the low bits of the line number.  Each :class:`SetAssocCache` set is a
short Python list kept in MRU-first order -- ``list.index`` /
``insert`` on lists of at most ``ways`` (4-16) elements run in C and
beat any fancier structure at these sizes.

The pure engine never calls a data cache's methods on the hot path:
:meth:`repro.cpu.core.Cpu._read_range` / ``_write_range`` walk all
three levels in one fused loop over the ``_sets`` lists and bump
``hits``/``misses`` directly.  :meth:`SetAssocCache.access` is the one
line-at-a-time statement of the same transition, kept as the reference
the fused-walk differential checks every level against
(``tests/test_access_range_edges.py``).

:class:`SetAssocCache` (list sets) and :class:`TraceCache` (dict sets)
share everything but their transition through :class:`CacheBase`,
whose ``probe`` reads a set only through ``in``.  :func:`set_mask`
is the one geometry check, also used by the compiled engine's array
layouts.
"""


def set_mask(geometry):
    """The set-index mask (``n_sets - 1``) of ``geometry``.

    The set index is the low bits of the line number, so the set count
    must be a power of two.
    """
    n_sets = geometry.n_sets
    if n_sets & (n_sets - 1):
        raise ValueError(
            "%s: set count %d is not a power of two" % (geometry.name, n_sets)
        )
    return n_sets - 1


class CacheBase:
    """True-LRU set state and its probe, whatever a set is.

    A subclass names its set type in ``_new_set`` and supplies the
    transition over it.
    """

    __slots__ = ("_mask", "_sets", "_ways", "hits", "misses")

    def __init__(self, geometry):
        self._mask = set_mask(geometry)
        self._ways = geometry.ways
        self._sets = [self._new_set() for _ in range(self._mask + 1)]
        self.hits = 0
        self.misses = 0

    def probe(self, line):
        """Non-destructive lookup: ``True`` if ``line`` is resident."""
        return line in self._sets[line & self._mask]

    def __repr__(self):
        return "%s(hits=%d, misses=%d)" % (
            type(self).__name__, self.hits, self.misses)


class SetAssocCache(CacheBase):
    """One level of a private cache hierarchy."""

    __slots__ = ()

    #: Each set is a list of line numbers, MRU first.
    _new_set = list

    def access(self, line):
        """Look up ``line``; on miss, fill it (evicting LRU).

        Returns ``True`` on hit.  The fill-on-miss policy matches an
        allocate-on-read/write cache; victims are dropped silently
        (writeback costs are folded into the miss penalties of the
        cost model).
        """
        bucket = self._sets[line & self._mask]
        if bucket and bucket[0] == line:
            self.hits += 1  # already MRU: the LRU move is a no-op
            return True
        try:
            pos = bucket.index(line)
        except ValueError:
            self.misses += 1
            bucket.insert(0, line)
            if len(bucket) > self._ways:
                bucket.pop()
            return False
        self.hits += 1
        del bucket[pos]
        bucket.insert(0, line)
        return True


class TraceCache(CacheBase):
    """LRU cache specialised for the instruction-fetch path.

    Replacement policy, hit/miss accounting and geometry validation are
    exactly :class:`SetAssocCache`; only the representation differs.
    Each set is a dict in LRU-to-MRU insertion order (the MRU entry is
    the *last* key), so the dominant operation of a warm trace cache --
    re-fetching a resident line and moving it to MRU -- is two O(1)
    dict operations instead of a list scan plus an element shuffle.
    The simulator drives this cache exclusively through
    :meth:`miss_count`; coherence invalidation and DMA never touch
    instruction lines, so no ``invalidate`` entry point is needed.
    """

    __slots__ = ()

    #: Each set is a dict of line numbers, LRU-to-MRU key order.
    _new_set = dict

    def miss_count(self, lines):
        """Batched fetch of ``lines``; returns the number of misses.

        Same state transitions and counters as ``SetAssocCache``: each
        hit becomes MRU of its set, each miss fills (evicting the LRU
        way).  A hit on the current MRU re-inserts the same key, which
        is a no-op on ordering -- no separate fast path needed.
        """
        sets = self._sets
        mask = self._mask
        ways = self._ways
        hits = 0
        misses = 0
        for line in lines:
            bucket = sets[line & mask]
            if line in bucket:
                hits += 1
                del bucket[line]
                bucket[line] = True
            else:
                misses += 1
                bucket[line] = True
                if len(bucket) > ways:
                    del bucket[next(iter(bucket))]
        self.hits += hits
        self.misses += misses
        return misses
