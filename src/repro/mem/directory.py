"""Flat-array MESI directory: the compiled engine's coherence state.

The reference :class:`~repro.mem.system.MemorySystem` keeps its
directory as ``{line: DirectoryEntry([sharers, owner])}``.  That is
ideal for Python (one dict probe per line) but opaque to compiled
code.  This module stores the same information in three parallel
columns -- ``keys`` (``array('q')``), ``sharers`` (``array('Q')``) and
``owner`` (``array('b')``), 17 bytes a slot -- managed as an
open-addressing hash table, so a C extension can bind the buffers once
and probe them with raw loads.

Semantics mirror the reference exactly:

* entries are **insert-only** -- the reference never deletes a
  directory entry (eviction does not clear sharer bits; see the
  over-approximation note in ``repro.mem.system``), so the table needs
  no tombstones;
* ``sharers`` is a bitmask of coherence domains, ``owner`` is a domain
  index or -1, exactly the two fields of ``DirectoryEntry``.

The table doubles and rehashes once an insert would take it past
three-quarter load; a generation counter in the bound ``_meta`` buffer
tells compiled code to re-acquire the (new) array buffers.  The
compiled engine grows a bound directory itself: it calls
:meth:`LineDirectory._alloc` for the doubled columns and rehashes into
them from the old buffers in C.  :meth:`LineDirectory._grow` is the
interpreted oracle of that rehash; both reinsert in old storage order,
so they produce the same table slot for slot.  Slot order is otherwise
an implementation detail -- nothing observable iterates the table in
storage order.
"""

from array import array

#: Fibonacci (multiplicative) hashing constant: floor(2^64 / phi).
#: Line numbers are contiguous within allocation zones; multiplying by
#: this and taking the top bits scatters each zone across the table so
#: linear probing sees short chains instead of zone-length clusters.
_FIB = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

MAX_DOMAINS = 64  #: one ``sharers`` bit per coherence domain

#: ``_meta`` layout (bound by the compiled engine).
META_COUNT = 0
META_GENERATION = 1


class LineDirectory:
    """Open-addressing ``line -> (sharers, owner)`` map over flat arrays."""

    __slots__ = ("_keys", "_sharers", "_owner", "_meta", "_mask", "_shift")

    def __init__(self, initial_slots=1 << 16):
        if initial_slots & (initial_slots - 1) or initial_slots <= 0:
            raise ValueError("slot count must be a power of two")
        self._alloc(initial_slots)
        self._meta = array("q", [0, 0])

    def _alloc(self, slots):
        self._keys = array("q", [-1]) * slots
        self._sharers = array("Q", [0]) * slots
        self._owner = array("b", [-1]) * slots
        self._mask = slots - 1
        self._shift = 64 - slots.bit_length() + 1

    # -- probing -------------------------------------------------------

    def _slot(self, line):
        """Slot holding ``line``, or the empty slot where it would go."""
        keys = self._keys
        mask = self._mask
        idx = ((line * _FIB) & _MASK64) >> self._shift
        while True:
            key = keys[idx]
            if key == line or key == -1:
                return idx
            idx = (idx + 1) & mask

    def find(self, line):
        """Slot index of ``line`` or -1 if absent."""
        idx = self._slot(line)
        return idx if self._keys[idx] == line else -1

    def insert(self, line, sharers, owner):
        """Insert an absent ``line``; returns its slot index."""
        if (self._meta[META_COUNT] + 1) * 4 > (self._mask + 1) * 3:
            self._grow()
        idx = self._slot(line)
        self._keys[idx] = line
        self._sharers[idx] = sharers
        self._owner[idx] = owner
        self._meta[META_COUNT] += 1
        return idx

    def _grow(self):
        old_keys, old_sharers, old_owner = (
            self._keys, self._sharers, self._owner)
        self._alloc((self._mask + 1) * 2)
        keys, sharers, owner = self._keys, self._sharers, self._owner
        mask, shift = self._mask, self._shift
        for old_idx, line in enumerate(old_keys):
            if line == -1:
                continue
            idx = ((line * _FIB) & _MASK64) >> shift
            while keys[idx] != -1:
                idx = (idx + 1) & mask
            keys[idx] = line
            sharers[idx] = old_sharers[old_idx]
            owner[idx] = old_owner[old_idx]
        self._meta[META_GENERATION] += 1

    # -- dict-flavoured API (cold paths, tests) ------------------------

    def get(self, line):
        """``(sharers, owner)`` or ``None`` -- like ``directory.get``."""
        idx = self.find(line)
        if idx < 0:
            return None
        return self._sharers[idx], self._owner[idx]

    def sharers_of(self, line):
        idx = self.find(line)
        return 0 if idx < 0 else self._sharers[idx]

    def owner_of(self, line):
        idx = self.find(line)
        return -1 if idx < 0 else self._owner[idx]

    def __contains__(self, line):
        return self.find(line) >= 0

    def __len__(self):
        return self._meta[META_COUNT]

    def items(self):
        """Iterate ``(line, sharers, owner)`` (storage order; tests only)."""
        keys = self._keys
        for idx in range(len(keys)):
            line = keys[idx]
            if line != -1:
                yield line, self._sharers[idx], self._owner[idx]

    def __repr__(self):
        return "LineDirectory(%d lines / %d slots)" % (
            len(self), self._mask + 1)
