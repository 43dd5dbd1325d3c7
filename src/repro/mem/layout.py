"""Simulated physical address space and memory objects.

A bump allocator hands out non-overlapping address ranges.  Objects are
cache-line aligned by default (page aligned on request) so that two
unrelated objects never share a line -- false sharing, when we model
it, is introduced deliberately by co-allocating fields inside one
object, exactly as it arises in a real kernel.
"""

CACHE_LINE = 64
PAGE_SIZE = 4096

#: Where kernel text lives in our simulated map (mirrors the classic
#: i386 kernel split; the value itself only needs to be distinct from
#: data regions).
KERNEL_TEXT_BASE = 0xC000_0000
KERNEL_DATA_BASE = 0xC800_0000
USER_BASE = 0x0800_0000


def line_span(addr, size):
    """Return ``range`` of cache-line indices covering ``[addr, addr+size)``.

    The returned indices are *line numbers* (byte address divided by the
    line size), the currency of the cache models.
    """
    if size <= 0:
        return range(0)
    first = addr // CACHE_LINE
    last = (addr + size - 1) // CACHE_LINE
    return range(first, last + 1)


def lines_for(nbytes):
    """Cache lines needed to hold ``nbytes`` (at least one).

    This is the *footprint* rounding used when a byte count is turned
    into per-line work (copy loops, checksum loops): even a zero-byte
    operation touches one line of state.  Address-anchored conversions
    go through :func:`line_span` instead; keeping both here means the
    batched and per-line charge paths can never disagree on rounding.
    """
    return max(1, -(-nbytes // CACHE_LINE))


def page_span(addr, size):
    """Return ``range`` of page numbers covering ``[addr, addr+size)``."""
    if size <= 0:
        return range(0)
    first = addr // PAGE_SIZE
    last = (addr + size - 1) // PAGE_SIZE
    return range(first, last + 1)


class MemoryObject:
    """A named, contiguous allocation in the simulated address space."""

    __slots__ = ("name", "addr", "size")

    def __init__(self, name, addr, size):
        self.name = name
        self.addr = addr
        self.size = size

    def field(self, offset, size):
        """Return ``(addr, size)`` for a sub-range of the object.

        Raises :class:`ValueError` if the range escapes the object --
        an out-of-bounds touch would silently alias another allocation
        and corrupt the cache-behaviour study.
        """
        if offset < 0 or size < 0 or offset + size > self.size:
            raise ValueError(
                "field [%d:+%d) escapes %s (size %d)"
                % (offset, size, self.name, self.size)
            )
        return (self.addr + offset, size)

    def lines(self, offset=0, size=None):
        """Cache-line indices of a sub-range (whole object by default)."""
        if size is None:
            size = self.size - offset
        addr, size = self.field(offset, size)
        return line_span(addr, size)

    def __repr__(self):
        return "MemoryObject(%s @0x%x +%d)" % (self.name, self.addr, self.size)


class AddressSpace:
    """Bump allocator over the simulated physical address space.

    Distinct *zones* (kernel text, kernel data, user) keep instruction
    and data footprints apart, mirroring a real kernel layout closely
    enough for the TLB and cache models.
    """

    def __init__(self):
        self._cursors = {
            "text": KERNEL_TEXT_BASE,
            "kernel": KERNEL_DATA_BASE,
            "user": USER_BASE,
        }

    def alloc(self, name, size, zone="kernel", align=CACHE_LINE):
        """Allocate ``size`` bytes in ``zone`` aligned to ``align``."""
        return self.alloc_run(((name, size),), zone, align)[0]

    def alloc_run(self, items, zone="kernel", align=CACHE_LINE):
        """Allocate each ``(name, size)`` of ``items`` in order in
        ``zone``, each aligned to ``align``: the objects and addresses
        of one :meth:`alloc` call per item, validated once."""
        if align <= 0 or (align & (align - 1)) != 0:
            raise ValueError("alignment must be a power of two, got %r" % align)
        if zone not in self._cursors:
            raise KeyError("unknown zone %r" % zone)
        cursor = self._cursors[zone]
        mask = ~(align - 1)
        objs = []
        for name, size in items:
            if size <= 0:
                raise ValueError(
                    "allocation size must be positive, got %r" % size)
            addr = (cursor + align - 1) & mask
            cursor = addr + size
            objs.append(MemoryObject(name, addr, size))
        self._cursors[zone] = cursor
        return objs

    def alloc_page_aligned(self, name, size, zone="kernel"):
        """Allocate rounding the start to a page boundary (payload buffers)."""
        return self.alloc(name, size, zone=zone, align=PAGE_SIZE)
