"""Translation lookaside buffers.

Modelled fully associative with true LRU, like the P4's small split
TLBs.  A miss costs a hardware page walk (priced by the cost model);
there is no second-level TLB on this generation.
"""

from repro.mem.layout import PAGE_SIZE, page_span


class Tlb:
    """A fully-associative LRU TLB over page numbers."""

    __slots__ = ("geometry", "_entries", "_capacity", "hits", "walks")

    def __init__(self, geometry):
        self.geometry = geometry
        self._entries = []
        self._capacity = geometry.entries
        self.hits = 0
        self.walks = 0

    def access(self, page):
        """Translate ``page``; returns ``True`` on hit, filling on miss."""
        entries = self._entries
        if entries and entries[0] == page:
            self.hits += 1  # already MRU: the LRU move is a no-op
            return True
        try:
            pos = entries.index(page)
        except ValueError:
            self.walks += 1
            entries.insert(0, page)
            if len(entries) > self._capacity:
                entries.pop()
            return False
        self.hits += 1
        del entries[pos]
        entries.insert(0, page)
        return True

    def access_range(self, addr, size):
        """Translate every page of ``[addr, addr+size)``; returns walk count.

        One batched walk with the list operations hoisted to locals --
        equivalent to per-page :meth:`access` calls, without the
        per-call dispatch (a 64KB copy spans 17 pages).
        """
        if size <= 0:
            return 0
        entries = self._entries
        # Single-page fast path: most data touches (struct fields, MSS
        # segments) fit one page, and the hot structures stay MRU.  The
        # page arithmetic mirrors :func:`repro.mem.layout.page_span`.
        page = addr // PAGE_SIZE
        if page == (addr + size - 1) // PAGE_SIZE:
            if entries and entries[0] == page:
                self.hits += 1
                return 0
            try:
                pos = entries.index(page)
            except ValueError:
                self.walks += 1
                entries.insert(0, page)
                if len(entries) > self._capacity:
                    entries.pop()
                return 1
            self.hits += 1
            del entries[pos]
            entries.insert(0, page)
            return 0
        capacity = self._capacity
        hits = 0
        walks = 0
        for page in page_span(addr, size):
            if entries and entries[0] == page:
                hits += 1  # already MRU: the LRU move is a no-op
            elif page in entries:
                hits += 1
                del entries[entries.index(page)]
                entries.insert(0, page)
            else:
                walks += 1
                entries.insert(0, page)
                if len(entries) > capacity:
                    entries.pop()
        self.hits += hits
        self.walks += walks
        return walks

    def flush_below(self, boundary_page):
        """Drop translations for pages below ``boundary_page``.

        Models a CR3 switch on a kernel with global pages enabled:
        user-space translations die, kernel (global-bit) translations
        survive.
        """
        self._entries = [p for p in self._entries if p >= boundary_page]

    def resident_pages(self):
        """Currently cached page numbers, MRU first."""
        return list(self._entries)

    def __repr__(self):
        return "Tlb(%r, hits=%d, walks=%d)" % (self.geometry, self.hits, self.walks)
