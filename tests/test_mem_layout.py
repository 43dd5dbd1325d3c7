"""Unit tests for the address space and memory objects."""

import pytest

from repro.mem.layout import (
    CACHE_LINE,
    PAGE_SIZE,
    AddressSpace,
    line_span,
    page_span,
)


class TestLineSpan:
    def test_single_line(self):
        lines = list(line_span(0, 1))
        assert lines == [0]

    def test_straddles_boundary(self):
        lines = list(line_span(CACHE_LINE - 1, 2))
        assert lines == [0, 1]

    def test_exact_lines(self):
        lines = list(line_span(CACHE_LINE * 4, CACHE_LINE * 3))
        assert lines == [4, 5, 6]

    def test_zero_size(self):
        assert list(line_span(100, 0)) == []

    def test_page_span(self):
        pages = list(page_span(PAGE_SIZE - 1, 2))
        assert pages == [0, 1]


class TestAddressSpace:
    def test_allocations_do_not_overlap(self):
        space = AddressSpace()
        objs = [space.alloc("o%d" % i, 100) for i in range(50)]
        ranges = sorted((o.addr, o.addr + o.size) for o in objs)
        for (a_start, a_end), (b_start, _) in zip(ranges, ranges[1:]):
            assert a_end <= b_start

    def test_line_alignment_default(self):
        space = AddressSpace()
        for i in range(10):
            obj = space.alloc("o%d" % i, 7)
            assert obj.addr % CACHE_LINE == 0

    def test_page_alignment(self):
        space = AddressSpace()
        space.alloc("pad", 100)
        obj = space.alloc_page_aligned("buf", 8192)
        assert obj.addr % PAGE_SIZE == 0

    def test_zones_are_disjoint(self):
        space = AddressSpace()
        text = space.alloc("fn", 512, zone="text")
        data = space.alloc("tcb", 512, zone="kernel")
        user = space.alloc("ubuf", 512, zone="user")
        spans = sorted((o.addr, o.addr + o.size) for o in (text, data, user))
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_rejects_bad_sizes_and_alignment(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.alloc("bad", 0)
        with pytest.raises(ValueError):
            space.alloc("bad", 10, align=3)
        with pytest.raises(KeyError):
            space.alloc("bad", 10, zone="nowhere")
        with pytest.raises(ValueError):
            space.alloc_run([("ok", 64), ("bad", 0)])

    def test_alloc_run_equals_one_alloc_per_item(self):
        items = [("a", 256), ("b", 2048), ("c", 1), ("d", 4096)]
        for align in (64, 4096):
            run, single = AddressSpace(), AddressSpace()
            run.alloc("lead", 10)
            single.alloc("lead", 10)
            got = run.alloc_run(items, zone="user", align=align)
            want = [single.alloc(name, size, zone="user", align=align)
                    for name, size in items]
            assert [(o.name, o.addr, o.size) for o in got] == \
                [(o.name, o.addr, o.size) for o in want]
            assert run.alloc("next", 8, zone="user").addr == \
                single.alloc("next", 8, zone="user").addr


class TestMemoryObject:
    def test_field_bounds_checked(self):
        space = AddressSpace()
        obj = space.alloc("o", 100)
        addr, size = obj.field(10, 20)
        assert addr == obj.addr + 10 and size == 20
        with pytest.raises(ValueError):
            obj.field(90, 20)
        with pytest.raises(ValueError):
            obj.field(-1, 5)

    def test_lines_default_whole_object(self):
        space = AddressSpace()
        obj = space.alloc("o", CACHE_LINE * 3)
        assert len(list(obj.lines())) == 3
