"""Unit tests for IRQ lines and IO-APIC routing."""

import pytest

from repro.kernel.interrupts import IoApic, IrqLine


def line(vector, mask=0x1):
    return IrqLine(vector, "dev%x" % vector, lambda ctx: None,
                   smp_affinity=mask)


class TestIrqLine:
    def test_default_affinity_is_cpu0(self):
        assert line(0x19).smp_affinity == 0x1

    def test_set_affinity_validates(self):
        irq = line(0x19)
        irq.set_affinity(0b10)
        assert irq.smp_affinity == 0b10
        with pytest.raises(ValueError):
            irq.set_affinity(0)


class TestIoApicRouting:
    def test_routes_to_lowest_allowed(self):
        apic = IoApic(4)
        apic.register(line(0x19, mask=0b1100))
        assert apic.route(0x19) == 2

    def test_default_routes_to_cpu0(self):
        apic = IoApic(2)
        apic.register(line(0x19))
        assert apic.route(0x19) == 0

    def test_mask_clipped_to_online_cpus(self):
        apic = IoApic(2)
        apic.register(line(0x19, mask=0b100))  # CPU2 does not exist
        with pytest.raises(RuntimeError):
            apic.route(0x19)

    def test_duplicate_vector_rejected(self):
        apic = IoApic(2)
        apic.register(line(0x19))
        with pytest.raises(ValueError):
            apic.register(line(0x19))

    def test_route_all(self):
        apic = IoApic(2)
        for v in (0x19, 0x1A):
            apic.register(line(v))
        for v in (0x19, 0x1A):
            apic.get(v).set_affinity(0b10)
        assert apic.route(0x19) == 1
        assert apic.route(0x1A) == 1


class TestDistribute:
    def test_paper_split_two_cpus(self):
        """Eight NICs over two CPUs: the paper's 4+4 block split."""
        apic = IoApic(2)
        vectors = [0x19, 0x1A, 0x1B, 0x1D, 0x23, 0x24, 0x25, 0x27]
        for v in vectors:
            apic.register(line(v))
        assignment = apic.distribute(vectors)
        assert [assignment[v] for v in sorted(vectors)] == [
            0, 0, 0, 0, 1, 1, 1, 1
        ]

    def test_four_cpus(self):
        apic = IoApic(4)
        vectors = list(range(0x10, 0x18))
        for v in vectors:
            apic.register(line(v))
        assignment = apic.distribute(vectors)
        assert [assignment[v] for v in sorted(vectors)] == [
            0, 0, 1, 1, 2, 2, 3, 3
        ]

    def test_uneven_counts(self):
        apic = IoApic(2)
        vectors = [1, 2, 3]
        for v in vectors:
            apic.register(line(v))
        assignment = apic.distribute(vectors)
        assert sorted(assignment.values()) == [0, 0, 1]
