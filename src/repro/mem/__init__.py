"""Physical memory model: address space, objects, and the coherent
memory system shared by the simulated CPUs.

The simulation charges CPU cycles for *real* addresses: every kernel
data structure (TCP control blocks, sk_buffs, socket buffers, NIC
descriptor rings, payload pages) is allocated a concrete range in a
simulated physical address space, and the cache models in
:mod:`repro.cpu` operate on those addresses at cache-line granularity.
That is what makes the paper's affinity effects *emergent* here: the
same bytes are touched regardless of placement, but placement decides
which CPU's caches hold them.

====================  ==============================================
:mod:`.layout`        ``AddressSpace``, ``MemoryObject``,
                      ``line_span``, ``CACHE_LINE``, ``PAGE_SIZE``
:mod:`.system`        ``MemorySystem``, ``DirectoryEntry`` (the pure
                      engine's coherence directory)
:mod:`.arraysystem`   the compiled engine's memory system
:mod:`.directory`     its open-addressing directory
====================  ==============================================

Import names from their defining module; the package re-exports
nothing.
"""
