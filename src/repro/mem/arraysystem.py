"""Memory system over the flat-array directory (compiled engine).

Drop-in replacement for :class:`~repro.mem.system.MemorySystem` whose
coherence state lives in a :class:`~repro.mem.directory.LineDirectory`
and whose counters live in one ``array('q')`` stats buffer, so the C
charge path can update both without boxing.  Over this layout the
protocol transitions run only in C (the reference ``MemorySystem`` is
their Python oracle): the charge path inlines them, and the DMA entry
points -- the only coherence operations invoked from outside the
charge path -- call the core bound by :meth:`CompiledMemorySystem.
bind_state`, which every compiled ``Machine`` does at construction.
CPU registration and the bus model come from the shared
:class:`~repro.mem.system.Interconnect`.
"""

from array import array

from repro.mem.directory import LineDirectory
from repro.mem.system import Interconnect

#: ``_stats`` layout (bound by the compiled engine).
MS_INVALIDATIONS = 0
MS_C2C = 1
MS_DMA_LINES_READ = 2
MS_DMA_LINES_WRITTEN = 3
MS_BUS_DELAY = 4


class CompiledMemorySystem(Interconnect):
    """Array-backed form of :class:`~repro.mem.system.MemorySystem`."""

    def __init__(self, dma_read_invalidates=True):
        # Before the base's counter writes: they land in this buffer.
        self._stats = array("q", [0, 0, 0, 0, 0])
        super().__init__(dma_read_invalidates)
        self.directory = LineDirectory()
        #: Bound by ``Machine`` once the C engine state exists.
        self._state = None
        self._core = None

    def bind_state(self, core, state):
        self._core = core
        self._state = state

    # -- counters (same names as the reference; machine code assigns) --

    @property
    def invalidations(self):
        return self._stats[MS_INVALIDATIONS]

    @invalidations.setter
    def invalidations(self, value):
        self._stats[MS_INVALIDATIONS] = value

    @property
    def c2c_transfers(self):
        return self._stats[MS_C2C]

    @c2c_transfers.setter
    def c2c_transfers(self, value):
        self._stats[MS_C2C] = value

    @property
    def dma_lines_read(self):
        return self._stats[MS_DMA_LINES_READ]

    @dma_lines_read.setter
    def dma_lines_read(self, value):
        self._stats[MS_DMA_LINES_READ] = value

    @property
    def dma_lines_written(self):
        return self._stats[MS_DMA_LINES_WRITTEN]

    @dma_lines_written.setter
    def dma_lines_written(self, value):
        self._stats[MS_DMA_LINES_WRITTEN] = value

    @property
    def bus_delay(self):
        return self._stats[MS_BUS_DELAY]

    @bus_delay.setter
    def bus_delay(self, value):
        self._stats[MS_BUS_DELAY] = value

    # -- DMA (the C core; bound before the machine's first DMA) --------

    def dma_write(self, addr, size):
        self._core.dma_write(self._state, addr, size)

    def dma_read(self, addr, size):
        self._core.dma_read(self._state, addr, size)

    # -- introspection -------------------------------------------------

    def sharers_of(self, line):
        return self.directory.sharers_of(line)

    def owner_of(self, line):
        return self.directory.owner_of(line)
