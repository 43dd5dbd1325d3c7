"""Kernel function specifications.

Every unit of simulated kernel work -- ``tcp_sendmsg``, ``alloc_skb``,
``IRQ0x19_interrupt`` -- is described by a :class:`FunctionSpec`: which
functional *bin* it belongs to (the paper's Interface / Engine /
Buffer mgmt / Copies / Driver / Locks / Timers decomposition), where
its code lives (for trace-cache and ITLB behaviour), its branch
density, intrinsic mispredict rate and dependency-stall profile.

Dynamic quantities (instruction count, data touched) are supplied per
invocation by the kernel and network layers; the spec captures only
the per-function static character.
"""

from repro.mem.layout import CACHE_LINE, PAGE_SIZE

#: The paper's functional bins (Table 1 rows).
BINS = (
    "interface",
    "engine",
    "buf_mgmt",
    "copies",
    "driver",
    "locks",
    "timers",
    "other",
)

#: Approximate encoded bytes per x86 instruction, for translating
#: dynamic instruction counts into instruction-fetch footprints.
BYTES_PER_INSTRUCTION = 4


class FunctionSpec:
    """Static description of one kernel function."""

    __slots__ = (
        "name",
        "bin",
        "code_addr",
        "code_size",
        "code_lines",
        "code_page",
        "branch_frac",
        "mispredict_rate",
        "stall_per_instr",
        "stall_per_call",
        "_fetch_memo",
        "_fetch_by_count",
        "_cost_memo",
    )

    def __init__(
        self,
        name,
        bin,
        code_addr,
        code_size,
        branch_frac=0.15,
        mispredict_rate=0.01,
        stall_per_instr=0.0,
        stall_per_call=0,
    ):
        if bin not in BINS:
            raise ValueError("unknown bin %r for %s (known: %s)" % (bin, name, BINS))
        if not 0.0 <= branch_frac <= 1.0:
            raise ValueError("branch_frac out of range: %r" % branch_frac)
        if not 0.0 <= mispredict_rate <= 1.0:
            raise ValueError("mispredict_rate out of range: %r" % mispredict_rate)
        self.name = name
        self.bin = bin
        self.code_addr = code_addr
        self.code_size = code_size
        first = code_addr // CACHE_LINE
        last = (code_addr + code_size - 1) // CACHE_LINE
        self.code_lines = tuple(range(first, last + 1))
        self.code_page = code_addr // PAGE_SIZE
        self.branch_frac = branch_frac
        self.mispredict_rate = mispredict_rate
        self.stall_per_instr = stall_per_instr
        self.stall_per_call = stall_per_call
        #: Prefix tuples of ``code_lines`` keyed by line count: most
        #: functions are invoked with a handful of distinct instruction
        #: counts, and re-slicing the same prefix on every charge was
        #: measurable allocator churn in the hot path.  Bounded by the
        #: static footprint (at most ``len(code_lines)`` entries).
        self._fetch_memo = {}
        #: Second-level memo keyed directly by instruction count, so
        #: the CPU charge path can skip the bytes-to-lines arithmetic
        #: (and this method's call frame) entirely on repeat counts.
        #: Capped in the consumer; values alias ``_fetch_memo`` entries.
        self._fetch_by_count = {}
        #: ``instructions -> (stall_cycles, default_branches)`` -- both
        #: pure functions of the spec and the dynamic instruction
        #: count, recomputed identically on every charge before this
        #: memo existed.  Capped in the consumer.
        self._cost_memo = {}

    def fetch_lines(self, instructions):
        """Code lines touched by a dynamic path of ``instructions``.

        A short invocation walks only the head of the function's text;
        a long one covers all of it (loops re-use lines, so the static
        footprint is the ceiling).
        """
        needed = (instructions * BYTES_PER_INSTRUCTION + CACHE_LINE - 1) // CACHE_LINE
        lines = self.code_lines
        if needed >= len(lines):
            return lines
        if not needed:
            needed = 1
        memo = self._fetch_memo
        prefix = memo.get(needed)
        if prefix is None:
            prefix = memo[needed] = lines[:needed]
        return prefix

    def __repr__(self):
        return "FunctionSpec(%s, bin=%s)" % (self.name, self.bin)


class FunctionTable:
    """Registry of all kernel functions, owning their text layout."""

    def __init__(self, address_space):
        self._space = address_space
        self._by_name = {}

    def register(
        self,
        name,
        bin,
        code_size=1536,
        branch_frac=0.15,
        mispredict_rate=0.01,
        stall_per_instr=0.0,
        stall_per_call=0,
    ):
        """Create (or return the existing) spec for ``name``.

        Re-registering with the same name returns the original spec so
        shared helpers (e.g. ``kfree_skb``) can be declared from several
        call sites without duplicating text.
        """
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        code = self._space.alloc("text:" + name, code_size, zone="text")
        spec = FunctionSpec(
            name,
            bin,
            code.addr,
            code.size,
            branch_frac=branch_frac,
            mispredict_rate=mispredict_rate,
            stall_per_instr=stall_per_instr,
            stall_per_call=stall_per_call,
        )
        self._by_name[name] = spec
        return spec

    def get(self, name):
        """Look up a registered spec; raises ``KeyError`` if unknown."""
        return self._by_name[name]

    def __contains__(self, name):
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self):
        return len(self._by_name)
