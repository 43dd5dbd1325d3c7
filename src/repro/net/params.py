"""Network-stack parameters and per-function work budgets.

Everything tunable about the simulated stack lives here so that
calibration against the paper's Table 1 is a matter of editing one
table.  Instruction budgets are derived from the paper's own numbers:
at ~1.9 GHz/Gbps and CPI ~5, a 64KB transmit costs ~1e6 cycles /
~200k instructions, split across bins by Table 1's %cycles column
(see DESIGN.md section 5).
"""

from repro.sim.units import CYCLES_PER_SECOND_2GHZ

#: Interned NetParams instances, keyed by their keyword signature.
_INTERNED_PARAMS = {}


class NetParams:
    """Stack-wide constants (sizes, windows, wire, coalescing)."""

    def __init__(
        self,
        mss=1460,
        # Linux 2.4 defaults: tcp_wmem[1] = 16KB, tcp_rmem[1] = 85KB.
        # The small send buffer matters enormously for the affinity
        # story: writers block on it constantly, so every ACK burst is
        # a wakeup -- remote (IPI) without affinity, local with it.
        sndbuf=16384,
        rcvbuf=87380,
        max_window=64240,          # 44 * MSS, classic un-scaled window
        skb_truesize=2048,
        wire_gbps=1.0,             # per-NIC gigabit wire
        one_way_delay_us=30,       # LAN propagation + client turnaround
        coalesce_frames=8,         # interrupt after this many frames...
        coalesce_us=25,            # ...or this long after the first
        ack_every=2,               # delayed-ACK threshold (segments)
        delack_ms=40,
        rto_ms=200,
        rx_ring_size=256,
        hz=CYCLES_PER_SECOND_2GHZ,
        tx_csum_offload=False,
        rx_csum_offload=True,
        copy_cost_scale=1.0,
        lock_hold_scale=1.0,
        lso=False,
        gro=False,
        gro_flush_us=0,
        itr_adaptive=False,
        itr_absorb=False,
        toe=False,
        nic_engine_scale=1.0,
    ):
        self.mss = mss
        self.sndbuf = sndbuf
        self.rcvbuf = rcvbuf
        self.max_window = max_window
        self.skb_truesize = skb_truesize
        self.wire_gbps = wire_gbps
        self.one_way_delay_us = one_way_delay_us
        self.coalesce_frames = coalesce_frames
        self.coalesce_us = coalesce_us
        self.ack_every = ack_every
        self.delack_ms = delack_ms
        self.rto_ms = rto_ms
        self.rx_ring_size = rx_ring_size
        self.hz = hz
        # Checksum offload (paper section 2's NIC-offload discussion).
        # Defaults match the paper's measured system: transmit checksum
        # folded into the software copy loop (csum_and_copy_from_user),
        # receive checksum verified by the NIC.
        self.tx_csum_offload = tx_csum_offload
        self.rx_csum_offload = rx_csum_offload
        # Diagnosis perturbation knobs (repro.diagnose): multiplicative
        # scales on the copy engine's per-line cost and on the cycles a
        # process holds a socket lock.  1.0 (the default) is charge-
        # for-charge identical to a stack built before these existed.
        if copy_cost_scale < 1.0 or lock_hold_scale < 1.0:
            # Costs only scale *up*: a factor below one would subtract
            # cycles from already-charged work and could drive a CPU's
            # clock backwards.
            raise ValueError("cost scales must be >= 1.0")
        self.copy_cost_scale = copy_cost_scale
        self.lock_hold_scale = lock_hold_scale
        # Modern NIC offload engine (ROADMAP offload study; FlexTOE and
        # Wu et al. in PAPERS.md).  All default-off so a stack built
        # before these knobs existed is charge-for-charge identical:
        #   lso          -- TCP segmentation offload: the host hands the
        #                   NIC one large send and the per-segment
        #                   transmit machinery runs on the NIC engine;
        #   gro          -- LRO/GRO receive aggregation: in-order
        #                   same-flow segments merge in the ring before
        #                   the IRQ fires (flush on push/ooo/timer);
        #   gro_flush_us -- optional aging bound on a GRO merge window
        #                   (0 = hold until the interrupt fires);
        #   itr_adaptive -- the per-queue interrupt throttle retunes its
        #                   timer between coalesce_us/5 and 4x from the
        #                   observed frames-per-interrupt rate;
        #   itr_absorb   -- Wu et al.'s reorder-absorbing variant: a
        #                   Flow Director retarget holds the *new*
        #                   queue's interrupt one coalesce window so
        #                   stragglers on the old queue deliver first;
        #   toe          -- full transport offload: implies LSO + GRO
        #                   and additionally moves ACK bookkeeping and
        #                   retransmit-queue trim onto the NIC engine;
        #   nic_engine_scale -- diagnosis knob: how much slower than
        #                   nominal the modeled NIC engine runs.
        if nic_engine_scale < 1.0:
            raise ValueError("nic_engine_scale must be >= 1.0")
        if gro_flush_us < 0:
            raise ValueError("gro_flush_us must be >= 0")
        self.lso = lso
        self.gro = gro
        self.gro_flush_us = gro_flush_us
        self.itr_adaptive = itr_adaptive
        self.itr_absorb = itr_absorb
        self.toe = toe
        self.nic_engine_scale = nic_engine_scale
        # Immutable from here on: interned instances (see ``interned``)
        # are shared across experiments and flow-class representatives,
        # so a mutation in one run would silently leak into the next.
        self._frozen = True

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError(
                "NetParams is immutable after construction; build a new "
                "instance instead of assigning %r" % name
            )
        object.__setattr__(self, name, value)

    @classmethod
    def interned(cls, **kwargs):
        """A shared immutable instance for this parameter signature.

        The flyweight half of the scale story: every experiment (and
        every flow-class representative within it) with the same
        network constants references one frozen object instead of
        carrying its own copy.  Keyed by the explicit keyword set, so
        defaulted and spelled-out-as-default signatures intern
        separately -- harmless, since both are immutable.
        """
        key = tuple(sorted(kwargs.items()))
        inst = _INTERNED_PARAMS.get(key)
        if inst is None:
            inst = cls(**kwargs)
            _INTERNED_PARAMS[key] = inst
        return inst

    @property
    def cycles_per_wire_byte(self):
        """Cycles to serialize one byte on the wire at ``wire_gbps``."""
        return self.hz / (self.wire_gbps * 1e9 / 8.0)

    @property
    def one_way_delay_cycles(self):
        return int(self.one_way_delay_us * self.hz / 1e6)

    @property
    def coalesce_cycles(self):
        return int(self.coalesce_us * self.hz / 1e6)

    @property
    def delack_cycles(self):
        return int(self.delack_ms * self.hz / 1e3)

    @property
    def rto_cycles(self):
        return int(self.rto_ms * self.hz / 1e3)

    def wire_cycles(self, n_bytes):
        """Serialization time of an ``n_bytes`` frame (plus overheads)."""
        # 38 bytes of Ethernet framing overhead (preamble/IFG/CRC/hdr).
        return int((n_bytes + 38) * self.cycles_per_wire_byte)

    @property
    def gro_flush_cycles(self):
        return int(self.gro_flush_us * self.hz / 1e6)

    @property
    def tx_seg_offload(self):
        """Transmit segmentation runs on the NIC engine (LSO or TOE)."""
        return self.lso or self.toe

    @property
    def rx_gro(self):
        """Receive aggregation is active (GRO or TOE)."""
        return self.gro or self.toe


#: Per-function static character: (bin, instructions-related budgets,
#: branch fraction, intrinsic mispredict rate, dependency stall/instr,
#: fixed stall/call).  Instruction counts that scale with data are
#: expressed in the stack code itself; these are the per-invocation
#: base costs.
FUNCTION_PROFILES = {
    # ----- interface ---------------------------------------------------
    # System-call entry/exit on the P4 costs many hundreds of cycles
    # (sysenter + register save + audit); the huge stall_per_call is
    # what gives the paper's Interface bin its CPI of 8-17.
    "sys_write":        dict(bin="interface", instr=170, branch_frac=0.18,
                             stall_per_instr=2.4, stall_per_call=1100,
                             code_size=1024),
    "sys_read":         dict(bin="interface", instr=170, branch_frac=0.18,
                             stall_per_instr=2.4, stall_per_call=1100,
                             code_size=1024),
    "sock_sendmsg":     dict(bin="interface", instr=120, branch_frac=0.2,
                             stall_per_instr=1.8, code_size=768),
    "sock_recvmsg":     dict(bin="interface", instr=120, branch_frac=0.2,
                             stall_per_instr=1.8, code_size=768),
    "inet_sendmsg":     dict(bin="interface", instr=70, branch_frac=0.2,
                             stall_per_instr=2.0, code_size=512),
    "inet_recvmsg":     dict(bin="interface", instr=70, branch_frac=0.2,
                             stall_per_instr=2.0, code_size=512),
    "sock_wait":        dict(bin="interface", instr=150, branch_frac=0.2,
                             stall_per_instr=2.2, code_size=768),
    # ----- engine ------------------------------------------------------
    "tcp_sendmsg":      dict(bin="engine", instr=300, branch_frac=0.17,
                             stall_per_instr=2.2, code_size=4096),
    "tcp_write_xmit":   dict(bin="engine", instr=140, branch_frac=0.18,
                             stall_per_instr=2.0, code_size=1024),
    "tcp_transmit_skb": dict(bin="engine", instr=380, branch_frac=0.17,
                             stall_per_instr=2.2, code_size=2048),
    "__tcp_select_window": dict(bin="engine", instr=70, branch_frac=0.18,
                             stall_per_instr=2.0, code_size=512),
    "ip_queue_xmit":    dict(bin="engine", instr=180, branch_frac=0.16,
                             stall_per_instr=2.0, code_size=1536),
    "ip_rcv":           dict(bin="engine", instr=160, branch_frac=0.16,
                             stall_per_instr=2.0, code_size=1536),
    "tcp_v4_rcv":       dict(bin="engine", instr=260, branch_frac=0.17,
                             stall_per_instr=2.2, code_size=2048),
    "tcp_v4_do_rcv":    dict(bin="engine", instr=80, branch_frac=0.17,
                             stall_per_instr=2.0, code_size=512),
    "tcp_rcv_established": dict(bin="engine", instr=460, branch_frac=0.17,
                             stall_per_instr=2.2, code_size=4096),
    "tcp_ack":          dict(bin="engine", instr=330, branch_frac=0.18,
                             stall_per_instr=2.2, code_size=2048),
    "tcp_recvmsg":      dict(bin="engine", instr=280, branch_frac=0.17,
                             stall_per_instr=2.2, code_size=4096),
    "tcp_send_ack":     dict(bin="engine", instr=130, branch_frac=0.17,
                             stall_per_instr=2.0, code_size=768),
    "tcp_retransmit_skb": dict(bin="engine", instr=300, branch_frac=0.18,
                             stall_per_instr=2.2, code_size=1024),
    # Connection setup / teardown (outside the bulk fast path; the
    # paper partitions general workloads into fast path vs these).
    "tcp_v4_conn_request": dict(bin="engine", instr=420, branch_frac=0.18,
                             stall_per_instr=2.2, code_size=2048),
    "tcp_v4_syn_recv_sock": dict(bin="engine", instr=320, branch_frac=0.18,
                             stall_per_instr=2.2, code_size=1536),
    "tcp_create_openreq_child": dict(bin="buf_mgmt", instr=450,
                             branch_frac=0.16, stall_per_instr=2.0,
                             code_size=1536),
    "tcp_fin":          dict(bin="engine", instr=200, branch_frac=0.18,
                             stall_per_instr=2.0, code_size=768),
    "inet_csk_destroy_sock": dict(bin="buf_mgmt", instr=350,
                             branch_frac=0.16, stall_per_instr=2.0,
                             code_size=1024),
    "sys_accept":       dict(bin="interface", instr=220, branch_frac=0.18,
                             stall_per_instr=2.4, stall_per_call=1400,
                             code_size=1024),
    # Application-level processing (excluded from the paper's stack
    # bins, as in its workload-partitioning argument).
    "application":      dict(bin="other", instr=0, branch_frac=0.12,
                             stall_per_instr=0.6, code_size=4096),
    # ----- buffer management -------------------------------------------
    "alloc_skb":        dict(bin="buf_mgmt", instr=230, branch_frac=0.17,
                             stall_per_instr=2.0, code_size=1536),
    "kfree_skb":        dict(bin="buf_mgmt", instr=180, branch_frac=0.17,
                             stall_per_instr=2.0, code_size=1024),
    "skb_queue_ops":    dict(bin="buf_mgmt", instr=80, branch_frac=0.16,
                             stall_per_instr=1.8, code_size=512),
    "sk_stream_mem":    dict(bin="buf_mgmt", instr=100, branch_frac=0.17,
                             stall_per_instr=1.8, code_size=768),
    # ----- copies ------------------------------------------------------
    # TX: csum_and_copy_from_user, the carefully rolled-out loop.
    "csum_and_copy_from_user": dict(bin="copies", instr=0, branch_frac=0.022,
                             mispredict_rate=0.004, stall_per_instr=0.9,
                             code_size=1024),
    # Software receive checksum (only when the NIC cannot verify it).
    "csum_partial":     dict(bin="copies", instr=0, branch_frac=0.03,
                             mispredict_rate=0.004, stall_per_instr=0.7,
                             code_size=512),
    # RX: __copy_to_user via rep movl; "one instruction moves a whole
    # lot of data", so retired instructions are few and CPI explodes.
    "__copy_to_user":   dict(bin="copies", instr=0, branch_frac=0.10,
                             mispredict_rate=0.004, stall_per_instr=0.8,
                             code_size=512),
    # ----- driver ------------------------------------------------------
    "dev_queue_xmit":   dict(bin="driver", instr=130, branch_frac=0.15,
                             stall_per_instr=2.0, code_size=1024),
    "e1000_xmit_frame": dict(bin="driver", instr=230, branch_frac=0.14,
                             stall_per_instr=2.0, code_size=2048),
    "e1000_intr":       dict(bin="driver", instr=150, branch_frac=0.13,
                             stall_per_instr=2.0, code_size=1024),
    "e1000_clean_tx_irq": dict(bin="driver", instr=90, branch_frac=0.15,
                             stall_per_instr=2.0, code_size=1024),
    "e1000_clean_rx_irq": dict(bin="driver", instr=120, branch_frac=0.15,
                             stall_per_instr=2.0, code_size=1024),
    "e1000_alloc_rx_buffers": dict(bin="driver", instr=100, branch_frac=0.15,
                             stall_per_instr=1.8, code_size=768),
    "netif_rx":         dict(bin="driver", instr=90, branch_frac=0.14,
                             stall_per_instr=1.8, code_size=512),
    "net_rx_action":    dict(bin="driver", instr=100, branch_frac=0.16,
                             stall_per_instr=1.8, code_size=1024),
    "net_tx_action":    dict(bin="driver", instr=70, branch_frac=0.16,
                             stall_per_instr=1.8, code_size=512),
    # ----- timers ------------------------------------------------------
    "mod_timer":        dict(bin="timers", instr=80, branch_frac=0.12,
                             stall_per_instr=2.0, code_size=512),
    "del_timer":        dict(bin="timers", instr=50, branch_frac=0.12,
                             stall_per_instr=2.0, code_size=256),
    "do_gettimeofday":  dict(bin="timers", instr=90, branch_frac=0.10,
                             stall_per_instr=3.0, code_size=256),
    "tcp_delack_timer": dict(bin="timers", instr=100, branch_frac=0.15,
                             stall_per_instr=1.8, code_size=512),
    "tcp_write_timer":  dict(bin="timers", instr=100, branch_frac=0.15,
                             stall_per_instr=1.8, code_size=512),
}

#: Copy-loop shapes (instructions per 64-byte line); see module doc.
TX_COPY_INSTR_PER_LINE = 63
#: Pure copy (checksum done by the NIC): fewer ALU ops per line.
TX_COPY_OFFLOAD_INSTR_PER_LINE = 40
#: Software receive checksum (csum_partial) pass, per line.
RX_CSUM_INSTR_PER_LINE = 10
RX_COPY_INSTR_PER_LINE = 1
#: Fixed setup instructions per copy call.
TX_COPY_SETUP_INSTRUCTIONS = 100
RX_COPY_SETUP_INSTRUCTIONS = 150
COPY_SETUP_INSTRUCTIONS = 100

#: NIC offload-engine cost model (cycles on the NIC engine clock, all
#: scaled by ``NetParams.nic_engine_scale``).  The engine is a modeled
#: datapath processor alongside the MAC: it burns its own cycles --
#: visible in the ``offload`` result block -- never host CPU cycles.
#: Per-line segmentation/checksum work mirrors the host's offloaded
#: copy-loop shape (TX_COPY_OFFLOAD_INSTR_PER_LINE) at CPI ~1.
NIC_ENGINE_CYCLES_PER_LINE = 40
#: Per-segment descriptor build + header replication during LSO.
NIC_ENGINE_SEG_CYCLES = 200
#: Per-frame GRO merge (header compare + descriptor coalesce).
NIC_ENGINE_GRO_CYCLES = 120
#: Per-ACK TOE processing (completion lookup + retransmit-queue trim).
NIC_ENGINE_ACK_CYCLES = 150
#: Per-segment TOE receive processing (sequence check, reassembly
#: bookkeeping, direct data placement descriptor update).
NIC_ENGINE_RCV_CYCLES = 180

#: Host-side instruction budgets under TOE: the socket layer becomes a
#: doorbell write into the NIC's command queue (sock_sendmsg shrinks,
#: inet_sendmsg/inet_recvmsg are bypassed), the user buffer is pinned
#: and pulled by the NIC instead of copied+checksummed by the CPU, and
#: an inbound ACK is a completion-queue read instead of full tcp_ack.
TOE_DOORBELL_INSTRUCTIONS = 40
TOE_PIN_INSTR_PER_LINE = 2
TOE_ACK_COMPLETION_INSTRUCTIONS = 60
#: Host cost of consuming one TOE receive-completion event in place of
#: the full tcp_rcv_established fast path.
TOE_RCV_COMPLETION_INSTRUCTIONS = 60

#: Nominal cycles a process-context socket-lock critical section holds
#: the lock (lock_sock charge + the engine work done under ownership);
#: the diagnosis lock-hold knob scales hold time against this base.
LOCK_HOLD_NOMINAL_CYCLES = 450


def register_profile(functions, name):
    """Register one profiled function (or return its existing spec)."""
    prof = FUNCTION_PROFILES[name]
    return functions.register(
        name,
        prof["bin"],
        code_size=prof.get("code_size", 1536),
        branch_frac=prof.get("branch_frac", 0.15),
        mispredict_rate=prof.get("mispredict_rate", 0.01),
        stall_per_instr=prof.get("stall_per_instr", 0.0),
        stall_per_call=prof.get("stall_per_call", 0),
    )


def register_profiles(functions):
    """Register every profiled function; returns ``{name: spec}``."""
    return {
        name: register_profile(functions, name)
        for name in FUNCTION_PROFILES
    }


def base_instructions(name):
    """The per-invocation base instruction budget for ``name``."""
    return FUNCTION_PROFILES[name]["instr"]
