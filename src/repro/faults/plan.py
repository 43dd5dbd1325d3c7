"""Fault plans and the seeded injector that applies them.

A :class:`FaultPlan` is pure configuration: JSON-serializable, hashable
into the experiment cache key, and parseable from the CLI's compact
``loss=0.01,reorder=0.005`` spec syntax.  A :class:`FaultInjector`
binds a plan to one simulated machine, deriving one RNG stream per
(NIC, channel) from the machine's :class:`~repro.sim.rng.RngStreams`
-- so the fault sequence depends only on the experiment seed and the
frame sequence through each NIC, never on host-side scheduling.

Faults operate at the wire/NIC boundary (:mod:`repro.net.nic`):

* **drop** -- the frame vanishes between the NICs (the sender still
  sees a normal TX completion, as with a real lossy link);
* **reorder** -- the frame is held back until ``reorder_depth`` later
  frames have passed, then delivered (the multi-queue/Flow-Director
  reordering pathology); a flush timer bounds the holdback so a
  traffic lull cannot turn a reorder into a permanent loss;
* **duplicate** -- the frame is delivered twice;
* **delayed IRQ** -- the NIC's interrupt fires ``irq_delay_us`` late,
  stretching coalescing batches (softirq burstiness).

Control segments (SYN/FIN family) are exempt: the modelled stack, like
the paper's testbed, does not retransmit connection-lifecycle frames,
so faulting them would wedge an episode rather than exercise recovery.
"""

_PLAN_DEFAULTS = dict(
    loss=0.0,
    reorder=0.0,
    reorder_depth=3,
    duplicate=0.0,
    irq_delay=0.0,
    irq_delay_us=100.0,
    reorder_flush_us=500.0,
    direction="both",
    rto_ms=None,
    drop_every_n=0,
)

#: CLI spec aliases: ``--faults loss=0.01,depth=4,dup=0.02``.
_SPEC_ALIASES = {
    "loss": "loss",
    "drop": "loss",
    "reorder": "reorder",
    "depth": "reorder_depth",
    "reorder_depth": "reorder_depth",
    "dup": "duplicate",
    "duplicate": "duplicate",
    "irq": "irq_delay",
    "irq_delay": "irq_delay",
    "irq_delay_us": "irq_delay_us",
    "reorder_flush_us": "reorder_flush_us",
    "direction": "direction",
    "rto_ms": "rto_ms",
    "drop_every_n": "drop_every_n",
}

_INT_FIELDS = ("reorder_depth", "drop_every_n")
_RATE_FIELDS = ("loss", "reorder", "duplicate", "irq_delay")


class FaultPlan:
    """A deterministic description of the faults applied to one run.

    Probabilities are per-frame (or per-IRQ) Bernoulli rates in
    ``[0, 1]``.  ``direction`` restricts wire faults to frames the SUT
    transmits (``"tx"``), frames it receives (``"rx"``), or both.
    ``rto_ms`` optionally overrides the stack's retransmission timeout
    so RTO recovery fits inside test-sized measurement windows.
    ``drop_every_n`` deterministically drops every Nth frame crossing
    each NIC in the plan's direction, when that frame carries data.
    """

    __slots__ = tuple(_PLAN_DEFAULTS)

    def __init__(self, **kwargs):
        unknown = set(kwargs) - set(_PLAN_DEFAULTS)
        if unknown:
            raise ValueError(
                "unknown fault plan field(s): %s" % ", ".join(sorted(unknown))
            )
        for name, default in _PLAN_DEFAULTS.items():
            setattr(self, name, kwargs.get(name, default))
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError("%s=%r is not a rate in [0, 1]" % (name, rate))
        if self.reorder_depth < 1:
            raise ValueError("reorder_depth must be >= 1")
        if self.drop_every_n < 0:
            raise ValueError("drop_every_n must be >= 0")
        if self.direction not in ("tx", "rx", "both"):
            raise ValueError(
                "direction must be 'tx', 'rx' or 'both', got %r"
                % (self.direction,)
            )

    # -- construction ---------------------------------------------------

    @classmethod
    def coerce(cls, value):
        """``None`` | plan | dict | spec-string -> plan (or ``None``)."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        if isinstance(value, str):
            return cls.from_spec(value)
        raise TypeError("cannot build a FaultPlan from %r" % (value,))

    @classmethod
    def from_spec(cls, spec):
        """Parse ``"loss=0.01,reorder=0.005,depth=4"`` into a plan."""
        fields = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    "bad fault spec %r (expected key=value)" % (part,)
                )
            key, _, raw = part.partition("=")
            key = key.strip().lower()
            field = _SPEC_ALIASES.get(key)
            if field is None:
                raise ValueError(
                    "unknown fault spec key %r (known: %s)"
                    % (key, ", ".join(sorted(set(_SPEC_ALIASES))))
                )
            raw = raw.strip()
            if field == "direction":
                fields[field] = raw
            elif field in _INT_FIELDS:
                fields[field] = int(raw)
            else:
                fields[field] = float(raw)
        return cls(**fields)

    def to_dict(self):
        """Full, stable serialization (feeds the experiment cache key)."""
        return {name: getattr(self, name) for name in _PLAN_DEFAULTS}

    @property
    def enabled(self):
        """Does this plan inject anything at all?"""
        return bool(
            self.loss or self.reorder or self.duplicate
            or self.irq_delay or self.drop_every_n
        )

    def label(self):
        parts = []
        for name in ("loss", "reorder", "duplicate", "irq_delay"):
            rate = getattr(self, name)
            if rate:
                parts.append("%s=%g" % (name, rate))
        if self.drop_every_n:
            parts.append("drop_every_n=%d" % self.drop_every_n)
        return ",".join(parts) or "none"

    def __repr__(self):
        return "FaultPlan(%s)" % self.label()


class _HeldFrame:
    """A reorder-delayed frame awaiting release."""

    __slots__ = ("packet", "remaining", "deliver", "flush_event", "released")

    def __init__(self, packet, remaining, deliver):
        self.packet = packet
        self.remaining = remaining
        self.deliver = deliver
        self.flush_event = None
        self.released = False


class FaultInjector:
    """Applies a :class:`FaultPlan` to one machine's NICs.

    Randomness is drawn from per-(NIC, channel) streams derived from
    the machine's master seed, so the injected fault sequence is a
    pure function of (seed, plan, per-NIC frame order) -- identical in
    serial and parallel sweeps, and undisturbed by adding faults to
    one NIC or direction.
    """

    def __init__(self, machine, plan):
        self.machine = machine
        self.engine = machine.engine
        self.plan = plan
        self._held = {}      # (nic_name, direction) -> [_HeldFrame, ...]
        self._frame_no = {}  # (nic_name, direction) -> frames seen
        # Injection statistics (window-resettable).
        self.drops = 0
        self.dups = 0
        self.reorders = 0
        self.reorder_flushes = 0
        self.irq_delays = 0

    # -- wiring ---------------------------------------------------------

    def attach(self, stack):
        """Install the injector on every NIC of ``stack``.

        Source-mode peers additionally get loss recovery enabled --
        without a retransmitting sender, a dropped peer->SUT data frame
        would stall the receive stream forever.
        """
        stack.fault_injector = self
        for nic in stack.nics:
            nic.faults = self
        # Per connection, not per NIC: a shared multi-queue NIC's peer
        # is a PeerMux fanning out to every connection's peer.
        for conn in stack.connections:
            if conn.peer.mode == "source":
                conn.peer.enable_loss_recovery()
        self.machine.add_resettable(self)
        # Keep a short event-trace tail for invariant diagnostics.
        self.engine.enable_trace()
        return self

    def _rng(self, nic, channel):
        return self.machine.rng.stream(
            "faults:%s:%s" % (nic.name, channel)
        )

    # -- the wire hook (called by Nic for every non-control frame) ------

    def on_frame(self, nic, direction, packet, deliver):
        """Decide the fate of ``packet`` crossing ``nic``'s wire.

        ``deliver`` performs the actual (fault-free) delivery; it may
        be invoked zero, one or two times, now or later.
        """
        key = (nic.name, direction)
        released = self._age_held(key)
        if self.plan.direction in ("both", direction):
            self._inject(nic, key, direction, packet, deliver)
        else:
            deliver(packet)
        for held in released:
            self._release(held)

    def _inject(self, nic, key, direction, packet, deliver):
        plan = self.plan
        seen = self._frame_no.get(key, 0) + 1
        self._frame_no[key] = seen
        if (
            plan.drop_every_n
            and packet.len > 0
            and seen % plan.drop_every_n == 0
        ):
            self._count_drop(nic, direction)
            return
        rng = self._rng(nic, direction)
        if plan.loss and rng.random() < plan.loss:
            self._count_drop(nic, direction)
            return
        if plan.reorder and packet.len > 0 and rng.random() < plan.reorder:
            self.reorders += 1
            held = _HeldFrame(packet, plan.reorder_depth, deliver)
            self._held.setdefault(key, []).append(held)
            flush_cycles = max(
                1, int(plan.reorder_flush_us * self.machine.hz / 1e6)
            )
            held.flush_event = self.engine.schedule_after(
                flush_cycles,
                lambda: self._flush(key, held),
                label="fault flush %s/%s" % key,
            )
            return
        if plan.duplicate and rng.random() < plan.duplicate:
            self.dups += 1
            deliver(packet)
            deliver(packet)
            return
        deliver(packet)

    def _count_drop(self, nic, direction):
        self.drops += 1
        if direction == "tx":
            # A transmitted frame lost on the wire shows up in the
            # NIC's tx_drops.
            nic.tx_drops += 1

    def _age_held(self, key):
        """One frame passed: age holdbacks, return those due for release."""
        held = self._held.get(key)
        if not held:
            return ()
        due = []
        keep = []
        for frame in held:
            frame.remaining -= 1
            if frame.remaining <= 0:
                due.append(frame)
            else:
                keep.append(frame)
        self._held[key] = keep
        return due

    def _release(self, held):
        if held.released:
            return
        held.released = True
        if held.flush_event is not None:
            held.flush_event.cancel()
            held.flush_event = None
        held.deliver(held.packet)

    def _flush(self, key, held):
        """Holdback timer: a traffic lull must not strand the frame."""
        if held.released:
            return
        frames = self._held.get(key)
        if frames and held in frames:
            frames.remove(held)
        self.reorder_flushes += 1
        self._release(held)

    # -- the IRQ hook (called by RxQueue._fire) -------------------------

    def irq_delay_cycles(self, nic):
        """Extra delivery delay for this interrupt, in cycles (0 = none)."""
        plan = self.plan
        if not plan.irq_delay:
            return 0
        rng = self._rng(nic, "irq")
        if rng.random() >= plan.irq_delay:
            return 0
        self.irq_delays += 1
        return max(1, int(plan.irq_delay_us * self.machine.hz / 1e6))

    # -- statistics -----------------------------------------------------

    def counters(self):
        return dict(
            drops=self.drops,
            dups=self.dups,
            reorders=self.reorders,
            reorder_flushes=self.reorder_flushes,
            irq_delays=self.irq_delays,
        )

    def reset_stats(self):
        self.drops = 0
        self.dups = 0
        self.reorders = 0
        self.reorder_flushes = 0
        self.irq_delays = 0
