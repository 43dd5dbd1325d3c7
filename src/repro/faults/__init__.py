"""Deterministic fault injection and runtime invariant checking.

The paper's testbed is loss-free, so the reproduced stack's loss
recovery machinery (RTO, fast retransmit, out-of-order reassembly)
is never exercised by the baseline experiments.  This package makes
the simulator trustworthy under adversity:

* :class:`FaultPlan` -- a serializable description of wire/NIC/IRQ
  faults (drop, reorder, duplicate, delayed IRQ delivery);
* :class:`FaultInjector` -- the runtime that applies a plan at the
  NIC/wire boundary, drawing every coin flip from the experiment's
  :class:`~repro.sim.rng.RngStreams` so runs are exactly reproducible
  (and a parallel sweep equals its serial run byte-for-byte);
* :class:`InvariantChecker` -- end-of-run validation of byte-stream
  integrity, skb conservation and event-queue monotonicity, raising
  :class:`SimulationInvariantError` with the event trace tail.

Defined in :mod:`repro.faults.plan` (``FaultPlan``, ``FaultInjector``)
and :mod:`repro.faults.invariants` (``InvariantChecker``,
``SimulationInvariantError``).

Import names from their defining module; the package re-exports
nothing.
"""
