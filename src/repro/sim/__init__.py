"""Discrete-event simulation kernel.

This subpackage provides the machinery every other layer of the
reproduction is built on: a deterministic event queue driven in
simulated *CPU cycles* (:mod:`repro.sim.events`), named deterministic
random-number streams (:mod:`repro.sim.rng`) and unit conversion
helpers (:mod:`repro.sim.units`).

The simulation is *conservative*: the engine always advances the
globally earliest pending event, so cross-resource interactions (e.g.
one CPU invalidating a cache line another CPU is about to read) are
observed in a causally consistent order.

====================  ==============================================
:mod:`.events`        ``Event``, ``EventQueue``, ``SimulationEngine``
:mod:`.rng`           ``RngStreams``
:mod:`.units`         ``CYCLES_PER_SECOND_2GHZ``
====================  ==============================================

Import names from their defining module; the package re-exports
nothing.
"""
