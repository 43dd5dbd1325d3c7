"""Measurement layer: exact event accounting and an Oprofile-style view.

The paper measures with Oprofile 0.7, a statistical sampling profiler
over the Pentium 4 PMU.  The simulator has the luxury of *exact*
per-(CPU, function) event accounting (:class:`ExactAccounting`), which
is what the tables are built from; :mod:`repro.prof.oprofile` layers a
sample-based view (with configurable sampling period and interrupt
skid) on top for fidelity to the paper's methodology, and
:mod:`repro.prof.procstat` reproduces the ``/proc/interrupts`` picture
the authors use to sanity-check interrupt routing.

====================  ==============================================
:mod:`.accounting`    ``ExactAccounting``
:mod:`.slotaccounting`  ``ArrayAccounting`` (compiled engine)
:mod:`.oprofile`      ``OprofileView``
:mod:`.procstat`      ``ProcInterrupts``
:mod:`.tuning`        ``analyze``, ``render_advice``
====================  ==============================================

Import names from their defining module; the package re-exports
nothing.
"""
