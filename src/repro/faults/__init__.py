"""Fault injection against the monitor: profiles, chaos rounds, attacks.

* :mod:`repro.faults.profiles` — the named :class:`ChaosProfile` catalog
  and the seeded channels that apply a profile's tap and control-channel
  faults;
* :mod:`repro.faults.rounds` — the ``repro chaos`` harness: clean vs
  degraded replays of the Table-1 catalog, reported against the overflow
  ledger's uncertainty interval;
* :mod:`repro.faults.attacks` — ``repro chaos --attack``: traces
  synthesized from the taint lint's L017/L018 findings, executed.  It
  reads the lint layer, so nothing here imports it eagerly.

The package sits above :mod:`repro.core`: a profile holds the monitor's
real :class:`~repro.core.degradation.DegradationPolicy` and
:class:`~repro.switch.switch.ProcessingMode`.
"""
