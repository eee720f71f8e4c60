"""Fault injection against the monitor: profiles, chaos rounds, attacks.

* :mod:`repro.faults.profiles` — the named :class:`ChaosProfile` catalog
  and the seeded channels that apply a profile's tap, control-channel
  and worker-crash faults;
* :mod:`repro.faults.rounds` — the ``repro chaos`` harness: one round
  for every profile, a clean replay of the Table-1 catalog against the
  profile's monitor (a SIGKILLed fabric for a worker-crash plan), and
  one report against the overflow ledger's uncertainty interval;
* :mod:`repro.faults.attacks` — ``repro chaos --attack``: traces
  synthesized from the taint lint's L017/L018 findings, executed.  It
  reads the lint layer, so nothing here imports it eagerly.

The package sits above :mod:`repro.core`: a profile holds the monitor's
real :class:`~repro.core.degradation.DegradationPolicy` and
:class:`~repro.switch.switch.ProcessingMode`.
"""
