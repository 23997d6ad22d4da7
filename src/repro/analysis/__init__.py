"""Measurement utilities mirroring the paper's tooling.

* :mod:`repro.analysis.ipmctl` — the ``ipmctl``-style media counters used
  to measure write amplification;
* :mod:`repro.analysis.tables` — text-table rendering.

The ``perf``-style Section 7.1 store-time filter is DirtBuster's step 1:
:meth:`repro.dirtbuster.sampling.SampleProfile.application_write_intensive`.
"""

from repro.analysis.ipmctl import MediaCounters, read_media_counters
from repro.analysis.tables import format_table

__all__ = [
    "MediaCounters",
    "format_table",
    "read_media_counters",
]
