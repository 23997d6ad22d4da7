"""Measurement utilities mirroring the paper's tooling.

* :mod:`repro.analysis.perf` — the ``perf``-style profile used for the
  Section 7.1 "time issuing stores" filter;
* :mod:`repro.analysis.ipmctl` — the ``ipmctl``-style media counters used
  to measure write amplification;
* :mod:`repro.analysis.tables` — text-table rendering.
"""

from repro.analysis.ipmctl import MediaCounters, read_media_counters
from repro.analysis.perf import StoreTimeProfile, profile_store_time
from repro.analysis.tables import format_table

__all__ = [
    "MediaCounters",
    "StoreTimeProfile",
    "format_table",
    "profile_store_time",
    "read_media_counters",
]
