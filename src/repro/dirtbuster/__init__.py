"""DirtBuster: the dynamic-analysis tool for placing pre-stores.

Pipeline (paper Figure 6): sampling finds write-intensive functions;
binary instrumentation logs their accesses; sequentiality contexts,
fence proximity, and re-read/re-write distances decide between *demote*,
*clean*, *skip*, or leaving the code alone.
"""

from repro.dirtbuster.contexts import ContextTracker, SequentialitySummary
from repro.dirtbuster.distances import DistanceStats, DistanceTracker
from repro.dirtbuster.export import dump_records, load_records
from repro.dirtbuster.fences import FenceProximity, FenceTracker
from repro.dirtbuster.instrument import FunctionPatterns, Instrumenter
from repro.dirtbuster.recommend import Recommendation, Recommender, Thresholds
from repro.dirtbuster.report import render_recommendation, render_report
from repro.dirtbuster.runner import (
    Classification,
    DirtBuster,
    DirtBusterConfig,
    DirtBusterReport,
)
from repro.dirtbuster.sampling import FunctionProfile, SampleProfile
from repro.dirtbuster.trace import AccessRecord, FullTracer, SamplingTracer, Trace

__all__ = [
    "AccessRecord",
    "Classification",
    "ContextTracker",
    "DirtBuster",
    "DirtBusterConfig",
    "DirtBusterReport",
    "DistanceStats",
    "DistanceTracker",
    "FenceProximity",
    "FenceTracker",
    "FullTracer",
    "FunctionPatterns",
    "FunctionProfile",
    "Instrumenter",
    "Recommendation",
    "Recommender",
    "SampleProfile",
    "SamplingTracer",
    "SequentialitySummary",
    "Thresholds",
    "Trace",
    "dump_records",
    "load_records",
    "render_recommendation",
    "render_report",
]
