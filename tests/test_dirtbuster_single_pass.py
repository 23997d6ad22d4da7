"""DirtBuster's one simulation per application against the two-run pipeline.

Figure 6 runs the application under ``perf``, picks the write-intensive
functions, then runs it again under PIN on those functions.
``DirtBuster.analyze`` rides both tracers on one simulation and filters
the full trace when it is fed.  The oracle here is the two-run pipeline,
rebuilt from the public pieces: a ``SamplingTracer`` run, its
``SampleProfile``, a ``FullTracer(functions)`` run, and the
``Instrumenter``.  Every part of the report must come out the same.
"""

import pytest

from repro.core.prestore import PatchConfig
from repro.dirtbuster.instrument import Instrumenter
from repro.dirtbuster.recommend import Recommender
from repro.dirtbuster.runner import (
    Classification,
    DirtBuster,
    DirtBusterConfig,
    DirtBusterReport,
)
from repro.dirtbuster.sampling import SampleProfile
from repro.dirtbuster.trace import FullTracer, SamplingTracer
from repro.sim.machine import machine_a, machine_b_fast
from repro.workloads.kv import CLHTWorkload, YCSBSpec
from repro.workloads.nas import ISWorkload, MGWorkload
from repro.workloads.phoronix import ReadMostlyWorkload
from repro.workloads.x9 import X9Workload


def _two_runs(workload, spec, config, seed):
    """The paper's pipeline: a sampling run, then an instrumented rerun."""
    sampler = SamplingTracer(period=config.sampling_period)
    workload.run(spec, patches=PatchConfig.baseline(), tracer=sampler, seed=seed)
    profile = SampleProfile.from_tracer(sampler)
    if not profile.application_write_intensive(config.app_store_threshold):
        return DirtBusterReport(
            workload=workload.name,
            profile=profile,
            instrumented_functions=[],
            patterns=[],
            recommendations=[],
            classification=Classification(workload.name, False, False, False),
        )
    functions = [
        c.function
        for c in profile.write_intensive_functions(
            share_of_stores=config.function_store_share, top=config.max_functions
        )
    ]
    full = FullTracer(functions=functions)
    workload.run(spec, patches=PatchConfig.baseline(), tracer=full, seed=seed)
    instrumenter = Instrumenter(spec.line_size, functions=functions)
    instrumenter.feed(full.trace)
    patterns = [p for p in instrumenter.patterns() if p.function in functions]
    recommender = Recommender(config.thresholds)
    return DirtBusterReport(
        workload=workload.name,
        profile=profile,
        instrumented_functions=functions,
        patterns=patterns,
        recommendations=recommender.recommend_all(patterns),
        classification=Classification(
            workload.name,
            True,
            any(recommender.writes_sequentially(p) for p in patterns),
            any(recommender.writes_before_fence(p) for p in patterns),
        ),
    )


def _profile_fields(profile):
    return (
        profile.total_samples,
        profile.other_samples,
        profile.total_stores,
        profile.application_store_fraction,
        [
            (p.function, p.file, p.line, p.stores, p.loads, p.atomics, dict(p.callchains))
            for p in profile.functions()
        ],
    )


def _recommendation_fields(report):
    return [
        (r.function, r.choice, r.rationale, r.fallback, repr(r.patterns))
        for r in report.recommendations
    ]


_KV = YCSBSpec(mix="A", num_keys=256, operations=200, value_size=512)

#: (workload, machine, write-intensive): a four-thread stream writer, a
#: KV store behind lock atomics, weak-model message passing (WAIT/POST,
#: fences), a random writer, and an application step 1 turns away.
_CASES = {
    "nas-mg": (lambda: MGWorkload(grid=32, iterations=1, threads=4), machine_a, True),
    "clht": (lambda: CLHTWorkload(_KV, threads=2), machine_a, True),
    "x9": (lambda: X9Workload(messages=200), machine_b_fast, True),
    "nas-is": (lambda: ISWorkload(grid=20, iterations=2, threads=4), machine_a, True),
    "gzip": (lambda: ReadMostlyWorkload("gzip", "stream", scale=150), machine_a, False),
}


@pytest.mark.parametrize("period", [53, 229])
@pytest.mark.parametrize("seed", [1234, 7])
@pytest.mark.parametrize("name", list(_CASES))
def test_one_simulation_matches_two_runs(name, seed, period):
    make, machine, write_intensive = _CASES[name]
    config = DirtBusterConfig(sampling_period=period)
    got = DirtBuster(config).analyze(make(), machine(), seed=seed)
    want = _two_runs(make(), machine(), config, seed)

    assert got.classification.write_intensive is write_intensive
    assert got.classification == want.classification
    assert got.instrumented_functions == want.instrumented_functions
    assert _profile_fields(got.profile) == _profile_fields(want.profile)
    assert [repr(p) for p in got.patterns] == [repr(p) for p in want.patterns]
    assert _recommendation_fields(got) == _recommendation_fields(want)
    assert got.render() == want.render()


@pytest.mark.parametrize("name", ["clht", "nas-mg"])
def test_patterns_only_for_instrumented_functions(name):
    """Attribution only ever names a selected function, so analyze needs
    no filter after the instrumenter."""
    make, machine, _ = _CASES[name]
    report = DirtBuster().analyze(make(), machine())
    assert report.patterns
    assert {p.function for p in report.patterns} <= set(report.instrumented_functions)
