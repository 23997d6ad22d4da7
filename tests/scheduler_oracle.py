"""The one-pick-per-event scheduler, kept as the oracle for run-ahead bursts.

``Machine.run`` picks the live thread with the smallest core clock and
then keeps running that thread while its clock stays inside the bounds
under which the same pick would repeat (DESIGN.md §11, "Single
events").  This module is the loop it replaced: one ``min()`` over the
live threads per event, with the WAIT handling and the stream bounds
written out in place.  It shares only the per-event primitives with the
machine (``step``, ``_run_stream``, ``finish``), so comparing the two
checks the bursts and their bounds.

:func:`run_one_pick_per_event` has ``Machine.run``'s signature, so a
test can patch it in for whole workloads.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.errors import SimulationError
from repro.sim.event import STREAM_KINDS, EventKind
from repro.sim.machine import Machine, ThreadBody
from repro.sim.stats import RunResult


def run_one_pick_per_event(machine: Machine, bodies: Sequence[ThreadBody]) -> RunResult:
    """Run ``bodies`` on ``machine``, choosing the next thread per event."""
    live: List[List] = [[machine.cores[i], iter(body), None] for i, body in enumerate(bodies)]
    while live:
        entry = min(live, key=lambda e: e[0].clock)
        core, body, pending = entry
        event = pending if pending is not None else next(body, None)
        entry[2] = None
        if event is None:
            live.remove(entry)
            continue
        if event.kind is EventKind.WAIT:
            posted = event.mailbox.get(event.sync_key)
            if posted is None:
                others = [e[0].clock for e in live if e[0] is not core]
                if not others:
                    raise SimulationError(
                        f"deadlock: waiting on {event.sync_key!r} with no other "
                        "runnable thread"
                    )
                core.clock = max(core.clock, min(others)) + 1.0
                entry[2] = event
                continue
            core.clock = max(core.clock, posted)
            index = core.stats.instructions
            machine._instr_index += 1
            core.stats.instructions += 1
            for observer in machine.observers:
                observer.record(core.stats.core_id, event, index, 0.0)
            continue
        if event.kind in STREAM_KINDS:
            strict = loose = math.inf
            seen = False
            for e in live:
                if e is entry:
                    seen = True
                    continue
                c = e[0].clock
                if seen:
                    loose = min(loose, c)
                else:
                    strict = min(strict, c)
            leftover = machine._run_stream(core, event, strict, loose)
            if leftover is not None:
                entry[2] = leftover
            continue
        machine.step(core, event)
    return machine.finish()
