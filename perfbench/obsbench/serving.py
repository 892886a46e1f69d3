"""serving: the capture through the in-process observer, then the fleet.

One round serves the set-up's capture twice, as the two deployments of
the serving path consume it: the pcap bytes through ``read_pcap`` →
``NetworkObserver`` → ``StreamingProfiler`` in this process
(:mod:`obsbench.wire_replay`), then the same decoded events, as wire
4-tuples, through a one-worker ``ShardCoordinator``
(:mod:`obsbench.fleet`).  A round handles every event twice.
"""

from __future__ import annotations

from obsbench.fleet import Fleet
from obsbench.harness import Context, Ledger, Result, run_parts
from obsbench.inputs import build_serving_inputs
from obsbench.wire_replay import WireReplay


def run(ctx: Context) -> Result:
    ledger = Ledger() if ctx.trace else None
    replay = WireReplay(ctx, ledger)
    fleet = Fleet(ctx, ledger)
    return run_parts(
        ctx,
        ledger,
        lambda: build_serving_inputs(
            ctx.seed, ctx.scale, ctx.work / "capture.pcap", ctx.work / "model"
        ),
        [replay, fleet],
        # The fleet's emissions equal the in-process ones (a check), so
        # one fidelity stands for both.
        replay.fidelity,
        # The coordinator's peak plus the worker's (its largest child).
        include_children=True,
    )
