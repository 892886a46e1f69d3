"""offline: the daily batch jobs, one retrain and one generated world day.

One round retrains the serving model on the selected day as the
deployment does (:mod:`obsbench.retrain`), then generates that day's
traffic for a sparse 10,000-user lazy population (:mod:`obsbench.world_day`).
The events a round handles are the retrained day's plus the generated
day's.
"""

from __future__ import annotations

from obsbench.harness import Context, Ledger, Result, run_parts
from obsbench.inputs import build_offline_inputs
from obsbench.retrain import Retrain
from obsbench.world_day import WorldDay


def run(ctx: Context) -> Result:
    ledger = Ledger() if ctx.trace else None
    spill = ctx.work / "spill"
    spill.mkdir()
    retrain = Retrain(ctx, ledger)
    return run_parts(
        ctx,
        ledger,
        lambda: build_offline_inputs(ctx.seed, ctx.scale, spill),
        [retrain, WorldDay(ctx, ledger)],
        # Profile quality of the retrained generation on the next day.
        retrain.fidelity,
    )
