"""Fleet: the capture's decoded events through a one-worker shard fleet.

One run is a fleet run as ``repro stream --workers 1`` makes it: a
``ShardCoordinator`` with one worker at its default durability cadence
(``checkpoint_every_batches=1``), the events sent as wire 4-tuples with
``dispatch`` in batches (each followed by ``poll``), then ``finish``.
Spawning the worker (``start``) is not timed: it is the same fixed cost
for every run length, reported as ``shard.start_s``.  No packet is
decoded; the tuples are built in set-up.
"""

from __future__ import annotations

import pickle
import shutil

from repro.core.profiler import SessionProfile
from repro.core.streaming import StreamingProfiler
from repro.netobs.flows import HostnameEvent
from repro.obs.slo import estimate_quantile
from repro.shard import ShardCoordinator, ShardWorker, WorkerSpec

from obsbench import checks
from obsbench.harness import Part, clock, require

EMIT_HISTOGRAM = "stream_emit_latency_seconds"


def _histogram(snapshot: dict, name: str) -> dict:
    """The single series of histogram ``name`` in a metrics snapshot."""
    for family in snapshot["metrics"]:
        if family["name"] == name:
            (series,) = family["series"]
            return series
    raise KeyError(name)


class Fleet(Part):
    SELF_TIMES = ["shard.dispatch_s", "shard.finish_s"]

    def __init__(self, ctx, ledger):
        super().__init__(ctx, ledger)
        self.buckets: dict[str, float] = {}
        self.restarts = 0
        self.result = None

    def round(self, inputs, index: int) -> tuple[int, float]:
        events = inputs.events
        batch = self.ctx.scale.shard_batch
        ledger = self.ledger
        checkpoint_dir = self.ctx.work / f"shards-{index}"
        coordinator = ShardCoordinator(
            1,
            checkpoint_dir=checkpoint_dir,
            model_dir=inputs.model_dir,
            labelled=inputs.world.labelled,
            tracker_filter=inputs.world.tracker_filter,
        )
        try:
            started = clock()
            coordinator.start()
            spawned = clock()
            for lo in range(0, len(events), batch):
                sent = clock()
                coordinator.dispatch(events[lo:lo + batch])
                coordinator.poll()
                if ledger is not None:
                    ledger.values["shard.dispatch_s"] += clock() - sent
                    ledger.values["shard.batches"] += 1
            finishing = clock()
            result = coordinator.finish()
            done = clock()
        finally:
            coordinator.terminate()
        self.attempted += len(events)
        self.failed += len(events) - result.events_seen
        self.restarts += result.restarts
        if ledger is not None:
            series = _histogram(result.metrics, EMIT_HISTOGRAM)
            for bound, count in series["buckets"].items():
                self.buckets[bound] = self.buckets.get(bound, 0) + count
            values = ledger.values
            values["shard.start_s"] += spawned - started
            values["shard.finish_s"] += done - finishing
            values["shard.result_bytes"] += len(
                pickle.dumps((result.emissions, result.metrics))
            )
        self.result = result
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        return len(events), done - spawned

    def emissions(self) -> list[tuple]:
        """(client, tick, window hosts, profile) of the last fleet run."""
        return [
            (
                e["client"], e["timestamp"], tuple(e["window_hosts"]),
                SessionProfile.from_payload(e["profile"]),
            )
            for e in self.result.emissions
        ]

    def checks(self, inputs):
        emissions = self.emissions()
        return [
            ("every event applied once", lambda: require(
                self.failed == 0 and self.restarts == 0,
                f"{self.failed} events unseen, {self.restarts} restarts")),
            ("fleet emission windows", lambda: checks.check_emission_windows(
                [e[:3] for e in emissions],
                checks.reference_emissions(
                    inputs.events, inputs.world.tracker_filter.blocks))),
            ("in-process parity", lambda: checks.check_same_emissions(
                [e[:3] + (e[3].categories,) for e in emissions],
                in_process_replay(inputs))),
        ]

    def summary(self, rounds: int) -> str:
        return (
            f"fleet: {rounds} runs, {self.attempted} events, "
            f"{len(self.result.emissions) * rounds} emissions"
        )

    def close(self, inputs, rounds: int) -> None:
        # The worker's own emission-latency histogram, interpolated within
        # its buckets.
        cumulative = sorted(
            (float(bound), count) for bound, count in self.buckets.items()
        )
        self.ledger.values["shard.worker_emit_p50_ms"] = (
            estimate_quantile(cumulative, 0.5) * 1e3
        )
        self.ledger.values["shard.checkpoint_bytes"] = (
            rounds * checkpoint_bytes(
                inputs, self.ctx.scale.shard_batch,
                self.ctx.work / "checkpoint-replay.json",
            )
        )


def checkpoint_bytes(inputs, batch: int, path) -> int:
    """Bytes one fleet run's worker writes to its shard checkpoint.

    The worker is another process, so its checkpoints cannot be watched
    from here without racing it.  A ``ShardWorker`` driven in-process
    with the same batches and the same cadence as the fleet's worker
    writes the same files; their sizes are summed after every batch and
    at finish.
    """
    spec = WorkerSpec(
        shard_id=0,
        num_shards=1,
        checkpoint_path=str(path),
        model_dir=str(inputs.model_dir),
        labelled=inputs.world.labelled,
        tracker_filter=inputs.world.tracker_filter,
    )
    worker = ShardWorker(spec)
    every = spec.checkpoint_every_batches
    written = 0
    for seq, lo in enumerate(range(0, len(inputs.events), batch)):
        worker.ingest_batch(seq, inputs.events[lo:lo + batch])
        if every > 0 and (seq + 1) % every == 0:
            worker.checkpoint()
            written += path.stat().st_size
    worker.checkpoint()
    written += path.stat().st_size
    path.unlink()
    return written


def in_process_replay(inputs) -> list[tuple]:
    """The same events through one in-process StreamingProfiler."""
    stream = StreamingProfiler(tracker_filter=inputs.world.tracker_filter)
    stream.swap_model(inputs.pipeline.profiler)
    out = []
    for client, timestamp, hostname, source in inputs.events:
        emission = stream.ingest(
            HostnameEvent(client, timestamp, hostname, source)
        )
        if emission is not None:
            out.append((
                emission.client, emission.timestamp,
                emission.window_hosts, emission.profile.categories,
            ))
    out.sort(key=lambda e: (e[1], e[0]))
    return out
