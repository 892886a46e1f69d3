"""Wire replay: a pcap capture through decode, observer, stream and profiler.

One run replays the whole capture closed-loop, as ``repro stream
<pcap>`` consumes it: ``read_pcap`` → ``NetworkObserver.ingest`` →
``StreamingProfiler.ingest`` (tracker filter on, serving model swapped
in), each call made when the previous one returns.  Every run starts
from a fresh observer and stream, so runs are identical.
"""

from __future__ import annotations

import random

from repro.core.streaming import StreamingProfiler
from repro.netobs import NetworkObserver, read_pcap

from obsbench import checks
from obsbench.harness import (
    Part,
    clock,
    patched,
    percentiles_ms,
    require,
)


class WireReplay(Part):
    SELF_TIMES = [
        "netobs.decode_s",
        "netobs.observe_s",
        "stream.self_s",
        "profiler.self_s",
        "index.search_s",
    ]

    def __init__(self, ctx, ledger):
        super().__init__(ctx, ledger)
        self.latencies: list[float] = []
        self.totals = {"packets": 0, "events": 0, "quarantined": 0}
        self.per_round: list[tuple[int, int]] = []
        self.decoded: list = []
        self.emissions: list = []

    def round(self, inputs, index: int) -> tuple[int, float]:
        observer = NetworkObserver()
        stream = StreamingProfiler(tracker_filter=inputs.world.tracker_filter)
        stream.swap_model(inputs.pipeline.profiler)
        decoded, emissions = [], []
        started = clock()
        if self.ledger is None:
            for packet in read_pcap(inputs.pcap):
                event = observer.ingest(packet)
                if event is None:
                    continue
                decoded.append(event)
                emission = stream.ingest(event)
                if emission is not None:
                    emissions.append(emission)
        else:
            self.traced_replay(inputs, observer, stream, decoded, emissions)
        seconds = clock() - started
        # A packet fails if read_pcap drops it undecoded or the observer
        # quarantines it.
        quarantined = observer.quarantine.total
        unread = inputs.packets - observer.flow_table.stats.packets_seen
        self.attempted += inputs.packets
        self.failed += unread + quarantined
        self.totals["packets"] += inputs.packets
        self.totals["events"] += len(decoded)
        self.totals["quarantined"] += quarantined
        self.per_round.append((len(decoded), len(emissions)))
        self.decoded, self.emissions = decoded, emissions
        return len(decoded), seconds

    def traced_replay(self, inputs, observer, stream, decoded, emissions):
        values = self.ledger.values
        profiler = inputs.pipeline.profiler
        index = profiler.index
        timed_search = self.ledger.timed(
            "index.search_s", index.search, calls="index.searches"
        )
        timed_profile = self.ledger.timed("profile_s", profiler.profile)
        with patched(index, "search", timed_search), \
                patched(profiler, "profile", timed_profile):
            packets = read_pcap(inputs.pcap)
            while True:
                t0 = clock()
                packet = next(packets, None)
                t1 = clock()
                values["netobs.decode_s"] += t1 - t0
                if packet is None:
                    break
                event = observer.ingest(packet)
                t2 = clock()
                values["netobs.observe_s"] += t2 - t1
                if event is None:
                    continue
                decoded.append(event)
                t2 = clock()
                emission = stream.ingest(event)
                t3 = clock()
                values["stream_ingest_s"] += t3 - t2
                if emission is not None:
                    # Emission latency: service time of the emitting call.
                    self.latencies.append(t3 - t2)
                    emissions.append(emission)

    def checks(self, inputs):
        tracker = inputs.world.tracker_filter
        decoded = [
            (e.client_ip, e.timestamp, e.hostname, e.source)
            for e in self.decoded
        ]
        emissions = self.emissions
        return [
            ("decoded events", lambda: checks.check_decoded_events(
                decoded, inputs.events)),
            ("nothing quarantined", lambda: require(
                self.failed == 0,
                f"{self.failed} packets unread or quarantined")),
            ("rounds agree", lambda: require(
                len(set(self.per_round)) == 1,
                f"rounds differ: {set(self.per_round)}")),
            ("emission windows", lambda: checks.check_emission_windows(
                [(e.client, e.timestamp, e.window_hosts) for e in emissions],
                checks.reference_emissions(inputs.events, tracker.blocks))),
            ("Eq. 3/4 profiles", lambda: checks.check_profiles(
                self.sample_profiles(), inputs.pipeline.embeddings,
                inputs.world.labelled,
                checks.effective_neighbourhood(
                    inputs.pipeline.config,
                    len(inputs.pipeline.embeddings)))),
        ]

    def fidelity(self, inputs) -> float:
        return checks.fidelity_of(
            [(e.client, e.timestamp, e.profile) for e in self.emissions],
            inputs.requests_by_user, inputs.user_of_client, inputs.world.web,
        )

    def summary(self, rounds: int) -> str:
        return (
            f"wire replay: {rounds} rounds, {self.totals['packets']} packets, "
            f"{self.totals['events']} events, "
            f"{len(self.emissions) * rounds} emissions"
        )

    def close(self, inputs, rounds: int) -> None:
        values = self.ledger.values
        values["stream.self_s"] = (
            values["stream_ingest_s"] - values["profile_s"]
        )
        values["profiler.self_s"] = (
            values["profile_s"] - values["index.search_s"]
        )
        values["stream.emissions"] = len(self.emissions) * rounds
        p50, p99 = percentiles_ms(self.latencies)
        values["stream.emit_p50_ms"] = p50
        values["stream.emit_p99_ms"] = p99
        values["profiler.window_hosts_mean"] = sum(
            len(e.window_hosts) for e in self.emissions
        ) / len(self.emissions)
        values["netobs.packets"] = self.totals["packets"]
        values["netobs.events"] = self.totals["events"]
        values["netobs.quarantined"] = self.totals["quarantined"]

    def sample_profiles(self) -> list:
        """A seeded sample of (window hosts, profile categories) pairs."""
        rng = random.Random(self.ctx.seed)
        chosen = rng.sample(
            self.emissions,
            min(self.ctx.scale.profile_samples, len(self.emissions)),
        )
        return [(e.window_hosts, e.profile.categories) for e in chosen]
