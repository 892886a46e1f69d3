"""What the two workloads build in set-up.

Both observe the fixed network (see ``harness.NETWORK_SEED``) on the days
``--seed`` selects.

serving: the serving model is trained on the first selected day with the
program's default ``PipelineConfig`` (the deployment's daily retrain on
"the day before"), and the capture holds the next ``capture_days`` days,
synthesized into packets by ``TrafficSynthesizer`` seeded with ``--seed``.
The expected decoded events are built here from the synthesized packets,
not from the decoder: each request's SNI-carrying packet (the first one to
port 443), with the microsecond timestamp the pcap container stores.

offline: the retrain world (its trace holds the selected day and the
next), and a sparse lazy world of ``worldgen_users`` users whose day is
generated in chunks spilled to disk.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from repro.core.pipeline import NetworkObserverProfiler, PipelineConfig
from repro.netobs import LINKTYPE_ETHERNET, TrafficSynthesizer, write_pcap
from repro.netobs.packets import IP_PROTO_UDP
from repro.traffic.events import Request
from repro.traffic import PopulationConfig
from repro.world import LazyWorld, World, make_lazy_world, make_world

from obsbench.harness import NETWORK_SEED, Scale, first_day


@dataclass
class ServingInputs:
    world: World
    pipeline: NetworkObserverProfiler
    # (client_ip, timestamp, hostname, source) in capture order: exactly
    # what NetworkObserver should decode, and the fleet's wire tuples.
    events: list[tuple]
    requests_by_user: dict[int, list[Request]]
    user_of_client: dict[str, int]
    packets: int
    pcap: Path | None
    # The serving model exported for the fleet's worker, if asked for.
    model_dir: Path | None = None


def pcap_timestamp(t: float) -> float:
    """A timestamp as it reads back from a microsecond pcap record."""
    seconds = int(t)
    micros = int(round((t - seconds) * 1_000_000))
    if micros >= 1_000_000:
        seconds += 1
        micros -= 1_000_000
    return seconds + micros / 1_000_000


def observed_world(seed: int, users: int, sites: int, days: int) -> World:
    """The fixed network, its trace holding the ``days`` ``seed`` picks."""
    world = make_world(
        seed=NETWORK_SEED, num_sites=sites, num_users=users, num_days=1
    )
    start = first_day(seed, days)
    return dataclasses.replace(
        world, trace=world.generator.generate(days, start_day=start)
    )


def build_serving_inputs(
    seed: int, scale: Scale, pcap: Path | None, model_dir: Path | None = None
) -> ServingInputs:
    """World, trained serving model, capture (written to ``pcap`` if given)
    and the model exported for a shard worker (to ``model_dir`` if given)."""
    world = observed_world(
        seed, scale.serving_users, scale.sites, 1 + scale.capture_days
    )
    train_day = world.trace.start_day
    pipeline = NetworkObserverProfiler(
        world.labelled,
        config=PipelineConfig(),
        tracker_filter=world.tracker_filter,
    )
    pipeline.train_on_day(world.trace, train_day)

    synthesizer = TrafficSynthesizer(seed=seed)
    packets = []
    sni_packets = []
    requests_by_user: dict[int, list[Request]] = {}
    for day in range(train_day + 1, train_day + 1 + scale.capture_days):
        for request in world.trace.day(day):
            request_packets = synthesizer.packets_for_request(request)
            packets.extend(request_packets)
            sni = next(p for p in request_packets if p.dst_port == 443)
            sni_packets.append((sni, request.hostname))
            requests_by_user.setdefault(request.user_id, []).append(request)
    packets.sort(key=lambda p: p.timestamp)
    # A stable sort of the SNI packets alone keeps the order they have
    # inside the sorted capture.
    sni_packets.sort(key=lambda item: item[0].timestamp)
    events = [
        (
            packet.src_ip,
            pcap_timestamp(packet.timestamp),
            hostname,
            "quic-sni" if packet.protocol == IP_PROTO_UDP else "tls-sni",
        )
        for packet, hostname in sni_packets
    ]
    if pcap is not None:
        write_pcap(pcap, packets, linktype=LINKTYPE_ETHERNET)
    if model_dir is not None:
        model_dir = pipeline.export_model_dir(model_dir)
    user_of_client = {
        synthesizer.client_ip(user): user for user in requests_by_user
    }
    return ServingInputs(
        world=world,
        pipeline=pipeline,
        events=events,
        requests_by_user=requests_by_user,
        user_of_client=user_of_client,
        packets=len(packets),
        pcap=pcap,
        model_dir=model_dir,
    )


@dataclass
class OfflineInputs:
    retrain_world: World
    lazy_world: LazyWorld


def build_offline_inputs(seed: int, scale: Scale, spill: Path) -> OfflineInputs:
    """The retrain world and the sparse lazy world (spilling to ``spill``)."""
    retrain_world = observed_world(seed, scale.retrain_users, scale.sites, 2)
    lazy_world = make_lazy_world(
        seed=NETWORK_SEED,
        num_sites=scale.sites,
        num_users=scale.worldgen_users,
        num_days=1,
        population_config=PopulationConfig(
            num_users=scale.worldgen_users,
            sessions_per_day_mu=scale.worldgen_mu,
        ),
        batch_events=scale.worldgen_batch,
        users_per_chunk=scale.worldgen_chunk,
        spill_dir=spill,
    )
    return OfflineInputs(retrain_world=retrain_world, lazy_world=lazy_world)
