"""World day: a sparse, large lazy population streamed as trace batches.

One run iterates ``make_lazy_world(...).day_batches(day)`` for the day
``--seed`` selects of a fixed population with ``sessions_per_day_mu`` =
-3.5 (most users stay idle), spilling ``worldgen_users / worldgen_chunk``
sorted chunks to disk and heap-merging them.  Every user is realized
whether or not they browse, so population cost dominates.  Runs restart
the same day, so they are identical.
"""

from __future__ import annotations

import random

import repro.traffic.generator as generator_module

from obsbench import checks
from obsbench.harness import Part, clock, first_day, patched, require


class WorldDay(Part):
    SELF_TIMES = [
        "generator.profile_s",
        "generator.requests_s",
        "generator.spill_s",
        "generator.merge_s",
    ]
    # A warm-up day would leave realized profiles in the population's LRU
    # for the first timed day to reuse.
    WARM_UP = False

    def __init__(self, ctx, ledger):
        super().__init__(ctx, ledger)
        self.day = first_day(ctx.seed, 1)
        self.totals = {
            "events": 0, "spill_shards": 0, "wall": 0.0, "first_batch": 0.0,
        }
        self.batches: list = []
        self.active = 0

    def round(self, inputs, index: int) -> tuple[int, float]:
        world = inputs.lazy_world
        if self.ledger is None:
            seconds = self.generate(world)
        else:
            population = world.population
            realized = population.cache_misses
            with patched(population, "profile", self.ledger.timed(
                    "generator.profile_s", population.profile)), \
                    patched(generator_module, "user_day_requests",
                            self.ledger.timed(
                                "generator.requests_s",
                                generator_module.user_day_requests)):
                seconds = self.generate(world)
            self.ledger.values["generator.profiles_realized"] += (
                population.cache_misses - realized
            )
        events = sum(len(b) for b in self.batches)
        self.totals["events"] += events
        self.attempted += len(self.batches)
        return events, seconds

    def generate(self, world) -> float:
        spilled = world.generator.spill_shards
        iterator = world.day_batches(self.day)
        started = clock()
        batches = [next(iterator)]
        first = clock() - started
        batches.extend(iterator)
        seconds = clock() - started
        self.totals["first_batch"] += first
        self.totals["wall"] += seconds
        self.totals["spill_shards"] += world.generator.spill_shards - spilled
        self.batches = batches
        return seconds

    def checks(self, inputs):
        scale = self.ctx.scale
        world = inputs.lazy_world
        requests = [r for batch in self.batches for r in batch.requests]
        hosts_by_user: dict[int, list[str]] = {}
        for request in requests:
            hosts_by_user.setdefault(request.user_id, []).append(
                request.hostname
            )
        self.active = len(hosts_by_user)
        runs = self.attempted // len(self.batches)
        return [
            ("stream order", lambda: checks.check_stream_order(
                [(r.timestamp, r.user_id) for r in requests])),
            ("batch sizes", lambda: checks.check_batch_sizes(
                [len(b) for b in self.batches], scale.worldgen_batch)),
            ("sampled users", lambda: check_sampled_users(
                self.ctx, world, self.day, hosts_by_user, requests)),
            ("spilled", lambda: require(
                self.totals["spill_shards"]
                == runs * -(-scale.worldgen_users // scale.worldgen_chunk),
                f"{self.totals['spill_shards']} spill shards in {runs} runs")),
        ]

    def summary(self, rounds: int) -> str:
        return (
            f"world day: {rounds} runs, {self.totals['events']} events in "
            f"{self.attempted} batches, {self.active} of "
            f"{self.ctx.scale.worldgen_users} users active"
        )

    def close(self, inputs, rounds: int) -> None:
        """Split the generation time into spill and merge.

        The first ``next()`` of a run realizes and spills every chunk; its
        self time (sorting and writing the chunks) is ``generator.spill_s``.
        The later ones are the heap merge, ``generator.merge_s``.
        """
        values = self.ledger.values
        first, wall = self.totals["first_batch"], self.totals["wall"]
        values["generator.first_batch_s"] = first
        values["generator.merge_s"] = wall - first
        values["generator.spill_s"] = (
            first - values["generator.profile_s"]
            - values["generator.requests_s"]
        )
        values["generator.spill_shards"] = self.totals["spill_shards"]
        values["generator.active_user_share"] = (
            self.active * rounds / values["generator.profiles_realized"]
        )


def check_sampled_users(ctx, world, day, hosts_by_user, requests) -> None:
    """Sampled users' streamed requests equal ``user_day_requests``."""
    rng = random.Random(ctx.seed)
    active = sorted(hosts_by_user)
    idle = [u for u in range(len(world.population)) if u not in hosts_by_user]
    sample = rng.sample(active, min(ctx.scale.user_samples, len(active)))
    sample += rng.sample(idle, min(ctx.scale.user_samples // 4, len(idle)))
    generator = world.generator
    streamed: dict[int, list[tuple]] = {u: [] for u in sample}
    for r in requests:
        if r.user_id in streamed:
            streamed[r.user_id].append((r.timestamp, r.hostname, r.kind))
    for user in sample:
        regenerated = generator_module.user_day_requests(
            generator.model, generator.diurnal, generator.seed,
            world.population.profile(user), day,
        )
        regenerated.sort(key=lambda r: r.timestamp)
        checks.check_user_requests(
            streamed[user],
            [(r.timestamp, r.hostname, r.kind) for r in regenerated],
        )
