"""What every workload shares: sizes, clocks, the per-layer ledger, results.

A workload module exposes ``run(ctx) -> Result``; it builds its inputs
and hands them, with the parts one round runs, to :func:`run_parts`.
:func:`measure` builds the inputs several times (``setup_s`` is the
median) and runs whole rounds of the same operations for ``ctx.seconds``
of timed work, spread over the run.  With ``ctx.trace`` set the parts
also time calls into each layer's public functions and the run reports
per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is what the benchmark measures."""

    sites: int = 1200
    # Serving world: the model is trained on day 0 and the capture holds
    # the following ``capture_days`` days.
    serving_users: int = 40
    capture_days: int = 3
    retrain_users: int = 60
    # World day: a sparse population (sessions_per_day_mu) large enough to
    # spill ``worldgen_users / worldgen_chunk`` sorted chunks to disk.
    worldgen_users: int = 10_000
    worldgen_chunk: int = 5_000
    worldgen_batch: int = 8192
    worldgen_mu: float = -3.5
    # Events per ShardCoordinator.dispatch call (the CLI's default).
    shard_batch: int = 4096
    setup_repeats: int = 3
    setup_min_seconds: float = 5.0
    setup_max_repeats: int = 9
    # Emissions whose profile is re-derived from Eq. 3/4 in numpy.
    profile_samples: int = 25
    # Users whose world-day requests are regenerated one by one.
    user_samples: int = 20


# The observed network (synthetic web, user population, blocklists,
# labelled set) is the same in every run; ``--seed`` picks which days of
# its traffic are observed and seeds everything built from them.  Seed
# to seed, a workload then differs by day-to-day traffic only, not by a
# differently sized web or population.
NETWORK_SEED = 2021


def first_day(seed: int, span: int) -> int:
    """The first of ``span`` consecutive days that ``seed`` selects."""
    return span * (seed % 10_000)


FULL = Scale()
# For the self-test only: every workload end to end in a few seconds.
TINY = Scale(
    sites=200,
    serving_users=12,
    capture_days=1,
    retrain_users=12,
    worldgen_users=900,
    worldgen_chunk=300,
    worldgen_batch=64,
    shard_batch=256,
    setup_min_seconds=0.0,
    profile_samples=5,
    user_samples=5,
)
SCALES = {"full": FULL, "tiny": TINY}


@dataclass
class Context:
    """One run's arguments and its private scratch directory."""

    seed: int
    seconds: float
    trace: bool
    scale: Scale
    work: Path


class CheckFailed(AssertionError):
    """A correctness check found the program's output wrong."""


def require(condition: bool, message: str) -> None:
    """Record a failed correctness check (raises :class:`CheckFailed`)."""
    if not condition:
        raise CheckFailed(message)


def run_checks(named_checks) -> list[str]:
    """Run every ``(name, check)``; returns a message per failed check."""
    failures = []
    for name, check in named_checks:
        try:
            check()
        except CheckFailed as error:
            failures.append(f"{name}: {error}")
    return failures


@dataclass
class Result:
    """What one run prints as its last line."""

    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    checks: list[str] = field(default_factory=list)


# -- metric definitions -------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "fidelity": "affinity",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "netobs.decode_s": "s",
    "netobs.observe_s": "s",
    "netobs.packets": "count",
    "netobs.events": "count",
    "netobs.quarantined": "count",
    "stream.self_s": "s",
    "stream.emissions": "count",
    "stream.emit_p50_ms": "ms",
    "stream.emit_p99_ms": "ms",
    "profiler.self_s": "s",
    "profiler.window_hosts_mean": "hosts",
    "index.search_s": "s",
    "index.searches": "count",
    "index.build_s": "s",
    "shard.start_s": "s",
    "shard.dispatch_s": "s",
    "shard.finish_s": "s",
    "shard.batches": "count",
    "shard.checkpoint_bytes": "bytes",
    "shard.result_bytes": "bytes",
    "shard.worker_emit_p50_ms": "ms",
    "corpus.build_s": "s",
    "corpus.tokens": "count",
    "skipgram.fit_s": "s",
    "skipgram.pairs": "count",
    "store.publish_s": "s",
    "store.load_s": "s",
    "store.bytes": "bytes",
    "generator.first_batch_s": "s",
    "generator.spill_s": "s",
    "generator.profile_s": "s",
    "generator.profiles_realized": "count",
    "generator.requests_s": "s",
    "generator.spill_shards": "count",
    "generator.merge_s": "s",
    "generator.active_user_share": "share",
    "bench.wall_s": "s",
    "bench.unattributed_s": "s",
    "bench.unattributed_share": "share",
}


# -- the per-layer ledger -------------------------------------------------------

class Ledger:
    """Accumulates per-layer busy time and counts for a traced run.

    Self times are derived by the workload (a span's duration minus the
    child spans inside it); :meth:`close` adds the wall-time remainder no
    layer covers as ``bench.unattributed_s``.
    """

    def __init__(self):
        # Also holds intermediate totals (a span's full duration) that a
        # workload turns into self times before :meth:`close`.
        self.values: defaultdict[str, float] = defaultdict(float)

    def timed(
        self, name: str, fn: Callable, calls: str | None = None
    ) -> Callable:
        """``fn`` with its elapsed time added to ``name`` on every call
        (and the call counted in ``calls``, if given)."""
        values = self.values

        def timed_call(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                values[name] += clock() - started
                if calls is not None:
                    values[calls] += 1

        return timed_call

    def close(self, wall: float, self_times: list[str]) -> dict[str, float]:
        """Every per-layer metric (0 for layers the workload never ran)."""
        unattributed = wall - sum(self.values[name] for name in self_times)
        self.values["bench.wall_s"] = wall
        self.values["bench.unattributed_s"] = unattributed
        self.values["bench.unattributed_share"] = unattributed / wall
        return {name: float(self.values[name]) for name in PER_LAYER_UNITS}


@contextmanager
def patched(owner, attribute: str, replacement):
    """Temporarily rebind ``owner.attribute`` (a module, class or object).

    Used only by traced runs, to time a layer's public function where the
    program calls it; the original binding is restored on exit.
    """
    had_own = attribute in vars(owner)
    original = vars(owner).get(attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)


# -- shared measurement helpers ---------------------------------------------------

def measure(
    ctx: Context, build: Callable[[], object], one_round, warm_up
) -> tuple:
    """Set up and run the timed phase; returns (state, setup_s, rounds).

    ``build()`` makes the inputs; ``setup_s`` is the median time of
    several builds: at least ``setup_repeats``, and more (up to
    ``setup_max_repeats``) when that many would not fill
    ``setup_min_seconds``, so a cheap set-up's median rests on more
    samples.  ``one_round(state, index)`` runs one round on the inputs.
    ``warm_up(state)`` runs one untimed round before the first timed one:
    the first rounds of a process fault in the allocator's heap (a
    retrain's first fits take hundreds of thousands of page faults more
    than later ones), which says nothing about the rounds after them.

    Each of the last ``setup_repeats`` builds is followed by a third of
    the timed phase: rounds run until the timed wall time reaches that
    share of ``ctx.seconds`` (at least one round each; rounds are whole,
    so the last may end after it).  Spreading the measurement over the
    run averages the host's slow and fast stretches better than one
    contiguous window of the same length.

    The collector is frozen after every build, so the inputs are never
    rescanned during the timed rounds; it is unfrozen before the next
    build drops them.  One set of inputs is alive at a time.
    """
    scale = ctx.scale
    times: list[float] = []

    def timed_build():
        gc.unfreeze()
        gc.collect()
        started = clock()
        state = build()
        times.append(clock() - started)
        gc.collect()
        gc.freeze()
        return state

    state = timed_build()
    builds = min(
        scale.setup_max_repeats,
        max(scale.setup_repeats, math.ceil(scale.setup_min_seconds / times[0])),
    )
    timed = 0.0
    rounds = 0
    for index in range(builds):
        if index:
            state = None
            state = timed_build()
        chunk = index - (builds - scale.setup_repeats)
        if chunk < 0:
            continue
        if chunk == 0:
            warm_up(state)
        target = ctx.seconds * (chunk + 1) / scale.setup_repeats
        first = True
        while first or timed < target:
            started = clock()
            one_round(state, rounds)
            timed += clock() - started
            rounds += 1
            first = False
    return state, statistics.median(times), rounds


class Part:
    """One stage of a round (wire replay, fleet run, retrain, world day).

    A workload's round runs each of its parts once on the same inputs.
    ``SELF_TIMES`` are the per-layer self times that add up to the part's
    timed seconds in a traced run.  ``WARM_UP`` says whether the part
    runs in the untimed warm-up round.
    """

    SELF_TIMES: list[str] = []
    WARM_UP = True

    def __init__(self, ctx: Context, ledger: Ledger | None):
        self.ctx = ctx
        self.ledger = ledger
        self.attempted = 0
        self.failed = 0

    def round(self, state, index: int) -> tuple[int, float]:
        """Run once; returns (events handled, timed seconds)."""
        raise NotImplementedError

    def checks(self, state) -> list[tuple[str, Callable[[], None]]]:
        """Correctness checks of the last round's output."""
        return []

    def summary(self, rounds: int) -> str:
        raise NotImplementedError

    def close(self, state, rounds: int) -> None:
        """Derive the part's remaining per-layer values (traced runs)."""


def run_parts(
    ctx: Context,
    ledger: Ledger | None,
    build: Callable[[], object],
    parts: list[Part],
    fidelity: Callable[[object], float],
    include_children: bool = False,
) -> Result:
    """Measure rounds of ``parts`` on inputs from ``build``; the Result.

    The warm-up round runs fresh, untraced parts of the same kinds, so
    nothing it does is counted.

    ``events_per_s`` is the events all rounds handled over their timed
    seconds.  Untimed work inside a round (the fleet's worker spawn) is
    outside both.
    """
    per_round: list[tuple[int, float]] = []

    def one_round(state, index: int) -> None:
        events, seconds = 0, 0.0
        for part in parts:
            handled, timed = part.round(state, index)
            events += handled
            seconds += timed
        per_round.append((events, seconds))

    def warm_up(state) -> None:
        for part in parts:
            if part.WARM_UP:
                type(part)(ctx, None).round(state, -1)

    state, setup_s, rounds = measure(ctx, build, one_round, warm_up)
    failures = run_checks(
        [check for part in parts for check in part.checks(state)]
    )
    for part in parts:
        print(part.summary(rounds))
    wall = sum(seconds for _events, seconds in per_round)
    end_to_end, per_layer = {}, {}
    if ledger is not None:
        for part in parts:
            part.close(state, rounds)
        per_layer = ledger.close(
            wall, [name for part in parts for name in part.SELF_TIMES]
        )
    else:
        rates = [events / seconds for events, seconds in per_round]
        rate = sum(events for events, _seconds in per_round) / wall
        print(
            f"events_per_s: {rate:.1f} over {rounds} rounds; per round "
            f"{min(rates):.1f} to {max(rates):.1f}"
        )
        end_to_end = {
            "setup_s": setup_s,
            "events_per_s": rate,
            "fidelity": fidelity(state),
            "peak_rss_mb": peak_rss_mb(include_children),
        }
    return Result(
        attempted=sum(part.attempted for part in parts),
        failed=sum(part.failed for part in parts),
        end_to_end=end_to_end,
        per_layer=per_layer,
        checks=failures,
    )


def percentiles_ms(samples: list[float]) -> tuple[float, float]:
    """(p50, p99) of latency samples given in seconds, in milliseconds."""
    p50, p99 = np.percentile(np.asarray(samples), [50, 99])
    return float(p50) * 1e3, float(p99) * 1e3


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (plus its largest waited child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
