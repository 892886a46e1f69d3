"""Retrain: one daily retrain, from the day's trace to a servable generation.

One run is the deployment's retrain on the first day ``--seed``
selects of the fixed network's traffic, with the program's default
``PipelineConfig``: ``train_on_day`` (``day_corpus`` →
``SkipGramModel.fit`` → ``build_index``), ``publish_generation`` into a
fresh ``ArtifactStore``, then ``load_generation``.  That is the timed
part.  After the last run, the loaded generation profiles every session
window of the next day, for ``fidelity`` and the checks.  Every run
retrains the same day, so runs are identical.
"""

from __future__ import annotations

import random
import shutil

import repro.core.pipeline as pipeline_module
from repro.core.pipeline import NetworkObserverProfiler, PipelineConfig
from repro.core.session import SessionExtractor
from repro.store import ArtifactStore
from repro.utils.timeutils import minutes

from obsbench import checks
from obsbench.harness import (
    Context,
    Ledger,
    Part,
    clock,
    directory_bytes,
    patched,
)

# day_corpus, fit, build_index, publish_generation, load_generation.
STAGES = 5


class Retrain(Part):
    SELF_TIMES = [
        "corpus.build_s",
        "skipgram.fit_s",
        "index.build_s",
        "store.publish_s",
        "store.load_s",
    ]

    def __init__(self, ctx, ledger):
        super().__init__(ctx, ledger)
        self.pipeline = None
        self.in_memory = None
        self.windows: list = []
        self.profiles: list = []

    def round(self, inputs, index: int) -> tuple[int, float]:
        world = inputs.retrain_world
        day = world.trace.start_day
        store_dir = self.ctx.work / f"store-{index}"
        store = ArtifactStore(store_dir)
        pipeline = NetworkObserverProfiler(
            world.labelled,
            config=PipelineConfig(),
            tracker_filter=world.tracker_filter,
        )
        started = clock()
        if self.ledger is None:
            in_memory = deploy(pipeline, world.trace, day, store)
        else:
            in_memory = traced_deploy(
                self.ledger, pipeline, world.trace, day, store
            )
        seconds = clock() - started
        if self.ledger is not None:
            self.ledger.values["store.bytes"] += directory_bytes(store_dir)
        self.pipeline, self.in_memory = pipeline, in_memory
        self.attempted += STAGES
        shutil.rmtree(store_dir, ignore_errors=True)
        return len(world.trace.day(day)), seconds

    def next_day(self, inputs) -> None:
        """Profile every session window of the next day (once, after
        the timed phase) with the last loaded generation."""
        if self.windows:
            return
        world = inputs.retrain_world
        self.windows = SessionExtractor(
            window_seconds=minutes(self.pipeline.config.session_minutes),
            tracker_filter=world.tracker_filter,
        ).windows_for_day(world.trace, world.trace.start_day + 1)
        self.profiles = [self.pipeline.profile_window(w) for w in self.windows]

    def checks(self, inputs):
        self.next_day(inputs)
        pipeline = self.pipeline
        return [
            ("loss fell", lambda: checks.check_loss_fell(
                pipeline.last_train_stats.mean_loss_per_epoch)),
            ("index search", lambda: checks.check_search(
                sample_searches(pipeline, self.ctx),
                pipeline.embeddings.vectors)),
            ("loaded == in-memory", lambda: checks.check_profiles_equal(
                [p.categories for p in self.profiles],
                [self.in_memory.profile(list(w.hostnames)).categories
                 for w in self.windows])),
        ]

    def fidelity(self, inputs) -> float:
        self.next_day(inputs)
        return window_fidelity(
            inputs.retrain_world, self.windows, self.profiles
        )

    def summary(self, rounds: int) -> str:
        return f"retrain: {rounds} runs, {self.attempted} stages"


def deploy(pipeline, trace, day: int, store):
    """The timed retrain; returns the in-memory profiler it trained."""
    pipeline.train_on_day(trace, day)
    in_memory = pipeline.profiler
    pipeline.publish_generation(store, day=day)
    pipeline.load_generation(store)
    return in_memory


def traced_deploy(ledger: Ledger, pipeline, trace, day: int, store):
    """:func:`deploy` with each stage's public entry point timed."""
    values = ledger.values
    model_class = pipeline_module.SkipGramModel
    fit = model_class.fit

    def timed_fit(model, sequences, *args, **kwargs):
        started = clock()
        embeddings = fit(model, sequences, *args, **kwargs)
        values["skipgram.fit_s"] += clock() - started
        values["skipgram.pairs"] += model.stats.pairs_trained
        values["corpus.tokens"] += sum(len(s) for s in sequences)
        return embeddings

    with patched(pipeline_module, "day_corpus", ledger.timed(
            "corpus.build_s", pipeline_module.day_corpus)), \
            patched(model_class, "fit", timed_fit), \
            patched(pipeline_module, "build_index", ledger.timed(
                "index.build_s", pipeline_module.build_index)), \
            patched(pipeline, "publish_generation", ledger.timed(
                "store.publish_s", pipeline.publish_generation)), \
            patched(pipeline, "load_generation", ledger.timed(
                "store.load_s", pipeline.load_generation)):
        return deploy(pipeline, trace, day, store)


def sample_searches(pipeline, ctx: Context) -> list:
    """Index results for a seeded sample of session-like queries."""
    rng = random.Random(ctx.seed)
    embeddings = pipeline.embeddings
    hosts = embeddings.vocabulary.hosts
    n = checks.effective_neighbourhood(pipeline.config, len(embeddings))
    results = []
    for _ in range(ctx.scale.profile_samples):
        query = embeddings.aggregate(rng.sample(hosts, min(5, len(hosts))))
        ids, scores = embeddings.index.search(query, n)
        results.append((query, ids, scores))
    return results


def window_fidelity(world, windows, profiles) -> float:
    """``checks.fidelity_of`` for the next day's (window, profile) pairs."""
    requests_by_user = world.trace.user_sequences(world.trace.start_day + 1)
    client_of = {user: str(user) for user in requests_by_user}
    emissions = [
        (client_of[w.user_id], w.end_time, p)
        for w, p in zip(windows, profiles)
    ]
    return checks.fidelity_of(
        emissions, requests_by_user,
        {client: user for user, client in client_of.items()},
        world.web,
    )
