"""Correctness checks computed apart from the program, plus ``fidelity``.

Every check takes plain outputs (lists, tuples, arrays) and raises
:class:`~obsbench.harness.CheckFailed` on the first disagreement, so the
self-test can feed each one a perturbed output and watch it fail.  The
reference computations are short re-derivations in numpy and plain Python
from the paper's definitions; they share no code with the paths they
check.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.analysis.fidelity import build_report

from obsbench.harness import require

SESSION_SECONDS = 20 * 60.0      # T
REPORT_SECONDS = 10 * 60.0       # report grid
# Eq. 3/4 re-derivation vs the program: both sum the same float64 terms,
# in different orders.
PROFILE_TOLERANCE = 1e-9
# Brute-force top-N vs the index: float64 dot products in another order.
SEARCH_TOLERANCE = 1e-9


def _first_visits(hosts) -> tuple[str, ...]:
    return tuple(dict.fromkeys(hosts))


# -- serving path ---------------------------------------------------------------

def check_decoded_events(decoded: list[tuple], expected: list[tuple]) -> None:
    """The observer decoded exactly the capture's SNI events, in order."""
    require(
        len(decoded) == len(expected),
        f"decoded {len(decoded)} events, capture holds {len(expected)}",
    )
    for index, (got, want) in enumerate(zip(decoded, expected)):
        require(got == want, f"event {index}: decoded {got}, expected {want}")


def reference_emissions(events: list[tuple], is_tracker) -> list[tuple]:
    """(client, tick, window hosts) every report tick should emit.

    Per client (tracker hostnames dropped): the first event anchors a
    10-minute grid; an event at or past the next tick fires it, and the
    window is the first visits among that client's events in
    ``(tick - 20 min, tick]``.  Empty windows emit nothing.
    """
    seen: dict[str, list[tuple[float, str]]] = {}
    next_tick: dict[str, float] = {}
    expected = []
    for client, timestamp, hostname, _source in events:
        if is_tracker(hostname):
            continue
        history = seen.setdefault(client, [])
        history.append((timestamp, hostname))
        if client not in next_tick:
            next_tick[client] = timestamp + REPORT_SECONDS
            continue
        if timestamp < next_tick[client]:
            continue
        tick = next_tick[client]
        while next_tick[client] <= timestamp:
            next_tick[client] += REPORT_SECONDS
        window = _first_visits(
            h for t, h in history if tick - SESSION_SECONDS < t <= tick
        )
        if window:
            expected.append((client, tick, window))
    return expected


def check_emission_windows(
    emissions: list[tuple], expected: list[tuple]
) -> None:
    """``emissions`` as (client, tick, window_hosts) match the reference."""
    require(
        len(emissions) == len(expected),
        f"{len(emissions)} emissions, reference expects {len(expected)}",
    )
    got = sorted(emissions, key=lambda e: (e[1], e[0]))
    want = sorted(expected, key=lambda e: (e[1], e[0]))
    for g, w in zip(got, want):
        require(g == w, f"emission {g[:2]} window {g[2]} != reference {w}")


def reference_profile(
    hosts: tuple[str, ...],
    vectors: np.ndarray,
    row_of: dict[str, int],
    host_at: list[str],
    labelled: dict[str, np.ndarray],
    neighbourhood: int,
) -> np.ndarray:
    """Eq. 3/4 by brute force: cosine neighbourhood, ambient recentring.

    alpha is 1 for labelled hosts in the session and
    ``[(cos - ambient) / (1 - ambient)]_+`` for the other labelled hosts
    among the ``neighbourhood`` most cosine-similar to the mean session
    vector; ambient is the mean cosine to the whole vocabulary.  The
    profile is the alpha-weighted mean of the labelled category vectors.
    """
    num_categories = len(next(iter(labelled.values())))
    in_session = [h for h in hosts if h in labelled]
    numerator = np.zeros(num_categories)
    denominator = float(len(in_session))
    for host in in_session:
        numerator += labelled[host]
    rows = [row_of[h] for h in hosts if h in row_of]
    if rows:
        units = vectors / np.maximum(
            np.linalg.norm(vectors, axis=1, keepdims=True), 1e-12
        )
        session = vectors[rows].mean(axis=0)
        cosines = units @ (session / np.linalg.norm(session))
        ambient = cosines.mean()
        nearest = np.argsort(-cosines, kind="stable")[:neighbourhood]
        skip = set(in_session)
        for row in nearest:
            host = host_at[row]
            if host not in labelled or host in skip:
                continue
            alpha = max((cosines[row] - ambient) / (1.0 - ambient), 0.0)
            if alpha > 0.0:
                numerator += alpha * labelled[host]
                denominator += alpha
    if denominator == 0.0:
        return np.zeros(num_categories)
    return numerator / denominator


def check_profiles(
    samples: list[tuple[tuple[str, ...], np.ndarray]],
    embeddings,
    labelled: dict[str, np.ndarray],
    neighbourhood: int,
) -> None:
    """Sampled (window hosts, profile) pairs match the Eq. 3/4 reference."""
    host_at = embeddings.vocabulary.hosts
    row_of = {host: row for row, host in enumerate(host_at)}
    vectors = np.asarray(embeddings.vectors, dtype=np.float64)
    for hosts, categories in samples:
        want = reference_profile(
            hosts, vectors, row_of, host_at, labelled, neighbourhood
        )
        error = float(np.max(np.abs(np.asarray(categories) - want)))
        require(
            error <= PROFILE_TOLERANCE,
            f"profile of {len(hosts)} hosts differs from Eq. 3/4 by {error}",
        )


def effective_neighbourhood(config, vocabulary_size: int) -> int:
    """N, capped at a fraction of the vocabulary (floor 10)."""
    return min(
        config.neighbourhood_size,
        max(10, int(vocabulary_size * config.max_neighbourhood_fraction)),
    )


def check_same_emissions(got: list[tuple], want: list[tuple]) -> None:
    """Two runs' (client, tick, window, categories) agree exactly."""
    require(len(got) == len(want), f"{len(got)} emissions vs {len(want)}")
    for g, w in zip(got, want):
        require(g[:3] == w[:3], f"emission {g[:2]} differs from {w[:2]}")
        require(
            np.array_equal(g[3], w[3]),
            f"emission {g[:2]}: profile differs from the in-process replay",
        )


def fidelity_of(
    emissions: list[tuple],
    requests_by_user: dict[int, list],
    user_of_client: dict[str, int],
    web,
) -> float:
    """Mean affinity of non-empty profiles with the ground truth.

    ``emissions`` are (client, tick, profile).  The oracle is the mean
    ``true_category_vector`` of the hosts the user requested in the 20
    minutes up to the tick; ``analysis.fidelity`` averages the cosines.
    """
    times = {
        user: [r.timestamp for r in requests]
        for user, requests in requests_by_user.items()
    }
    pairs, sizes, empty = [], [], 0
    for client, tick, profile in emissions:
        if profile.is_empty:
            empty += 1
            continue
        user = user_of_client[client]
        stamps = times[user]
        lo = bisect.bisect_right(stamps, tick - SESSION_SECONDS)
        hi = bisect.bisect_right(stamps, tick)
        truths = [
            web.true_category_vector(r.hostname)
            for r in requests_by_user[user][lo:hi]
        ]
        truths = [v for v in truths if v is not None]
        if truths:
            pairs.append((np.mean(truths, axis=0), profile.categories))
            sizes.append(profile.session_size)
    return build_report(pairs, sizes, empty).mean_affinity


# -- retrain path ----------------------------------------------------------------

def check_loss_fell(losses: list[float]) -> None:
    require(
        len(losses) >= 2 and losses[-1] < losses[0],
        f"last epoch loss {losses[-1:]} is not below the first {losses[:1]}",
    )


def check_search(
    results: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    vectors: np.ndarray,
) -> None:
    """Index (query, ids, scores) triples agree with a brute-force top-N.

    Scores are compared rank by rank, and each returned id must carry the
    score the brute force gives it, so exact ties may come back in either
    order.
    """
    units = vectors / np.maximum(
        np.linalg.norm(vectors, axis=1, keepdims=True), 1e-12
    )
    for query, ids, scores in results:
        cosines = units @ (query / np.linalg.norm(query))
        top = np.sort(cosines)[::-1][: len(ids)]
        require(
            len(ids) == min(len(cosines), len(top)),
            f"index returned {len(ids)} neighbours",
        )
        require(
            np.allclose(scores, top, rtol=0.0, atol=SEARCH_TOLERANCE),
            "index scores differ from the brute-force top-N",
        )
        require(
            np.allclose(cosines[ids], scores, rtol=0.0, atol=SEARCH_TOLERANCE),
            "index ids do not carry their brute-force scores",
        )


def check_profiles_equal(
    loaded: list[np.ndarray], in_memory: list[np.ndarray]
) -> None:
    require(len(loaded) == len(in_memory), "profile counts differ")
    for index, (a, b) in enumerate(zip(loaded, in_memory)):
        require(
            np.array_equal(a, b),
            f"window {index}: loaded generation profiles differently",
        )


# -- generator --------------------------------------------------------------------

def check_stream_order(keys: list[tuple[float, int]]) -> None:
    """The generated stream is sorted by (timestamp, user_id)."""
    for index in range(1, len(keys)):
        require(
            keys[index - 1] <= keys[index],
            f"stream out of order at request {index}",
        )


def check_batch_sizes(sizes: list[int], limit: int) -> None:
    require(all(0 < s <= limit for s in sizes), f"a batch exceeds {limit}")


def check_user_requests(got: list[tuple], want: list[tuple]) -> None:
    """A user's streamed requests equal their regenerated day."""
    require(got == want, f"user requests differ ({len(got)} vs {len(want)})")

