"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json at the tiny scale, untraced and
   traced, and checks the printed result line against BENCHMARK.json:
   exactly the listed metrics, each finite and with its unit, end-to-end
   values above 0, whole ``attempted`` (at least 1) and ``failed`` counts.
2. Feeds each correctness check of ``obsbench.checks`` a real output of
   the program (it must pass) and a perturbed copy (it must fail).

Exits 0 when everything holds; prints each failure otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
problems: list[str] = []


def fail(message: str) -> None:
    problems.append(message)
    print(f"FAIL {message}")


# -- 1. result lines against BENCHMARK.json --------------------------------------

def check_result_line(spec: dict, workload: str, trace: int) -> None:
    label = f"{workload} --trace {trace}"
    run = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if run.returncode != 0:
        fail(f"{label}: exit {run.returncode}\n{run.stderr[-2000:]}")
        return
    line = json.loads(run.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(line)}")
        return
    if line["correct"] is not True:
        fail(f"{label}: correct is {line['correct']}")
    for key in ("attempted", "failed"):
        if not isinstance(line[key], int) or line[key] < 0:
            fail(f"{label}: {key} is {line[key]!r}")
    if line["attempted"] < 1:
        fail(f"{label}: nothing attempted")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = line["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        fail(f"{label}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{label}: {metric['name']} = {value!r}")
        elif not trace and value <= 0:
            fail(f"{label}: end-to-end {metric['name']} = {value}")
        if got.get("unit") != metric["unit"]:
            fail(f"{label}: {metric['name']} unit {got.get('unit')!r}, "
                 f"BENCHMARK.json says {metric['unit']!r}")
    print(f"ok   {label}: {len(metrics)} metrics, "
          f"{line['attempted']} attempted, {line['failed']} failed")


# -- 2. every check passes on real output and fails on a perturbed one -----------

def expect(name: str, check, good, bad) -> None:
    """``check(*good)`` must pass and ``check(*bad)`` must fail."""
    from obsbench.harness import CheckFailed

    try:
        check(*good)
    except CheckFailed as error:
        fail(f"{name}: rejects the program's real output: {error}")
        return
    try:
        check(*bad)
    except CheckFailed:
        print(f"ok   {name}: passes real output, fails perturbed output")
        return
    fail(f"{name}: accepted a perturbed output")


def serving_checks(work: Path) -> None:
    import numpy as np

    from repro.netobs import NetworkObserver, read_pcap

    from obsbench import checks
    from obsbench.fleet import in_process_replay
    from obsbench.harness import TINY
    from obsbench.inputs import build_serving_inputs

    inputs = build_serving_inputs(SEED, TINY, work / "capture.pcap")
    observer = NetworkObserver()
    decoded = [
        (e.client_ip, e.timestamp, e.hostname, e.source)
        for e in filter(None, map(observer.ingest, read_pcap(inputs.pcap)))
    ]
    bad = list(decoded)
    client, timestamp, hostname, source = bad[len(bad) // 2]
    bad[len(bad) // 2] = (client, timestamp, hostname + ".x", source)
    expect("decoded events", checks.check_decoded_events,
           (decoded, inputs.events), (bad, inputs.events))

    replay = in_process_replay(inputs)
    reference = checks.reference_emissions(
        inputs.events, inputs.world.tracker_filter.blocks
    )
    windows = [e[:3] for e in replay]
    bad = list(windows)
    client, tick, hosts = bad[0]
    bad[0] = (client, tick, hosts[:-1] if len(hosts) > 1 else hosts * 2)
    expect("emission windows", checks.check_emission_windows,
           (windows, reference), (bad, reference))
    expect("emission count", checks.check_emission_windows,
           (windows, reference), (windows[1:], reference))

    neighbourhood = checks.effective_neighbourhood(
        inputs.pipeline.config, len(inputs.pipeline.embeddings)
    )
    samples = [(e[2], e[3]) for e in replay[:5]]
    bad = [(hosts, categories.copy()) for hosts, categories in samples]
    bad[0][1][int(np.argmax(bad[0][1]))] += 1e-6
    args = (inputs.pipeline.embeddings, inputs.world.labelled, neighbourhood)
    expect("Eq. 3/4 profiles", checks.check_profiles,
           (samples, *args), (bad, *args))

    bad = copy.deepcopy(replay)
    last = max(i for i, e in enumerate(bad) if e[3].any())
    bad[last] = bad[last][:3] + (bad[last][3] * (1 + 1e-12),)
    expect("fleet parity", checks.check_same_emissions,
           (replay, replay), (bad, replay))


def retrain_checks(work: Path) -> None:
    import numpy as np

    from repro.core.pipeline import NetworkObserverProfiler, PipelineConfig
    from repro.core.session import SessionExtractor
    from repro.store import ArtifactStore

    from obsbench import checks
    from obsbench.harness import TINY, Context
    from obsbench.retrain import deploy, sample_searches
    from obsbench.inputs import observed_world

    world = observed_world(SEED, TINY.retrain_users, TINY.sites, 2)
    day = world.trace.start_day
    pipeline = NetworkObserverProfiler(
        world.labelled, config=PipelineConfig(),
        tracker_filter=world.tracker_filter,
    )
    in_memory = deploy(pipeline, world.trace, day, ArtifactStore(work / "store"))
    losses = pipeline.last_train_stats.mean_loss_per_epoch
    expect("loss fell", checks.check_loss_fell,
           (losses,), (losses[::-1],))

    ctx = Context(SEED, 1.0, False, TINY, work)
    results = sample_searches(pipeline, ctx)
    vectors = pipeline.embeddings.vectors
    query, ids, scores = results[0]
    bad = [(query, ids[::-1], scores[::-1])] + results[1:]
    expect("index search", checks.check_search,
           (results, vectors), (bad, vectors))

    windows = SessionExtractor(
        tracker_filter=world.tracker_filter
    ).windows_for_day(world.trace, day + 1)
    loaded = [pipeline.profile_window(w).categories for w in windows]
    memory = [in_memory.profile(list(w.hostnames)).categories for w in windows]
    bad = [np.array(v) for v in loaded]
    nonempty = next(i for i, v in enumerate(bad) if v.any())
    bad[nonempty][int(np.argmax(bad[nonempty]))] *= 1 + 1e-12
    expect("loaded == in-memory", checks.check_profiles_equal,
           (loaded, memory), (bad, memory))


def worldgen_checks(work: Path) -> None:
    from repro.traffic import PopulationConfig
    from repro.traffic.generator import user_day_requests
    from repro.world import make_lazy_world

    from obsbench import checks
    from obsbench.harness import NETWORK_SEED, TINY

    world = make_lazy_world(
        seed=NETWORK_SEED, num_sites=TINY.sites,
        num_users=TINY.worldgen_users, num_days=1,
        population_config=PopulationConfig(
            num_users=TINY.worldgen_users,
            sessions_per_day_mu=TINY.worldgen_mu,
        ),
        batch_events=TINY.worldgen_batch,
        users_per_chunk=TINY.worldgen_chunk, spill_dir=work,
    )
    batches = list(world.day_batches(SEED))
    requests = [r for batch in batches for r in batch.requests]
    keys = [(r.timestamp, r.user_id) for r in requests]
    bad = list(keys)
    bad[0], bad[-1] = bad[-1], bad[0]
    expect("stream order", checks.check_stream_order, (keys,), (bad,))

    sizes = [len(b) for b in batches]
    expect("batch sizes", checks.check_batch_sizes,
           (sizes, TINY.worldgen_batch), (sizes + [TINY.worldgen_batch + 1],
                                         TINY.worldgen_batch))

    user = requests[0].user_id
    streamed = [
        (r.timestamp, r.hostname, r.kind) for r in requests
        if r.user_id == user
    ]
    generator = world.generator
    regenerated = sorted(
        user_day_requests(
            generator.model, generator.diurnal, generator.seed,
            world.population.profile(user), SEED,
        ),
        key=lambda r: r.timestamp,
    )
    want = [(r.timestamp, r.hostname, r.kind) for r in regenerated]
    expect("sampled users", checks.check_user_requests,
           (streamed, want), (streamed[:-1], want))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_result_line(spec, workload["name"], trace)

    from run import PINNED_ENV, import_program

    os.environ.update(PINNED_ENV)
    import_program()
    work = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        serving_checks(work)
        retrain_checks(work)
        worldgen_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("self-test:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
