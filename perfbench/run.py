"""Run one benchmark workload of the network observer and print its metrics.

    python3 perfbench/run.py --workload serving --seed 1 --seconds 10 --trace 0

Workloads: serving, offline (see
perfbench/README.md).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.

The program under test is imported from ``src/`` next to this directory;
without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("serving", "offline")

# Pinned before numpy loads, in this process and in every worker it
# spawns: one BLAS/OpenMP thread (float results can depend on the thread
# count), a fixed string-hash seed (set iteration order) and fixed malloc
# thresholds.  glibc otherwise moves its mmap and trim thresholds as
# large blocks are freed, so whether a retrain's numpy temporaries come
# from pages already mapped or from fresh ones (~800k page faults per
# 60-user fit) depends on the heap's history, and identical rounds of
# one run differed by up to 1.6x.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "GLIBC_TUNABLES": (
        "glibc.malloc.mmap_threshold=33554432:"
        "glibc.malloc.trim_threshold=268435456"
    ),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for perfbench/selftest.py only",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_environment() -> None:
    """Re-execute this script once with :data:`PINNED_ENV` in force."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(
        sys.executable,
        [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
        env,
    )


def import_program():
    """Put this checkout's ``src/`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program to measure: {SRC / 'repro'} is missing"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def result_line(result, trace: bool) -> tuple[dict, list[str]]:
    from obsbench.harness import END_TO_END_UNITS, PER_LAYER_UNITS

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = result.per_layer if trace else result.end_to_end
    problems = list(result.checks)
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"metric {name} was not measured ({value})")
            continue
        metrics[name] = {"value": value, "unit": unit}
    line = {
        "correct": not problems,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    return line, problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_environment()
    import_program()

    import importlib
    import tempfile

    from obsbench.harness import SCALES, Context

    # Everything the run writes (capture, checkpoints, stores, spill
    # shards, temp files of the program) stays under the checkout.
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=SCALES[args.scale],
        work=work,
    )
    module = importlib.import_module(
        "obsbench." + args.workload
    )
    try:
        result = module.run(ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass   # another run is still using it
        _stop_resource_tracker()
    line, problems = result_line(result, ctx.trace)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def _stop_resource_tracker() -> None:
    """Wait for multiprocessing's helper process, if a fleet started one."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
