"""atlas4d benchmark: one workload per process, metrics as one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0

The package is imported from `src/` of the tree this file sits in. BLAS
threads are capped at the number of usable cores before numpy loads. The
workload's inputs come from --seed. After set-up (repeated at least
SETUP_REPS times and for at least SETUP_MIN_S), the workload runs timed
rounds until --seconds have passed, at least MIN_ROUNDS of them, checking
every output.

--trace 0 prints the end-to-end metrics, the same four on every workload:
setup_s (median of the set-ups), round_s (median time of the calls into
atlas4d in one round; checks are not timed), output_mse (the workload's
output against its reference, from the first round; see workloads.py) and
peak_rss_mb. --trace 1 runs the same rounds untraced, then one more set-up
and the same number of rounds with atlas4d's public functions wrapped in
spans, and prints the per-layer metrics plus the tracing overhead (traced
minus untraced wall time of the rounds). Either set must match the names
and units BENCHMARK.json lists, or the run stops without a result.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it is the environment record. A copy of both,
with every operation and (when traced) every span, is written to
.bench_runs/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3  # at least; quick set-ups repeat until SETUP_MIN_S have passed
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50
MIN_ROUNDS = 3
WORKLOAD_NAMES = ("train", "infer", "eval", "train_paper")
END_TO_END = {"setup_s": "s", "round_s": "s", "output_mse": "mse", "peak_rss_mb": "MB"}


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable core count; call before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_package():
    """Import atlas4d from this tree's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(ROOT), str(src)]
    import atlas4d

    if Path(atlas4d.__file__).resolve().parent != src / "atlas4d":
        raise SystemExit(f"atlas4d imported from {atlas4d.__file__}, not {src}")
    return atlas4d


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args, threads: int) -> dict:
    import numpy as np  # only after cap_blas_threads()

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "atlas4d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def run_rounds(workload, run, state, seconds: float | None,
               rounds: int | None) -> list[float]:
    """Closed loop: run rounds until `seconds` pass (at least MIN_ROUNDS), or
    exactly `rounds` rounds. Returns each round's time in its operations."""
    times = []
    deadline = time.perf_counter() + (seconds or 0.0)
    while (len(times) < rounds) if rounds is not None else (
            len(times) < MIN_ROUNDS or time.perf_counter() < deadline):
        first = len(run.ops)
        workload.step(run, state)
        times.append(sum(op.seconds for op in run.ops[first:]))
    return times


def check_manifest(units: dict, trace: int) -> None:
    """Stop unless `units` is exactly the metric set BENCHMARK.json lists."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    if units != listed:
        raise SystemExit(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units.items()) ^ set(listed.items()))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    threads = cap_blas_threads()
    import_package()
    from perfbench.tracing import SETUP_ROOT, Tracer, per_layer_metrics
    from perfbench.workloads import WORKLOADS, Run

    env = environment(args, threads)
    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_runs"
    workdir = out_dir / f"work-{run_id}"
    tracer = Tracer(run_id)
    run = Run(workdir, args.seed, tracer)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPS or (
                sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
            t0 = time.perf_counter()
            state = workload.setup(run, len(setup_times))
            setup_times.append(time.perf_counter() - t0)

        round_times = run_rounds(workload, run, state, args.seconds, None)
        if args.trace:
            tracer.install()
            run.tracing = tracer.enabled = True
            with tracer.span(SETUP_ROOT):
                state = workload.setup(run, len(setup_times))
            tracer.enabled = False
            run_rounds(workload, run, state, None, len(round_times))
            tracer.uninstall()
            values = tracer.summary()
            untraced_ms = 1e3 * sum(round_times)
            values["trace.untraced_wall_ms"] = untraced_ms
            values["trace.overhead_ms"] = values["trace.wall_ms"] - untraced_ms
            values["ops_failed_ratio"] = run.failed / len(run.ops)
            units = dict(per_layer_metrics())
        else:
            values = {
                "setup_s": statistics.median(setup_times),
                "round_s": statistics.median(round_times),
                "output_mse": workload.output_mse(state),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_manifest(units, args.trace)

    result = {
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {"env": env, "result": result, "round_s": round_times, "setup_s": setup_times,
              "ops": [{"name": op.name, "seconds": op.seconds, "ok": op.ok}
                      for op in run.ops],
              "spans": tracer.spans}
    (out_dir / f"{run_id}.json").write_text(json.dumps(record))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
