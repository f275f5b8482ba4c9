"""Benchmark of the `dispersion` package: one workload per run.

    python3 bench/run.py --workload analyze|mc-verify|mean-excess \\
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
`src/` directory. One process, one client thread, closed loop: the next
operation starts when the previous one returns. A run issues whole rounds
(every operation of the workload once, in an order drawn from the seed)
until S seconds have passed, then checks every output.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced round
and the same round traced, prints the per-layer metrics of the traced round
and writes its full span table to .bench_out/. Environment and per-run
details go to stderr; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3


def load_program() -> None:
    """Put the checkout's src/ first on sys.path; fail if it is not there."""
    src = ROOT / "src"
    if not (src / "dispersion" / "__init__.py").is_file():
        raise SystemExit(f"error: no dispersion package under {src}")
    sys.path.insert(0, str(src))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["analyze", "mc-verify", "mean-excess"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import the package and
    build the workload's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_rounds(ops, seed: int, seconds: float):
    """Closed loop over whole rounds; returns (records, rounds, elapsed).

    Runs at least one round, and as many as bring the elapsed time nearest
    to `seconds`: another round starts only while the elapsed time falls
    short of `seconds` by more than half a mean round.

    Each record is (op, latency_s, output, error). The seed fixes the order
    of every round and the Monte Carlo seed of every operation.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    records = []
    rounds = 0
    start = time.perf_counter()
    while True:
        order = rng.permutation(len(ops))
        op_seeds = rng.integers(0, 2**31, size=len(ops))
        for i in order:
            op = ops[i]
            t0 = time.perf_counter()
            try:
                out, err = op.run(int(op_seeds[i])), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, exc
            records.append((op, time.perf_counter() - t0, out, err))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    return records, rounds, time.perf_counter() - start


def check_records(records) -> tuple[int, bool]:
    """(failed, correct): a failed operation raised or gave a wrong output;
    the run is correct when only known-fault operations failed."""
    failed = 0
    correct = True
    reported = set()
    for op, _lat, out, err in records:
        if err is not None:
            problems = ["".join(traceback.format_exception_only(type(err), err)).strip()]
        else:
            problems = op.check(out)
        if not problems:
            continue
        failed += 1
        if not op.known_fault:
            correct = False
        if op.key not in reported:
            reported.add(op.key)
            tag = "known fault" if op.known_fault else "FAIL"
            print(f"{tag}: {op.key}: {'; '.join(problems)}", file=sys.stderr)
    return failed, correct


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:  # threads of this process, BLAS pool included
        status = Path("/proc/self/status").read_text()
        env["process_threads"] = int(status.split("Threads:")[1].split()[0])
    except (OSError, IndexError, ValueError):
        env["process_threads"] = None
    return env


def timed_run(args, ops):
    """End-to-end metrics of an untraced run."""
    setup_s = measure_setup(args)
    records, rounds, elapsed = run_rounds(ops, args.seed, args.seconds)
    # read before the checks compute their references
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latency_ms = sorted(1e3 * lat for _, lat, _, _ in records)
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} ops={len(records)} "
          f"elapsed_s={elapsed:.3f} latency_ms_min/p50/max={latency_ms[0]:.2f}/"
          f"{statistics.median(latency_ms):.2f}/{latency_ms[-1]:.2f}", file=sys.stderr)
    return records, {
        "setup_s": {"value": setup_s, "unit": "s"},
        "rows_per_s": {"value": sum(op.rows for op, *_ in records) / elapsed, "unit": "rows/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def traced_run(args, ops):
    """Per-layer metrics: one untraced round, then the same round traced."""
    from tracing import Tracer

    records, _, plain_s = run_rounds(ops, args.seed, 0)
    tracer = Tracer()
    with tracer:
        traced, _, traced_s = run_rounds(ops, args.seed, 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": tracer.value(m["name"]), "unit": m["unit"]}
               for m in spec["per_layer"]}
    metrics["trace.overhead_s"]["value"] = traced_s - plain_s
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    table = {"workload": args.workload, "seed": args.seed, "untraced_s": plain_s,
             "traced_s": traced_s, **tracer.table()}
    (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(table, indent=1) + "\n")
    return records + traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # one thread in all: no BLAS worker pools (numpy and scipy each bundle
    # OpenBLAS, whose only use here is vector dot products). Set before numpy
    # loads; the setup probes inherit it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    load_program()
    import workloads

    ops = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        return 0
    records, metrics = (traced_run if args.trace else timed_run)(args, ops)
    failed, correct = check_records(records)
    print(json.dumps(environment()), file=sys.stderr)
    result = {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
