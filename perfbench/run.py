"""Run one workload of the slitkit benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a slitkit checkout: the program is imported from
./src, never from an installed copy, and the command fails without printing
a result when ./src/slitkit is missing.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run wraps
the program's layers in spans, reports the per-layer metrics, writes the
spans to .perfbench_out/ and prints its own end-to-end figures to standard
error, so that the tracing overhead can be read off.
"""

import time

# Process start on the perf_counter clock.  No wall-clock reading exists from
# before this line, so the interpreter's own start-up is counted by the
# processor time it has used so far (it is CPU-bound once files are cached).
T_START = time.perf_counter() - time.process_time()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

OUT_DIR = ".perfbench_out"

# (metric, unit) printed with --trace 0, the same for every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "batch", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import slitkit (and its CLI) from ./src of the current directory."""
    src = (Path.cwd() / "src").resolve()
    if not (src / "slitkit" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'slitkit'} not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    sk = importlib.import_module("slitkit")
    importlib.import_module("slitkit.cli")
    if not Path(sk.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported slitkit from {sk.__file__}, not from {src}")
    return sk


def end_to_end(run, setup_s: float) -> dict:
    lat = np.array(run.latencies)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": run.peak_rss_kb / 1024.0,
        "ops_per_s": lat.size / lat.sum(),
        "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_p99_ms": float(np.percentile(lat, 99)) * 1e3,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sk = import_program()

    from spans import Tracer
    from workloads import WORKLOADS, Run

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](sk, args.seed)
    setup_s = time.perf_counter() - T_START
    # The checks' mpmath reference, resident before the first operation so
    # that every run starts its operations from the same memory baseline.
    importlib.import_module("mpmath")

    # Whole rounds only, at least one, ending at the round boundary nearest
    # to --seconds: another round runs only if it would likely end closer to
    # --seconds than the run stands now (projected from the mean round).
    run = Run(tracer)
    t0 = time.perf_counter()
    rounds = 0
    while True:
        workload.round(run)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break
    workload.finish(run)
    if not run.latencies:
        print("error: no operation completed", file=sys.stderr)
        return 1

    e2e = end_to_end(run, setup_s)
    breakdown = {k: statistics.median(v) for k, v in sorted(run.breakdown.items())}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "traced": bool(tracer),
                      "completed": len(run.latencies), "end_to_end": e2e,
                      "rss_raised_by_checks_mb": run.check_rss_kb / 1024.0,
                      "breakdown": breakdown}), file=sys.stderr)
    if tracer:
        out_dir = Path(OUT_DIR)
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.npz")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.layer_metrics().items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
