"""Benchmark of orbitrips: four workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # all four, one process

Workloads: scan, rp2, barcode, cli (see workloads.py for why each exists).
Inputs come from --seed only.  A run sets up its batch of jobs several times
(setup_s is the median), repeats the batch until --seconds have passed (at
least MIN_BATCHES times), then checks every job's output untimed.

--trace 0 prints the end-to-end metrics: wall_s (median batch time), setup_s,
peak_rss_mb, cmd_p50_ms and cmd_p90_ms (per-command latency over every cli
command run; the median batch on the library workloads), plus fail_frac in
the table.
--trace 1 runs the batch once untraced, then sets it up and runs it again
traced (see tracer.py), and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# pinned before numpy is imported: the sphere matrices come from a BLAS matmul
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# in rising memory peak: --workload all runs them in this order in one
# process, so the high-water mark read after each workload is its own
WORKLOADS = ("cli", "barcode", "scan", "rp2")
# the cli batch is short; repeat it so that p90 has enough samples above it
MIN_BATCHES = {"scan": 1, "rp2": 1, "barcode": 1, "cli": 5}
# Per-command latency: on cli every command run is a sample.  The library
# workloads run one batch of a few unlike jobs every several seconds; their
# command is the batch, and with one to three samples no percentile above
# the median is resolved, so both percentiles report the median there.
COMMAND_IS_A_JOB = {"cli"}
# set-up is repeated at least this often and for at least this long
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Workload:
    """One named workload: set-up, timed batches, untimed checks."""

    def __init__(self, name: str, seed: int, tiny: bool):
        import workloads  # imports orbitrips, so only once src/ is on the path

        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.workdir = WORK / f"{name}-{os.getpid()}"
        self._workloads = workloads

    def setup(self):
        w = self._workloads
        start = time.perf_counter()
        if self.name == "cli":
            batch = w.setup_cli(self.seed, str(self.workdir))
        else:
            setup = {"scan": w.setup_scan, "rp2": w.setup_rp2, "barcode": w.setup_barcode}
            batch = setup[self.name](self.seed, self.tiny)
        return batch, time.perf_counter() - start

    @staticmethod
    def run_batch(batch):
        """Time every job of the batch; a job that raises is recorded."""
        results = []
        gc.collect()
        start = time.perf_counter()
        for job in batch.jobs:
            t0 = time.perf_counter()
            try:
                output, error = job.run(), None
            except Exception as exc:  # noqa: BLE001 - counted into fail_frac
                traceback.print_exc()
                output, error = None, f"{type(exc).__name__}: {exc}"
            results.append((job, time.perf_counter() - t0, output, error))
        return time.perf_counter() - start, results

    def check(self, runs) -> list[str]:
        """Untimed output checks; one line per failed job."""
        failures = []
        for results in runs:
            for job, _, output, error in results:
                reason = error or self._workloads.failure_reason(lambda: job.check(output))
                if reason:
                    failures.append(f"FAIL {self.name} {job.name}: {reason}")
        return failures

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def measure(w: Workload, seconds: float):
    """End-to-end metrics with tracing off."""
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        batch, took = w.setup()
        setup_times.append(took)
    batch_times, runs = [], []
    start = time.perf_counter()
    while True:
        took, results = w.run_batch(batch)
        batch_times.append(took)
        runs.append(results)
        if len(runs) >= MIN_BATCHES[w.name] and time.perf_counter() - start >= seconds:
            break
    peak = peak_rss_mb()
    failures = w.check(runs)
    attempted = sum(len(results) for results in runs)
    if w.name in COMMAND_IS_A_JOB:
        latencies = [took for results in runs for _, took, _, _ in results]
        p50, p90 = percentile(latencies, 50), percentile(latencies, 90)
        samples = f"{len(latencies)} commands"
    else:
        p50 = p90 = statistics.median(batch_times)
        samples = f"{len(batch_times)} batches, median"
    metrics = {
        "wall_s": (statistics.median(batch_times), "s", f"{len(batch_times)} batches"),
        "setup_s": (statistics.median(setup_times), "s", f"{len(setup_times)} set-ups"),
        "peak_rss_mb": (peak, "MiB", "1 process"),
        "cmd_p50_ms": (1000 * p50, "ms", samples),
        "cmd_p90_ms": (1000 * p90, "ms", samples),
    }
    table = dict(metrics)
    table["fail_frac"] = (len(failures) / attempted, "1", f"{len(failures)}/{attempted} jobs")
    return batch, metrics, table, attempted, failures


def measure_traced(w: Workload):
    """Per-layer metrics: the batch untraced, then its set-up and the batch
    traced; the difference of the two batch times is the tracing overhead."""
    from tracer import Recorder

    batch, _ = w.setup()
    plain, _ = w.run_batch(batch)
    rec = Recorder()
    undo = rec.install()
    try:
        batch, _ = w.setup()
        traced, results = w.run_batch(batch)
    finally:
        Recorder.uninstall(undo)
    failures = w.check([results])
    WORK.mkdir(parents=True, exist_ok=True)
    spans = WORK / f"trace-{w.name}-seed{w.seed}.npz"
    rec.save(spans)
    metrics = {}
    for key, value in rec.metrics().items():
        unit = "s" if key.endswith(".s") or key.endswith(".self_s") else "count"
        metrics[key] = (value, unit, "traced batch")
    metrics["trace.overhead_s"] = (traced - plain, "s", "traced - untraced batch")
    return batch, metrics, dict(metrics), len(results), failures, spans


def report(name: str, seed: int, batch, table: dict, failures: list[str]) -> None:
    print(f"== {name} (seed {seed}) ==")
    print(f"input sha256: {json.dumps(batch.digests, sort_keys=True)}")
    width = max(len(k) for k in table)
    for key, (value, unit, samples) in table.items():
        print(f"  {key:<{width}}  {value:>14.6f}  {unit:<5}  {samples}")
    for line in failures:
        print(line)


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    w = Workload(name, seed, tiny)
    try:
        if trace:
            batch, metrics, table, attempted, failures, spans = measure_traced(w)
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            batch, metrics, table, attempted, failures = measure(w, seconds)
    finally:
        w.cleanup()
    report(name, seed, batch, table, failures)
    return metrics, attempted, len(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "orbitrips" / "__init__.py").is_file():
        print(f"error: orbitrips sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the metrics printed in the result line are the ones BENCHMARK.json names
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_one(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        prefix = f"{name}." if args.workload == "all" else ""
        for key, unit in wanted.items():
            value, measured_unit, _ = m[key]
            if measured_unit != unit:
                raise ValueError(f"{key} is measured in {measured_unit}, declared {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
