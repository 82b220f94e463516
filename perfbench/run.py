"""Fixed CLI-workload benchmark for lieps.

A single-process, serial, closed-loop load generator: one job at a time, no
threads.  Each job is one in-process ``lieps.cli.run_cli(argv, document_text)``
call.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs untraced passes for half the time, then traced passes, and reports the
per-layer metrics and the tracing overhead.  ``--workload all`` runs every
workload both ways in child processes, prints one table, and with ``--out``
writes the records as a baseline file.

Every reported time (``setup_s``, ``wall_s``, ``job_p50_ms``, ``job_p90_ms``,
and the traced and untraced walls behind ``trace.overhead_frac``) is in
reference-speed seconds: see ``refclock.py``.  The measured times are
printed beside them and kept in the record under ``uncalibrated``.  The
per-layer ``self_s`` values are measured seconds.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a record
with the environment stamp (Python version, nproc, ``lieps.exact.BACKEND``,
``LIEPS_PURE``, seed) and the sample counts; results from a different backend
or seed are never compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from checks import failed_runs, load_digests, oracle_failures, record_digests  # noqa: E402
from refclock import ReferenceClock  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5


class Runner:
    """Runs jobs, keeping (key, exit, stdout sha256, stderr, marks) of each.

    The marks are the reference clock's at the start and end of the job.  A
    reference unit is taken right before every job, so that a job shorter
    than the clock's period is still calibrated by a unit next to it.
    """

    def __init__(self, cli, clock):
        self.cli = cli  # run_cli is looked up per call, so the tracer sees it
        self.clock = clock
        self.results = []  # one list per pass

    @property
    def attempted(self):
        return sum(len(run) for run in self.results)

    def start_pass(self):
        self.results.append([])

    def times(self, calibrated):
        """Per pass, each job's seconds, at reference speed or as measured."""
        pick = 1 if calibrated else 0
        return [[self.clock.interval(*result[-1])[pick] for result in run]
                for run in self.results]

    def run(self, job):
        """Run one job; return its stdout when it exited 0, else None."""
        self.clock.sample()
        start = self.clock.mark()
        try:
            code, out, err = self.cli.run_cli(job.argv, job.text)
        except Exception as e:  # a traceback is a failed job, not a benchmark crash
            code, out, err = f"raised {type(e).__name__}", "", str(e)
        end = self.clock.mark()
        digest = hashlib.sha256(out.encode()).hexdigest()
        self.results[-1].append((job.key, code, digest, err, (start, end)))
        return out if code == 0 else None


def import_and_setup(name, seed, clock):
    """Import lieps afresh and build the workload's inputs.

    Return the workload and the set-up's (measured, reference-speed) seconds.
    """
    for mod in [m for m in sys.modules if m == "lieps" or m.startswith("lieps.")]:
        del sys.modules[mod]
    with clock.ticking():
        start = clock.mark()
        from lieps import cli

        workload = WORKLOADS[name]()
        workload.setup(cli, seed)
        end = clock.mark()
    return workload, clock.interval(start, end)


def timed_passes(workload, runner, seconds):
    """Run whole passes for about ``seconds``; return how many ran."""
    start = perf_counter()
    count = 0
    with runner.clock.ticking():
        while True:
            runner.start_pass()
            workload.run_pass(runner)
            count += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds or elapsed * (count + 1) / count > 1.1 * seconds:
                return count


def pass_walls(times):
    """Each pass's wall time: the sum of its jobs' latencies."""
    return [sum(run) for run in times]


def job_latencies(results, times):
    """Each distinct job's mean latency over the passes of the run."""
    samples = {}
    for run, run_times in zip(results, times):
        for (key, *_), seconds in zip(run, run_times):
            samples.setdefault(key, []).append(seconds)
    return {key: statistics.fmean(v) for key, v in samples.items()}


def percentile(values, p, steps=64):
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all the values in order, the i-th of n weighted by
    the Beta(q(n+1), (1-q)(n+1)) probability of ((i-1)/n, i/n], q = p/100.
    A single order statistic jumps when two jobs near the percentile swap
    places from run to run; this estimate moves by a fraction of that.
    """
    xs = sorted(values)
    n = len(xs)
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1 / (n * steps)
    weights = []
    for i in range(n):  # midpoint rule over each ((i-1)/n, i/n]
        points = ((i * steps + k + 0.5) * h for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def env_stamp(seed):
    import lieps.exact

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": getattr(lieps.exact, "BACKEND", None),
        "LIEPS_PURE": os.environ.get("LIEPS_PURE"),
        "seed": seed,
    }


def measure(args):
    sys.path.insert(0, str(SRC))
    clock = ReferenceClock()
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        workload, (measured, scaled) = import_and_setup(args.workload, args.seed, clock)
        setups_raw.append(measured)
        setups.append(scaled)
    import lieps

    if Path(lieps.__file__).resolve().parent != SRC / "lieps":
        raise SystemExit(f"imported lieps from {lieps.__file__}, not from {SRC}")
    from lieps import cli

    runner = Runner(cli, clock)
    metrics = {}
    raw = {}
    problems = []
    if args.trace:
        from tracer import Tracer

        plain = timed_passes(workload, runner, args.seconds / 2)
        untraced_jobs = runner.attempted
        tracer = Tracer()
        leftover = tracer.install()
        clock.on_unit = tracer.exclude
        try:
            traced = timed_passes(workload, runner, args.seconds / 2)
        finally:
            clock.on_unit = None
            tracer.uninstall()
        if leftover:
            problems.append(f"tracer left unwrapped aliases of {leftover}")
        if tracer.calls["cli.run_cli"] != runner.attempted - untraced_jobs:
            problems.append("the root span did not see every traced job")
        metrics.update(tracer.metrics(traced))
        walls = pass_walls(runner.times(calibrated=True))
        metrics["trace.overhead_frac"] = (
            statistics.median(walls[plain:]) / statistics.median(walls[:plain]) - 1, "frac")
    else:
        timed_passes(workload, runner, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        times = runner.times(calibrated=True)
        lat = list(job_latencies(runner.results, times).values())
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["wall_s"] = (statistics.median(pass_walls(times)), "s")
        metrics["job_p50_ms"] = (percentile(lat, 50) * 1e3, "ms")
        metrics["job_p90_ms"] = (percentile(lat, 90) * 1e3, "ms")
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
        measured = runner.times(calibrated=False)
        lat = list(job_latencies(runner.results, measured).values())
        raw = {
            "setup_s": statistics.median(setups_raw),
            "wall_s": statistics.median(pass_walls(measured)),
            "job_p50_ms": percentile(lat, 50) * 1e3,
            "job_p90_ms": percentile(lat, 90) * 1e3,
        }

    check_digests = not workload.seeded_inputs or args.seed == DEFAULT_SEED
    expected = load_digests(args.workload) if check_digests else None
    if check_digests and expected is None and not args.record_digests:
        problems.append(f"no recorded digests for workload {args.workload}")
    bad = failed_runs(runner.results, expected)
    for key, why in oracle_failures(workload.oracle_cases).items():
        for p, run in enumerate(runner.results):
            for i, result in enumerate(run):
                if result[0] == key:
                    bad.setdefault((p, i), f"{key}: {why}")
    if args.record_digests:
        if bad or not check_digests:
            problems.append("digests not recorded: some jobs failed or the seed is not the default")
        else:
            record_digests(args.workload, runner.results)

    attempted = runner.attempted
    for why in sorted(set(bad.values()))[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    for why in problems:
        print(f"ERROR {why}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env_stamp(args.seed),
        "passes": len(runner.results),
        "job_samples": attempted,
        "job_ms": {key: round(s * 1e3, 3)
                   for key, s in job_latencies(runner.results,
                                               runner.times(calibrated=True)).items()},
        "reference_unit_ms": round(clock.median_unit() * 1e3, 4),
        "uncalibrated": raw,
        "setup_samples": len(setups),
        "failed_frac": len(bad) / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        measured = f"  (measured {raw[name]:.6g} {unit})" if name in raw else ""
        print(f"{args.workload:>12}  {name:<44} {value:>14.6g} {unit}{measured}")
    print(f"{args.workload:>12}  {'failed_frac':<44} {record['failed_frac']:>14.6g} "
          f"({len(bad)} of {attempted} jobs, {len(runner.results)} passes)")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not bad and not problems,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    records = []
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace {trace}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            print("\n".join(lines[:-2]), flush=True)
            records.append(json.loads(lines[-2][len("record "):]))
            ok = ok and json.loads(lines[-1])["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps({"records": records}, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the records here")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's job digests as the expected ones")
    args = parser.parse_args(argv)
    if not (SRC / "lieps" / "__init__.py").is_file():
        print(f"lieps sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
