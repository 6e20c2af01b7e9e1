"""Benchmark harness for latticegfun: a closed loop with one client.

    python3 perfbench/run.py --workload facesum|todd|cli_cold|all
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--corpus-seeds S2,S3]

Jobs run one at a time in this process (``cli_cold``: one child process
at a time).  A run repeats whole passes over the workload's jobs, each
pass in an order drawn from ``--seed``, until ``--seconds`` have passed
and at least MIN_JOBS jobs are done.  Every job's output is compared
with its digest in ``reference.json``; a job that raises or differs counts
as failed.  ``--corpus-seeds`` picks the random corpora (the workload
seed); the default reproduces the corpora of acceptance criteria 8 and 9.

Host speed drifts by 10-15% within seconds on a shared machine, so job
times are normalised: a short stdlib kernel that calls no latticegfun
code (the probe) runs before every job, and each job's wall time is
scaled by PROBE_REF_S over the median probe time around it.  The
normalised times read as milliseconds on a host where the probe takes
PROBE_REF_S; the plain wall-time figures go to stderr.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
job untraced and traced and reports the per-layer metrics, per traced
pass, plus the tracing overhead.  The last line of stdout is one JSON
object; a readable summary goes to stderr.  The exit code is 0 only when
every job was correct and, when traced, every layer the workload should
reach was reached.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

import workloads as wl
from tracing import Tracer

SETUP_REPEATS = 7
PROBE_REF_S = 0.001  # the probe's time on the reference host
PROBE_WINDOW = 2     # probes on each side of a job whose median scales it
MIN_JOBS = 100  # so that at least 10 jobs lie beyond the p90 tail
TAIL_PERCENTILE = 90

END_TO_END = (("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit); a "<layer>.<field>" name reads that layer's stats
PER_LAYER = (
    ("polytope.build_polytope.calls", "count"), ("polytope.build_polytope.self_s", "s"),
    ("polytope.face_lattice.calls", "count"), ("polytope.face_lattice.self_s", "s"),
    ("polytope.face_lattice.faces", "count"),
    ("polytope.iter_lattice_points.calls", "count"),
    ("polytope.iter_lattice_points.self_s", "s"),
    ("polytope.iter_lattice_points.points", "count"),
    ("polytope.iter_lattice_points.kept_ratio", "ratio"),
    ("wsum.weighted_sum_poly.calls", "count"), ("wsum.weighted_sum_poly.self_s", "s"),
    ("algebra.interpolate.calls", "count"), ("algebra.interpolate.self_s", "s"),
    ("facepoly.dual_g.calls", "count"), ("facepoly.dual_g.self_s", "s"),
    ("gfun.build_gfun.self_s", "s"), ("gfun.check_reciprocity.self_s", "s"),
    ("todd.normal_fan.self_s", "s"),
    ("todd.gamma_set.calls", "count"), ("todd.gamma_set.self_s", "s"),
    ("todd.gamma_set.points", "count"), ("todd.gamma_set.kept_ratio", "ratio"),
    ("linalg.solve_exact.calls", "count"), ("linalg.solve_exact.self_s", "s"),
    ("todd.todd_coeffs.calls", "count"), ("todd.todd_coeffs.self_s", "s"),
    ("cyclotomic.max_order", "order"),
    ("todd.symbolic_integral.self_s", "s"), ("todd.symbolic_integral.terms", "count"),
    ("todd.apply_todd.self_s", "s"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


class Checker:
    """Runs jobs, times them, and counts the ones that fail the exact check."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, job, tracer=None) -> float:
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = job.run(tracer)
        except Exception as exc:  # a failing job is counted, never fatal
            elapsed = perf_counter() - t0
            self._fail(job, f"raised {exc!r}")
        else:
            elapsed = perf_counter() - t0
            expected = self.reference.get(job.key)
            if expected is None:
                self._fail(job, "no reference digest for this job")
            elif wl.canonical_digest(out) != expected:
                self._fail(job, "output differs from the reference")
        return elapsed

    def _fail(self, job, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {job.key}: {why}", file=sys.stderr)


def _probe_work() -> None:
    """A fixed mix of the interpreter work the jobs do: big and small
    Fraction arithmetic, integer arithmetic and tuple-keyed dict updates."""
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(1, k * k + 1)
    for t in range(2):
        m = [[Fraction((3 * i + 5 * j + t) % 7 - 3) + 4 * (i == j) for j in range(4)]
             for i in range(4)]
        for c in range(4):
            for r in range(4):
                if r != c:
                    f = m[r][c] / m[c][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    h = 0
    for k in range(1, 1500):
        h = (h * 31 + k) % 1000003
    counts: dict = {}
    for k in range(400):
        counts[k % 37, k % 11] = counts.get((k % 37, k % 11), 0) + k


def probe() -> float:
    """Time one run of _probe_work (about 1 ms).  It calls no latticegfun
    code, so its time tracks only the host's speed."""
    t0 = perf_counter()
    _probe_work()
    return perf_counter() - t0


def normalise(durations, probes, window=PROBE_WINDOW) -> list[float]:
    """Scale each duration by PROBE_REF_S / the median of the probes around it.

    probes[i] ran just before durations[i] and probes[i + 1] just after it;
    the window takes ``window`` probes on each side of the job.
    """
    assert len(probes) == len(durations) + 1
    return [d * PROBE_REF_S / statistics.median(probes[max(0, i + 1 - window):i + 1 + window])
            for i, d in enumerate(durations)]


def setup(name: str, corpus_seeds, workdir):
    """Import the package and generate the workload's jobs."""
    if name == "cli_cold":
        jobs = wl.cli_jobs(workdir)
        for job in jobs:  # fills the bytecode cache, as a second user call finds it
            job.run(None)
        return jobs
    lg = wl.import_latticegfun()
    make = wl.facesum_jobs if name == "facesum" else wl.todd_jobs
    return make(lg, corpus_seeds)


def timed_setup(name, corpus_seeds, workdir):
    """Set up SETUP_REPEATS times; returns the jobs and the median set-up
    time, raw and normalised by the probes on each side of it."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probes = [probe() for _ in range(PROBE_WINDOW)]
        t0 = perf_counter()
        jobs = setup(name, corpus_seeds, workdir)
        raw.append(perf_counter() - t0)
        probes += [probe() for _ in range(PROBE_WINDOW)]
        scaled.append(raw[-1] * PROBE_REF_S / statistics.median(probes))
    return jobs, statistics.median(raw), statistics.median(scaled)


def measure(jobs, seconds, rng, checker, min_jobs=MIN_JOBS):
    """Whole passes until the time is up and at least min_jobs are done.

    Returns the raw job durations and the probe times taken before each
    job and after the last one.
    """
    min_passes = math.ceil(min_jobs / len(jobs))
    durations: list[float] = []
    probes: list[float] = []
    passes = 0
    start = perf_counter()
    while passes < min_passes or perf_counter() - start < seconds:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        for i in order:
            probes.append(probe())
            durations.append(checker.run(jobs[i]))
        passes += 1
    probes.append(probe())
    return durations, probes


def measure_traced(jobs, seconds, rng, checker, in_process: bool):
    """Run each job untraced and traced back to back, in whole passes,
    until the time is up.

    Pairing each job with itself keeps the host's speed drift out of the
    tracing overhead; which of the two goes first alternates.  Returns the
    tracer, the number of passes and the overhead:
    (traced - untraced) / untraced summed job time.
    """
    tracer = Tracer()
    times = {False: 0.0, True: 0.0}
    passes = 0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        for k, i in enumerate(order):
            for traced in (k % 2 == 0, k % 2 == 1):
                with tracer.installed() if traced and in_process else contextlib.nullcontext():
                    times[traced] += checker.run(jobs[i], tracer if traced else None)
        passes += 1
    return tracer, passes, (times[True] - times[False]) / times[False]


def cli_import_ms() -> float:
    """Import time of latticegfun.cli, read from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import latticegfun.cli"],
                          cwd=wl.ROOT, env=wl.cli_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    total_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if name.startswith(" latticegfun"):  # top level: no nesting indent
            total_us += int(cumulative)
    return total_us / 1000


def timing_values(durations, setup_s) -> dict:
    return {
        "jobs_per_s": len(durations) / sum(durations),
        "job_p50_ms": statistics.median(durations) * 1000,
        "job_tail_ms": statistics.quantiles(durations, n=100)[TAIL_PERCENTILE - 1] * 1000,
        "setup_s": setup_s,
    }


def end_to_end_metrics(durations, setup_s, children: bool) -> dict:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    values = timing_values(durations, setup_s)
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024  # kB on Linux
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(tracer, passes: int, overhead: float, import_ms: float) -> dict:
    """Counts and self times per traced pass."""
    stats = tracer.stats
    solve_calls = stats["linalg.solve_exact"].calls
    box = stats["polytope.iter_lattice_points"].counts.get("box_points", 0)
    special = {
        "polytope.iter_lattice_points.kept_ratio":
            stats["polytope.iter_lattice_points"].counts.get("points", 0) / box if box else 0.0,
        "todd.gamma_set.kept_ratio":
            stats["todd.gamma_set"].counts.get("points", 0) / solve_calls if solve_calls else 0.0,
        "cyclotomic.max_order": stats["todd.gamma_set"].counts.get("max_order", 0),
        "cli.import_ms": import_ms,
        "trace.overhead_frac": overhead,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            layer, field = name.rsplit(".", 1)
            stat = stats[layer]
            total = {"calls": stat.calls, "self_s": stat.self_s}.get(field)
            value = (total if total is not None else stat.counts.get(field, 0)) / passes
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(args) -> dict:
    name = args.workload
    rng = random.Random(args.seed)
    checker = Checker(wl.load_reference())
    workdir = tempfile.mkdtemp(prefix=".work-", dir=wl.HERE) if name == "cli_cold" else None
    try:
        jobs, raw_setup_s, setup_s = timed_setup(name, args.corpus_seeds, workdir)
        if not args.trace:
            durations, probes = measure(jobs, args.seconds, rng, checker)
            metrics = end_to_end_metrics(normalise(durations, probes), setup_s,
                                         children=name == "cli_cold")
            print(f"{name}: {len(durations)} jobs in {len(durations) // len(jobs)} passes; "
                  f"tail = p{TAIL_PERCENTILE} of {len(durations)} samples; "
                  f"median probe {statistics.median(probes) * 1000:.4g} ms "
                  f"(reference {PROBE_REF_S * 1000:g} ms)", file=sys.stderr)
            for metric, value in timing_values(durations, raw_setup_s).items():
                print(f"  wall-time {metric} = {value:.6g}", file=sys.stderr)
            unreached = []
        else:
            in_process = name != "cli_cold"
            tracer, passes, overhead = measure_traced(jobs, args.seconds, rng, checker,
                                                      in_process)
            import_ms = 0.0 if in_process else cli_import_ms()
            metrics = layer_metrics(tracer, passes, overhead, import_ms)
            print(f"{name}: {passes} traced passes of {len(jobs)} jobs", file=sys.stderr)
            unreached = tracer.unreached(wl.EXPECTED_LAYERS[name])
            for layer in unreached:
                print(f"UNREACHED layer {layer} on {name}", file=sys.stderr)
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(f"  failed_frac = {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} of {checker.attempted})", file=sys.stderr)
    return {"correct": checker.failed == 0 and not unreached,
            "attempted": checker.attempted, "failed": checker.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--corpus-seeds", ",".join(map(str, args.corpus_seeds))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        total["correct"] = total["correct"] and result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    return total


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0, help="order of the jobs in each pass")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seeds", default=",".join(map(str, wl.DEFAULT_CORPUS_SEEDS)),
                        type=lambda s: tuple(int(x) for x in s.split(",")),
                        help="seeds of the 2-D and 3-D random corpora")
    args = parser.parse_args(argv)
    if len(args.corpus_seeds) != 2:
        parser.error("--corpus-seeds takes two seeds, 2-D then 3-D")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(wl.SRC, "latticegfun")):
        print(f"no latticegfun package under {wl.SRC}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
