#!/usr/bin/env python3
"""ginlab benchmark: drive one workload through ``ginlab.cli.run``.

    python3 bench/run.py --workload fp --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --all                 # every workload, every metric
    python3 bench/run.py --record-reference    # rewrite bench/reference.json

One run measures one workload in a fresh interpreter.  Jobs run one at a
time, in a fixed order, each sent after the previous one returned (a closed
loop with one client), with no threads and BLAS pinned to one thread.  The
ginlab source is imported from ``src/`` next to this directory.

With ``--trace 0`` the run repeats the job list until ``--seconds`` have
passed and reports the end-to-end metrics of BENCHMARK.json: ``wall_s``,
the sum over jobs of each job's mean time; ``setup_s``, the median over
several fresh interpreters of the time to import ``ginlab.cli`` and build
the inputs; and ``peak_rss_mb``.  With ``--trace 1`` every job runs once
untraced and once with the layer wrappers of ``tracing.py`` installed, and
the run reports the per-layer metrics of BENCHMARK.json.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
import checks  # noqa: E402
from tracing import TARGETS, Tracer, span_name  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402


def import_cli():
    """Import ``ginlab.cli`` from this checkout's ``src/``, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "ginlab", "cli.py")):
        raise SystemExit(f"bench: no ginlab source at {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import ginlab.cli

    if not os.path.abspath(ginlab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported ginlab from {ginlab.cli.__file__}, not {SRC}")
    return ginlab.cli


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment():
    import numpy

    head = os.path.join(ROOT, ".git", "HEAD")
    sha = "unknown"
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: ") and os.path.isfile(os.path.join(ROOT, ".git", ref[5:])):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                sha = fh.read().strip()
    caches = {}
    for level in (2, 3):
        name = f"SC_LEVEL{level}_CACHE_SIZE"
        if name in os.sysconf_names:
            caches[f"l{level}_bytes"] = os.sysconf(name)
    return {"git": sha, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), **caches, "loadavg_1m": os.getloadavg()[0]}


# ----------------------------------------------------------------------
# jobs


def run_job(cli, job, workdir, reports, reference, workload):
    """Run one job; return (seconds inside ginlab.cli.run, problems).  The
    report digest is checked unless ``reference`` is None."""
    out = os.path.join(workdir, job.label + ".json")
    if os.path.exists(out):
        os.remove(out)
    reports.pop(job.label, None)
    argv = list(job.argv)
    # segment jobs state --nvars; the census ring has 3 variables
    nvars = int(argv[argv.index("--nvars") + 1]) if "--nvars" in argv else 3
    gens = None
    if job.witness_of is not None:
        producer = reports.get(job.witness_of)
        if producer is None:
            return 0.0, [f"no report from {job.witness_of} to read generators from"]
        gens = producer["outputs"]["minimal_generators"]
        path = os.path.join(workdir, job.label + ".gens")
        with open(path, "w") as fh:
            fh.write("\n".join(gens) + "\n")
        argv += ["--witness-in", path]
    argv += ["--out", out]
    sink = io.StringIO()
    gc.collect()  # every job starts from a collected heap
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run(argv)
    except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
        code = f"raised {exc!r}"
    seconds = time.perf_counter() - start
    problems = [] if code == 0 else [f"exit {code}: {sink.getvalue().strip()[-200:]}"]
    if not os.path.exists(out):
        return seconds, problems + ["no report written"]
    with open(out) as fh:
        report = json.load(fh)
    reports[job.label] = report
    if reference is not None:
        want = reference.get(workload, {}).get(job.label)
        got = checks.masked_digest(report)
        if want != got:
            problems.append(f"report digest {got[:12]} != reference {str(want)[:12]}")
    if report["name"] == "borel-census":
        from ginlab.experiments import BOREL_CENSUS_EXPECTED as gens
    problems += checks.report_witness_problems(report, gens, nvars)
    return seconds, problems


class Runner:
    def __init__(self, cli, workload, seed, workdir):
        self.cli = cli
        self.workload = workload
        self.jobs = jobs_for(workload, seed)
        self.workdir = workdir
        self.reference = checks.load_reference()
        self.reports = {}
        self.attempted = 0
        self.problems = []

    def run(self, job):
        seconds, problems = run_job(self.cli, job, self.workdir, self.reports,
                                    self.reference, self.workload)
        self.attempted += 1
        if problems:
            self.problems.append(f"{job.label}: {'; '.join(problems)}")
        return seconds

    def untraced(self, seconds):
        """Repeat the job list until ``seconds`` have passed (at least one
        whole pass); return each job's times."""
        times = {job.label: [] for job in self.jobs}
        start = time.perf_counter()
        while True:
            for job in self.jobs:
                times[job.label].append(self.run(job))
                if time.perf_counter() - start >= seconds and all(times.values()):
                    return times

    def traced(self, seconds, tracer):
        """Whole passes, each job once untraced and once traced, while the
        next pass is expected to end within ``seconds``.  Which of the two
        runs first alternates from job to job and pass to pass, because the
        second run of a job is faster than the first."""
        passes = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            plain = traced = 0.0
            for i, job in enumerate(self.jobs):
                if (i + len(passes)) % 2 == 0:
                    plain += self.run(job)
                tracer.job = f"{len(passes)}:{job.label}"
                tracer.install()
                try:
                    traced += self.run(job)
                finally:
                    tracer.uninstall()
                if (i + len(passes)) % 2 == 1:
                    plain += self.run(job)
            stats, hits = tracer.take_stats()
            passes.append((stats, hits, traced, plain))
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                return passes


# ----------------------------------------------------------------------
# metrics


def setup_seconds(workload, seed):
    """Median over fresh interpreters of the time from process start to the
    point where the first job would be sent."""
    samples = []
    for _ in range(SETUP_REPEATS):
        spawned = time.time()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - spawned)
    return statistics.median(samples)


def layer_value(metric, stats, hits, traced, plain):
    if metric == "trace.overhead_frac":
        return traced / plain - 1.0
    if metric == "groebner.gb_cache_hit_frac":
        calls = stats.get("groebner.Ideal.groebner_basis")
        return hits / calls.calls if calls else 0.0
    name, stat = metric.rsplit(".", 1)
    s = stats.get(name)
    if s is None:
        return 0
    if stat == "calls":
        return s.calls
    if stat in ("total_s", "self_s"):
        return getattr(s, stat)
    if stat == "trials_per_call":
        return s.counters["trials"] / s.calls
    if stat == "independent_frac":
        return s.counters["independent"] / s.calls
    return s.counters[stat]


def layer_metrics(spec, passes):
    """Per-layer metrics: times are medians over passes; every other value
    is a count that must repeat exactly in every pass."""
    metrics = {}
    for entry in spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        values = [layer_value(name, *p) for p in passes]
        if unit == "s" or name == "trace.overhead_frac":
            value = statistics.median(values)
        elif len(set(values)) != 1:
            raise SystemExit(f"bench: {name} differs between passes: {values}")
        else:
            value = values[0]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def check_predicted_calls(workload, stats):
    """Fail loudly when a layer predicted to matter on this workload never ran."""
    silent = [span_name(module, attr) for module, attr, where in TARGETS
              if workload in where and span_name(module, attr) not in stats]
    if silent:
        raise SystemExit(f"bench: no calls on {workload} to {', '.join(silent)}")


def layer_shares(passes):
    """Each layer's self time as a share of the traced time, first pass."""
    stats, _, traced, _ = passes[0]
    return {name: round(s.self_s / traced, 3)
            for name, s in sorted(stats.items(), key=lambda kv: -kv[1].self_s)}


# ----------------------------------------------------------------------
# entry points


def run_workload(args):
    spec = load_spec()
    cli = import_cli()
    env = environment()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(cli, args.workload, args.seed, workdir)
        if args.trace:
            tracer = Tracer(time.perf_counter())
            passes = runner.traced(args.seconds, tracer)
            check_predicted_calls(args.workload, passes[0][0])
            metrics = layer_metrics(spec, passes)
            os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
            tracer.write_spans(os.path.join(
                WORK, "spans", f"{args.workload}-seed{args.seed}.jsonl"))
            print(json.dumps({"passes": len(passes), "self_share": layer_shares(passes)}))
        else:
            times = runner.untraced(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {
                # the mean, not the median: this host's speed drifts over tens
                # of seconds, and averaging over the whole run damps that best
                "wall_s": sum(statistics.fmean(v) for v in times.values()),
                "setup_s": setup_seconds(args.workload, args.seed),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                       for e in spec["end_to_end"]}
            print(json.dumps({"job_mean_s": {k: round(statistics.fmean(v), 4)
                                             for k, v in times.items()},
                              "job_runs": {k: len(v) for k, v in times.items()}}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.problems)
    for problem in runner.problems[:20]:
        print("FAILED", problem)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "fail_frac": failed / runner.attempted}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def setup_only(args):
    """Import ginlab.cli and build the inputs, then print the wall clock."""
    import_cli()
    jobs_for(args.workload, args.seed)
    print(f"{time.time():.6f}")
    return 0


def run_all(args):
    """Every workload in its own interpreter, untraced then traced; print
    each metric by name with its unit; exit 1 if any job failed."""
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
                bad += 1
                continue
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith("FAILED"):
                    print(f"{workload}: {line}")
            print(f"{workload:<14} fail_frac {result['failed'] / result['attempted']:.4f} "
                  f"({result['failed']}/{result['attempted']} jobs, trace={trace})")
            for name, m in result["metrics"].items():
                print(f"{workload:<14} {name:<44} {m['value']:>14.6g} {m['unit']}")
            bad += result["failed"] > 0 or not result["correct"]
    return 1 if bad else 0


def record_reference(args):
    """Run every job once at the given seed and store its masked digest."""
    cli = import_cli()
    os.makedirs(WORK, exist_ok=True)
    reference = {}
    for workload in WORKLOADS:
        workdir = os.path.join(WORK, f"reference-{workload}-{os.getpid()}")
        os.makedirs(workdir)
        reports = {}
        try:
            for job in jobs_for(workload, args.seed):
                _, problems = run_job(cli, job, workdir, reports, None, workload)
                if problems:
                    raise SystemExit(f"bench: {workload}/{job.label}: {problems}")
                reference.setdefault(workload, {})[job.label] = checks.masked_digest(
                    reports[job.label])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="run every workload; print every metric")
    mode.add_argument("--record-reference", action="store_true")
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.record_reference:
        return record_reference(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        return setup_only(args)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
