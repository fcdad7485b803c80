"""varleb benchmark: seeded workloads of CLI jobs, checked and timed.

    python3 bench/run.py --workload cube-scan --seed 1 --seconds 12 --trace 0

Run from the repository root.  The job list is made from ``--seed``
(see ``workloads.py``) and sized from ``--seconds`` at today's cost per
round, so a run is a fixed list of jobs run a fixed number of times,
never a fixed duration.  A worker process (``worker.py``) imports varleb
from ``src/``, runs the first round once untimed, then runs the whole
list ``passes`` times, one job at a time.  This process then checks every
report against computations made apart from varleb and prints, as its
last line, one JSON object:

* ``--trace 0``: ``jobs_per_s`` (jobs over the sum of their job
  times), ``job_p50_s`` (median job time), ``setup_s`` (median cold
  start of ``python3 -c 'import varleb.cli'``) and ``peak_rss_mib`` (the
  worker's peak resident set).  A job time is the median over passes of
  the job's wall time scaled to the reference host speed (see
  ``scaled_job_times``); the unscaled figures go to standard error;
* ``--trace 1``: one traced pass, and the per-layer metrics of
  ``layers.py``.

Exits 1 without a result line when varleb cannot be imported or the
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seconds one round of each workload takes today (Python 3.11, numpy 2.4,
# one core of a shared 2-core host); only used to size a run.
ROUND_SECONDS = {
    "cube-scan": 2.2,
    "maximal-sweep": 3.8,
    "compactness": 0.85,
    "norm-batch": 0.18,
}
TARGET_PASSES = 8
MIN_PASSES = 5
# The worker's probe() takes about this long on a quiet 2-vCPU virtual
# machine (Python 3.11, numpy 2.4); job times are scaled to that speed.
PROBE_REF_S = 0.0035
# about this many seconds of jobs between probes; the spacing is fixed
# in jobs, not measured, so that every run allocates in the same order
PROBE_EVERY_S = 0.25
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


def run_size(workload, seconds):
    """Rounds in the job list and passes over it: as many rounds as leave
    about ``TARGET_PASSES`` passes in ``seconds``, then as many passes
    as fill them, never fewer than ``MIN_PASSES``."""
    round_s = ROUND_SECONDS[workload]
    rounds = max(1, round(seconds / (TARGET_PASSES * round_s)))
    passes = max(MIN_PASSES, round(seconds / (rounds * round_s)))
    return rounds, passes


def scaled_job_times(worker):
    """Each job's time at the reference host speed, and unscaled.

    On a host shared with other tenants the speed drifts by 2-3x within
    an hour and by tens of percent within seconds, for varleb and for
    any other code alike.  So a pass's job times are
    scaled by ``PROBE_REF_S`` over the median time of the probes run
    between that pass's jobs, and a job's time is the median of its
    scaled passes.  The probe calls no varleb code, so a change to varleb
    moves the scaled times exactly as it moves the wall times."""
    scaled = [[t * PROBE_REF_S / statistics.median(pr) for t in ts]
              for ts, pr in zip(worker["times"], worker["probes"])]
    return ([statistics.median(t) for t in zip(*scaled)],
            [statistics.median(t) for t in zip(*worker["times"])])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one job at a time on one core: keep BLAS from spreading a matmul
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env):
    """Median wall time from a fresh interpreter to ``varleb.cli`` imported."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import varleb.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def write_manifest(out_dir, jobs, warmup, passes, trace, probe_every):
    entries = []
    for i, job in enumerate(jobs):
        cfg = os.path.join(out_dir, f"config_{i:04d}.json")
        out = os.path.join(out_dir, f"report_{i:04d}.json")
        with open(cfg, "w") as fh:
            json.dump(job["config"], fh)
        entries.append({"argv": [job["command"], "run", "--config", cfg, "--out", out,
                                 "--quiet"], "out": out})
    manifest = os.path.join(out_dir, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"jobs": entries, "warmup": warmup, "passes": passes, "trace": trace,
                   "probe_every": probe_every,
                   "result": os.path.join(out_dir, "result.json")}, fh)
    return manifest, entries


def check_all(jobs, entries, worker):
    """Problems per job: exit codes, reports stable across passes, and
    the workload's checks on the report of the last pass."""
    reports = []
    for entry in entries:
        try:
            with open(entry["out"]) as fh:
                reports.append(json.load(fh)["results"])
        except (OSError, ValueError, KeyError):
            reports.append(None)
    problems = []
    for i, job in enumerate(jobs):
        found = []
        codes = {str(c) for c in (p[i] for p in worker["codes"])}
        if codes != {"0"}:
            found.append(f"exit codes {sorted(codes)}")
        if len({p[i] for p in worker["digests"]}) != 1:
            found.append("report differs between passes")
        if reports[i] is None:
            found.append("no report")
        else:
            try:
                found += workloads.check_job(job, reports[i], reports)
            except (KeyError, TypeError, ValueError) as exc:
                found.append(f"unreadable report: {type(exc).__name__}: {exc}")
        problems.append(found)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    try:
        setup_s = measure_setup(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: cannot import varleb.cli from {ROOT}/src: {exc}", file=sys.stderr)
        return 1

    rounds, passes = run_size(args.workload, args.seconds)
    jobs = workloads.make_jobs(args.workload, args.seed, rounds)
    if args.trace:
        passes = 1

    out_dir = os.path.join(HERE, "_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        per_round = len(jobs) // rounds
        probe_every = max(1, round(PROBE_EVERY_S * per_round / ROUND_SECONDS[args.workload]))
        manifest, entries = write_manifest(out_dir, jobs, per_round, passes, bool(args.trace),
                                           probe_every)
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), manifest],
                                  env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: worker still running after {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(os.path.join(out_dir, "result.json")) as fh:
            worker = json.load(fh)
        problems = check_all(jobs, entries, worker)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    correct = True
    failed_jobs = 0
    for i, (job, found) in enumerate(zip(jobs, problems)):
        if found:
            failed_jobs += 1
            if not job.get("expect_fail"):
                correct = False
                print(f"job {i} ({job['command']}): " + "; ".join(found), file=sys.stderr)

    # every job of the list counts in the throughput
    job_s, wall_s = scaled_job_times(worker)
    jobs_per_s = len(job_s) / sum(job_s)
    probe_s = statistics.median(x for pr in worker["probes"] for x in pr)
    print(f"{'traced ' if args.trace else ''}jobs_per_s {jobs_per_s:.4f}, job_p50_s "
          f"{statistics.median(job_s):.5f}; unscaled {len(wall_s) / sum(wall_s):.4f} and "
          f"{statistics.median(wall_s):.5f}; probe median {probe_s * 1e3:.3f} ms",
          file=sys.stderr)
    if args.trace:
        metrics = worker["layers"]
    else:
        metrics = {
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(job_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": worker["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(jobs) * passes,
                      "failed": failed_jobs * passes, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
