"""Runs one workload's job list through ``varleb.cli.main`` in this process.

    python3 bench/worker.py <manifest.json>

The manifest (written by ``run.py``) holds the CLI argument lists, the
number of warm-up jobs (one round) run first, the number of timed
passes over the list, and whether to trace.  One client, one job at a
time: each job's time is ``cli.main`` from argument parsing to the
report written with ``--out``.  Before every ``probe_every``-th job of
each pass, starting with the first, the worker times ``probe()``, a
fixed piece of Python and numpy work that calls no varleb code, so that
``run.py`` can tell how fast the host ran in each pass.
The result file records per-pass job times and probe times, exit codes,
a digest of each report with its ``wall_time_s`` removed, the peak
resident set of this process and, when tracing, the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import sys
import time

import numpy as np

PROBE_DATA = np.random.default_rng(0).random(1 << 16)
WALL_TIME = re.compile(rb'"wall_time_s": [-0-9.e]+')


def run_job(cli, argv):
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed job, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code


def probe():
    """Seconds for a fixed Python loop, sort, FFT and exponential."""
    start = time.perf_counter()
    total = 0
    for k in range(50_000):
        total += k
    np.sort(PROBE_DATA)
    np.fft.rfft(PROBE_DATA)
    np.exp(PROBE_DATA).sum()
    return time.perf_counter() - start


def digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(WALL_TIME.sub(b"", fh.read())).hexdigest()
    except OSError:
        return None


def main(manifest_path):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    from varleb import cli

    jobs = manifest["jobs"]
    for job in jobs[:manifest["warmup"]]:
        run_job(cli, job["argv"])
    for _ in range(5):
        probe()

    tracer = None
    if manifest["trace"]:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()

    times, codes, digests, probes = [], [], [], []
    for _ in range(manifest["passes"]):
        pass_times, pass_codes, pass_digests = [], [], []
        pass_probes = []
        for i, job in enumerate(jobs):
            if i % manifest["probe_every"] == 0:
                pass_probes.append(probe())
            elapsed, code = run_job(cli, job["argv"])
            pass_times.append(elapsed)
            pass_codes.append(code)
            pass_digests.append(digest(job["out"]))
        times.append(pass_times)
        codes.append(pass_codes)
        digests.append(pass_digests)
        probes.append(pass_probes)

    result = {"times": times, "probes": probes, "codes": codes, "digests": digests,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    with open(manifest["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
