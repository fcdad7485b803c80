"""Paired timing of the benchmark's jobs between two checkouts of varleb.

    python3 tools/ab_timing.py PARENT CHANGE --workload W [--seed 101] [--passes 10]

PARENT and CHANGE are checkout roots (each with ``src/`` and ``bench/``).
Both checkouts' ``src/varleb`` are loaded into this one process, as the
packages ``varleb_parent`` and ``varleb_change``, with the BLAS threads
set to 1 by `compare_reports` before numpy is imported.  The job list is
one round of the workload, built by `compare_reports.make_jobs` from
``bench/workloads.py`` in PARENT, read as it is.  Every job runs once on
each side untimed, then ``--passes`` times on each side, the two sides
alternating job by job (which goes first swaps from job to job and from
pass to pass), so that a drift in the host's speed reaches both alike:
on a shared host two plain runs of one tree can differ by half.

It prints each job's median time per side and their ratio, each side's
jobs/s (jobs over the sum of the job medians, as ``bench/run.py`` counts
them) next to its Newton node-evaluations per pass (the sum over the
Luxemburg solves of row width times ``RowNorms.iterations``, counted in
the untimed pass by wrapping the side's ``norms.lux_rows``) and per
solved node, each side's minor page faults per timed pass (the median
over passes of the ``ru_minflt`` taken around each of its runs), each
side's per-pass jobs/s (jobs over the pass's total) as median and
quartiles, a verdict by the rule for claiming a gain (`verdict`, which
also says in how many passes the change's total time was lower), and
whether the reports of the last pass and the exit codes are the same on
both sides, as `compare_reports` compares them.

Both checkouts share this process's heap, so each side's allocations
move where the other's land, and the fault counts and times of a
change in how solves allocate or free memory are not the ones each
side has alone.  Size such a change with alternated ``bench/run.py``
runs from the two checkouts instead, at paths of equal length: the
length of the checkout's path alone has moved ``compactness`` by about
6 %.
"""

from __future__ import annotations

import compare_reports  # first: it sets the BLAS threads before numpy is imported

import argparse
import importlib
import importlib.util
import os
import resource
import statistics
import sys
import tempfile
import time

import numpy as np

SIDES = ("parent", "change")


def load_cli(root: str, name: str):
    """``varleb.cli`` of the checkout at ``root``, imported as ``name.cli``."""
    package = os.path.join(root, "src", "varleb")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    if spec is None:
        sys.exit(f"error: no varleb package under {root}/src")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


class EvaluationCount:
    """Wraps ``norms.lux_rows`` of a loaded package while in use, adding
    up the node-evaluations of its Newton loops (row width times
    evaluations, per row) and the nodes of the rows they solve."""

    def __init__(self, norms):
        self.norms, self.evaluations, self.nodes = norms, 0, 0

    def __enter__(self):
        real = self.real = self.norms.lux_rows

        def counting(la, *args, **kwargs):
            res = real(la, *args, **kwargs)
            self.evaluations += la.shape[-1] * int(np.sum(res.iterations))
            self.nodes += la.shape[-1] * np.size(res.iterations)
            return res

        self.norms.lux_rows = counting
        return self

    def __exit__(self, *exc):
        self.norms.lux_rows = self.real


def quartiles(rates) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of per-pass rates."""
    return tuple(float(q) for q in np.percentile(rates, [25, 50, 75]))


def verdict(pass_totals: list[dict], jobs: int) -> str:
    """Whether a gain in jobs/s may be claimed from passes of ``jobs``
    jobs, each a dict of the two sides' total times: only when the change
    is faster in at least nine tenths of the passes, ties counting for
    neither, and its median per-pass jobs/s is above the parent's by more
    than the distance between the parent's quartiles."""
    wins = sum(t["change"] < t["parent"] for t in pass_totals)
    q1, median, q3 = quartiles([jobs / t["parent"] for t in pass_totals])
    gap = quartiles([jobs / t["change"] for t in pass_totals])[1] - median
    holds = 10 * wins >= 9 * len(pass_totals) and gap > q3 - q1
    return (f"verdict: {'gain' if holds else 'no gain'} (faster in {wins} of "
            f"{len(pass_totals)} passes, median gap {gap:+.3f} jobs/s against the parent's "
            f"quartile spread {q3 - q1:.3f})")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--passes", type=int, default=10)
    args = parser.parse_args(argv)
    roots = dict(zip(SIDES, (os.path.abspath(p) for p in (args.parent, args.change))))
    clis = {side: load_cli(roots[side], f"varleb_{side}") for side in SIDES}

    with tempfile.TemporaryDirectory(prefix="ab_timing_") as work:
        for side in SIDES:
            os.makedirs(os.path.join(work, side))
        jobs = compare_reports.make_jobs(roots["parent"], [args.seed], 1, work, [args.workload])
        out = {side: [os.path.join(work, side, job["name"] + ".json") for job in jobs]
               for side in SIDES}
        codes = {}

        def run(side: str, i: int) -> tuple[float, int]:
            """The job's wall time and the minor page faults it took."""
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            codes[side, i] = compare_reports.run_job(clis[side], jobs[i], out[side][i])
            elapsed = time.perf_counter() - start
            return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt

        counts = {side: EvaluationCount(sys.modules[f"varleb_{side}.norms"]) for side in SIDES}
        for i in range(len(jobs)):  # warm-up: every grid shape and code path once per side
            for side in SIDES:
                with counts[side]:
                    run(side, i)
        times = {side: [[] for _ in jobs] for side in SIDES}
        pass_totals, pass_faults = [], []
        for k in range(args.passes):
            totals, faults = dict.fromkeys(SIDES, 0.0), dict.fromkeys(SIDES, 0)
            for i in range(len(jobs)):
                for side in (SIDES if (i + k) % 2 == 0 else SIDES[::-1]):
                    elapsed, minflt = run(side, i)
                    times[side][i].append(elapsed)
                    totals[side] += elapsed
                    faults[side] += minflt
            pass_totals.append(totals)
            pass_faults.append(faults)
        same = [codes["parent", i] == codes["change", i]
                and (compare_reports.read_report(out["parent"][i])[0]
                     == compare_reports.read_report(out["change"][i])[0])
                for i in range(len(jobs))]

    medians = {side: [statistics.median(t) for t in times[side]] for side in SIDES}
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, {args.passes} passes")
    print(f"{'job':>4} {'command':<20} {'parent ms':>10} {'change ms':>10} {'ratio':>7}")
    for i, job in enumerate(jobs):
        a, b = medians["parent"][i], medians["change"][i]
        print(f"{i:>4} {job['command']:<20} {a * 1e3:>10.2f} {b * 1e3:>10.2f} {a / b:>7.3f}")
    rate = {side: len(jobs) / sum(medians[side]) for side in SIDES}
    print(f"jobs_per_s: parent {rate['parent']:.2f}, change {rate['change']:.2f}, "
          f"x{rate['change'] / rate['parent']:.3f}")
    for side in SIDES:
        c = counts[side]
        print(f"Newton node-evaluations per pass, {side}: {c.evaluations} "
              f"({c.evaluations / c.nodes if c.nodes else 0.0:.3f} per node)")
    spans = {side: [f[side] for f in pass_faults] for side in SIDES}
    print("minor page faults per pass: " + ", ".join(
        f"{side} {statistics.median(f):.0f} ({min(f)}-{max(f)})" for side, f in spans.items()))
    for side in SIDES:
        q1, median, q3 = quartiles([len(jobs) / t[side] for t in pass_totals])
        print(f"per-pass jobs/s, {side}: median {median:.2f} (quartiles {q1:.2f}-{q3:.2f})")
    print(verdict(pass_totals, len(jobs)))
    print(f"reports and exit codes identical apart from wall_time_s: {sum(same)} of {len(jobs)}")


if __name__ == "__main__":
    main()
