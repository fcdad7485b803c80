"""Compare the benchmark's reports between two checkouts of varleb.

    python3 tools/compare_reports.py PARENT CHANGE [--seeds 101 102 103] [--rounds 3]

PARENT and CHANGE are checkout roots (each with ``src/`` and ``bench/``).
The job list is that of ``bench/workloads.py`` in PARENT, read as it is:
every workload at each seed, ``--rounds`` rounds each (by default 4
workloads x 3 seeds x 3 rounds, 288 jobs).  For each checkout a child
process, started with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1 before numpy is imported, runs every job
through ``varleb.cli.main`` of that checkout's ``src/`` and writes its
report with ``--out``.

A report moved when its bytes differ with ``wall_time_s`` removed, or its
exit code differs.  The script prints, per workload, the moved reports by
command, then per leaf of the moved reports (list indices folded to
``[]``) how many moved and the largest move: relative and absolute for
numbers that differ in value, "changed" for any other move.  The leaves
are those that ``varleb.cli`` of this script's own checkout walks for
``replay``, keys on one side only included.  Reports and
configs stay under ``--work`` (default: a new temporary directory).  It
exits 0 whatever moved, and 1 when a checkout cannot run its jobs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import json
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALL_TIME = re.compile(rb'"wall_time_s": [-0-9.e]+')
INDEX = re.compile(r"\[\d+\]")


def make_jobs(parent: str, seeds, rounds: int, work: str, names=None) -> list[dict]:
    """The job list of PARENT's workloads (those in ``names``, by default
    all), each config written under ``work``."""
    sys.path.insert(0, os.path.join(parent, "bench"))
    import workloads

    jobs = []
    os.makedirs(os.path.join(work, "configs"), exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        for seed in seeds:
            for i, job in enumerate(workloads.make_jobs(workload, seed, rounds)):
                name = f"{workload}-{seed}-{i:03d}"
                config = os.path.join(work, "configs", name + ".json")
                with open(config, "w") as fh:
                    json.dump(job["config"], fh)
                jobs.append({"name": name, "workload": workload, "command": job["command"],
                             "config": config})
    return jobs


def write_reports(checkout: str, jobs_path: str, out_dir: str) -> None:
    """Child mode: every job through ``varleb.cli.main`` of ``checkout``;
    the exit codes go to ``out_dir/codes.json``."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    from varleb import cli

    with open(jobs_path) as fh:
        jobs = json.load(fh)
    codes = {job["name"]: run_job(cli, job, os.path.join(out_dir, job["name"] + ".json"))
             for job in jobs}
    with open(os.path.join(out_dir, "codes.json"), "w") as fh:
        json.dump(codes, fh)


def run_job(cli, job: dict, out: str):
    """The exit code of one job through ``cli.main``, its report written to
    ``out``, or the text of the exception it raised."""
    try:
        return cli.main([job["command"], "run", "--config", job["config"], "--out", out,
                         "--quiet"])
    except Exception as exc:  # a traceback is a result to compare, not a failed run
        return f"{type(exc).__name__}: {exc}"


def run_side(checkout: str, jobs_path: str, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--write", checkout,
                           jobs_path, out_dir], cwd=out_dir)
    if done.returncode:
        sys.exit(f"error: the jobs of {checkout} did not run (exit {done.returncode})")
    with open(os.path.join(out_dir, "codes.json")) as fh:
        return json.load(fh)


def read_report(path: str):
    """The report's bytes without ``wall_time_s``, and its JSON, or None twice."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None, None
    report = json.loads(data)
    report.get("provenance", {}).pop("wall_time_s", None)
    return WALL_TIME.sub(b"", data), report


def compare(jobs: list[dict], work: str, codes: dict) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from varleb.cli import _differing_leaves

    moved = collections.defaultdict(collections.Counter)  # workload -> command -> count
    totals = collections.Counter()
    largest = {}  # (workload, leaf) -> [count, rel, abs, other]
    for job in jobs:
        name, workload = job["name"], job["workload"]
        totals[workload] += 1
        (pa, ja), (ch, jc) = (read_report(os.path.join(work, side, name + ".json"))
                              for side in ("parent", "change"))
        if pa == ch and codes["parent"][name] == codes["change"][name]:
            continue
        moved[workload][job["command"]] += 1
        for path, a, b in _differing_leaves({"exit_code": codes["parent"][name], "report": ja},
                                            {"exit_code": codes["change"][name], "report": jc},
                                            ""):
            entry = largest.setdefault((workload, INDEX.sub("[]", path[1:])),
                                       [0, 0.0, 0.0, False])
            entry[0] += 1
            # a leaf that moves only its JSON type, 0 to 0.0 say, is "changed"
            if a != b and all(type(v) in (int, float) for v in (a, b)):
                entry[1] = max(entry[1], abs(a - b) / max(abs(a), abs(b)))
                entry[2] = max(entry[2], abs(a - b))
            else:
                entry[3] = True
    for workload in totals:
        by_command = ", ".join(f"{n} {c}" for c, n in sorted(moved[workload].items()))
        count = sum(moved[workload].values())
        print(f"{workload}: {count} of {totals[workload]} reports moved"
              + (f" ({by_command})" if count else ""))
        for (w, leaf), (n, rel, ab, other) in sorted(largest.items()):
            if w == workload:
                what = "changed" if other else f"relative {rel:.2g}, absolute {ab:.2g}"
                print(f"    {leaf}: {n} moved, largest {what}")
    print(f"total: {sum(sum(m.values()) for m in moved.values())} of "
          f"{sum(totals.values())} reports moved")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--work", help="directory for configs and reports")
    args = parser.parse_args(argv)
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="compare_reports_"))
    parent, change = (os.path.abspath(p) for p in (args.parent, args.change))
    jobs = make_jobs(parent, args.seeds, args.rounds, work)
    jobs_path = os.path.join(work, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump(jobs, fh)
    codes = {side: run_side(root, jobs_path, os.path.join(work, side))
             for side, root in (("parent", parent), ("change", change))}
    compare(jobs, work, codes)
    print(f"reports under {work}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        write_reports(*sys.argv[2:5])
    else:
        main()
