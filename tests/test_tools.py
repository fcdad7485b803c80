"""Smoke tests of the comparison scripts in ``tools/``."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ab_timing_of_the_repository_against_itself(workload: str) -> str:
    """The output of one pass of ``workload``, after checking that both
    sides count the same nonzero Newton node-evaluations and that the
    minor page faults of each side are printed."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_timing.py"), ROOT, ROOT,
         "--workload", workload, "--passes", "1"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    counts = re.findall(r"Newton node-evaluations per pass, (parent|change): (\d+) "
                        r"\(([0-9.]+) per node\)", out)
    assert [side for side, _, _ in counts] == ["parent", "change"]
    assert counts[0][1:] == counts[1][1:] and int(counts[0][1]) > 0
    assert re.search(r"^minor page faults per pass: parent \d+ \(\d+-\d+\), "
                     r"change \d+ \(\d+-\d+\)$", out, re.M)
    return out


def test_ab_timing_of_the_repository_against_itself_finds_every_report_identical():
    """One pass of ``norm-batch``: the 14 jobs give the same reports and
    exit codes on both sides, and both sides count the same Newton
    node-evaluations."""
    out = _ab_timing_of_the_repository_against_itself("norm-batch")
    assert "reports and exit codes identical apart from wall_time_s: 14 of 14" in out
    assert re.search(r"^per-pass jobs/s, parent: median [0-9.]+ \(quartiles [0-9.]+-[0-9.]+\)$",
                     out, re.M)
    assert re.search(r"^verdict: (no )?gain \(faster in [01] of 1 passes", out, re.M)


PARENT_TOTALS = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.00]


@pytest.mark.parametrize("change, wins, holds", [
    ([t * 0.95 for t in PARENT_TOTALS[:9]] + [1.10], 9, True),
    ([t * 0.95 for t in PARENT_TOTALS[:8]] + [1.10, 1.10], 8, False),
    ([t * 0.995 for t in PARENT_TOTALS], 10, False),
    (PARENT_TOTALS, 0, False)],
    ids=["nine-wins-wide-gap", "eight-wins", "ten-wins-inside-the-spread", "ties"])
def test_ab_timing_verdict_claims_a_gain_by_nine_tenths_of_passes_and_the_quartile_spread(
        monkeypatch, change, wins, holds):
    """The parent's per-pass jobs/s (6 jobs) spread over 0.09 between its
    quartiles: a 5 % gain in 9 of 10 passes is claimed, the same gain in 8
    is not, nor is a 0.5 % gain in all 10, nor ties."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # as importing the tools sets them; restored after the test
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import ab_timing

    line = ab_timing.verdict([{"parent": a, "change": b} for a, b in zip(PARENT_TOTALS, change)],
                             6)
    assert line.startswith(f"verdict: {'gain' if holds else 'no gain'} (faster in {wins} of 10 "
                           f"passes, median gap ")


def test_ab_timing_counts_the_newton_evaluations_of_the_cube_scan():
    """One pass of ``cube-scan``, whose 8 jobs make only cube scans: their
    Newton node-evaluations are counted, the same on both sides, only
    while ``weights`` calls the solver as ``norms.lux_rows``, the name the
    counter wraps."""
    out = _ab_timing_of_the_repository_against_itself("cube-scan")
    assert "reports and exit codes identical apart from wall_time_s: 8 of 8" in out


def test_line_coverage_lists_the_statements_an_in_process_run_never_reaches():
    """The public-name tests never run the CLI's ``__main__`` guard in this
    process, so its ``sys.exit(main())`` is listed; the tool exits with
    pytest's code."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "line_coverage.py"), "-q",
         "-p", "no:cacheprovider", os.path.join(ROOT, "tests", "test_public_names.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.search(r"^src/varleb/cli\.py:\d+: sys\.exit\(main\(\)\)$", done.stdout, re.M)
    assert re.search(r"^\d+ of \d+ statements in src/varleb never ran$", done.stdout, re.M)


def test_compare_reports_calls_a_leaf_that_moves_only_its_json_type_changed(
        monkeypatch, tmp_path, capsys):
    """Two report directories whose one report moves ``x`` from 0 to 0.0 and
    ``y`` from 1.0 to 1.5: ``x`` reads "changed", with no relative move
    divided by zero, and ``y`` its relative and absolute move."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # as importing the tools sets them; restored after the test
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import compare_reports

    for side, report in (("parent", '{"x": 0, "y": 1.0}'), ("change", '{"x": 0.0, "y": 1.5}')):
        (tmp_path / side).mkdir()
        (tmp_path / side / "job.json").write_text(report)
    compare_reports.compare([{"name": "job", "workload": "norm-batch", "command": "norm"}],
                            str(tmp_path), {"parent": {"job": 0}, "change": {"job": 0}})
    assert capsys.readouterr().out.splitlines() == [
        "norm-batch: 1 of 1 reports moved (1 norm)",
        "    report.x: 1 moved, largest changed",
        "    report.y: 1 moved, largest relative 0.33, absolute 0.5",
        "total: 1 of 1 reports moved"]


def test_line_coverage_traces_the_tests_after_one_that_runs_out_of_stack(tmp_path):
    """A test that recurses past the limit makes the tracer raise, and
    CPython then removes it; the tool installs it again before the next
    test, so a second file that calls into varleb leaves as many
    statements never run as it does in a run of its own."""
    (tmp_path / "test_a_recurse.py").write_text(
        "import pytest\n\n\ndef test_recurses():\n    def down(n):\n        return down(n + 1)\n"
        "    with pytest.raises(RecursionError):\n        down(0)\n")
    (tmp_path / "test_b_call.py").write_text(
        "from varleb import Box\n\n\ndef test_calls():\n"
        "    assert Box((0.0,), (1.0,)).dim == 1\n")

    def never_run(*files):
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "line_coverage.py"), "-q",
             "-p", "no:cacheprovider", *files],
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        count = re.search(r"^(\d+) of \d+ statements in src/varleb never ran$", done.stdout, re.M)
        return int(count.group(1)), done.stderr

    both, err = never_run("test_a_recurse.py", "test_b_call.py")
    assert both == never_run("test_b_call.py")[0]
    assert "tracer installed again before 1 of 2 tests" in err
