"""End-to-end tests of the command line driver: config parsing, report
emission, replay, overrides, and exit codes."""

import contextlib
import copy
import dataclasses
import inspect
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import varleb
import varleb.cli as cli_module
import varleb.exponent as exponent_module
import varleb.field as field_module
import varleb.interp as interp_module
import varleb.norms as norms_module
from varleb import Box, Grid, realize_function
from varleb.cli import main
from varleb.errors import VersionMismatchWarning
from varleb.interp import Violation

from _support import write_grid_csv

CONST_ONE = {"kind": "sine", "frequency": 0.0,
             "phase": math.pi / 2.0, "amplitude": 1.0}
CONST_THREE = {"kind": "sine", "frequency": 0.0,
               "phase": math.pi / 2.0, "amplitude": 3.0}


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, command, cfg, *extra):
    cfg_path = _write(tmp_path, "config.json", cfg)
    out_path = tmp_path / "report.json"
    rc = main([command, "run", "--config", cfg_path, "--out", str(out_path),
               "--quiet", *extra])
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return rc, report, out_path


# ---------------------------------------------------------------------------
# happy paths per command


def test_norm_of_constant_three_at_exponent_two(tmp_path):
    cfg = {"box": [[0.0, 1.0]], "resolution": 512, "rel_tol": 1e-12,
           "exponent": {"kind": "constant", "value": 2.0},
           "function": CONST_THREE}
    rc, report, _ = _run(tmp_path, "norm", cfg)
    assert rc == 0
    assert abs(report["results"]["norm"] - 3.0) <= 1e-10
    assert report["command"] == "norm"
    assert report["config"]["resolution"] == 512


def test_modular_of_unit_constant_is_the_box_volume(tmp_path):
    cfg = {"box": [[0.0, 1.0]], "resolution": 256,
           "exponent": {"kind": "constant", "value": 2.0},
           "function": CONST_ONE}
    rc, report, _ = _run(tmp_path, "modular", cfg)
    assert rc == 0
    assert abs(report["results"]["modular"] - 1.0) <= 1e-12


def test_weight_constant_of_unit_weight_is_one(tmp_path):
    cfg = {"box": [[0.0, 1.0]], "resolution": 256, "cube_depth": 3,
           "exponent": {"kind": "constant", "value": 2.5},
           "weight": CONST_ONE}
    rc, report, _ = _run(tmp_path, "weight-constant", cfg)
    assert rc == 0
    assert abs(report["results"]["constant"] - 1.0) <= 1e-9
    assert not report["results"]["overflow"]


def _times(desc, c):
    """The descriptor of ``c`` times the function of ``desc``."""
    return {"kind": "product", "terms": [desc, dict(CONST_ONE, amplitude=c)]}


_GAUSS_04 = {"kind": "gaussian", "center": [0.4], "width": 0.5}


@pytest.mark.parametrize("c", [1e160, 1e-160, 1e-300])
def test_weight_constants_of_a_weight_times_a_huge_or_tiny_constant_are_its_own(tmp_path, c):
    """[c w] = [w] through the CLI: at these c a factor norm passes 1e150,
    which read as an infinite constant (exit 0, "inf" on cube d0u0) before
    the cube values were taken as sums of log norms.  With both weights of
    the two-index constant times c, nu = c^2 w_1 w_2 is no double at 1e160
    (exit 1, "weight must satisfy 0 < w < inf") nor a normal one at
    1e-160 (the constant read 2.6e-6 off) while it was formed in linear
    space."""
    wc = {"box": [[0.0, 1.0]], "resolution": 1024, "cube_depth": 5,
          "exponent": {"kind": "constant", "value": 2.0}}
    ml = {"box": [[0.0, 1.0]], "resolution": 1024, "cube_depth": 4,
          "quadruple": {"p_vec": [{"kind": "constant", "value": 3.0}] * 2,
                        "q": {"kind": "constant", "value": 1.5}, "r_vec": [1.0, 1.0], "s": "inf"}}
    g6 = {"kind": "gaussian", "center": [0.6], "width": 0.5}
    for command, cfg, weights, want in (
            ("weight-constant", wc, lambda a: {"weight": a(_GAUSS_04)}, (1.37727060143818, "d1u1")),
            ("multilinear-constant", ml, lambda a: {"weights": [a(_GAUSS_04), g6]},
             (1.59457, "d0u0")),
            ("multilinear-constant", ml, lambda a: {"weights": [a(_GAUSS_04), a(g6)]},
             (1.59457, "d0u0"))):
        constants = []
        for scale in (lambda desc: desc, lambda desc: _times(desc, c)):
            rc, report, _ = _run(tmp_path, command, dict(cfg, **weights(scale)))
            assert rc == 0
            got = report["results"]
            assert not got["overflow"] and got["argmax_cube"] == want[1]
            assert got["constant"] == pytest.approx(want[0], rel=1e-5)
            constants.append(got["constant"])
        assert constants[1] == pytest.approx(constants[0], rel=1e-12, abs=0.0)


def test_rk_classify_gate_with_a_huge_constant_weight_is_one(tmp_path):
    """A weight of 1e160 used to fail the gate (exit 2, "per-cube norm
    factor 2.154e+160 beyond 1e+150"); its gate constant is that of 1.
    So is that of 1e250 at qtilde = 1.5, whose gate weight w^1.5 is no
    double (exit 1, "weight must satisfy 0 < w < inf", while the power was
    taken in linear space)."""
    for qtilde, amplitude in ((1.0, 1e160), (1.5, 1e250)):
        cfg = {"box": [[0.0, 10.0]], "resolution": 1024, "qtilde": qtilde,
               "exponent": {"kind": "constant", "value": 3.0},
               "weight": dict(CONST_ONE, amplitude=amplitude),
               "family": {"kind": "translate", "count": 6, "step": 1.3,
                          "base": {"kind": "gaussian", "center": [1.0], "width": 0.3}}}
        rc, report, _ = _run(tmp_path, "rk-classify", cfg)
        assert rc == 0
        assert report["results"]["gate_constant"] == pytest.approx(1.0, rel=1e-12)


def test_two_to_one_with_unit_weight_passes_at_tight_tolerance(tmp_path):
    cfg = {"box": [[0.0, 1.0]], "resolution": 256, "cube_depth": 3,
           "quadruple": {"p_vec": [{"kind": "constant", "value": 2.0}],
                         "q": {"kind": "constant", "value": 4.0},
                         "r_vec": [1.0], "s": "inf"},
           "weight": CONST_ONE, "tol": 1e-9}
    rc, report, _ = _run(tmp_path, "two-to-one", cfg)
    assert rc == 0
    assert report["results"]["passed"]
    assert report["results"]["rel_error"] <= 1e-9
    assert abs(report["results"]["lhs_constant"] - 1.0) <= 1e-9
    assert abs(report["results"]["a"] - 4.0 / 3.0) <= 1e-12


def test_multilinear_constant_reports_admissibility(tmp_path):
    cfg = {"box": [[0.0, 1.0]], "resolution": 256, "cube_depth": 3,
           "quadruple": {"p_vec": [{"kind": "constant", "value": 4.0},
                                   {"kind": "constant", "value": 4.0}],
                         "q": {"kind": "constant", "value": 2.0},
                         "r_vec": [1.5, 1.5], "s": 6.0},
           "weights": [CONST_ONE, CONST_ONE]}
    rc, report, _ = _run(tmp_path, "multilinear-constant", cfg)
    assert rc == 0
    assert report["results"]["admissible"]
    assert abs(report["results"]["constant"] - 1.0) <= 1e-9
    assert report["results"]["gamma"] == pytest.approx(0.0, abs=1e-12)


def test_maximal_command_reports_dominance_and_ratio(tmp_path):
    cfg = {"box": [[0.0, 4.0]], "resolution": 1024, "qtilde": 1.0,
           "radii_count": 32,
           "exponent": {"kind": "constant", "value": 2.0},
           "function": {"kind": "indicator", "box": [[0.0, 1.0]]}}
    rc, report, _ = _run(tmp_path, "maximal", cfg)
    assert rc == 0
    res = report["results"]
    assert res["dominance_min"] >= -1e-9
    assert res["radii_count"] == 32
    assert 1.0 <= res["ratio"] < 10.0


def _bump_maximal(amplitude):
    return {"box": [[0.0, 1.0], [0.0, 1.0]], "resolution": 32, "qtilde": 2.0, "radii_count": 8,
            "exponent": {"kind": "constant", "value": 3.0},
            "function": {"kind": "bump", "center": [0.5, 0.5], "radius": 0.3,
                         "amplitude": amplitude}}


@pytest.mark.parametrize("amplitude", [1e-170, 1e-300, 1e200, 1e300])
def test_maximal_is_homogeneous_at_extreme_amplitudes(tmp_path, amplitude):
    """At 1e-170 |f|^2 underflowed (ratio 0.0, exit 0); at 1e200 it
    overflowed into inf / inf (a NaN, exit 1)."""
    rc, unit, _ = _run(tmp_path, "maximal", _bump_maximal(1.0))
    assert rc == 0
    rc, report, _ = _run(tmp_path, "maximal", _bump_maximal(amplitude))
    assert rc == 0
    got, want = report["results"], unit["results"]
    assert got["ratio"] == pytest.approx(want["ratio"], rel=1e-12, abs=0.0)
    assert got["norm_maximal"] == pytest.approx(amplitude * want["norm_maximal"], rel=1e-12,
                                                abs=0.0)
    assert got["dominance_min"] >= -1e-12 * amplitude


def test_maximal_ratio_of_norms_past_the_float_range_is_the_ratio_at_scale_one(tmp_path):
    """f and w both times 1e200 (or 1e-200): ||f w|| and ||M f w|| are no
    doubles, and the run exited 1 with "weighted norm inf" (or 0.0); the
    ratio is taken as a difference of log norms, so it is the one at
    scale 1."""
    def run(c):
        cfg = {"box": [[0.0, 1.0]], "resolution": 256, "qtilde": 1.0, "radii_count": 8,
               "exponent": {"kind": "constant", "value": 2.0},
               "function": _times({"kind": "gaussian", "center": [0.5], "width": 0.2}, c),
               "weight": _times(_GAUSS_04, c)}
        rc, report, _ = _run(tmp_path, "maximal", cfg)
        assert rc == 0
        return report["results"]

    unit, huge, tiny = run(1.0), run(1e200), run(1e-200)
    assert unit["ratio"] == pytest.approx(1.0968722416240035, rel=1e-12, abs=0.0)
    for scaled in (huge, tiny):
        assert scaled["ratio"] == pytest.approx(unit["ratio"], rel=1e-12, abs=0.0)
    assert huge["norm_input"] == huge["norm_maximal"] == "inf"
    assert tiny["norm_input"] == tiny["norm_maximal"] == 0.0


def test_maximal_on_a_grid_whose_steps_no_unit_can_square_exits_one_naming_both(tmp_path,
                                                                                capsys):
    """Steps 1e-170 and 1e150: no power-of-two unit keeps the square of
    the half step and that of the largest radius both normal doubles, so
    the grid is refused.  Its balls were empty, and the run exited 1 with
    "function value is NaN at flat node index 27" after a divide warning."""
    cfg = {"box": [[0.0, 1.6e-169], [0.0, 1.6e151]], "resolution": 16, "qtilde": 1.0,
           "exponent": {"kind": "constant", "value": 2.0}, "function": CONST_ONE}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, report, _ = _run(tmp_path, "maximal", cfg)
    err = capsys.readouterr().err
    assert rc == 1 and report is None
    assert "lattice balls on the grid of steps 1e-170 and 1e+150: no power-of-two unit keeps" in err
    assert "Traceback" not in err


def test_maximal_on_a_2d_grid_with_a_tiny_step_matches_a_dilated_one(tmp_path, capsys):
    """On [0, 1e-170] x [0, 1] the squares of the lattice-ball test
    underflowed to 0 and the run exited 1 ("function value is NaN"); in a
    power-of-two unit chosen from the half step too, the ratio is that of
    the grid dilated by 1e160, where every square is a normal double."""
    def run(s):
        cfg = {"box": [[0.0, 1e-170 * s], [0.0, s]], "resolution": 16, "qtilde": 1.0,
               "radii_count": 8, "exponent": {"kind": "constant", "value": 2.0},
               "function": {"kind": "indicator", "box": [[0.0, 0.3e-170 * s], [0.0, 0.5 * s]]}}
        rc, report, _ = _run(tmp_path, "maximal", cfg)
        assert rc == 0, capsys.readouterr().err
        return report["results"]

    assert run(1.0)["ratio"] == pytest.approx(run(1e160)["ratio"], rel=1e-12, abs=0.0)


def test_maximal_of_a_gaussian_on_a_narrow_axis_matches_a_dilated_one(tmp_path, capsys):
    """On [0, 1e-160] x [0, 1e10] the squared distances of a gaussian of
    width 2e-161 were formed in double, subnormal or 0 on the narrow axis,
    and the ratio read 1.133609384001386 (exit 0) against
    1.1335904136727353 for the grid dilated by 1e150; formed in a
    power-of-two unit, they are normal doubles, and the two agree."""
    def run(s):
        cfg = {"box": [[0.0, 1e-160 * s], [0.0, 1e10 * s]], "resolution": 16, "qtilde": 1.0,
               "exponent": {"kind": "constant", "value": 2.0},
               "function": {"kind": "gaussian", "width": 2e-161 * s}}
        rc, report, _ = _run(tmp_path, "maximal", cfg)
        assert rc == 0, capsys.readouterr().err
        return report["results"]["ratio"]

    assert run(1.0) == pytest.approx(run(1e150), rel=1e-12, abs=0.0)


def test_norm_of_a_power_centred_far_outside_the_box_is_its_distance_power(tmp_path):
    """|x - 1e200|^-1 on [0, 1]: the squared distances passed the float
    range, so the distances read inf and the norm 0.0 (exit 0); in a
    power-of-two unit they are 1e200, and the norm is 1e-200."""
    cfg = {"box": [[0.0, 1.0]], "resolution": 64,
           "exponent": {"kind": "constant", "value": 2.0},
           "function": {"kind": "power", "exponent": -1.0, "center": [1e200]}}
    rc, report, _ = _run(tmp_path, "norm", cfg)
    assert rc == 0
    assert report["results"]["norm"] == pytest.approx(1e-200, rel=1e-12, abs=0.0)


def test_a_radial_function_on_a_grid_whose_steps_no_unit_can_square_exits_one(tmp_path,
                                                                            capsys):
    """Half a step of 1e-300 and a width of 1e10: no power-of-two unit
    keeps both squares normal, so the distances are refused by the grid."""
    cfg = {"box": [[0.0, 1.6e-299], [0.0, 1e10]], "resolution": 16,
           "exponent": {"kind": "constant", "value": 2.0},
           "function": {"kind": "gaussian", "width": 1.0}}
    rc, report, _ = _run(tmp_path, "norm", cfg)
    err = capsys.readouterr().err
    assert rc == 1 and report is None
    assert "distances on the grid of steps 1e-300 and 625000000.0: no power-of-two unit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("left", [-1e200, -1e300])
def test_maximal_on_a_2d_box_wider_than_the_squares_reach_matches_a_narrower_one(tmp_path,
                                                                               capsys, left):
    """On [-1e200, 1] x [0, 1] the squares of the lattice-ball test passed
    the float range and the run exited 1 with "(34, 'Numerical result out
    of range')".  In a power-of-two unit of length every ball keeps its
    rows: the ratio is the one on [-1e150, 1] x [0, 1], whose squares are
    finite (with squares read as inf, the balls lost every row but one and
    the ratio read 0.7077 against 0.7423)."""
    def run(lo):
        cfg = {"box": [[lo, 1.0], [0.0, 1.0]], "resolution": 16, "qtilde": 1.0,
               "radii_count": 4, "exponent": {"kind": "constant", "value": 2.0},
               "function": {"kind": "gaussian", "center": [0.5, 0.5], "width": 0.2}}
        rc, report, _ = _run(tmp_path, "maximal", cfg)
        assert rc == 0, capsys.readouterr().err
        return report["results"]

    want, got = run(-1e150), run(left)
    assert "Numerical result out of range" not in capsys.readouterr().err
    assert got["ratio"] == pytest.approx(want["ratio"], rel=1e-12, abs=0.0)



@pytest.mark.parametrize("width", [100.0, 3.0])
def test_maximal_on_a_non_square_2d_grid_dominates_the_function(tmp_path, width):
    """The radius ladder started at the larger step, so the smallest ball
    spanned several nodes of the finer axis and M f fell below |f|: on
    [0, 100] x [0, 1] dominance_min read -0.00125 and the ratio 0.743, and
    on [0, 3] x [0, 1] dominance_min read -0.151, both with exit 0."""
    cfg = {"box": [[0.0, width], [0.0, 1.0]], "resolution": 16, "qtilde": 1.0,
           "radii_count": 4, "exponent": {"kind": "constant", "value": 2.0},
           "function": {"kind": "gaussian", "center": [0.5, 0.5], "width": 0.2}}
    rc, report, _ = _run(tmp_path, "maximal", cfg)
    assert rc == 0
    res = report["results"]
    assert res["dominance_min"] >= -1e-12  # max |f| <= 1
    assert res["ratio"] >= 1.0


@pytest.mark.parametrize("command", ["norm", "maximal"])
@pytest.mark.parametrize("box", [[[-1e200, 1.0], [-1e200, 1.0]], [[0.0, 1e-200], [0.0, 1e-200]]])
def test_a_grid_whose_quadrature_weights_leave_the_float_range_exits_one_and_names_them(
        tmp_path, capsys, command, box):
    """Cell areas of 4e398 and 4e-403: the weights read inf or 0, and the
    solve ran 100 evaluations into "Luxemburg Newton solve left |log rho| =
    nan" behind numpy RuntimeWarnings."""
    cfg = {"box": box, "resolution": 16, "exponent": {"kind": "constant", "value": 2.0},
           "function": {"kind": "gaussian", "center": [0.5, 0.5], "width": 0.2}}
    if command == "maximal":
        cfg.update(qtilde=1.0, radii_count=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, report, _ = _run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert rc == 1 and report is None
    assert re.fullmatch(r"error: the \(17, 17\) grid on .* has quadrature weights in "
                        r"\[(inf, inf|0\.0, 0\.0)\]; each must be positive and finite\n", err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_grid_whose_quadrature_weights_are_subnormal_exits_one_and_names_them(tmp_path,
                                                                                capsys):
    """Cells of 1e-161 by 1e-161 have weights of about 1e-323, subnormal
    doubles of one or two significant bits: the norm of 1 at p = 2 read
    1.0059057822096864e-160 (0.6 % off) with exit 0.  On a 1e-150 box
    every weight is a normal double and the norm is its closed form."""
    def run(side):
        cfg = {"box": [[0.0, side], [0.0, side]], "resolution": 16,
               "exponent": {"kind": "constant", "value": 2.0}, "function": CONST_ONE}
        return _run(tmp_path, "norm", cfg)

    rc, report, _ = run(1e-160)
    err = capsys.readouterr().err
    assert rc == 1 and report is None
    assert re.fullmatch(r"error: the \(17, 17\) grid on \(0\.0, 0\.0\)-\(1e-160, 1e-160\) has "
                        r"quadrature weights in \[1e-323, 4e-323\]; each must be positive and "
                        r"finite\n", err)
    rc, report, _ = run(1e-150)
    assert rc == 0
    assert report["results"]["norm"] == pytest.approx(1e-150, rel=1e-12, abs=0.0)


def test_an_exponent_near_the_float_limit_names_the_stalled_newton_step(tmp_path, capsys):
    """An exponent of 1e308 takes the Newton slope to 5.3e307, so the
    step leaves log lambda where it is: the solve stops at once and names
    the exponent (it spent all 100 evaluations on the same step, then
    named neither)."""
    cfg = {"box": [[0.0, 1.0]], "resolution": 16, "cube_depth": 2,
           "exponent": {"kind": "piecewise", "breakpoints": [0.5], "values": [2.0, 1e308]},
           "weight": {"kind": "power", "exponent": 0.2, "center": [0.5], "floor": 0.01}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, report, _ = _run(tmp_path, "weight-constant", cfg)
    err = capsys.readouterr().err
    assert rc == 1 and report is None
    assert err.startswith("error: Luxemburg Newton solve cannot move: ")
    assert "with exponents up to 1e+308," in err and "the step no longer changes" in err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _translates(amplitude):
    return {"box": [[0.0, 10.0]], "resolution": 1024, "qtilde": 2.0,
            "exponent": {"kind": "constant", "value": 3.0}, "weight": CONST_ONE,
            "family": {"kind": "translate", "count": 6, "step": 1.0,
                       "base": {"kind": "gaussian", "center": [2.0], "width": 0.2,
                                "amplitude": amplitude}}}


@pytest.mark.parametrize("amplitude", [1e-200, 1e200])
def test_rk_classify_equicontinuity_is_homogeneous_at_extreme_amplitudes(tmp_path, amplitude):
    """At 1e-200 every profile entry read 0.0 and passed; at 1e200 inf."""
    rc, unit, _ = _run(tmp_path, "rk-classify", _translates(1.0))
    assert rc == 0
    rc, report, _ = _run(tmp_path, "rk-classify", _translates(amplitude))
    assert rc == 0
    got, want = report["results"]["equicontinuity"], unit["results"]["equicontinuity"]
    assert got["profile"] == pytest.approx([amplitude * v for v in want["profile"]],
                                           rel=1e-12, abs=0.0)
    assert got["passed"] == want["passed"] is False


def test_rk_classify_translate_family_is_consistent_noncompact(tmp_path):
    cfg = {"box": [[0.0, 10.0]], "resolution": 4000, "qtilde": 1.0,
           "exponent": {"kind": "constant", "value": 2.0},
           "weight": CONST_ONE,
           "family": {"kind": "translate", "count": 9, "step": 1.0,
                      "base": {"kind": "gaussian", "center": [1.0],
                               "width": 0.3}}}
    rc, report, _ = _run(tmp_path, "rk-classify", cfg)
    assert rc == 0
    res = report["results"]
    assert res["verdict"] == "consistent-noncompact"
    assert not res["vanishing"]["passed"]
    assert res["equicontinuity"]["passed"]
    assert res["net_sizes"][-1] == res["family_size"]


def test_rk_classify_of_one_member_is_inconclusive(tmp_path):
    # the indicator fails equicontinuity, but a single function is compact
    cfg = {"box": [[0.0, 1.0]], "resolution": 4096, "qtilde": 1.0,
           "exponent": {"kind": "constant", "value": 2.0}, "weight": CONST_ONE,
           "family": {"kind": "translate", "count": 1, "step": 0.1,
                      "base": {"kind": "indicator", "box": [[0.25, 0.75]]}}}
    rc, report, _ = _run(tmp_path, "rk-classify", cfg)
    assert rc == 0
    res = report["results"]
    assert not res["equicontinuity"]["passed"]
    assert res["family_size"] == res["net_sizes"][-1] == 1
    assert res["verdict"] == "inconclusive"


def test_interp_verify_holder_experiment_with_mixed_block(tmp_path):
    endpoint0 = {"p_vec": [{"kind": "constant", "value": 4.0},
                           {"kind": "constant", "value": 4.0}],
                 "q": {"kind": "constant", "value": 2.0},
                 "weights": [CONST_ONE, CONST_ONE], "v": CONST_ONE,
                 "bound": 1.0}
    endpoint1 = {"p_vec": [{"kind": "constant", "value": 2.0},
                           {"kind": "constant", "value": 2.0}],
                 "q": {"kind": "constant", "value": 1.0},
                 "weights": [CONST_ONE, CONST_ONE], "v": CONST_ONE,
                 "bound": 1.0}
    cfg = {"box": [[0.0, 1.0]], "resolution": 256, "theta": 0.5,
           "trials": 25, "seed": 7,
           "operator": {"kind": "product", "arity": 2},
           "endpoint0": endpoint0, "endpoint1": endpoint1,
           "mixed": {"qtilde": 0.75, "offset_count": 8}}
    rc, report, _ = _run(tmp_path, "interp-verify", cfg)
    assert rc == 0
    assert report["results"]["passed"]
    assert report["results"]["worst_ratio"] <= 1.0 + 1e-6
    assert report["results"]["mixed"]["passed"]



def test_interp_verify_with_a_mixed_block_draws_one_corpus_and_solves_each_slot_once(
        tmp_path, monkeypatch):
    """m = 2: 3m input-slot solves and three output solves per map, against
    6m + 6 when the plain and the mixed verifier each drew the corpus."""
    draws, solves = [], []
    draw, solve = interp_module._draw_corpus, norms_module.lux_rows
    monkeypatch.setattr(interp_module, "_draw_corpus",
                        lambda *args: draws.append(args) or draw(*args))
    monkeypatch.setattr(norms_module, "lux_rows",
                        lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    rc, report, _ = _run(tmp_path, "interp-verify", _interp_config(
        arity=2, mixed={"qtilde": 1.0, "offset_count": 2}))
    assert rc == 0 and report["results"]["mixed"]["passed"]
    assert len(draws) == 1
    assert len(solves) == 3 * 2 + 6

def test_extrapolate_sanity_ladder_is_consistent_compact(tmp_path):
    quad = {"p_vec": [{"kind": "constant", "value": 4.0},
                      {"kind": "constant", "value": 4.0}],
            "q": {"kind": "constant", "value": 2.0},
            "r_vec": [1.5, 1.5], "s": 6.0}
    cfg = {"box": [[-2.0, 2.0]], "resolution": 1024,
           "target": quad, "endpoint1": quad,
           "weights": [CONST_ONE, CONST_ONE],
           "weights1": [CONST_ONE, CONST_ONE],
           "thetas": [0.25, 0.5],
           "operator": {"kind": "product", "arity": 2},
           "family": {"kind": "mollify", "count": 5, "sigma": 0.15,
                      "ratio": 0.01,
                      "base": {"kind": "gaussian", "center": [0.0],
                               "width": 0.5}}}
    rc, report, _ = _run(tmp_path, "extrapolate", cfg)
    assert rc == 0
    res = report["results"]
    assert res["verdict"] == "consistent-compact"
    assert abs(res["qtilde"] - 0.75) <= 1e-12
    for entry in res["entries"]:
        assert entry["built"] and entry["roundtrip_ok"] and entry["admissible"]


# ---------------------------------------------------------------------------
# error paths and exit codes


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = {"box": [[0.0, 1.0]], "resolutoin": 256,
           "exponent": {"kind": "constant", "value": 2.0},
           "function": CONST_ONE}
    rc, report, _ = _run(tmp_path, "norm", cfg)
    assert rc == 1
    assert report is None
    assert "unknown keys" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["norm", "run", "--config", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["run", "replay"])
def test_a_file_that_is_not_utf8_exits_one_and_names_what_was_read(tmp_path, capsys, mode):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"box": "\xff"}')
    flag, what = ("--config", "config") if mode == "run" else ("--report", "report")
    rc = main(["norm", mode, flag, str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: cannot read {what}: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["run", "replay"])
def test_a_file_nested_past_the_recursion_limit_exits_one_and_names_the_fault(tmp_path, capsys,
                                                                              mode):
    """A 100,000-deep JSON array, where ``json.loads`` runs out of stack."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    flag, what = ("--config", "config") if mode == "run" else ("--report", "report")
    rc = main(["norm", mode, flag, str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {what} is nested too deeply\n"
    assert "Traceback" not in err


def test_an_exponent_nested_past_the_recursion_limit_exits_one_and_names_the_fault(tmp_path,
                                                                                   capsys):
    """400 ``shifted_reciprocal`` kinds, one inside the next: the JSON
    reads, and the exponent's reader runs out of stack."""
    exponent = {"kind": "constant", "value": 2.0}
    for _ in range(400):
        exponent = {"kind": "shifted_reciprocal", "inner": exponent, "gamma": 1e-4}
    cfg = {"box": [[0.0, 1.0]], "resolution": 64, "exponent": exponent, "function": CONST_ONE}
    rc, report, _ = _run(tmp_path, "norm", cfg)
    err = capsys.readouterr().err
    assert rc == 1 and report is None
    assert err == "error: config is nested too deeply\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("depth", [500, 700, 900])
def test_a_report_whose_results_nest_past_the_recursion_limit_exits_one(tmp_path, capsys, depth):
    """Stored results that ``json.loads`` may still read but that the
    report writer, two frames a level, cannot walk."""
    rc, report, out = _run(tmp_path, "norm", _norm_config(16))
    assert rc == 0
    out.write_text(json.dumps(dict(report, results=None)).replace(
        '"results": null', '"results": ' + "[" * depth + "]" * depth))
    capsys.readouterr()
    assert main(["norm", "replay", "--report", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: report is nested too deeply\n"


def test_a_report_whose_config_nests_past_the_recursion_limit_names_the_report(tmp_path,
                                                                               capsys):
    """The replayed config of a valid report with its exponent swapped
    for 400 ``shifted_reciprocal`` kinds, one inside the next: the fault
    is the report's, the file that was read."""
    rc, report, out = _run(tmp_path, "norm", _norm_config(16))
    assert rc == 0
    exponent = {"kind": "constant", "value": 2.0}
    for _ in range(400):
        exponent = {"kind": "shifted_reciprocal", "inner": exponent, "gamma": 1e-4}
    report["config"]["exponent"] = exponent
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["norm", "replay", "--report", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: report is nested too deeply\n"


def test_non_object_config_exits_one(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    rc = main(["norm", "run", "--config", str(path)])
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err


def test_two_to_one_with_tiny_tolerance_exits_two(tmp_path):
    cfg = {"box": [[0.0, 1.0]], "resolution": 256, "cube_depth": 3,
           "quadruple": {"p_vec": [{"kind": "constant", "value": 2.0}],
                         "q": {"kind": "constant", "value": 4.0},
                         "r_vec": [1.0], "s": "inf"},
           "weight": {"kind": "gaussian", "center": [0.3], "width": 0.5},
           "tol": 1e-16}
    rc, report, _ = _run(tmp_path, "two-to-one", cfg)
    assert rc == 2
    assert not report["results"]["passed"]


def test_rk_classify_gate_failure_exits_two(tmp_path, capsys):
    cfg = {"box": [[0.0, 1.0]], "resolution": 512, "qtilde": 2.5,
           "exponent": {"kind": "constant", "value": 2.0},
           "weight": CONST_ONE,
           "family": {"kind": "mollify", "count": 3, "sigma": 0.1,
                      "base": {"kind": "gaussian", "center": [0.5],
                               "width": 0.2}}}
    rc, report, _ = _run(tmp_path, "rk-classify", cfg)
    assert rc == 2
    assert report is None
    assert "hypothesis failure" in capsys.readouterr().err


_QUAD_2 = {"p_vec": [{"kind": "constant", "value": 4.0}] * 2,
           "q": {"kind": "constant", "value": 2.0}, "r_vec": [1.5, 1.5], "s": 6.0}
_MOLLIFY_RK = {"box": [[-2.0, 2.0]], "resolution": 1024, "qtilde": 1.0,
               "exponent": {"kind": "constant", "value": 2.0}, "weight": CONST_ONE,
               "family": {"kind": "mollify", "count": 5, "sigma": 0.15, "ratio": 0.01,
                          "base": {"kind": "gaussian", "center": [0.0], "width": 0.5}}}
_EXTRAPOLATE = {"box": [[-2.0, 2.0]], "resolution": 128, "cube_depth": 2,
                "target": _QUAD_2, "endpoint1": _QUAD_2,
                "weights": [CONST_ONE] * 2, "weights1": [CONST_ONE] * 2, "thetas": [0.5],
                "operator": {"kind": "product", "arity": 2}, "family": _MOLLIFY_RK["family"]}


@pytest.mark.parametrize("command, cfg", [("rk-classify", _MOLLIFY_RK),
                                          ("extrapolate", _EXTRAPOLATE)])
@pytest.mark.parametrize("qtilde", [0, 0.0, -1.0])
def test_a_qtilde_that_is_not_positive_exits_one_and_names_it(tmp_path, capsys, command,
                                                              cfg, qtilde):
    rc, report, _ = _run(tmp_path, command, dict(cfg, qtilde=qtilde))
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert "qtilde must be a finite positive constant" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, cfg", [("rk-classify", _MOLLIFY_RK),
                                          ("extrapolate", _EXTRAPOLATE)])
def test_a_qtilde_at_or_above_p_minus_exits_two(tmp_path, capsys, command, cfg):
    # p_- = 2 in both: the exponent of rk-classify and the target's q
    for qtilde in (2.0, 3.0):
        rc, report, _ = _run(tmp_path, command, dict(cfg, qtilde=qtilde))
        err = capsys.readouterr().err
        assert rc == 2
        assert report is None
        assert f"hypothesis failure: qtilde = {qtilde} is not below p_- = 2.0" in err


def test_a_maximal_qtilde_below_the_floor_exits_one_and_names_it(tmp_path, capsys):
    """At qtilde = 1e-16 the 1/qtilde root turned the rounding of the power
    sums into a norm ratio of about 4e19 with exit 0."""
    cfg = {"box": [[0.0, 1.0]], "resolution": 256, "radii_count": 16, "qtilde": 1e-16,
           "exponent": {"kind": "constant", "value": 2.0}, "function": _GAUSS}
    rc, report, _ = _run(tmp_path, "maximal", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert "qtilde = 1e-16 is below the floor 0.001" in err
    assert "Traceback" not in err
    rc, report, _ = _run(tmp_path, "maximal", dict(cfg, qtilde=1e-3))
    assert rc == 0 and report["results"]["dominance_min"] >= -1e-12


@pytest.mark.parametrize("radii_count", [1, 0, -3])
def test_a_maximal_radii_count_below_two_exits_one_and_names_it(tmp_path, capsys, radii_count):
    cfg = {"box": [[0.0, 1.0]], "resolution": 8, "qtilde": 1.0, "radii_count": radii_count,
           "exponent": {"kind": "constant", "value": 2.0}, "function": _GAUSS}
    rc, report, _ = _run(tmp_path, "maximal", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert err == f"error: radii_count must be at least 2, got {radii_count}\n"


def test_a_maximal_box_no_wider_than_its_step_exits_one_and_names_both(tmp_path, capsys):
    """One cell on [0, 1]: the step and the diameter are both 1, so the
    sweep has no room, though radii_count is fine."""
    cfg = {"box": [[0.0, 1.0]], "resolution": 1, "qtilde": 1.0, "radii_count": 8,
           "exponent": {"kind": "constant", "value": 2.0}, "function": _GAUSS}
    rc, report, _ = _run(tmp_path, "maximal", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert err == ("error: a radius sweep needs a box diameter above the grid step: "
                   "diameter 1.0, step 1.0\n")
    assert "radii_count" not in err


# sizes beyond any address space (10**14 doubles or more), so that no
# machine grants them and the refusal comes before a byte is touched
@pytest.mark.parametrize("command, cfg", [
    ("norm", {"box": [[0.0, 1.0]], "resolution": 10**15,
              "exponent": {"kind": "constant", "value": 2.0}, "function": CONST_ONE}),
    ("maximal", {"box": [[0.0, 1.0]], "resolution": 16, "qtilde": 1.0, "radii_count": 2**50,
                 "exponent": {"kind": "constant", "value": 2.0}, "function": CONST_ONE}),
])
def test_a_size_that_cannot_be_allocated_exits_one_and_names_it(tmp_path, capsys, command, cfg):
    rc, report, _ = _run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert err.startswith("error: cannot allocate: Unable to allocate ")
    assert "Traceback" not in err


@pytest.mark.parametrize("depth", [20, 40])
def test_a_cube_family_deeper_than_the_grid_names_its_first_empty_cube(tmp_path, capsys,
                                                                       depth):
    """The scan stops at the first cube without a node, so a depth far
    beyond the grid costs no more than the first empty depth."""
    cfg = {"box": [[0.0, 1.0], [0.0, 1.0]], "resolution": 16, "cube_depth": depth,
           "exponent": {"kind": "constant", "value": 2.0}, "weight": CONST_ONE}
    rc, report, _ = _run(tmp_path, "weight-constant", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert err == ("error: cube d5s0.0 contains no grid node; "
                   "lower max_depth or refine the grid\n")


def test_rk_classify_of_a_zero_family_is_consistent_compact(tmp_path):
    # the indicator's box lies outside the grid box, so every member is 0
    cfg = {"box": [[0.0, 1.0]], "resolution": 256, "qtilde": 1.0,
           "exponent": {"kind": "constant", "value": 2.0}, "weight": CONST_ONE,
           "family": {"kind": "translate", "count": 3, "step": 0.1,
                      "base": {"kind": "indicator", "box": [[2.0, 3.0]]}}}
    rc, report, _ = _run(tmp_path, "rk-classify", cfg)
    assert rc == 0
    res = report["results"]
    for condition in ("equicontinuity", "vanishing"):
        assert res[condition]["passed"] is True and res[condition]["threshold"] == 0.0
        assert not any(res[condition]["profile"])
    assert res["verdict"] == "consistent-compact"


def test_a_nan_config_number_exits_one_and_names_the_key(tmp_path, capsys):
    rc, report, _ = _run(tmp_path, "rk-classify", _MOLLIFY_RK)
    assert rc == 0 and report["results"]["verdict"] == "consistent-compact"
    nan_dir = tmp_path / "nan"
    nan_dir.mkdir()
    rc, report, _ = _run(nan_dir, "rk-classify", dict(_MOLLIFY_RK, threshold_factor=math.nan))
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert ("rk-classify config key 'threshold_factor' must be a number other than NaN, "
            "got nan") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("ratio", [0, -0.5])
def test_a_dilate_family_ratio_that_is_not_positive_exits_one_and_names_it(tmp_path, capsys,
                                                                           ratio):
    family = {"kind": "dilate", "count": 3, "ratio": ratio, "base": _MOLLIFY_RK["family"]["base"]}
    rc, report, _ = _run(tmp_path, "rk-classify", dict(_MOLLIFY_RK, family=family))
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert f"dilate ratio must be a finite positive number, got {float(ratio)}" in err


@pytest.mark.parametrize("family, key", [
    ({"kind": "mollify", "count": 5, "sigma": 1e308}, "sigma"),
    ({"kind": "mollify", "count": 5, "sigma": -0.15}, "sigma"),
    ({"kind": "mollify", "count": 5, "sigma": 0.15, "ratio": 0}, "ratio"),
    ({"kind": "mollify", "count": 5, "sigma": 0.15, "ratio": -1}, "ratio"),
    ({"kind": "dilate", "count": 3, "ratio": 1e-200}, "ratio"),
    ({"kind": "modulate", "count": 3, "growth": 1e308}, "growth"),
    ({"kind": "modulate", "count": 3, "base_frequency": 1000}, "base_frequency"),
    ({"kind": "modulate", "count": 3, "base_frequency": -1000}, "base_frequency"),
    ({"kind": "modulate", "count": 3, "base_frequency": -1e308}, "base_frequency"),
    ({"kind": "mollify", "count": 5, "sigma": 1e9}, "sigma"),
    ({"kind": "mollify", "count": 5, "sigma": 5.0}, "sigma"),
])
def test_a_family_parameter_out_of_range_exits_one_and_names_it(tmp_path, capsys, family, key):
    family = dict(family, base=_MOLLIFY_RK["family"]["base"])
    rc, report, _ = _run(tmp_path, "rk-classify", dict(_MOLLIFY_RK, family=family))
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert f"error: {family['kind']} {key} " in err
    assert "Traceback" not in err


def test_a_mollify_sigma_up_to_the_box_width_runs_and_a_wider_one_is_refused(tmp_path, capsys):
    family = dict(_MOLLIFY_RK["family"], sigma=4.0)
    rc, report, _ = _run(tmp_path, "rk-classify", dict(_MOLLIFY_RK, family=family))
    assert rc == 0
    assert report["results"]["family_size"] == 5
    family = dict(family, sigma=math.nextafter(4.0, 5.0))
    (tmp_path / "wider").mkdir()
    rc, report, _ = _run(tmp_path / "wider", "rk-classify", dict(_MOLLIFY_RK, family=family))
    assert rc == 1 and report is None
    assert "mollify sigma 4.000000000000001 exceeds the box width 4.0" in capsys.readouterr().err


def test_interp_verify_exits_two_when_only_the_mixed_bound_fails(tmp_path, monkeypatch):
    real = cli_module.verify_interpolation_bounds

    def failing(*args, **kwargs):
        rep, mrep = real(*args, **kwargs)
        return [rep, dataclasses.replace(mrep, violations=(Violation(0, 2.0, 1),))]
    monkeypatch.setattr(cli_module, "verify_interpolation_bounds", failing)
    cfg = _interp_config(mixed={"qtilde": 1.5, "offset_count": 2})
    rc, report, _ = _run(tmp_path, "interp-verify", cfg)
    assert rc == 2
    assert report["results"]["passed"] is True
    assert report["results"]["mixed"]["passed"] is False


# ---------------------------------------------------------------------------
# determinism, replay, overrides


def _norm_config(resolution=256):
    return {"box": [[0.0, 1.0]], "resolution": resolution,
            "exponent": {"kind": "affine", "base": 2.0, "slopes": [1.0]},
            "function": {"kind": "gaussian", "center": [0.5], "width": 0.3}}


def test_reports_are_byte_identical_apart_from_wall_time(tmp_path):
    cfg_path = _write(tmp_path, "config.json", _norm_config())
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["norm", "run", "--config", cfg_path, "--out", str(out),
                     "--quiet"]) == 0
        outs.append(re.sub(r'"wall_time_s": [0-9.]+', '"wall_time_s": 0',
                           out.read_text()))
    assert outs[0] == outs[1]


def _without_wall_time(text):
    return re.sub(r'"wall_time_s": [-0-9.e]+', '"wall_time_s": 0', text)


@pytest.mark.parametrize("old", ["junk", "longer report"])
def test_a_rewrite_over_a_longer_file_leaves_exactly_the_new_report(tmp_path, capsys, old):
    cfg_path = _write(tmp_path, "norm.json", _norm_config(64))
    fresh, out = tmp_path / "fresh.json", tmp_path / "report.json"
    assert main(["norm", "run", "--config", cfg_path, "--out", str(fresh), "--quiet"]) == 0
    if old == "junk":
        out.write_bytes(b"\x00{junk}\n" * 2560)
    else:
        assert _run(tmp_path, "interp-verify", _interp_config(resolution=16, trials=2))[0] == 0
    assert out.stat().st_size > 2 * fresh.stat().st_size
    assert main(["norm", "run", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    assert _without_wall_time(out.read_text()) == _without_wall_time(fresh.read_text())
    assert json.loads(out.read_text())["command"] == "norm"
    assert main(["norm", "replay", "--report", str(out), "--quiet"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_a_report_left_uncut_over_a_longer_one_is_refused_by_replay(tmp_path, capsys,
                                                                    monkeypatch):
    """What a run killed between the write and the cut leaves: the whole
    new report, then the tail of the old one."""
    cfg_path = _write(tmp_path, "norm.json", _norm_config(16))
    assert _run(tmp_path, "interp-verify", _interp_config(resolution=16, trials=2))[0] == 0
    out = tmp_path / "report.json"
    with monkeypatch.context() as m:
        m.setattr(cli_module.stat, "S_ISREG", lambda mode: False)
        assert main(["norm", "run", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    assert main(["norm", "replay", "--report", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "error: cannot read report: Extra data" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_an_unwritable_out_exits_one_and_names_the_path(tmp_path, capsys, target):
    out = tmp_path / "absent" / "r.json" if target == "missing directory" else tmp_path
    cfg_path = _write(tmp_path, "config.json", _norm_config(16))
    rc = main(["norm", "run", "--config", cfg_path, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: cannot write report: {out}: " in err
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_a_non_regular_out_such_as_dev_null_still_runs(tmp_path, capsys):
    cfg_path = _write(tmp_path, "config.json", _norm_config(16))
    rc = main(["norm", "run", "--config", cfg_path, "--out", "/dev/null"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "report written to /dev/null\n"
    assert "Traceback" not in captured.err


def test_seeded_interp_verify_replays_to_identical_worst_ratio(tmp_path, capsys):
    endpoint = {"p_vec": [{"kind": "constant", "value": 3.0},
                          {"kind": "constant", "value": 3.0}],
                "q": {"kind": "constant", "value": 1.5},
                "weights": [CONST_ONE, CONST_ONE], "v": CONST_ONE}
    cfg = {"box": [[0.0, 1.0]], "resolution": 256, "theta": 0.4,
           "trials": 20, "seed": 13,
           "operator": {"kind": "product", "arity": 2},
           "endpoint0": endpoint, "endpoint1": endpoint}
    rc, report, out_path = _run(tmp_path, "interp-verify", cfg)
    assert rc == 0
    rc = main(["interp-verify", "replay", "--report", str(out_path)])
    replayed = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert replayed["replay_match"]
    assert replayed["results"]["worst_ratio"] == report["results"]["worst_ratio"]


def test_interp_verify_with_no_trials_exits_one_and_names_the_fault(tmp_path, capsys):
    endpoint = {"p_vec": [{"kind": "constant", "value": 3.0}],
                "q": {"kind": "constant", "value": 3.0},
                "weights": [CONST_ONE], "v": CONST_ONE}
    cfg = {"box": [[0.0, 1.0]], "resolution": 64, "theta": 0.5, "trials": 0,
           "operator": {"kind": "product", "arity": 1},
           "endpoint0": endpoint, "endpoint1": endpoint, "mixed": {"qtilde": 1.5}}
    rc, report, _ = _run(tmp_path, "interp-verify", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert "trials" in err
    assert "Traceback" not in err


def test_interp_verify_with_a_huge_constant_weight_certifies_one(tmp_path, capsys):
    """Every weight and v is the constant 1e308, so f w is no double, but
    each endpoint ratio is 1: the norms are taken as log|f| + log w and
    the ratios in log space, and the run replays."""
    huge = dict(CONST_ONE, amplitude=1e308)
    endpoint = {"p_vec": [{"kind": "constant", "value": 2.0}],
                "q": {"kind": "constant", "value": 2.0},
                "weights": [huge], "v": huge, "bound": 1.0}
    cfg = {"box": [[0.0, 1.0]], "resolution": 16, "theta": 0.5, "trials": 2, "seed": 3,
           "operator": {"kind": "product", "arity": 1},
           "endpoint0": endpoint, "endpoint1": endpoint}
    rc, report, out_path = _run(tmp_path, "interp-verify", cfg)
    assert rc == 0, capsys.readouterr().err
    res = report["results"]
    for cert in res["certificates"]:
        assert cert["max_ratio"] == pytest.approx(1.0, abs=1e-9)
        assert cert["bound"] == 1.0 and not cert["inflated"]
    assert res["worst_ratio"] == pytest.approx(1.0, abs=1e-9) and res["passed"]
    assert main(["interp-verify", "replay", "--report", str(out_path)]) == 0


def test_replay_of_norm_report_matches(tmp_path, capsys):
    rc, report, out_path = _run(tmp_path, "norm", _norm_config())
    assert rc == 0
    rc = main(["norm", "replay", "--report", str(out_path)])
    replayed = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert replayed["replay_match"]
    assert replayed["results"]["norm"] == report["results"]["norm"]


def test_norm_with_a_2d_grid_exponent_is_the_bilinear_field_norm_and_replays(tmp_path,
                                                                               capsys):
    exponent = {"kind": "grid", "values": [[1.5, 2.0, 2.5], [3.0, 3.5, 4.0]]}
    function = {"kind": "gaussian", "center": [0.4, 1.2], "width": 0.3}
    cfg = {"box": [[0.0, 1.0], [0.0, 2.0]], "resolution": [32, 48], "rel_tol": 1e-12,
           "exponent": exponent, "function": function}
    rc, report, out_path = _run(tmp_path, "norm", cfg)
    assert rc == 0
    grid = Grid(Box((0.0, 0.0), (1.0, 2.0)), (33, 49))
    want = varleb.weighted_norm(realize_function(function, grid),
                                varleb.ExponentField.from_descriptor(exponent, grid.box),
                                rel_tol=1e-12).value
    assert report["results"]["norm"] == want
    rc = main(["norm", "replay", "--report", str(out_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["replay_match"]


def test_run_without_out_or_quiet_prints_the_report_it_would_write(tmp_path, capsys):
    cfg_path = _write(tmp_path, "config.json", _norm_config(64))
    out = tmp_path / "report.json"
    assert main(["norm", "run", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["norm", "run", "--config", cfg_path]) == 0
    printed = capsys.readouterr().out
    assert _without_wall_time(printed) == _without_wall_time(out.read_text())


def test_nan_amplitude_exits_one_and_names_the_fault(tmp_path, capsys):
    cfg = {"box": [[0.0, 1.0]], "resolution": 256,
           "exponent": {"kind": "constant", "value": 2.0},
           "function": {"kind": "gaussian", "center": [0.5], "width": 0.2,
                        "amplitude": math.nan}}
    rc, report, _ = _run(tmp_path, "norm", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert "NaN" in err
    assert "Traceback" not in err


_GAUSS = {"kind": "gaussian", "center": [0.5], "width": 0.2}


@pytest.mark.parametrize("patch, fault", [
    ({"function": {"kind": "translate", "inner": _GAUSS}}, "missing keys ['shift']"),
    ({"function": {"kind": "dilate", "inner": _GAUSS}}, "missing keys ['scale']"),
    ({"function": {"kind": "grid_csv"}}, "missing keys ['path']"),
    ({"function": {"kind": "indicator"}}, "missing keys ['box']"),
    ({"function": {"kind": "sum"}}, "missing keys ['terms']"),
    ({"function": {"kind": "sum", "terms": []}}, "'sum' needs a nonempty 'terms' list"),
    ({"exponent": {"kind": "constant"}}, "missing keys ['value']"),
    ({"box": 5}, "box must be a list of [lo, hi] pairs"),
    ({"box": [0.0, 1.0]}, "box must be a list of [lo, hi] pairs"),
    ({"function": dict(_GAUSS, center=[0.1, 0.2, 0.3])},
     "center has 3 coordinates, expected 1"),
    ({"exponent": {"kind": "affine", "base": 2.0, "slopes": 1.0}},
     "exponent 'affine' key 'slopes' must be a list"),
    ({"exponent": {"kind": "shifted_reciprocal", "inner": 5, "gamma": 0.1}},
     "exponent 'shifted_reciprocal' key 'inner' must be an exponent descriptor"),
    ({"function": {"kind": "grid_csv", "path": 0}},
     "function 'grid_csv' key 'path' must be a string, got 0"),
    ({"function": {"kind": "grid_csv", "path": 5}},
     "function 'grid_csv' key 'path' must be a string, got 5"),
    ({"exponent": {"kind": "constant", "value": 2.0, "scan_resolution": 5}},
     "unknown keys ['scan_resolution'] in exponent 'constant'"),
    ({"exponent": {"kind": "constant", "value": 2.0, "scan_resolution": "ab"}},
     "unknown keys ['scan_resolution'] in exponent 'constant'"),
    ({"exponent": {"kind": "constant", "value": 2.0, "scan_resolution": [None]}},
     "unknown keys ['scan_resolution'] in exponent 'constant'"),
    ({"exponent": {"kind": "affine", "base": 2.0, "slopes": [1.0], "scan_resolution": [4096]}},
     "unknown keys ['scan_resolution'] in exponent 'affine'"),
    ({"exponent": {"kind": "constant", "value": 2.0, "box": [[0.0, 1.0]]}},
     "unknown keys ['box'] in exponent 'constant'"),
    ({"exponent": {"kind": "grid", "values": [2.0, 3.0, 2.0], "resolution": 7}},
     "exponent 'grid' key 'resolution' must be a list, got 7"),
    ({"exponent": {"kind": "grid", "values": [2.0, 3.0, 2.0], "resolution": [2]}},
     "exponent 'grid' key 'resolution' [2] does not hold the 3 values"),
    ({"exponent": {"kind": "grid", "values": [2.0, 3.0, 2.0], "resolution": [-1]}},
     "exponent 'grid' key 'resolution' [-1] does not hold the 3 values"),
    ({"exponent": {"kind": "grid", "values": [[2.0, 3.0], [2.0]]}},
     "exponent 'grid' key 'values' must be a rectangular array of numbers"),
    ({"exponent": {"kind": "grid", "values": [2.0]}},
     "exponent 'grid' key 'values' needs at least 2 nodes per axis, got shape (1,)"),
    ({"exponent": {"kind": "grid", "values": [[2.0, 3.0], [2.0, 3.0]]}},
     "exponent 'grid' key 'values' of shape (2, 2) does not have the box's 1 axes"),
], ids=["translate-shift", "dilate-scale", "grid_csv-path", "indicator-box", "sum-terms",
        "sum-no-terms", "constant-value", "box-int", "box-flat", "center-length",
        "affine-slopes-type", "shifted-reciprocal-inner-type", "grid_csv-path-stdin", "grid_csv-path-fd",
        "scan-resolution-int", "scan-resolution-string", "scan-resolution-null",
        "scan-resolution-list", "exponent-box",
        "grid-resolution-int", "grid-resolution-size", "grid-resolution-negative",
        "grid-values-ragged", "grid-values-one-node", "grid-values-axes"])
def test_malformed_norm_config_exits_one_and_names_the_fault(tmp_path, capsys, patch, fault):
    cfg = {"box": [[0.0, 1.0]], "resolution": 64,
           "exponent": {"kind": "constant", "value": 2.0}, "function": _GAUSS, **patch}
    rc, report, _ = _run(tmp_path, "norm", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert fault in err
    assert "Traceback" not in err


@pytest.mark.parametrize("patch, fault", [
    ({"function": dict(_GAUSS, width=None)}, "function 'gaussian' key 'width' must be a number"),
    ({"function": dict(_GAUSS, amplitude="big")}, "function 'gaussian' key 'amplitude'"),
    ({"function": {"kind": "power", "exponent": None}}, "function 'power' key 'exponent'"),
    ({"function": {"kind": "power", "floor": [1.0]}}, "function 'power' key 'floor'"),
    ({"function": {"kind": "bump", "radius": True}}, "function 'bump' key 'radius'"),
    ({"function": {"kind": "bump", "amplitude": None}}, "function 'bump' key 'amplitude'"),
    ({"function": {"kind": "sine", "frequency": None}}, "function 'sine' key 'frequency'"),
    ({"function": {"kind": "sine", "frequency": [None]}}, "function 'sine' key 'frequency'"),
    ({"function": {"kind": "sine", "phase": None}}, "function 'sine' key 'phase'"),
    ({"function": {"kind": "sine", "amplitude": None}}, "function 'sine' key 'amplitude'"),
    ({"function": {"kind": "translate", "shift": None, "inner": _GAUSS}},
     "function 'translate' key 'shift'"),
    ({"function": {"kind": "translate", "shift": ["a"], "inner": _GAUSS}},
     "function 'translate' key 'shift'"),
    ({"function": {"kind": "dilate", "scale": None, "inner": _GAUSS}},
     "function 'dilate' key 'scale'"),
    ({"exponent": {"kind": "constant", "value": None}},
     "exponent 'constant' key 'value' must be a number, got None"),
    ({"exponent": {"kind": "affine", "base": None, "slopes": [0.0]}},
     "exponent 'affine' key 'base'"),
    ({"exponent": {"kind": "affine", "base": 2.0, "slopes": [None]}},
     "exponent 'affine' key 'slopes' must be a number"),
    ({"exponent": {"kind": "log_decay", "p_infinity": None, "amplitude": 0.5}},
     "exponent 'log_decay' key 'p_infinity'"),
    ({"exponent": {"kind": "piecewise", "breakpoints": 0.5, "values": [2.0, 3.0]}},
     "exponent 'piecewise' key 'breakpoints' must be a list, got 0.5"),
    ({"exponent": {"kind": "shifted_reciprocal", "gamma": None,
                   "inner": {"kind": "constant", "value": 2.0}}},
     "exponent 'shifted_reciprocal' key 'gamma'"),
    ({"function": dict(_GAUSS, center=[None])},
     "function 'gaussian' key 'center' must be a number, got None"),
    ({"exponent": {"kind": "grid", "values": [2.0, None, 2.0]}},
     "exponent 'grid' key 'values' must be a number, got None"),
], ids=["gaussian-width", "gaussian-amplitude", "power-exponent", "power-floor",
        "bump-radius", "bump-amplitude", "sine-frequency", "sine-frequency-list",
        "sine-phase", "sine-amplitude", "translate-shift", "translate-shift-list",
        "dilate-scale", "constant-value", "affine-base", "affine-slope-entry",
        "log-decay-p-infinity", "piecewise-breakpoints-scalar", "shifted-reciprocal-gamma",
        "gaussian-center-entry", "grid-values-entry"])
def test_non_numeric_descriptor_value_exits_one_and_names_the_key(tmp_path, capsys, patch,
                                                                   fault):
    cfg = {"box": [[0.0, 1.0]], "resolution": 64,
           "exponent": {"kind": "constant", "value": 2.0}, "function": _GAUSS, **patch}
    rc, report, _ = _run(tmp_path, "norm", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert fault in err
    assert "Traceback" not in err


_QUAD = {"p_vec": [{"kind": "constant", "value": 3.0}], "q": {"kind": "constant", "value": 3.0},
         "r_vec": [1.0], "s": "inf"}


@pytest.mark.parametrize("command, cfg, fault", [
    ("multilinear-constant", {"box": [[0.0, 1.0]], "resolution": 64, "quadruple": _QUAD,
                              "weights": 5},
     "multilinear-constant config key 'weights' must be a list"),
    ("rk-classify", {"box": [[0.0, 1.0]], "resolution": 64, "qtilde": 1.0,
                     "exponent": {"kind": "constant", "value": 2.0}, "weight": CONST_ONE,
                     "family": {"kind": "translate", "count": None, "step": 0.1,
                                "base": _GAUSS}},
     "family 'translate' key 'count' must be a number, got None"),
    ("multilinear-constant", {"box": [[0.0, 1.0]], "resolution": 64,
                              "quadruple": dict(_QUAD, r_vec=3), "weights": [CONST_ONE]},
     "quadruple key 'r_vec' must be a list, got 3"),
    ("multilinear-constant", {"box": [[0.0, 1.0]], "resolution": 64,
                              "quadruple": dict(_QUAD, p_vec=3), "weights": [CONST_ONE]},
     "quadruple key 'p_vec' must be a list, got 3"),
    ("extrapolate", {"box": [[-2.0, 2.0]], "resolution": 128, "target": _QUAD,
                     "endpoint1": _QUAD, "weights": [CONST_ONE], "weights1": [CONST_ONE],
                     "thetas": 0.5, "operator": {"kind": "product", "arity": 1},
                     "family": {"kind": "mollify", "count": 3, "sigma": 0.15,
                                "base": _GAUSS}},
     "extrapolate config key 'thetas' must be a list, got 0.5"),
    ("interp-verify", {"box": [[0.0, 1.0]], "resolution": 64, "theta": 0.5,
                       "operator": {"kind": "product", "arity": 1},
                       "endpoint0": {"p_vec": [{"kind": "constant", "value": 2.0}],
                                     "q": {"kind": "constant", "value": 2.0},
                                     "weights": 3, "v": CONST_ONE},
                       "endpoint1": {"p_vec": [{"kind": "constant", "value": 2.0}],
                                     "q": {"kind": "constant", "value": 2.0},
                                     "weights": [CONST_ONE], "v": CONST_ONE}},
     "endpoint0 key 'weights' must be a list, got 3"),
], ids=["multilinear-weights-type", "rk-family-count-type", "quadruple-r_vec-scalar",
        "quadruple-p_vec-scalar", "extrapolate-thetas-scalar", "endpoint-weights-scalar"])
def test_wrong_typed_config_value_exits_one_and_names_the_key(tmp_path, capsys, command,
                                                              cfg, fault):
    rc, report, _ = _run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert fault in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kinds, context", [
    (exponent_module._EXPONENTS, 1), (field_module._FUNCTIONS, 1), (cli_module._FAMILIES, 1),
    (cli_module._OPERATORS, 0)], ids=["exponent", "function", "family", "operator"])
def test_every_kind_takes_exactly_the_parameters_of_its_builder(kinds, context):
    """The keys of a kind are its builder's parameters after the context
    (the box of an exponent, the grid of a function or family)."""
    for kind, (build, table) in kinds.items():
        assert set(table) == set(list(inspect.signature(build).parameters)[context:]), kind


@pytest.mark.parametrize("operator, key", [
    ({"kind": "product", "arity": 1, "alpha": 0.7}, "alpha"),
    ({"kind": "product", "arity": 1, "radius": -5.0}, "radius"),
    ({"kind": "ball_average_product", "arity": 1, "radius": 0.1, "alpha": 0.7}, "alpha"),
    ({"kind": "fractional_kernel", "arity": 1, "alpha": 0.5, "radius": 0.1}, "radius"),
], ids=["product-alpha", "product-radius", "ball-average-alpha", "fractional-radius"])
def test_an_operator_key_its_kind_does_not_take_exits_one_and_names_it(tmp_path, capsys,
                                                                        operator, key):
    rc, report, _ = _run(tmp_path, "interp-verify", _interp_config(operator=operator))
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert f"unknown keys ['{key}'] in operator '{operator['kind']}'" in err
    assert "Traceback" not in err


_KINDS_NEEDED = ("operator needs a 'kind' among "
                 "['ball_average_product', 'fractional_kernel', 'product']")


@pytest.mark.parametrize("operator, top, fault", [
    ({"kind": "squaring"}, {}, _KINDS_NEEDED),
    ({"arity": 1}, {}, _KINDS_NEEDED),
    ({"kind": "product", "arity": 0}, {}, "operator arity must be at least 1"),
    ({"kind": "fractional_kernel", "arity": 2, "alpha": 2.0}, {},
     "alpha must lie in (0, 2), got 2.0"),
    ({"kind": "ball_average_product", "arity": 1, "radius": 0.0}, {},
     "ball averaging needs a positive radius"),
    ({"kind": "fractional_kernel", "arity": 1, "alpha": 0.5},
     {"box": [[0.0, 1.0], [0.0, 1.0]], "resolution": 8}, "fractional kernels are 1D only"),
], ids=["unknown-kind", "no-kind", "product-arity-0", "fractional-alpha-at-arity",
        "ball-average-radius-0", "fractional-2d"])
def test_an_operator_its_kind_cannot_build_or_apply_exits_one_and_says_why(tmp_path, capsys,
                                                                           operator, top,
                                                                           fault):
    cfg = _interp_config(arity=operator.get("arity") or 1, operator=operator, **top)
    rc, report, _ = _run(tmp_path, "interp-verify", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert fault in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, fault", [
    (["bogus", "run", "--config", "c.json"], "argument command: invalid choice: 'bogus'"),
    (["norm"], "the following arguments are required: mode"),
    (["norm", "replay", "--report", "r.json", "--config", "c.json"],
     "argument --config: not allowed with mode 'replay'"),
    (["norm", "run", "--out", "r.json"], "the following arguments are required: --config"),
    (["norm", "replay"], "the following arguments are required: --report"),
], ids=["unknown-command", "missing-mode", "run-flag-in-replay", "run-without-config",
        "replay-without-report"])
def test_bad_command_line_exits_two(capsys, argv, fault):
    """One parser reads both modes; the grammar of each is still enforced
    before any file is opened."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: {fault}" in capsys.readouterr().err


def test_maximal_of_an_infinite_value_exits_one_and_names_the_node(tmp_path, capsys):
    cfg = {"box": [[0.0, 1.0]], "resolution": 64, "qtilde": 1.0, "radii_count": 8,
           "exponent": {"kind": "constant", "value": 2.0},
           "function": {"kind": "power", "exponent": -1}}
    rc, report, _ = _run(tmp_path, "maximal", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert "function value is inf at flat node index 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("function", [
    {"kind": "translate", "shift": 1e308, "inner": _GAUSS},
    {"kind": "gaussian", "center": [-1e308], "width": 0.2},
], ids=["shifted-away", "centred-away"])
def test_maximal_of_a_zero_input_exits_one_and_names_the_function(tmp_path, capsys, function):
    cfg = {"box": [[0.0, 1.0]], "resolution": 64, "qtilde": 1.0, "radii_count": 8,
           "exponent": {"kind": "constant", "value": 2.0}, "function": function}
    rc, report, _ = _run(tmp_path, "maximal", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert "maximal config key 'function' has weighted norm 0.0 on the grid" in err
    assert "Traceback" not in err


def _infinite_norm_config():
    return {"box": [[0.0, 1.0]], "resolution": 256,
            "exponent": {"kind": "constant", "value": 2.0},
            "function": {"kind": "power", "exponent": -1}}


def test_infinite_norm_is_a_json_string_and_replays(tmp_path, capsys):
    rc, report, out_path = _run(tmp_path, "norm", _infinite_norm_config())
    assert rc == 0
    assert report["results"]["norm"] == "inf"
    assert "Infinity" not in out_path.read_text()
    rc = main(["norm", "replay", "--report", str(out_path)])
    replayed = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert replayed["replay_match"]


def test_legacy_report_with_bare_infinity_still_replays(tmp_path, capsys):
    rc, report, out_path = _run(tmp_path, "norm", _infinite_norm_config())
    assert rc == 0
    results = report["results"]
    for key in ("norm", "modular_at_value"):
        results[key] = math.inf
    results["bracket"] = [math.inf, math.inf]
    out_path.write_text(json.dumps(report))
    assert "Infinity" in out_path.read_text()
    rc = main(["norm", "replay", "--report", str(out_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["replay_match"]


def test_replay_warns_on_version_drift_but_still_runs(tmp_path, capsys):
    rc, report, out_path = _run(tmp_path, "norm", _norm_config())
    assert rc == 0
    report["provenance"]["version"] = "0.0.0"
    out_path.write_text(json.dumps(report))
    with pytest.warns(VersionMismatchWarning):
        rc = main(["norm", "replay", "--report", str(out_path)])
    replayed = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert replayed["replay_match"]
    assert any("version" in w for w in replayed["warnings"])


def test_replay_of_a_report_whose_csv_is_gone_exits_one_and_names_the_file(tmp_path,
                                                                           capsys):
    csv_path = tmp_path / "f.csv"
    write_grid_csv(realize_function(_GAUSS, Grid(Box((0.0,), (1.0,)), (65,))), str(csv_path))
    cfg = dict(_norm_config(64), function={"kind": "grid_csv", "path": str(csv_path)})
    rc, _, out_path = _run(tmp_path, "norm", cfg)
    assert rc == 0
    csv_path.unlink()
    capsys.readouterr()
    rc = main(["norm", "replay", "--report", str(out_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(csv_path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, fault", [
    (lambda report: [1, 2], "report must be a JSON object"),
    (lambda report: dict(report, provenance=3), "report key 'provenance' must be a JSON object"),
], ids=["list", "provenance-int"])
def test_replay_of_a_non_object_report_exits_one_and_names_the_fault(tmp_path, capsys,
                                                                    edit, fault):
    rc, report, out_path = _run(tmp_path, "norm", _norm_config(64))
    assert rc == 0
    out_path.write_text(json.dumps(edit(report)))
    capsys.readouterr()
    rc = main(["norm", "replay", "--report", str(out_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert fault in err
    assert "Traceback" not in err


def test_grid_csv_with_a_blank_first_line_exits_one_and_names_the_header(tmp_path, capsys):
    csv_path = tmp_path / "f.csv"
    write_grid_csv(realize_function(_GAUSS, Grid(Box((0.0,), (1.0,)), (65,))), str(csv_path))
    csv_path.write_text("\n" + csv_path.read_text())
    cfg = dict(_norm_config(64), function={"kind": "grid_csv", "path": str(csv_path)})
    rc, report, _ = _run(tmp_path, "norm", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert "expected a 'x[,y],value' CSV header" in err
    assert "Traceback" not in err


def test_grid_csv_off_the_grid_nodes_exits_one_and_names_the_node_order(tmp_path, capsys):
    csv_path = tmp_path / "f.csv"
    write_grid_csv(realize_function(_GAUSS, Grid(Box((0.0,), (1.0,)), (65,))), str(csv_path))
    cfg = dict(_norm_config(64), box=[[0.0, 2.0]], function={"kind": "grid_csv",
                                                             "path": str(csv_path)})
    rc, report, _ = _run(tmp_path, "norm", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert "node coordinates do not match the grid (row-major order)" in err
    assert "Traceback" not in err


def test_a_mollify_family_on_a_2d_box_exits_one_and_says_it_is_1d_only(tmp_path, capsys):
    cfg = {"box": [[0.0, 1.0], [0.0, 1.0]], "resolution": 16, "qtilde": 1.0,
           "exponent": {"kind": "constant", "value": 2.0}, "weight": CONST_ONE,
           "family": {"kind": "mollify", "count": 3, "sigma": 0.1,
                      "base": {"kind": "gaussian", "center": [0.5, 0.5], "width": 0.2}}}
    rc, report, _ = _run(tmp_path, "rk-classify", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert "mollification is 1D only" in err
    assert "Traceback" not in err


def test_maximal_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The 2D ball measure is a matrix product; on a grid whose steps are
    not dyadic its sums round, and a replay must not see the BLAS thread
    count."""
    cfg_path = _write(tmp_path, "config.json", {
        "box": [[0.0, 1.3], [0.0, 0.7]], "resolution": [90, 75], "qtilde": 1.2,
        "radii_count": 24, "exponent": {"kind": "constant", "value": 2.0},
        "function": {"kind": "gaussian", "center": [0.4, 0.3], "width": 0.2}})
    src = str(Path(varleb.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"report{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "varleb.cli", "maximal", "run", "--config",
                        cfg_path, "--out", str(out), "--quiet"], env=env, check=True)
        results.append(json.dumps(json.loads(out.read_text())["results"], sort_keys=True))
    assert results[0] == results[1]


def test_replay_rejects_a_report_from_another_command(tmp_path, capsys):
    rc, _, out_path = _run(tmp_path, "norm", _norm_config())
    assert rc == 0
    rc = main(["modular", "replay", "--report", str(out_path)])
    assert rc == 1
    assert "produced by 'norm'" in capsys.readouterr().err


def test_resolution_override_is_echoed_and_converges(tmp_path):
    cfg_path = _write(tmp_path, "config.json", _norm_config(200))
    values = {}
    for res in (200, 400, 800):
        out = tmp_path / f"r{res}.json"
        assert main(["norm", "run", "--config", cfg_path, "--out", str(out),
                     "--quiet", "--resolution", str(res)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["resolution"] == res
        values[res] = report["results"]["norm"]
    # refinement deltas contract, so the override runs sit inside the
    # convergence envelope of the coarse run
    assert abs(values[800] - values[400]) < abs(values[400] - values[200])


def test_quiet_flag_suppresses_stdout(tmp_path, capsys):
    cfg_path = _write(tmp_path, "config.json", _norm_config())
    assert main(["norm", "run", "--config", cfg_path, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def _interp_config(arity=1, **top):
    endpoint = {"p_vec": [{"kind": "constant", "value": 3.0}] * arity,
                "q": {"kind": "constant", "value": 3.0 / arity},
                "weights": [CONST_ONE] * arity, "v": CONST_ONE}
    return {"box": [[0.0, 1.0]], "resolution": 64, "theta": 0.5, "trials": 5, "seed": 3,
            "operator": {"kind": "product", "arity": arity},
            "endpoint0": endpoint, "endpoint1": endpoint, **top}


@pytest.mark.parametrize("command, cfg, fault", [
    ("norm", dict(_norm_config(), rel_tol=None), "norm config key 'rel_tol' must be a number, "
                                                 "got None"),
    ("norm", dict(_norm_config(), resolution="128"),
     "norm config key 'resolution' must be a number, got '128'"),
    ("norm", dict(_norm_config(), box=[[0.0, None]]),
     "box pair key 'hi' must be a number, got None"),
    ("interp-verify", _interp_config(theta=None),
     "interp-verify config key 'theta' must be a number, got None"),
    ("interp-verify", _interp_config(operator={"kind": "product", "arity": None}),
     "operator 'product' key 'arity' must be a number, got None"),
    ("interp-verify", _interp_config(operator={"kind": "product", "arity": 2.7}),
     "operator 'product' key 'arity' must be an integer, got 2.7"),
    ("interp-verify", _interp_config(trials=3.9),
     "interp-verify config key 'trials' must be an integer, got 3.9"),
    ("interp-verify", _interp_config(seed=True),
     "interp-verify config key 'seed' must be a number, got True"),
    ("interp-verify", _interp_config(slack=[1e-6]),
     "interp-verify config key 'slack' must be a number, got [1e-06]"),
    ("interp-verify", _interp_config(trials=1e308),
     "interp-verify config key 'trials' must be an integer of at most 2**53 in magnitude"),
], ids=["rel_tol-null", "resolution-string", "box-null", "theta-null", "arity-null",
        "arity-fraction", "trials-fraction", "seed-bool", "slack-list", "trials-huge"])
def test_non_number_config_value_exits_one_and_names_the_key(tmp_path, capsys, command,
                                                             cfg, fault):
    rc, report, _ = _run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert fault in err
    assert "Traceback" not in err


@pytest.mark.parametrize("safety", [0.0, -1.0, math.inf])
def test_interp_verify_with_a_safety_that_is_not_finite_and_positive_exits_one(tmp_path, capsys,
                                                                               safety):
    """A zero or infinite safety certifies every bound as 0 or inf, a
    vacuous pass; a negative one makes the blended bound complex."""
    rc, report, _ = _run(tmp_path, "interp-verify", _interp_config(safety=safety))
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert f"safety must be a finite positive number, got {safety}" in err
    assert "Traceback" not in err


def test_interp_verify_with_a_negative_seed_exits_one_and_names_it(tmp_path, capsys):
    rc, report, _ = _run(tmp_path, "interp-verify", _interp_config(seed=-1))
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert "seed must be a non-negative integer, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("offset_count", [65, 10 ** 12])
def test_a_mixed_offset_count_past_every_node_exits_one_and_names_it(tmp_path, capsys,
                                                                      offset_count):
    cfg = _interp_config(mixed={"qtilde": 1.5, "offset_count": offset_count})
    rc, report, _ = _run(tmp_path, "interp-verify", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert f"offset_count {offset_count} must be below the 65 grid nodes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, cfg, diameter", [("interp-verify", _interp_config(2), 1.0),
                                                    ("extrapolate", _EXTRAPOLATE, 4.0)],
                         ids=["interp-verify", "extrapolate"])
def test_a_ball_average_radius_of_1e308_runs_as_the_whole_box_mean(tmp_path, capsys, command,
                                                                   cfg, diameter):
    """Past twice the box diameter every ball is the whole box."""
    results = []
    for radius in (1e308, 2.0 * diameter):
        op = {"kind": "ball_average_product", "arity": 2, "radius": radius}
        rc, report, _ = _run(tmp_path, command, dict(cfg, operator=op))
        assert "Traceback" not in capsys.readouterr().err
        assert rc == 0
        results.append(report["results"])
    assert results[0] == results[1]


def test_quadruple_s_reads_null_and_inf_as_infinity(tmp_path):
    cfg = {"box": [[0.0, 1.0]], "resolution": 64, "quadruple": _QUAD, "weights": [CONST_ONE]}
    results = []
    for s in ("inf", None):
        rc, report, _ = _run(tmp_path, "multilinear-constant",
                             dict(cfg, quadruple=dict(_QUAD, s=s)))
        assert rc == 0
        results.append(report["results"])
    assert results[0] == results[1]


@pytest.mark.parametrize("arity", [1, 3, 2 ** 53])
def test_extrapolate_with_a_wrong_operator_arity_exits_one(tmp_path, capsys, arity):
    quad = {"p_vec": [{"kind": "constant", "value": 4.0}] * 2,
            "q": {"kind": "constant", "value": 2.0}, "r_vec": [1.5, 1.5], "s": 6.0}
    cfg = {"box": [[-2.0, 2.0]], "resolution": 128, "target": quad, "endpoint1": quad,
           "weights": [CONST_ONE] * 2, "weights1": [CONST_ONE] * 2, "thetas": [0.5],
           "operator": {"kind": "product", "arity": arity},
           "family": {"kind": "mollify", "count": 3, "sigma": 0.15,
                      "base": {"kind": "gaussian", "center": [0.0], "width": 0.5}}}
    rc, report, _ = _run(tmp_path, "extrapolate", cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert f"operator arity {arity} does not match the target's 2 inputs" in err
    assert "Traceback" not in err


def test_three_linear_fractional_interp_verify_passes(tmp_path):
    alpha = 1.2

    def endpoint(p):
        return {"p_vec": [{"kind": "constant", "value": p}] * 3,
                "q": {"kind": "constant", "value": 1.0 / (3.0 / p - alpha / 3.0)},
                "weights": [CONST_ONE] * 3, "v": CONST_ONE}
    cfg = {"box": [[0.0, 1.0]], "resolution": 32, "theta": 0.5, "trials": 12, "seed": 5,
           "operator": {"kind": "fractional_kernel", "arity": 3, "alpha": alpha},
           "endpoint0": endpoint(4.0), "endpoint1": endpoint(5.0)}
    rc, report, _ = _run(tmp_path, "interp-verify", cfg)
    assert rc == 0
    assert report["results"]["passed"] is True
    assert all(c["max_ratio"] > 0.0 for c in report["results"]["certificates"])


@pytest.mark.parametrize("edit, named, rel", [
    (lambda res: res["certificates"][1].update(
        bound=math.nextafter(res["certificates"][1]["bound"], math.inf)),
     "1 differing leaves (results.certificates[1].bound)", 2.3e-16),
    (lambda res: res.update(extra=1), "results.extra (stored only)", None),
], ids=["one-ulp", "extra-key"])
def test_diverging_replay_names_what_differs(tmp_path, capsys, edit, named, rel):
    rc, report, out_path = _run(tmp_path, "interp-verify", _interp_config())
    assert rc == 0
    edit(report["results"])
    out_path.write_text(json.dumps(report))
    rc = main(["interp-verify", "replay", "--report", str(out_path)])
    captured = capsys.readouterr()
    replayed = json.loads(captured.out)
    assert rc == 2
    assert not replayed["replay_match"]
    assert named in captured.err
    assert any(named in w for w in replayed["warnings"])
    largest = re.search(r"largest relative difference (\S+)", captured.err)
    if rel is None:
        assert largest is None
    else:
        assert 0.0 < float(largest.group(1)) <= rel


# ---------------------------------------------------------------------------
# fuzzing: a valid config of each command with one key dropped, or one value
# swapped for another type, null, NaN, 1e308, 0, -1, -1e308 or itself nested
# in a list

_FUZZ_QUAD = {"p_vec": [{"kind": "constant", "value": 4.0}],
              "q": {"kind": "constant", "value": 4.0}, "r_vec": [1.5], "s": "inf"}
_FUZZ_ENDPOINT = {"p_vec": [{"kind": "constant", "value": 2.0}],
                  "q": {"kind": "constant", "value": 2.0},
                  "weights": [CONST_ONE], "v": CONST_ONE, "bound": 1.0}
_FUZZ_CONFIGS = {
    "norm": dict(_norm_config(16), weight=CONST_ONE, rel_tol=1e-8),
    "modular": {"box": [[0.0, 1.0], [0.0, 1.0]], "resolution": [8, 8],
                "exponent": {"kind": "constant", "value": 2.0},
                "function": {"kind": "sine", "frequency": [1.0, 2.0], "phase": 0.5}},
    "weight-constant": {"box": [[0.0, 1.0]], "resolution": 16, "cube_depth": 2,
                        "exponent": {"kind": "piecewise", "breakpoints": [0.5],
                                     "values": [2.0, 3.0]},
                        "weight": {"kind": "power", "exponent": 0.2, "center": [0.5],
                                   "floor": 0.01}},
    "multilinear-constant": {"box": [[0.0, 1.0]], "resolution": 16, "cube_depth": 2,
                             "quadruple": dict(_FUZZ_QUAD, gamma=0.0),
                             "weights": [{"kind": "bump", "radius": 2.0}]},
    "two-to-one": {"box": [[0.0, 1.0]], "resolution": 16, "cube_depth": 2, "tol": 1e-6,
                   "quadruple": _FUZZ_QUAD,
                   "weight": {"kind": "sum", "terms": [CONST_ONE, _GAUSS]}},
    "maximal": {"box": [[0.0, 1.0]], "resolution": 16, "qtilde": 1.0, "radii_count": 4,
                "exponent": {"kind": "grid", "values": [2.0, 3.0, 2.0], "resolution": [3]},
                "function": {"kind": "translate", "shift": 0.1, "inner": _GAUSS}},
    "rk-classify": {"box": [[0.0, 1.0]], "resolution": 32, "qtilde": 1.0, "cube_depth": 1,
                    "exponent": {"kind": "constant", "value": 2.0}, "weight": CONST_ONE,
                    "family": {"kind": "translate", "count": 3, "step": 0.1, "base": _GAUSS}},
    "interp-verify": dict(_interp_config(), resolution=16, trials=2, endpoint0=_FUZZ_ENDPOINT,
                          endpoint1=_FUZZ_ENDPOINT, mixed={"qtilde": 1.5, "offset_count": 2}),
    "extrapolate": {"box": [[-2.0, 2.0]], "resolution": 32, "cube_depth": 1,
                    "target": _FUZZ_QUAD, "endpoint1": _FUZZ_QUAD,
                    "weights": [CONST_ONE], "weights1": [CONST_ONE], "thetas": [0.5],
                    "operator": {"kind": "product", "arity": 1},
                    "family": {"kind": "mollify", "count": 3, "sigma": 0.3,
                               "base": {"kind": "gaussian", "center": [0.0], "width": 0.5}}},
}
_SWAPS = ("text", True, 2.5, [1.0], {"kind": "constant"})


def _fuzz_paths(node, path=()):
    """The path of every value below a config tree's root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _fuzz_paths(child, path + (key,))


def _numeric_paths(cfg):
    """The path of every number (not a bool) in a config tree."""
    for path in _fuzz_paths(cfg):
        value = reduce(operator.getitem, path, cfg)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path


@pytest.mark.parametrize("command", sorted(_FUZZ_CONFIGS))
def test_every_numeric_config_leaf_at_an_extreme_exits_cleanly(tmp_path, command):
    """The sampled fuzz below, made exhaustive for the extreme numbers:
    every numeric leaf of the config set in turn to 0, -1, 1e308, -1e308,
    inf and -inf.  A run that exits 0 reports no NaN (an overflow may
    still read "inf"), and a run that writes a report replays it with the
    same exit code and matching results: the echo's "inf" and "-inf"
    read back as the numbers they stand for."""
    cfg_path, out = tmp_path / "config.json", tmp_path / "report.json"
    for *parents, key in _numeric_paths(_FUZZ_CONFIGS[command]):
        for value in (0, -1.0, 1e308, -1e308, math.inf, -math.inf):
            cfg = copy.deepcopy(_FUZZ_CONFIGS[command])
            reduce(operator.getitem, parents, cfg)[key] = value
            cfg_path.write_text(json.dumps(cfg))
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([command, "run", "--config", str(cfg_path), "--out", str(out),
                           "--quiet"])
            case = (*parents, key, value, err.getvalue())
            assert rc in (0, 1, 2), case
            assert "Traceback" not in err.getvalue(), case
            assert "cannot convert float" not in err.getvalue(), case
            assert "Numerical result out of range" not in err.getvalue(), case
            if rc == 0:
                assert '"nan"' not in out.read_text(), case
            if out.exists():
                replay_err, replayed = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(replay_err), contextlib.redirect_stdout(replayed):
                    replay_rc = main([command, "replay", "--report", str(out)])
                assert replay_rc == rc, (*case, replay_err.getvalue())
                assert json.loads(replayed.getvalue())["replay_match"], case


@pytest.mark.parametrize("command", sorted(_FUZZ_CONFIGS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_configs_exit_cleanly(tmp_path_factory, command, data):
    cfg = copy.deepcopy(_FUZZ_CONFIGS[command])
    *parents, key = data.draw(st.sampled_from(list(_fuzz_paths(cfg))))
    node = cfg
    for step in parents:
        node = node[step]
    old = node[key]
    mutation = data.draw(st.sampled_from(
        ["drop", None, math.nan, 1e308, 0, -1.0, -1e308, "nest",
         *(v for v in _SWAPS if type(v) is not type(old))]))
    if mutation == "drop":
        del node[key]
    else:
        node[key] = [old] if mutation == "nest" else copy.deepcopy(mutation)
    cfg_path = tmp_path_factory.mktemp("fuzz") / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "run", "--config", str(cfg_path),
                   "--out", str(cfg_path.with_name("report.json")), "--quiet"])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def fuzz_report(tmp_path_factory):
    """The report of a command's fuzz config, run once per module."""
    texts = {}

    def report(command):
        if command not in texts:
            out = tmp_path_factory.mktemp("valid") / "report.json"
            cfg_path = _write(out.parent, "config.json", _FUZZ_CONFIGS[command])
            assert main([command, "run", "--config", cfg_path, "--out", str(out),
                         "--quiet"]) == 0
            texts[command] = out.read_text()
        return json.loads(texts[command])
    return report


_DEEP = "\0nested"  # stands for the old value nested in 600 lists, written as text


@pytest.mark.parametrize("command", sorted(_FUZZ_CONFIGS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_reports_replay_cleanly(tmp_path_factory, fuzz_report, command, data):
    """A valid report of each command with one value below its command,
    config, results or provenance mutated as in the config fuzz above, or
    nested 600 lists deep: its replay exits 0, 1 or 2 with no exception
    out of ``main`` and no traceback."""
    report = fuzz_report(command)
    *parents, key = data.draw(st.sampled_from(
        [path for path in _fuzz_paths(report)
         if path[0] in ("command", "config", "results", "provenance")]))
    node = reduce(operator.getitem, parents, report)
    old = node[key]
    mutation = data.draw(st.sampled_from(
        ["drop", None, math.nan, 1e308, 0, -1.0, -1e308, "nest", _DEEP,
         *(v for v in _SWAPS if type(v) is not type(old))]))
    if mutation == "drop":
        del node[key]
    else:
        node[key] = [old] if mutation == "nest" else copy.deepcopy(mutation)
    text = json.dumps(report)
    if mutation == _DEEP:
        text = text.replace(json.dumps(_DEEP), "[" * 600 + json.dumps(old) + "]" * 600)
    path = tmp_path_factory.mktemp("fuzz") / "report.json"
    path.write_text(text)
    err, limit = io.StringIO(), sys.getrecursionlimit()
    with (contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()),
          warnings.catch_warnings()):
        warnings.simplefilter("ignore", VersionMismatchWarning)
        sys.setrecursionlimit(1000)  # Python's default, which hypothesis raises during a test
        try:
            rc = main([command, "replay", "--report", str(path)])
        finally:
            sys.setrecursionlimit(limit)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_WEIGHT_KEYS = [
    ("norm", ("weight",), "weight"), ("weight-constant", ("weight",), "weight"),
    ("multilinear-constant", ("weights", 0), "weights[0]"),
    ("two-to-one", ("weight",), "weight"), ("maximal", ("weight",), "weight"),
    ("rk-classify", ("weight",), "weight"),
    ("interp-verify", ("endpoint0", "weights", 0), "endpoint0.weights[0]"),
    ("interp-verify", ("endpoint1", "v"), "endpoint1.v"),
    ("extrapolate", ("weights", 0), "weights[0]"),
    ("extrapolate", ("weights1", 0), "weights1[0]")]


@pytest.mark.parametrize("command, path, key", _WEIGHT_KEYS,
                         ids=[f"{command}:{key}" for command, _, key in _WEIGHT_KEYS])
@pytest.mark.parametrize("weight, fault", [
    ({"kind": "power", "exponent": -1.0, "center": [0.5]}, "it is inf at flat node index"),
    ({"kind": "indicator", "box": [[0.25, 0.75]]}, "it is 0.0 at flat node index 0"),
    ({"kind": "sine", "frequency": 0.0, "phase": -math.pi / 2.0},
     "it is -1.0 at flat node index 0")], ids=["pole", "zero", "negative"])
def test_a_weight_that_is_not_positive_and_finite_exits_one_and_names_it(tmp_path, capsys,
                                                                        command, path, key,
                                                                        weight, fault):
    """The key, the first node by flat index and the value at it."""
    cfg = json.loads(json.dumps(_FUZZ_CONFIGS[command]))  # endpoints share no dict
    *head, last = path
    reduce(operator.getitem, head, cfg)[last] = weight
    rc, report, _ = _run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert f"config key '{key}': weight must satisfy 0 < w < inf at every node; {fault}" in err
    assert "np." not in err and "Traceback" not in err


def test_extrapolate_writes_null_for_a_theta_whose_endpoint_cannot_be_built(tmp_path):
    own = {"p_vec": [{"kind": "constant", "value": 2.0}], "q": {"kind": "constant", "value": 2.0},
           "r_vec": [1.5], "s": "inf"}
    cfg = dict(_FUZZ_CONFIGS["extrapolate"], endpoint1=own, thetas=[0.5, 0.9, 0.2])
    rc, report, out_path = _run(tmp_path, "extrapolate", cfg)
    assert rc == 0
    entries = report["results"]["entries"]
    assert [e["built"] for e in entries] == [False, False, True]
    for entry in entries[:2]:
        assert entry["constant0"] is None and entry["endpoint_max_ratio"] is None
        assert "nonpositive reciprocal (at point (-2.0,))" in entry["error"]
    assert '"nan"' not in out_path.read_text()


@pytest.mark.parametrize("r", [4.0, 8.0])
def test_extrapolate_without_a_default_qtilde_exits_one_and_names_the_target(tmp_path, capsys,
                                                                            r):
    # gamma = 1/2 - 1/4 = 1/4 is not below 1/r, so 1/(1/r - gamma) is no qtilde
    target = {"p_vec": [{"kind": "constant", "value": 2.0}],
              "q": {"kind": "constant", "value": 4.0}, "r_vec": [r], "s": "inf"}
    rc, report, _ = _run(tmp_path, "extrapolate",
                         dict(_FUZZ_CONFIGS["extrapolate"], target=target))
    err = capsys.readouterr().err
    assert rc == 1
    assert report is None
    assert f"the target has 1/r = {1.0 / r:g} and gamma = 0.25; give qtilde" in err
    assert "Traceback" not in err


def test_an_infinity_literal_in_a_config_is_echoed_as_inf(tmp_path, capsys):
    quad = {"p_vec": [{"kind": "constant", "value": 2.0}], "q": {"kind": "constant", "value": 4.0},
            "r_vec": [1.0], "s": math.inf}
    cfg = {"box": [[0.0, 1.0]], "resolution": 64, "cube_depth": 2, "quadruple": quad,
           "weight": CONST_ONE}
    rc, report, out_path = _run(tmp_path, "two-to-one", cfg)
    assert "Infinity" in (tmp_path / "config.json").read_text()
    assert rc == 0
    assert report["config"]["quadruple"]["s"] == "inf"
    assert "Infinity" not in out_path.read_text()
    assert main(["two-to-one", "replay", "--report", str(out_path)]) == 0
    assert json.loads(capsys.readouterr().out)["replay_match"]


# ---------------------------------------------------------------------------
# one process, many jobs: nothing a call caches may leak into the next


def test_every_fuzz_config_reports_the_same_bytes_when_run_twice_in_one_process(tmp_path):
    out = tmp_path / "report.json"
    for command, cfg in sorted(_FUZZ_CONFIGS.items()):
        texts = []
        for _ in range(2):
            out.unlink(missing_ok=True)
            rc, report, _ = _run(tmp_path, command, cfg)
            assert rc == 0, command
            texts.append(re.sub(r'"wall_time_s": [-0-9.e]+', "", out.read_text()))
        assert texts[0] == texts[1], command


def test_the_argument_parser_is_built_once_and_keeps_no_flag_between_calls(tmp_path, capsys):
    assert cli_module._parser() is cli_module._parser()
    cfg = {k: v for k, v in _interp_config(resolution=16, trials=2).items() if k != "seed"}
    rc, report, _ = _run(tmp_path, "interp-verify", cfg, "--seed", "7")
    assert rc == 0 and report["config"]["seed"] == 7
    rc, report, _ = _run(tmp_path, "interp-verify", cfg)
    assert rc == 0 and "seed" not in report["config"]
    assert report["provenance"]["seed"] is None
    cfg_path = _write(tmp_path, "config.json", _norm_config(16))
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["norm", "run", "--config", cfg_path, "--bogus"])
        assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    rc, report, _ = _run(tmp_path, "norm", _norm_config(16))
    assert rc == 0 and report["results"]["norm"] > 0


# ---------------------------------------------------------------------------
# report text: one walk from the report tree to its bytes


def _reference_jsonable(obj):
    """The report tree made JSON-native the way reports were written
    before the one-walk writer, whose text must equal
    json.dumps(_reference_jsonable(tree), sort_keys=True, indent=2,
    allow_nan=False)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _reference_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (tuple, list)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    return obj


@dataclasses.dataclass(frozen=True)
class _Pair:
    first: object
    second: object


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                     math.inf, -math.inf, math.nan, float(2 ** 60)]))
_INTS = st.integers(-2 ** 60, 2 ** 60)
_REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), _INTS, _INTS.map(np.int64), _FLOATS, _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32), st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
    arrays(st.sampled_from([float, int, bool]), array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                             max_side=3)))
# keys of every type a report may hold, some of which share a str()
_REPORT_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none(),
                         st.sampled_from([1.0, -0.0, math.inf, "1", "True", "None", "inf"]))
_REPORT_TREES = st.recursive(_REPORT_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(_REPORT_KEYS, kids, max_size=4), st.builds(_Pair, kids, kids)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_REPORT_TREES)
def test_the_one_walk_writer_gives_the_bytes_of_json_dumps(tree):
    want = json.dumps(_reference_jsonable(tree), sort_keys=True, indent=2, allow_nan=False)
    assert cli_module._render(tree) == want


@pytest.mark.parametrize("command", sorted(_FUZZ_CONFIGS))
def test_a_run_and_its_replay_never_call_json_dumps(tmp_path, capsys, monkeypatch, command):
    """The report text and the replay comparison come from _render alone;
    json.dumps would be a second walk of the same tree."""
    cfg_path = _write(tmp_path, "config.json", _FUZZ_CONFIGS[command])
    out = tmp_path / "report.json"

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    with monkeypatch.context() as m:
        m.setattr(cli_module.json, "dumps", refuse)
        assert main([command, "run", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
        assert main([command, "replay", "--report", str(out)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["replay_match"]
    assert "Traceback" not in captured.err
