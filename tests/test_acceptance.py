"""Acceptance suite: one test per shipped guarantee.

Each test prints a single summary line (visible under ``pytest -v -s``
or in captured output on failure) and then asserts, so the pass/fail
verdict and the measured margin live in the same place.  Tolerances
are stated inline next to the quantity they bound.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from varleb import (Box, DyadicCubeSet, EndpointSpace, ExponentField, Grid,
                    GridFunction, Product, QuadrupleSpec, RadiusSweep,
                    WeightField, blend_constant_check, build_extrapolation_family,
                    classify, containment_check, dual_exponent, harmonic_combine,
                    holder_constant, maximal_boundedness_probe,
                    maximal_function, modular, mollify_family, modulate_family,
                    pairing, random_simple_function, reciprocal_affine,
                    run_extrapolation_workflow, scale_exponent, translate_family,
                    two_to_one_check, verify_interpolation_bound,
                    verify_mixed_interpolation_bound, weighted_norm)
from varleb.rk import FunctionFamily

from _support import (UNIT, abs_power, family_of, grid1d, rand_exponent, rand_weight,
                      unit_weight, with_radii)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _gaussian(grid: Grid, rate: float, center: float = 0.0) -> GridFunction:
    x = grid.coords[..., 0]
    return GridFunction(grid, np.exp(-rate * (x - center) ** 2))


def _indicator(grid: Grid, lo: float, hi: float) -> GridFunction:
    x = grid.coords[..., 0]
    return GridFunction(grid, ((x >= lo) & (x <= hi)).astype(float))


# ---------------------------------------------------------------------------
# 1. homogeneity of the norm under powers


def test_criterion_01_homogeneity_identity():
    g = grid1d(1025)
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        f = random_simple_function(g, rng)
        p = rand_exponent(UNIT, rng)
        s = float(rng.uniform(0.4, 2.2))
        lhs = weighted_norm(abs_power(f, s), p, rel_tol=1e-11).value
        rhs = weighted_norm(f, scale_exponent(p, s), rel_tol=1e-11).value ** s
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 10.0
    _report(1, "homogeneity", ok,
            f"100 trials, max rel err {worst:.3e} <= 1e-7, {elapsed:.2f}s < 10s")
    assert worst <= 1e-7
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. modular/norm sandwich


def test_criterion_02_modular_norm_sandwich():
    g = grid1d(513)
    rng = np.random.default_rng(202)
    violations = 0
    margin = math.inf
    for _ in range(200):
        f = random_simple_function(g, rng)
        p = rand_exponent(UNIT, rng)
        rho = modular(f, p)
        nrm = weighted_norm(f, p, rel_tol=1e-11).value
        if rho == 0.0:
            violations += 0 if nrm == 0.0 else 1
            continue
        lo = min(rho ** (1.0 / p.p_minus), rho ** (1.0 / p.p_plus))
        hi = max(rho ** (1.0 / p.p_minus), rho ** (1.0 / p.p_plus))
        slack_lo = 1e-9 * max(1.0, lo)
        slack_hi = 1e-9 * max(1.0, hi)
        if not (lo - slack_lo <= nrm <= hi + slack_hi):
            violations += 1
        margin = min(margin, nrm - lo + slack_lo, hi + slack_hi - nrm)
    ok = violations == 0
    _report(2, "modular sandwich", ok,
            f"200 trials, {violations} violations, min margin {margin:.3e}")
    assert violations == 0


# ---------------------------------------------------------------------------
# 3. quasi-triangle inequality


def test_criterion_03_quasi_triangle_inequality():
    g = grid1d(513)
    rng = np.random.default_rng(303)
    violations = 0
    worst = 0.0
    for _ in range(200):
        f = random_simple_function(g, rng)
        h = random_simple_function(g, rng)
        p = rand_exponent(UNIT, rng)
        c = max(2.0 ** (1.0 / p.p_minus), 2.0 ** (p.p_plus / p.p_minus))
        lhs = weighted_norm(f + h, p, rel_tol=1e-10).value
        rhs = c * (weighted_norm(f, p, rel_tol=1e-10).value
                   + weighted_norm(h, p, rel_tol=1e-10).value)
        ratio = lhs / max(rhs, 1e-300)
        worst = max(worst, ratio)
        if lhs > rhs * (1.0 + 1e-9):
            violations += 1
    ok = violations == 0
    _report(3, "quasi-triangle", ok,
            f"200 pairs, {violations} violations, worst lhs/bound {worst:.6f}")
    assert violations == 0


# ---------------------------------------------------------------------------
# 4. Hoelder inequality, constant and variable exponents


def test_criterion_04_holder_inequality():
    g = grid1d(513)
    rng = np.random.default_rng(404)
    const_viol = 0
    var_viol = 0
    worst_const = 0.0
    worst_var = 0.0
    for _ in range(500):
        f = random_simple_function(g, rng)
        h = random_simple_function(g, rng)
        p = ExponentField.constant(UNIT, float(rng.uniform(1.05, 6.0)))
        bound = (1.0 + 1e-10) * (weighted_norm(f, p, rel_tol=1e-12).value
                                 * weighted_norm(h, dual_exponent(p), rel_tol=1e-12).value)
        ratio = pairing(f, h) / max(bound, 1e-300)
        worst_const = max(worst_const, ratio)
        if ratio > 1.0:
            const_viol += 1
    for _ in range(500):
        f = random_simple_function(g, rng)
        h = random_simple_function(g, rng)
        p = rand_exponent(UNIT, rng, lo=1.25, hi=5.0)
        c_h = holder_constant(p)
        bound = c_h * (1.0 + 1e-8) * (
            weighted_norm(f, p, rel_tol=1e-11).value
            * weighted_norm(h, dual_exponent(p), rel_tol=1e-11).value)
        ratio = pairing(f, h) / max(bound, 1e-300)
        worst_var = max(worst_var, ratio)
        if ratio > 1.0:
            var_viol += 1
    ok = const_viol == 0 and var_viol == 0
    _report(4, "Hoelder pairing", ok,
            f"500+500 trials, violations {const_viol}/{var_viol}, "
            f"worst ratios {worst_const:.6f}/{worst_var:.6f}")
    assert const_viol == 0
    assert var_viol == 0


# ---------------------------------------------------------------------------
# 5. two-to-one collapse identity for weight constants


def test_criterion_05_two_to_one_collapse():
    g = grid1d(1025)
    cubes = DyadicCubeSet(UNIT, 3)
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(18):
        w = rand_weight(g, rng)
        p_val = float(rng.uniform(1.6, 3.0))
        gamma = float(rng.uniform(0.0, 0.25))
        q_val = 1.0 / (1.0 / p_val - gamma)
        spec = QuadrupleSpec((ExponentField.constant(UNIT, p_val),),
                             ExponentField.constant(UNIT, q_val), (1.0,), math.inf)
        rep = two_to_one_check(w, spec, cubes)
        worst = max(worst, rep.rel_error)
        assert rep.rel_error <= 1e-6
    # degenerate a = 1: gamma = 0 makes both sides the same constant verbatim
    p2 = ExponentField.constant(UNIT, 2.0)
    spec_deg = QuadrupleSpec((p2,), p2, (1.0,), math.inf)
    rep_deg = two_to_one_check(rand_weight(g, rng), spec_deg, cubes)
    assert abs(rep_deg.a - 1.0) <= 1e-12
    assert rep_deg.rel_error <= 1e-6
    worst = max(worst, rep_deg.rel_error)
    # unit weight: every average is 1, so both constants are exactly 1
    spec_u = QuadrupleSpec((ExponentField.constant(UNIT, 2.0),),
                           ExponentField.constant(UNIT, 4.0), (1.0,), math.inf)
    rep_u = two_to_one_check(unit_weight(g), spec_u, cubes)
    unit_dev = max(abs(rep_u.lhs_constant - 1.0), abs(rep_u.rhs_constant - 1.0))
    ok = worst <= 1e-6 and unit_dev <= 1e-9
    _report(5, "two-to-one collapse", ok,
            f"20 cases, max rel err {worst:.3e} <= 1e-6, unit dev {unit_dev:.3e}")
    assert unit_dev <= 1e-9


# ---------------------------------------------------------------------------
# 6. blended weight constants against endpoint geometric means


def test_criterion_06_blend_constant_bound():
    g = grid1d(1025)
    cubes = DyadicCubeSet(UNIT, 3)
    rng = np.random.default_rng(606)
    const_viol = 0
    var_viol = 0
    worst_const = 0.0
    worst_var = 0.0
    for k in range(20):
        m = 1 + k % 2
        p0 = tuple(ExponentField.constant(UNIT, float(rng.uniform(2.2, 4.5)))
                   for _ in range(m))
        p1 = tuple(ExponentField.constant(UNIT, float(rng.uniform(2.2, 4.5)))
                   for _ in range(m))
        spec0 = QuadrupleSpec(p0, harmonic_combine(p0), (1.0,) * m, math.inf)
        spec1 = QuadrupleSpec(p1, harmonic_combine(p1), (1.0,) * m, math.inf)
        w0 = tuple(rand_weight(g, rng) for _ in range(m))
        w1 = tuple(rand_weight(g, rng) for _ in range(m))
        theta = float(rng.uniform(0.1, 0.9))
        rep = blend_constant_check(w0, w1, spec0, spec1, theta, cubes)
        assert rep.holder_factor == 1.0
        worst_const = max(worst_const, rep.ratio)
        if rep.ratio > 1.0 + 1e-9:
            const_viol += 1
    for k in range(20):
        m = 1 + k % 2
        p0 = tuple(rand_exponent(UNIT, rng, lo=2.2, hi=4.5) for _ in range(m))
        p1 = tuple(rand_exponent(UNIT, rng, lo=2.2, hi=4.5) for _ in range(m))
        spec0 = QuadrupleSpec(p0, harmonic_combine(p0), (1.0,) * m, math.inf)
        spec1 = QuadrupleSpec(p1, harmonic_combine(p1), (1.0,) * m, math.inf)
        w0 = tuple(rand_weight(g, rng) for _ in range(m))
        w1 = tuple(rand_weight(g, rng) for _ in range(m))
        theta = float(rng.uniform(0.1, 0.9))
        rep = blend_constant_check(w0, w1, spec0, spec1, theta, cubes)
        worst_var = max(worst_var, rep.ratio / rep.holder_factor)
        if not rep.passed:
            var_viol += 1
    ok = const_viol == 0 and var_viol == 0
    _report(6, "blend constant bound", ok,
            f"20+20 cases, violations {const_viol}/{var_viol}, worst ratios "
            f"{worst_const:.6f} (C=1) / {worst_var:.6f} (per Hoelder factor)")
    assert const_viol == 0
    assert var_viol == 0


# ---------------------------------------------------------------------------
# 7. containment of the finite-s class in the s = inf class


def test_criterion_07_class_containment():
    g = grid1d(1025)
    cubes = DyadicCubeSet(UNIT, 3)
    rng = np.random.default_rng(707)
    violations = 0
    worst = 0.0
    for _ in range(10):
        p_val = float(rng.uniform(1.6, 3.0))
        gamma = float(rng.uniform(0.0, 0.15))
        q_val = 1.0 / (1.0 / p_val - gamma)
        s = q_val * float(rng.uniform(1.5, 3.0))
        r = float(rng.uniform(1.0, 0.9 * p_val))
        spec = QuadrupleSpec((ExponentField.constant(UNIT, p_val),),
                             ExponentField.constant(UNIT, q_val), (r,), s)
        rep = containment_check((rand_weight(g, rng),), spec, cubes)
        worst = max(worst, rep.global_ratio / rep.holder_c)
        if not rep.passed:
            violations += 1
    for _ in range(10):
        p = rand_exponent(UNIT, rng, lo=1.5, hi=3.5)
        gamma = float(rng.uniform(0.0, 0.1))
        q = reciprocal_affine((p,), (1.0,), -gamma)
        spec = QuadrupleSpec((p,), q, (1.0,), 12.0)
        rep = containment_check((rand_weight(g, rng),), spec, cubes)
        worst = max(worst, rep.global_ratio / rep.holder_c)
        if not rep.passed:
            violations += 1
    ok = violations == 0
    _report(7, "class containment", ok,
            f"20 cases, {violations} violations, worst ratio/C_H {worst:.6f}")
    assert violations == 0


# ---------------------------------------------------------------------------
# 8. maximal operator: analytic profile and stable norm ratios


def _probe_corpus(grid: Grid) -> FunctionFamily:
    x = grid.coords[..., 0]
    return family_of([
        _gaussian(grid, 1.0 / 0.25, center=1.0),
        _gaussian(grid, 1.0 / 0.04, center=3.0),
        _gaussian(grid, 1.0 / 0.64, center=6.0),
        _indicator(grid, 0.0, 1.0),
        _indicator(grid, 2.0, 5.0),
        GridFunction(grid, np.sin(np.pi * x / 8.0) ** 2),
        GridFunction(grid, 1.0 + 0.5 * np.cos(np.pi * x)),
        GridFunction(grid, np.abs(x - 4.0) ** 0.5),
        GridFunction(grid, np.where(np.abs(x - 4.0) < 1.0,
                                    np.exp(-1.0 / np.maximum(1e-12, 1.0 - (x - 4.0) ** 2)),
                                    0.0)),
        GridFunction(grid, 0.1 + x / 10.0),
    ])


def test_criterion_08_maximal_profile_and_ratio_stability():
    # analytic anchor: the sup over balls of chi_[0,1] at x >= 1 is
    # attained at radius r = x, giving exactly 1/(2x)
    g = Grid(Box((-0.5,), (8.5,)), (8193,))
    chi = _indicator(g, 0.0, 1.0)
    sweep = with_radii(g, 64, (1.5, 2.0, 4.0))
    mf = maximal_function(chi, 1.0, sweep)
    x = g.coords[..., 0]
    max_dev = 0.0
    for point in (1.5, 2.0, 4.0):
        idx = int(np.argmin(np.abs(x - point)))
        max_dev = max(max_dev, abs(mf.values[idx] - 1.0 / (2.0 * point)))
    assert max_dev <= 1e-3

    # empirical norm ratios stay within 5% under resolution doubling
    box = Box((0.0,), (8.0,))
    cubes = DyadicCubeSet(box, 3)
    ratios = {}
    for n in (2049, 4097):
        grid = Grid(box, (n,))
        p = ExponentField.affine(box, 2.0, (0.125,))
        rep = maximal_boundedness_probe(_probe_corpus(grid), p, unit_weight(grid), 1.0,
                                        RadiusSweep.geometric(grid, 48), cubes)
        ratios[n] = rep.ratios
    drift = max(abs(f / c - 1.0) for c, f in zip(ratios[2049], ratios[4097]))
    ok = max_dev <= 1e-3 and drift <= 0.05
    _report(8, "maximal operator", ok,
            f"analytic dev {max_dev:.2e} <= 1e-3, 10-function ratio drift "
            f"{drift:.4f} <= 0.05")
    assert drift <= 0.05


# ---------------------------------------------------------------------------
# 9. compactness diagnostic verdicts, stable under family doubling


def test_criterion_09_rk_verdicts_and_doubling():
    t0 = time.perf_counter()
    # smoothing family: compact at both sizes
    g = Grid(Box((-2.0,), (2.0,)), (1025,))
    p = ExponentField.constant(g.box, 2.0)
    mol = {}
    for count in (6, 12):
        fam = mollify_family(_gaussian(g, 4.0), count, sigma=0.15, ratio=0.01)
        mol[count] = classify(fam, p, unit_weight(g), 1.0)
        assert mol[count].verdict == "consistent-compact"
        assert mol[count].net_sizes[-1] < count

    # translating family: tail condition fails, oscillation passes
    box10 = Box((0.0,), (10.0,))
    g10 = Grid(box10, (4001,))
    p10 = ExponentField.constant(box10, 2.0)
    base = _gaussian(g10, 1.0 / 0.09, center=1.0)
    tr = {}
    for count, step in ((9, 1.0), (18, 0.5)):
        fam = translate_family(base, count, step)
        tr[count] = classify(fam, p10, unit_weight(g10), 1.0)
        assert tr[count].verdict == "consistent-noncompact"
        assert tr[count].equicontinuity.passed
        assert not tr[count].vanishing.passed
        assert tr[count].net_sizes[-1] == count

    # oscillating family: equicontinuity fails, tails pass
    mod = {}
    for n, count, growth in ((4097, 8, 2.0), (8193, 16, math.sqrt(2.0))):
        gu = Grid(UNIT, (n,))
        pu = ExponentField.constant(UNIT, 2.0)
        fam = modulate_family(_gaussian(gu, 32.0, center=0.5), count,
                              base_frequency=2.0, growth=growth)
        mod[count] = classify(fam, pu, unit_weight(gu), 1.0)
        assert mod[count].verdict == "consistent-noncompact"
        assert not mod[count].equicontinuity.passed
        assert mod[count].vanishing.passed

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(9, "compactness verdicts", ok,
            "mollify/translate/modulate verdicts stable under doubling, "
            f"{elapsed:.1f}s < 60s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 10. interpolation certificates for the pointwise product


def test_criterion_10_product_interpolation():
    g = grid1d(257)
    op = Product(2)
    ones2 = (unit_weight(g), unit_weight(g))

    def space(p_val: float, q_val: float) -> EndpointSpace:
        box = g.box
        return EndpointSpace((ExponentField.constant(box, p_val),) * 2,
                             ExponentField.constant(box, q_val), ones2,
                             unit_weight(g), 1.0)

    s0 = space(4.0, 2.0)
    s1 = space(2.0, 1.0)
    rep = verify_interpolation_bound(op, s0, s1, 0.5, trials=1000, seed=42)
    assert rep.passed
    assert len(rep.violations) == 0

    h = g.box.diameter / (g.shape[0] - 1)
    mixed = verify_mixed_interpolation_bound(op, s0, s1, 0.5, qtilde=0.75,
                                             offset_count=int(0.1 / h),
                                             trials=300, seed=7)
    assert mixed.passed
    assert len(mixed.violations) == 0
    ok = len(rep.violations) == 0 and len(mixed.violations) == 0
    _report(10, "product interpolation", ok,
            f"1000 trials worst ratio {rep.worst_ratio:.6f}, 300 mixed trials "
            f"worst {mixed.worst_ratio:.6f}, 0 violations")


# ---------------------------------------------------------------------------
# 11. extrapolation: round-trip identity and end-to-end ladder


def test_criterion_11_extrapolation_roundtrip_and_ladder():
    sym = Box((-1.0,), (1.0,))
    g = Grid(sym, (2048,))
    x = g.coords[..., 0]

    def quad(p_values, q_value, r_values, s):
        return QuadrupleSpec(tuple(ExponentField.constant(sym, v) for v in p_values),
                             ExponentField.constant(sym, q_value), r_values, s)

    target = quad((8.0 / 3.0,), 8.0 / 3.0, (1.5,), 6.0)
    spec1 = quad((2.0,), 2.0, (1.5,), 6.0)
    w = (WeightField(g, np.abs(x) ** 0.0625),)
    w1 = (unit_weight(g),)
    worst_rt = 0.0
    for theta in (0.2, 0.4, 0.6):
        build = build_extrapolation_family(target, w, spec1, w1, theta)
        worst_rt = max(worst_rt, build.roundtrip_exponent_error,
                       build.roundtrip_weight_error)
        assert build.verdict0.admissible
    assert worst_rt <= 1e-10

    g2 = Grid(Box((-2.0,), (2.0,)), (1025,))
    x2 = g2.coords[..., 0]
    targ2 = QuadrupleSpec((ExponentField.constant(g2.box, 4.0),) * 2,
                          ExponentField.constant(g2.box, 2.0), (1.5, 1.5), 6.0)
    ones = (unit_weight(g2), unit_weight(g2))
    left = mollify_family(GridFunction(g2, np.exp(-4.0 * x2 ** 2)), 5,
                          sigma=0.15, ratio=0.01)
    right = mollify_family(GridFunction(g2, np.exp(-6.0 * x2 ** 2)), 5,
                           sigma=0.15, ratio=0.01)
    inputs = np.stack([left.values, right.values], axis=1)
    report = run_extrapolation_workflow(Product(2), inputs, g2,
                                        targ2, ones, targ2, ones,
                                        thetas=(0.25, 0.4, 0.5, 0.6, 0.75))
    assert report.rk is not None
    assert report.rk.verdict == "consistent-compact"
    for entry in report.entries:
        assert entry.built and entry.admissible and entry.roundtrip_ok
        assert entry.error == ""
    ok = worst_rt <= 1e-10 and report.rk.verdict == "consistent-compact"
    _report(11, "extrapolation", ok,
            f"round-trip error {worst_rt:.2e} <= 1e-10, ladder of "
            f"{len(report.entries)} thetas all consistent-compact")


# ---------------------------------------------------------------------------
# 12. convergence discipline for the quantitative criteria


def test_criterion_12_resolution_convergence():
    # criterion 1 representative: a power norm of a smooth function
    f_norm = {}
    for n in (512, 1024, 2048):
        grid = Grid(UNIT, (n + 1,))
        p = ExponentField.affine(UNIT, 2.0, (0.8,))
        f = _gaussian(grid, 1.0 / 0.0484, center=0.35)
        f_norm[n] = weighted_norm(abs_power(f, 1.3), p, rel_tol=1e-12).value
    d1 = (abs(f_norm[1024] - f_norm[512]), abs(f_norm[2048] - f_norm[1024]))

    # criterion 5 representative: the 1-linear constant of a smooth weight
    cubes = DyadicCubeSet(UNIT, 3)
    spec = QuadrupleSpec((ExponentField.constant(UNIT, 2.0),),
                         ExponentField.constant(UNIT, 4.0), (1.0,), math.inf)
    c_two = {}
    for n in (512, 1024, 2048):
        grid = Grid(UNIT, (n + 1,))
        xg = grid.coords[..., 0]
        w = WeightField(grid, np.exp(0.4 * np.sin(2.0 * np.pi * xg) + 0.1 * xg))
        c_two[n] = two_to_one_check(w, spec, cubes, rel_tol=1e-11).lhs_constant
    d5 = (abs(c_two[1024] - c_two[512]), abs(c_two[2048] - c_two[1024]))

    # criterion 8 representative: maximal-to-input norm ratio at a fixed
    # radius ladder (shared across resolutions so only quadrature moves)
    box = Box((0.0,), (4.0,))
    radii = RadiusSweep(tuple(np.geomspace(0.004, 4.0, 48)))
    p2 = ExponentField.constant(box, 2.0)
    ratio = {}
    for n in (1024, 2048, 4096):
        grid = Grid(box, (n + 1,))
        chi = _indicator(grid, 0.0, 1.0)
        mf = maximal_function(chi, 1.0, radii)
        ratio[n] = (weighted_norm(mf, p2, rel_tol=1e-11).value
                    / weighted_norm(chi, p2, rel_tol=1e-11).value)
    d8 = (abs(ratio[2048] - ratio[1024]), abs(ratio[4096] - ratio[2048]))

    checks = {
        "norm": (d1, 1e-10),
        "two-to-one": (d5, 1e-9),
        "maximal": (d8, 1e-6),
    }
    ok = True
    parts = []
    for name, ((coarse, fine), floor) in checks.items():
        bound = max(4.0 * coarse, floor)
        ok = ok and fine <= bound
        parts.append(f"{name} {coarse:.2e}->{fine:.2e}")
    _report(12, "resolution convergence", ok,
            "refinement deltas contract: " + ", ".join(parts))
    for name, ((coarse, fine), floor) in checks.items():
        assert fine <= max(4.0 * coarse, floor), name
