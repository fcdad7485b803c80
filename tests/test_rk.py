"""Tests for the compactness diagnostic: condition profiles, the
covering-net oracle, family generators, and the combined verdict."""

import math

import numpy as np
import pytest

import varleb.norms as norms_module
from varleb.errors import DomainError, HypothesisFailureError
from varleb.exponent import ExponentField
from varleb.field import Box, Grid, GridFunction, WeightField, ball_mask
from varleb.maximal import RadiusSweep
from varleb.norms import weighted_norm
from varleb.rk import (FunctionFamily, classify, dilate_family,
                       eps_net_oracle, equicontinuity_profile, family_distance_matrix,
                       mollify, mollify_family, modulate_family,
                       translate_family, uniform_bound_profile,
                       vanishing_profile)

from _support import UNIT, family_of, unit_weight


def _gaussian(grid: Grid, rate: float, center: float = 0.0) -> GridFunction:
    x = grid.coords[..., 0]
    return GridFunction(grid, np.exp(-rate * (x - center) ** 2))


def _indicator(grid: Grid, lo: float, hi: float) -> GridFunction:
    x = grid.coords[..., 0]
    return GridFunction(grid, ((x >= lo) & (x <= hi)).astype(float))


# ---------------------------------------------------------------------------
# family container and generators


def test_family_rejects_empty_and_mixed_grids():
    g = Grid(UNIT, (65,))
    other = Grid(UNIT, (129,))
    with pytest.raises(DomainError, match=r"\(0, 65\) are not a stack of one or more \(65,\)"):
        FunctionFamily(g, np.empty((0, 65)))
    with pytest.raises(DomainError, match=r"\(2, 129\) are not a stack of one or more \(65,\)"):
        FunctionFamily(g, np.ones((2, 129)))
    with pytest.raises(DomainError, match="not a stack"):
        FunctionFamily(g, np.ones(65))
    with pytest.raises(DomainError, match="family members live on different grids"):
        family_of((GridFunction(g, np.ones(g.shape)),
                   GridFunction(other, np.ones(other.shape))))
    fam = family_of((GridFunction(g, np.ones(g.shape)),) * 3)
    assert len(fam) == 3
    assert fam.grid == g
    assert fam.values.shape == (3, 65)


def test_mollify_below_grid_step_is_identity():
    g = Grid(UNIT, (257,))
    f = _gaussian(g, 8.0, center=0.5)
    out = mollify(f, 0.5 * g.steps[0])
    assert np.array_equal(out.values, f.values)


def test_mollify_smooths_and_preserves_mass_scale():
    g = Grid(UNIT, (1025,))
    f = _indicator(g, 0.45, 0.55)
    smooth = mollify(f, 0.05)
    assert np.abs(smooth.values).max() < np.abs(f.values).max()
    assert abs(float(smooth.values.sum() - f.values.sum())) < 1e-8


def test_modulate_family_guards():
    g = Grid(UNIT, (257,))
    base = GridFunction(g, np.ones(g.shape))
    with pytest.raises(DomainError):
        modulate_family(base, 4, growth=1.0)
    # quarter of the grid rate is 64 cycles; growth 2 from 1 tops out at 128
    with pytest.raises(DomainError):
        modulate_family(base, 8, base_frequency=1.0, growth=2.0)
    fam = modulate_family(base, 7, base_frequency=1.0, growth=2.0)
    assert len(fam) == 7


def test_translate_family_shifts_along_axis_zero():
    box = Box((0.0,), (10.0,))
    g = Grid(box, (1001,))
    base = _indicator(g, 0.0, 1.0)
    fam = translate_family(base, 9, 1.0)
    x = g.coords[..., 0]
    # the k-th member is the indicator of [k, k+1], zero filled at the edge
    for k in (0, 4, 8):
        expect = ((x >= k) & (x <= k + 1)).astype(float)
        assert np.allclose(fam.values[k], expect, atol=1e-12)


@pytest.mark.parametrize("step", [math.inf, -math.inf, 1e308])
def test_translate_family_at_an_unbounded_step_is_the_base_then_zeros(step):
    g = Grid(Box((0.0,), (10.0,)), (101,))
    base = _indicator(g, 0.0, 1.0)
    fam = translate_family(base, 3, step)
    assert np.array_equal(fam.values[0], base.values)
    assert not fam.values[1:].any()


def test_dilate_family_compresses_and_zero_fills():
    g = Grid(Box((-2.0,), (2.0,)), (1025,))
    base = _gaussian(g, 1.0)
    fam = dilate_family(base, 3, ratio=0.5)
    x = g.coords[..., 0]
    # member 1 samples f(2x); x = 0.25 and 2x = 0.5 are both grid nodes
    i = int(np.argmin(np.abs(x - 0.25)))
    j = int(np.argmin(np.abs(x - 0.5)))
    assert abs(fam.values[1][i] - base.values[j]) < 1e-12
    # 2x leaves the box for |x| > 1, where the dilate is zero filled
    k = int(np.argmin(np.abs(x - 1.5)))
    assert fam.values[1][k] == 0.0
    g2 = Grid(Box((0.0, 0.0), (1.0, 1.0)), (17, 17))
    with pytest.raises(DomainError):
        dilate_family(GridFunction(g2, np.ones(g2.shape)), 2)


@pytest.mark.parametrize("ratio", [0.0, -0.5, math.inf, math.nan])
def test_dilate_family_refuses_a_ratio_that_is_not_finite_and_positive(ratio):
    g = Grid(Box((-2.0,), (2.0,)), (65,))
    with pytest.raises(DomainError, match="ratio"):
        dilate_family(_gaussian(g, 1.0), 3, ratio=ratio)


# ---------------------------------------------------------------------------
# uniform bound profile


def test_uniform_bound_singleton_gaussian_matches_analytic_value():
    g = Grid(Box((-8.0,), (8.0,)), (8193,))
    p = ExponentField.constant(g.box, 2.0)
    fam = family_of((_gaussian(g, 1.0),))
    report = uniform_bound_profile(fam, p)
    assert abs(report.sup - (math.pi / 2.0) ** 0.25) <= 1e-6


def test_uniform_bound_scalar_family_is_ten_times_base_norm():
    g = Grid(UNIT, (1025,))
    p = ExponentField.constant(UNIT, 2.5)
    base = _gaussian(g, 12.0, center=0.5)
    fam = family_of(tuple(float(c) * base for c in range(1, 11)))
    report = uniform_bound_profile(fam, p)
    single = uniform_bound_profile(family_of((base,)), p).sup
    assert abs(report.sup - 10.0 * single) <= 1e-9
    assert report.sup == max(report.per_member)


def test_uniform_bound_zero_member_contributes_zero():
    g = Grid(UNIT, (257,))
    p = ExponentField.constant(UNIT, 2.0)
    fam = family_of((_gaussian(g, 4.0, center=0.5),
                     GridFunction(g, np.zeros(g.shape))))
    report = uniform_bound_profile(fam, p)
    assert report.per_member[1] == 0.0
    assert report.sup == report.per_member[0]


def test_uniform_bound_explicit_unit_weight_matches_unweighted():
    g = Grid(UNIT, (513,))
    p = ExponentField.constant(UNIT, 3.0)
    fam = family_of((_gaussian(g, 6.0, center=0.3),))
    plain = uniform_bound_profile(fam, p).sup
    weighted = uniform_bound_profile(fam, p, unit_weight(g)).sup
    assert abs(plain - weighted) <= 1e-12 * max(plain, 1.0)


# ---------------------------------------------------------------------------
# equicontinuity profile


def test_equicontinuity_constant_family_is_identically_zero():
    g = Grid(UNIT, (513,))
    p = ExponentField.constant(UNIT, 2.0)
    fam = family_of((GridFunction(g, np.full(g.shape, 1.0)),
                     GridFunction(g, np.full(g.shape, 2.0))))
    sweep = RadiusSweep((g.steps[0], 4.0 * g.steps[0], 16.0 * g.steps[0]))
    report = equicontinuity_profile(fam, p, None, 1.0, sweep, threshold=1e-9)
    assert report.profile == (0.0, 0.0, 0.0)
    assert report.passed


def test_equicontinuity_mollified_bumps_pass():
    g = Grid(UNIT, (1025,))
    p = ExponentField.constant(UNIT, 2.0)
    base = _gaussian(g, 4.0, center=0.5)
    fam = mollify_family(base, 5, sigma=0.1)
    sup = uniform_bound_profile(fam, p).sup
    h = g.steps[0]
    sweep = RadiusSweep(tuple(h * 2.0 ** k for k in range(7)))
    report = equicontinuity_profile(fam, p, None, 1.0, sweep,
                                    threshold=1e-2 * sup)
    assert report.passed
    # oscillation of a smooth bump scales with the radius
    assert report.profile[0] < report.profile[-1]
    assert report.profile[2] > 2.0 * report.profile[0]


def test_equicontinuity_fast_oscillation_family_fails():
    g = Grid(UNIT, (1025,))
    p = ExponentField.constant(UNIT, 2.0)
    base = GridFunction(g, np.ones(g.shape))
    fam = modulate_family(base, 7, base_frequency=1.0, growth=2.0)
    sup = uniform_bound_profile(fam, p).sup
    h = g.steps[0]
    sweep = RadiusSweep(tuple(h * 2.0 ** k for k in range(7)))
    report = equicontinuity_profile(fam, p, None, 1.0, sweep,
                                    threshold=1e-2 * sup)
    assert not report.passed
    assert report.profile[0] > 0.1


def test_equicontinuity_refuses_a_nan_member_naming_its_node():
    g = Grid(UNIT, (65,))
    p = ExponentField.constant(UNIT, 2.0)
    bad = np.ones(g.shape)
    bad[30] = math.nan
    fam = family_of((GridFunction(g, np.ones(g.shape)), GridFunction(g, bad)))
    sweep = RadiusSweep((g.steps[0], 2.0 * g.steps[0]))
    with pytest.raises(DomainError, match="NaN at flat node index 30 of member 1"):
        equicontinuity_profile(fam, p, None, 1.0, sweep, threshold=1e-9)


# ---------------------------------------------------------------------------
# vanishing profile


def test_vanishing_compact_support_is_zero_beyond_support_radius():
    g = Grid(Box((-2.0,), (2.0,)), (1025,))
    p = ExponentField.constant(g.box, 2.0)
    fam = family_of((_indicator(g, -0.5, 0.5),
                     0.5 * _indicator(g, -0.25, 0.25)))
    report = vanishing_profile(fam, p, None, (0.6, 1.0, 1.5), threshold=1e-9)
    assert report.profile == (0.0, 0.0, 0.0)
    assert report.passed


def test_vanishing_translate_family_stays_at_unit_norm_and_fails():
    # the box is centred at 0, so the balls B(0, R) are about the box center
    box = Box((-10.0,), (10.0,))
    g = Grid(box, (2001,))
    p = ExponentField.constant(box, 2.0)
    base = _indicator(g, 0.0, 1.0)
    fam = translate_family(base, 9, 1.0)
    radii = tuple(float(r) for r in range(1, 10))
    report = vanishing_profile(fam, p, None, radii, threshold=1e-2)
    # some translate lies fully outside B(0, R) up to R = 8, and the tail
    # norm of a whole translate is the norm of a unit indicator
    assert all(abs(v - 1.0) < 1e-2 for v in report.profile[:-1])
    assert report.profile[-1] > report.threshold
    assert not report.passed


def test_vanishing_gaussian_tail_matches_erfc_and_passes():
    g = Grid(Box((-8.0,), (8.0,)), (8193,))
    p = ExponentField.constant(g.box, 2.0)
    fam = family_of((_gaussian(g, 1.0),))
    report = vanishing_profile(fam, p, None, (1.0, 2.0, 3.0, 4.0),
                               threshold=1e-2 * (math.pi / 2.0) ** 0.25)
    assert report.passed
    assert all(a >= b - 1e-15 for a, b in zip(report.profile, report.profile[1:]))
    tail = math.sqrt(math.sqrt(math.pi / 2.0) * math.erfc(math.sqrt(2.0)))
    assert abs(report.profile[0] - tail) <= 1e-3


def test_vanishing_profile_nonincreasing_for_arbitrary_family():
    g = Grid(Box((0.0,), (10.0,)), (501,))
    p = ExponentField.constant(g.box, 2.5)
    rng = np.random.default_rng(7)
    fam = family_of(GridFunction(g, rng.normal(size=g.shape)) for _ in range(4))
    report = vanishing_profile(fam, p, None, (1.0, 2.0, 3.0, 4.0), threshold=1e-2)
    assert all(a >= b - 1e-12 for a, b in zip(report.profile, report.profile[1:]))


# ---------------------------------------------------------------------------
# covering-net oracle


def test_net_separated_translates_need_one_center_each():
    box = Box((0.0,), (10.0,))
    g = Grid(box, (1001,))
    p = ExponentField.constant(box, 2.0)
    fam = translate_family(_indicator(g, 0.0, 1.0), 10, 1.0)
    d = family_distance_matrix(fam, p)
    delta = float(d[d > 0].min())
    report = eps_net_oracle(d, 0.4 * delta)
    assert report.size == 10


def test_net_of_identical_copies_has_size_one():
    g = Grid(UNIT, (257,))
    p = ExponentField.constant(UNIT, 2.0)
    f = _gaussian(g, 4.0, center=0.5)
    fam = family_of((f,) * 10)
    report = eps_net_oracle(family_distance_matrix(fam, p), 1e-9)
    assert report.size == 1
    assert report.max_distance == 0.0


def test_net_at_family_diameter_has_size_one():
    g = Grid(UNIT, (513,))
    p = ExponentField.constant(UNIT, 2.0)
    fam = mollify_family(_gaussian(g, 4.0, center=0.5), 5, sigma=0.1)
    d = family_distance_matrix(fam, p)
    report = eps_net_oracle(d, float(d.max()))
    assert report.size == 1


def test_net_size_nonincreasing_in_eps():
    box = Box((0.0,), (10.0,))
    g = Grid(box, (1001,))
    p = ExponentField.constant(box, 2.0)
    fam = translate_family(_gaussian(g, 10.0, center=1.0), 8, 1.0)
    d = family_distance_matrix(fam, p)
    diam = float(d.max())
    sizes = [eps_net_oracle(d, diam * 2.0 ** -k).size
             for k in range(7)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[0] == 1


def test_net_rejects_negative_eps_and_covers_within_eps():
    g = Grid(UNIT, (257,))
    p = ExponentField.constant(UNIT, 2.0)
    fam = mollify_family(_gaussian(g, 8.0, center=0.5), 4, sigma=0.2, ratio=0.5)
    d = family_distance_matrix(fam, p)
    with pytest.raises(DomainError):
        eps_net_oracle(d, -0.1)
    report = eps_net_oracle(d, 0.5 * float(d.max()))
    assert report.max_distance <= report.eps
    for i, c in enumerate(report.assignment):
        assert d[i, c] <= report.eps + 1e-15


# ---------------------------------------------------------------------------
# classification


def test_classify_mollified_family_is_consistent_compact():
    g = Grid(Box((-2.0,), (2.0,)), (1025,))
    p = ExponentField.constant(g.box, 2.0)
    w = unit_weight(g)
    fam = mollify_family(_gaussian(g, 4.0), 6, sigma=0.15, ratio=0.01)
    report = classify(fam, p, w, 1.0)
    assert report.verdict == "consistent-compact"
    assert report.equicontinuity.passed and report.vanishing.passed
    assert report.plateau and not report.growth
    assert report.net_sizes[-1] < len(fam)
    assert report.gate.constant >= 1.0 - 1e-9


def test_classify_translate_family_fails_the_tail_condition():
    box = Box((0.0,), (10.0,))
    g = Grid(box, (4001,))
    p = ExponentField.constant(box, 2.0)
    w = unit_weight(g)
    fam = translate_family(_gaussian(g, 1.0 / 0.09, center=1.0), 9, 1.0)
    report = classify(fam, p, w, 1.0)
    assert report.verdict == "consistent-noncompact"
    assert report.equicontinuity.passed
    assert not report.vanishing.passed
    assert report.growth
    assert report.net_sizes[-1] == len(fam)


def test_classify_modulated_family_fails_equicontinuity():
    g = Grid(UNIT, (1025,))
    p = ExponentField.constant(UNIT, 2.0)
    w = unit_weight(g)
    base = _gaussian(g, 32.0, center=0.5)
    fam = modulate_family(base, 6, base_frequency=2.0, growth=2.0)
    report = classify(fam, p, w, 1.0)
    assert report.verdict == "consistent-noncompact"
    assert not report.equicontinuity.passed
    assert report.vanishing.passed
    assert report.growth


def test_classify_calls_a_one_member_family_inconclusive_not_noncompact():
    """An indicator's jump fails equicontinuity and one function is its
    own net at every eps, but a single function is compact."""
    g = Grid(UNIT, (4097,))
    fam = family_of([_indicator(g, 0.25, 0.75)])
    report = classify(fam, ExponentField.constant(UNIT, 2.0), unit_weight(g), 1.0)
    assert not report.equicontinuity.passed
    assert report.net_sizes[-1] == len(fam) == 1
    assert not report.growth
    assert report.verdict == "inconclusive"


@pytest.mark.parametrize("count, verdict", [(3, "consistent-compact"), (1, "inconclusive")])
def test_classify_passes_both_conditions_of_an_identically_zero_family(count, verdict):
    """A zero family has all-zero profiles and a zero threshold: each
    condition passes at its exact 0, and the one net of every eps
    plateaus below a family of two or more members."""
    g = Grid(UNIT, (257,))
    fam = translate_family(GridFunction(g, np.zeros(g.shape)), count, 0.1)
    report = classify(fam, ExponentField.constant(UNIT, 2.0), unit_weight(g), 1.0)
    for condition in (report.equicontinuity, report.vanishing):
        assert condition.threshold == 0.0 and not any(condition.profile)
        assert condition.passed
    assert report.net_sizes == (1,) * 9
    assert report.verdict == verdict


def test_classify_gate_rejects_qtilde_at_or_above_p_minus():
    g = Grid(UNIT, (257,))
    p = ExponentField.constant(UNIT, 2.0)
    w = unit_weight(g)
    fam = family_of((_gaussian(g, 4.0, center=0.5),))
    with pytest.raises(HypothesisFailureError):
        classify(fam, p, w, 2.0)
    with pytest.raises(HypothesisFailureError):
        classify(fam, p, w, 2.5)


@pytest.mark.parametrize("qtilde", [0.0, -1.0, math.nan, math.inf])
def test_classify_gate_refuses_a_qtilde_that_is_not_finite_and_positive(qtilde):
    g = Grid(UNIT, (129,))
    fam = family_of((_gaussian(g, 4.0, center=0.5),))
    with pytest.raises(DomainError, match="qtilde must be a finite positive constant"):
        classify(fam, ExponentField.constant(UNIT, 2.0), unit_weight(g), qtilde)


def test_classify_is_deterministic():
    g = Grid(UNIT, (513,))
    p = ExponentField.constant(UNIT, 2.0)
    w = unit_weight(g)
    fam = mollify_family(_gaussian(g, 8.0, center=0.5), 5, sigma=0.1)
    a = classify(fam, p, w, 1.0)
    b = classify(fam, p, w, 1.0)
    assert a.verdict == b.verdict
    assert a.net_sizes == b.net_sizes
    assert a.uniform.sup == b.uniform.sup
    assert a.eps_ladder == b.eps_ladder


def test_classify_default_ladder_spans_the_diameter():
    g = Grid(UNIT, (513,))
    p = ExponentField.constant(UNIT, 2.0)
    w = unit_weight(g)
    fam = mollify_family(_gaussian(g, 8.0, center=0.5), 4, sigma=0.1)
    report = classify(fam, p, w, 1.0)
    assert len(report.eps_ladder) == 9
    assert abs(report.eps_ladder[0] - report.diameter) < 1e-15
    assert abs(report.eps_ladder[-1] - report.diameter / 256.0) < 1e-15


def test_classify_probes_the_fixed_radius_ladders_about_the_box_center():
    box = Box((0.0,), (4.0,))
    g = Grid(box, (65,))
    fam = family_of((_gaussian(g, 4.0, center=1.5), _gaussian(g, 4.0, center=2.5)))
    p, w = ExponentField.constant(box, 2.0), unit_weight(g)
    report = classify(fam, p, w, 1.0)
    # the grid step 1/16 doubled six times, and the diameter 4 times 1/8 .. 7/16
    assert report.equicontinuity.radii == (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)
    assert report.vanishing.radii == (0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
    # each tail is cut outside the ball about the box center 2
    for radius, got in zip(report.vanishing.radii, report.vanishing.profile):
        outside = ~ball_mask(g, (2.0,), radius)
        want = max(weighted_norm(GridFunction(g, v * outside), p, w).value for v in fam.values)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_family_profiles_solve_each_family_in_one_row_call(monkeypatch):
    """A work-count guard: the distance matrix solves all pairs in one
    call and the uniform bound all members in one, each row as
    `weighted_norm` solves it alone."""
    calls = []
    real = norms_module.lux_rows

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    box = Box((0.0,), (4.0,))
    g = Grid(box, (801,))
    p = ExponentField.affine(box, 1.5, (0.5,))
    w = WeightField(g, 1.0 + g.coords[..., 0])
    fam = translate_family(_gaussian(g, 20.0, 1.0), 6, 0.4)
    monkeypatch.setattr(norms_module, "lux_rows", counting)
    d = family_distance_matrix(fam, p, w)
    assert len(calls) == 1 and calls[0][0] == 15
    bound = uniform_bound_profile(fam, p, w)
    assert len(calls) == 2 and calls[1][0] == 6
    monkeypatch.undo()
    for i in range(6):
        assert bound.per_member[i] == pytest.approx(
            weighted_norm(GridFunction(g, fam.values[i]), p, w).value, rel=1e-12)
        for j in range(6):
            diff = GridFunction(g, fam.values[i] - fam.values[j])
            want = 0.0 if i == j else weighted_norm(diff, p, w).value
            assert d[i, j] == pytest.approx(want, rel=1e-12)


def test_a_mollify_ratio_above_one_whose_last_scale_overflows_is_refused():
    base = _gaussian(Grid(UNIT, (65,)), 20.0, 0.5)
    with pytest.raises(DomainError, match="mollify ratio 10.0 to the power count - 1 = 399 "
                                          "leaves the range of positive floats"):
        mollify_family(base, 400, 0.1, ratio=10.0)
