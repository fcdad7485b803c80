"""Muckenhoupt constants and the weight-algebra identity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varleb.norms as norms_module
import varleb.weights as weights_module
from varleb import (ArityMismatchError, Box, DomainError, DyadicCubeSet,
                    EmptyRegionError, ExponentField, Grid,
                    HypothesisFailureError, OverflowToInfinityError, QuadrupleSpec,
                    SpecMismatchError, WeightField, ap_constant, blend_constant_check,
                    component_exponent, containment_check, dual_exponent,
                    multilinear_constant, nu_exponent, reciprocal_affine,
                    two_to_one_check)
from varleb.exponent import scale_exponent
from varleb.field import CubeGroup, box_slices, realize_function
from varleb.norms import lux_flat
from varleb.weights import (OVERFLOW_THRESHOLD, _bounded, _cube_scan, _scan_plan,
                            _scan_solves, gate_constant)

from _support import UNIT, SYM, all_cubes, rand_exponent, rand_weight, unit_weight

GRID = Grid(UNIT, (1025,))
CUBES = DyadicCubeSet(UNIT, 3)

# an even node count keeps the singularity of |x|^a off the lattice
SGRID = Grid(SYM, (2048,))
SCUBES = DyadicCubeSet(SYM, 3)


def const_p(value, box=UNIT):
    return ExponentField.constant(box, value)


def abs_power_weight(grid, exponent):
    return WeightField(grid, np.abs(grid.coords[..., 0]) ** exponent)


# -- apConstant ---------------------------------------------------------


def test_ap_constant_unit_weight():
    rep = ap_constant(unit_weight(GRID), const_p(2.0), CUBES)
    assert rep.constant == pytest.approx(1.0, abs=1e-9)
    assert rep.cube_count == len(all_cubes(CUBES))


def test_ap_constant_scalar_weight_cancels():
    w = WeightField(GRID, np.full(GRID.shape, 37.5))
    rep = ap_constant(w, const_p(3.0), CUBES)
    assert rep.constant == pytest.approx(1.0, abs=1e-9)


def test_ap_constant_power_weight_depth_stable():
    w = abs_power_weight(SGRID, 0.25)
    c6 = ap_constant(w, const_p(2.0, SYM), DyadicCubeSet(SYM, 6)).constant
    c7 = ap_constant(w, const_p(2.0, SYM), DyadicCubeSet(SYM, 7)).constant
    assert math.isfinite(c6) and c6 > 1.0
    assert c7 >= c6 - 1e-12          # deeper scan never loses cubes
    assert c7 <= c6 * 1.02


def test_ap_constant_per_cube_floor_constant_exponent():
    rng = np.random.default_rng(21)
    w = rand_weight(GRID, rng)
    rep = ap_constant(w, const_p(2.5), CUBES)
    assert min(rep.per_cube) >= 1.0 - 1e-9
    assert rep.constant == pytest.approx(max(rep.per_cube))


def test_ap_constant_dilation_invariance():
    rng = np.random.default_rng(22)
    w = rand_weight(GRID, rng)
    p = const_p(2.0)
    base = ap_constant(w, p, CUBES).constant
    scaled = ap_constant(WeightField(GRID, w.values * 5.0), p, CUBES).constant
    assert scaled == pytest.approx(base, rel=1e-10)


def test_ap_constant_monotone_in_cube_set():
    rng = np.random.default_rng(23)
    w = rand_weight(GRID, rng)
    p = ExponentField.affine(UNIT, 2.0, (0.5,))
    shallow = ap_constant(w, p, DyadicCubeSet(UNIT, 2)).constant
    deep = ap_constant(w, p, DyadicCubeSet(UNIT, 4)).constant
    assert deep >= shallow - 1e-12


# -- gate of the compactness criterion and the maximal probe ------------


@pytest.mark.parametrize("seed, qtilde", [(31, 1.0), (32, 0.5), (33, 1.05)])
def test_gate_constant_is_the_ap_constant_of_the_powered_weight(seed, qtilde):
    rng = np.random.default_rng(seed)
    w = rand_weight(GRID, rng)
    p = rand_exponent(UNIT, rng, lo=1.1, hi=4.0)
    gate = gate_constant(w, p, qtilde, CUBES)
    assert gate == ap_constant(w.power(qtilde), scale_exponent(p, 1.0 / qtilde), CUBES)


@pytest.mark.parametrize("qtilde", [0.0, -0.0, -1.0, -1e308, math.nan, math.inf])
def test_gate_constant_refuses_a_qtilde_that_is_not_finite_and_positive(qtilde):
    with pytest.raises(DomainError, match="qtilde must be a finite positive constant, got"):
        gate_constant(unit_weight(GRID), const_p(2.0), qtilde, CUBES)


def test_gate_constant_fails_the_hypothesis_at_or_above_p_minus_and_on_overflow():
    w = unit_weight(GRID)
    for qtilde in (2.0, 2.5):
        with pytest.raises(HypothesisFailureError, match=r"is not below p_- = 2\.0"):
            gate_constant(w, const_p(2.0), qtilde, CUBES)
    spike = np.ones(GRID.shape)
    spike[100] = 1e200
    with pytest.raises(HypothesisFailureError,
                       match="gate weight condition fails: cube constant beyond 1e[+]150 on cube"):
        gate_constant(WeightField(GRID, spike), const_p(2.0), 1.0, CUBES)


# -- multilinear constant ------------------------------------------------


def test_multilinear_all_ones_cancels():
    spec = QuadrupleSpec((const_p(4.0), const_p(4.0)), const_p(2.0),
                         (1.0, 1.0), math.inf)
    ones = unit_weight(GRID)
    rep = multilinear_constant((ones, ones), spec, CUBES)
    assert rep.constant == pytest.approx(1.0, abs=1e-9)


def test_multilinear_reduces_to_ap_constant():
    rng = np.random.default_rng(31)
    for _ in range(20):
        w = rand_weight(GRID, rng)
        p = const_p(float(rng.uniform(1.5, 4.0)))
        spec = QuadrupleSpec((p,), p, (1.0,), math.inf)
        two_index = multilinear_constant((w,), spec, CUBES)
        classical = ap_constant(w, p, CUBES)
        assert two_index.constant == pytest.approx(classical.constant, rel=1e-9)


def test_multilinear_unit_factor_drops_out():
    """With w2 = 1 the bilinear constant of (w1, 1) equals the 1-linear
    two-index constant of w1 against (p1, q, r1, s): the extra factor
    only contributes a power of |Q| that the cube-measure prefactor
    absorbs."""
    w1 = abs_power_weight(SGRID, 0.125)
    ones = unit_weight(SGRID)
    p4 = const_p(4.0, SYM)
    spec2 = QuadrupleSpec((p4, p4), const_p(2.0, SYM), (1.0, 1.0), math.inf)
    spec1 = QuadrupleSpec((p4,), const_p(2.0, SYM), (1.0,), math.inf)
    rep2 = multilinear_constant((w1, ones), spec2, SCUBES)
    rep1 = multilinear_constant((w1,), spec1, SCUBES)
    assert rep2.constant == pytest.approx(rep1.constant, rel=1e-9)
    for a, b in zip(rep2.per_cube, rep1.per_cube):
        assert a == pytest.approx(b, rel=1e-9)


def test_multilinear_arity_mismatch():
    spec = QuadrupleSpec((const_p(4.0), const_p(4.0)), const_p(2.0),
                         (1.0, 1.0), math.inf)
    with pytest.raises(ArityMismatchError):
        multilinear_constant((unit_weight(GRID),), spec, CUBES)


# -- two-to-one identity -------------------------------------------------


def test_two_to_one_degenerate_a_equals_one():
    rng = np.random.default_rng(41)
    w = rand_weight(GRID, rng)
    p = const_p(2.0)
    spec = QuadrupleSpec((p,), p, (1.0,), math.inf)   # gamma = 0, a = 1
    rep = two_to_one_check(w, spec, CUBES)
    assert rep.a == pytest.approx(1.0)
    assert rep.rel_error <= 1e-9


def test_two_to_one_fractional_example():
    w = abs_power_weight(SGRID, 0.125)
    q = const_p(4.0, SYM)                              # 1/q = 1/2 - 1/4
    spec = QuadrupleSpec((const_p(2.0, SYM),), q, (1.0,), math.inf)
    rep = two_to_one_check(w, spec, SCUBES)
    assert rep.a == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rep.rel_error <= 1e-6
    assert rep.max_cube_rel_error <= 1e-6


def test_two_to_one_unit_weight():
    q = const_p(4.0)
    spec = QuadrupleSpec((const_p(2.0),), q, (1.0,), math.inf)
    rep = two_to_one_check(unit_weight(GRID), spec, CUBES)
    assert rep.lhs_constant == pytest.approx(1.0, abs=1e-9)
    assert rep.rhs_constant == pytest.approx(1.0, abs=1e-9)


def test_two_to_one_random_suite():
    rng = np.random.default_rng(42)
    for _ in range(6):
        w = rand_weight(GRID, rng)
        p_val = float(rng.uniform(1.6, 3.0))
        gamma = float(rng.uniform(0.0, 0.25))
        q_val = 1.0 / (1.0 / p_val - gamma)
        spec = QuadrupleSpec((const_p(p_val),), const_p(q_val), (1.0,), math.inf)
        rep = two_to_one_check(w, spec, CUBES)
        assert rep.rel_error <= 1e-6


# -- containment ----------------------------------------------------------


def test_containment_unit_weights():
    spec = QuadrupleSpec((const_p(4.0), const_p(4.0)), const_p(2.0),
                         (1.0, 1.0), 8.0)
    ones = unit_weight(GRID)
    rep = containment_check((ones, ones), spec, CUBES)
    assert rep.holder_c == pytest.approx(1.0)
    assert rep.passed and rep.global_ratio <= 1.0 + 1e-9


def test_containment_power_weight():
    w = abs_power_weight(SGRID, 0.125)
    spec = QuadrupleSpec((const_p(2.0, SYM),), const_p(4.0, SYM), (1.0,), 8.0)
    rep = containment_check((w,), spec, SCUBES)
    assert rep.passed
    assert rep.max_cube_ratio <= 1.0 + 1e-9


def test_containment_random_step_weights():
    rng = np.random.default_rng(51)
    for _ in range(20):
        steps = rng.uniform(0.2, 5.0, size=8)
        edges = np.linspace(0.0, 1.0, 9)
        x = GRID.coords[..., 0]
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, 7)
        w = WeightField(GRID, steps[idx])
        spec = QuadrupleSpec((const_p(3.0),), const_p(6.0), (1.0,), 12.0)
        rep = containment_check((w,), spec, CUBES)
        assert rep.passed


def test_containment_rejects_infinite_s():
    spec = QuadrupleSpec((const_p(2.0),), const_p(4.0), (1.0,), math.inf)
    with pytest.raises(SpecMismatchError):
        containment_check((unit_weight(GRID),), spec, CUBES)


# -- blend ------------------------------------------------------------------


def test_blend_fixed_point_equality():
    rng = np.random.default_rng(61)
    w = rand_weight(GRID, rng)
    spec = QuadrupleSpec((const_p(3.0),), const_p(3.0), (1.0,), math.inf)
    rep = blend_constant_check((w,), (w,), spec, spec, 0.4, CUBES)
    assert rep.passed
    assert rep.blended.constant == pytest.approx(rep.endpoint0.constant, rel=1e-9)
    assert rep.ratio * rep.holder_factor == pytest.approx(1.0, abs=1e-9)


def test_blend_constant_exponent_weighted():
    w0 = abs_power_weight(SGRID, 0.125)
    w1 = unit_weight(SGRID)
    spec0 = QuadrupleSpec((const_p(2.0, SYM),), const_p(2.0, SYM), (1.0,), math.inf)
    spec1 = QuadrupleSpec((const_p(4.0, SYM),), const_p(4.0, SYM), (1.0,), math.inf)
    rep = blend_constant_check((w0,), (w1,), spec0, spec1, 0.5, SCUBES)
    assert rep.holder_factor == pytest.approx(1.0)
    assert rep.passed and rep.ratio <= 1.0 + 1e-9
    assert rep.blended_admissible


def test_blend_bilinear_constant_exponents():
    w0 = (abs_power_weight(SGRID, 0.125), unit_weight(SGRID))
    w1 = (unit_weight(SGRID), unit_weight(SGRID))
    p4 = const_p(4.0, SYM)
    spec = QuadrupleSpec((p4, p4), const_p(2.0, SYM), (1.0, 1.0), math.inf)
    rep = blend_constant_check(w0, w1, spec, spec, 0.3, SCUBES)
    assert rep.passed and rep.ratio <= 1.0 + 1e-9


def test_blend_rejects_gamma_mismatch():
    spec0 = QuadrupleSpec((const_p(2.0),), const_p(2.0), (1.0,), math.inf)
    spec1 = QuadrupleSpec((const_p(2.0),), const_p(4.0), (1.0,), math.inf)
    ones = unit_weight(GRID)
    with pytest.raises(SpecMismatchError):
        blend_constant_check((ones,), (ones,), spec0, spec1, 0.5, CUBES)


def test_blend_refuses_weight_vectors_on_different_grids():
    """A blended weight is a sum of logs, taken only on a shared grid."""
    spec = QuadrupleSpec((const_p(3.0),), const_p(3.0), (1.0,), math.inf)
    other = Grid(Box((0.0,), (2.0,)), GRID.shape)  # the same shape: no broadcast error
    with pytest.raises(DomainError, match="live on different grids"):
        blend_constant_check((unit_weight(GRID),), (unit_weight(other),), spec, spec, 0.5, CUBES)


def test_blend_rejects_mismatched_rs():
    spec0 = QuadrupleSpec((const_p(3.0),), const_p(3.0), (1.0,), math.inf)
    spec1 = QuadrupleSpec((const_p(3.0),), const_p(3.0), (1.5,), math.inf)
    ones = unit_weight(GRID)
    with pytest.raises(SpecMismatchError):
        blend_constant_check((ones,), (ones,), spec0, spec1, 0.5, CUBES)


# -- batched cube scan against a per-cube loop -----------------------------


def _loop_scan(grid, cubes, factors, power):
    """The cube scan as one `lux_flat` solve per cube and ``(log_values,
    exponent)`` factor, in scan order, as a reference for the batched
    `_cube_scan`: the cube value is the product of the measure power and
    the factor norms, read as inf when it passes the threshold."""
    qw = grid.quad_weights
    best, best_cube, per_cube, overflow = -math.inf, None, [], False
    for cube in all_cubes(cubes):
        sl = box_slices(grid, cube.box)
        wq = qw[sl].ravel()
        if wq.size == 0:
            raise EmptyRegionError(
                f"cube {cube.label()} contains no grid node; lower max_depth or refine the grid")
        value = float(np.sum(wq)) ** power
        for lw, ef in factors:
            value *= lux_flat(np.ones(wq.size), ef.values_on(grid)[sl].ravel(), np.log(wq),
                              lw=lw[sl].ravel()).value
        if value > OVERFLOW_THRESHOLD:
            overflow, value = True, math.inf
        per_cube.append(value)
        if value > best:
            best, best_cube = value, cube
    return per_cube, best_cube, overflow


def _assert_scan_matches_loop(rep, grid, cubes, factors, power):
    per_cube, best_cube, overflow = _loop_scan(grid, cubes, factors, power)
    assert rep.cube_count == len(per_cube) == len(all_cubes(cubes))
    for got, want in zip(rep.per_cube, per_cube):
        assert got == want or abs(got - want) <= 1e-12 * max(abs(got), abs(want))
    assert rep.argmax_cube.label() == best_cube.label()
    assert rep.argmax_cube.box == best_cube.box
    labels = [cube.label() for cube in all_cubes(cubes)]
    assert rep.constant == max(rep.per_cube)
    assert labels.index(rep.argmax_cube.label()) == rep.per_cube.index(rep.constant)
    assert rep.overflow == overflow


def _scan_case(seed, dim, depth):
    """A 1D or anisotropic 2D grid fine enough that no cube of the family
    is empty, a smooth random weight and an exponent in the class P."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        box = Box((0.0,), (float(rng.uniform(0.5, 3.0)),))
        grid = Grid(box, (int(rng.integers(2 ** depth + 1, 300)),))
        p = rand_exponent(box, rng, lo=1.3, hi=5.0)
    else:
        box = Box((0.0, -1.0), (1.0, float(rng.uniform(0.0, 2.0))))
        grid = Grid(box, tuple(int(n) for n in rng.integers(2 ** depth + 1, 40, size=2)))
        # |slope| <= 0.3 over x in [0, 1], y in [-1, 2] keeps p_- >= 1.1
        p = ExponentField.affine(box, float(rng.uniform(2.0, 3.0)),
                                 tuple(float(s) for s in rng.uniform(-0.3, 0.3, size=2)))
    x = grid.coords
    a, b, c = rng.uniform(-1.0, 1.0, size=3)
    w = WeightField(grid, np.exp(a * np.sin(3.0 * x[..., 0] + c) + b * x[..., -1]))
    return grid, DyadicCubeSet(box, depth), w, p, rng


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]), depth=st.integers(0, 3))
def test_batched_ap_constant_matches_a_per_cube_loop(seed, dim, depth):
    grid, cubes, w, p, _ = _scan_case(seed, dim, depth)
    rep = ap_constant(w, p, cubes)
    factors = [(w.log_values, p), (w.inverse().log_values, dual_exponent(p))]
    _assert_scan_matches_loop(rep, grid, cubes, factors, -1.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]), depth=st.integers(0, 3))
def test_batched_multilinear_constant_matches_a_per_cube_loop(seed, dim, depth):
    grid, cubes, w1, p, rng = _scan_case(seed, dim, depth)
    w2 = WeightField(grid, w1.power(float(rng.uniform(-1.0, 1.0))).values
                     * float(rng.uniform(0.5, 2.0)))
    p_vec = (p, ExponentField.constant(grid.box, float(rng.uniform(3.0, 5.0))))
    r_vec = tuple(float(rng.uniform(1.0, 1.2)) for _ in p_vec)
    q = reciprocal_affine(p_vec, (1.0, 1.0), 0.0)
    spec = QuadrupleSpec(p_vec, q, r_vec, math.inf)
    rep = multilinear_constant((w1, w2), spec, cubes)
    factors = [(WeightField.product((w1, w2)).log_values, nu_exponent(spec.q, spec.s))]
    factors += [(w.inverse().log_values, component_exponent(p_j, r_j))
                for w, p_j, r_j in zip((w1, w2), p_vec, r_vec)]
    _assert_scan_matches_loop(rep, grid, cubes, factors, spec.gamma - 1.0 / spec.r)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]), depth=st.integers(0, 3),
       k=st.integers(-300, 300))
def test_cube_constants_are_the_same_for_a_weight_times_a_constant(seed, dim, depth, k):
    """[c w] = [w] for c = 10^k: a cube value is the exponential of a sum
    of log norms, so factor norms far from 1 neither overflow nor flag;
    with every weight of the two-index constant scaled, nu = c^1.5 w^1.5
    is a sum of logs, a weight at any k."""
    grid, cubes, w, p, _ = _scan_case(seed, dim, depth)
    p_vec = (p, const_p(4.0, grid.box))
    spec = QuadrupleSpec(p_vec, reciprocal_affine(p_vec, (1.0, 1.0), 0.0), (1.0, 1.0), math.inf)
    c = 10.0 ** k
    for scan in (lambda v: ap_constant(v, p, cubes),
                 lambda v: multilinear_constant((v, w.power(0.5)), spec, cubes),
                 lambda v: multilinear_constant((v, v.power(0.5)), spec, cubes)):
        base, scaled = scan(w), scan(WeightField(grid, w.values * c))
        assert not base.overflow and not scaled.overflow
        assert abs(scaled.constant - base.constant) <= 1e-12 * base.constant, (k, base, scaled)


def _gaussian_weight_constant(width):
    grid = Grid(UNIT, (1025,))
    w = WeightField(grid, realize_function({"kind": "gaussian", "center": [0.4],
                                            "width": width}, grid).values)
    return ap_constant(w, const_p(2.0), DyadicCubeSet(UNIT, 5))


def test_a_genuinely_huge_constant_still_overflows_and_a_large_one_does_not():
    """The overflow rule is judged on the log of each cube value: a narrow
    gaussian's constant, about 10^171 at width 0.03, reads inf with the
    flag set, and 3.2589e95 at width 0.04 is reported as it is."""
    huge = _gaussian_weight_constant(0.03)
    assert huge.overflow and huge.constant == math.inf
    assert huge.argmax_cube.label() == "d0u0" and huge.per_cube[0] == math.inf
    large = _gaussian_weight_constant(0.04)
    assert not large.overflow
    assert large.constant == pytest.approx(3.2589e95, rel=1e-4)
    message = "^cube constant beyond 1e[+]150 on cube d0u0$"
    with pytest.raises(OverflowToInfinityError, match=message):
        _bounded(huge)
    assert _bounded(large) is large


def _edge_grid():
    return Grid(UNIT, (65,)), DyadicCubeSet(UNIT, 3), const_p(2.5)


def test_cube_scan_infinite_node_overflows_every_cube_holding_it():
    grid, cubes, p = _edge_grid()
    g = np.log1p(grid.coords[..., 0])
    f = g.copy()
    f[40] = math.inf
    for factors in ([(f, p), (g, p)], [(g, p), (f, p)]):
        rep = _cube_scan(grid, cubes, factors, -1.0, 1e-10)
        _assert_scan_matches_loop(rep, grid, cubes, factors, -1.0)
        assert rep.overflow and rep.per_cube[0] == math.inf


def test_cube_scan_refuses_a_nan_node_and_names_it():
    grid, cubes, p = _edge_grid()
    log_values = np.log1p(grid.coords[..., 0])
    log_values[17] = math.nan
    factors = [(log_values, p)]
    with pytest.raises(DomainError) as want:
        _loop_scan(grid, cubes, factors, -1.0)
    with pytest.raises(DomainError, match="NaN at flat node index 17$") as got:
        _cube_scan(grid, cubes, factors, -1.0, 1e-10)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("shape, node", [((65,), 40), ((9, 9), 51)])
def test_cube_scan_names_the_grid_node_of_a_nan_under_a_smaller_root(shape, node):
    """A cube row starts inside the grid, so a NaN is refused on the
    factor's node table, where its index is the grid node."""
    box = Box((0.0,) * len(shape), (1.0,) * len(shape))
    grid = Grid(box, shape)
    log_values = np.zeros(grid.size)
    log_values[node] = math.nan
    cubes = DyadicCubeSet(Box((0.5,) * len(shape), (1.0,) * len(shape)), 2)
    with pytest.raises(DomainError, match=f"^function value is NaN at flat node index {node}$"):
        _cube_scan(grid, cubes, [(log_values.reshape(shape), const_p(2.0, box))], -1.0, 1e-10)


def test_cube_scan_empty_cube_names_the_same_cube_as_the_loop():
    box = Box((-2.0,), (2.0,))
    grid, cubes = Grid(box, (7,)), DyadicCubeSet(box, 4)
    w, p = unit_weight(grid), const_p(2.0, box)
    with pytest.raises(EmptyRegionError) as want:
        _loop_scan(grid, cubes, [(w.log_values, p)], -1.0)
    with pytest.raises(EmptyRegionError) as got:
        ap_constant(w, p, cubes)
    assert str(got.value) == str(want.value)
    assert "cube d3s1 " in str(got.value)


def test_cube_scan_overflow_error_names_the_first_overflowing_cube():
    """The scan completes and flags the overflow; a check that needs a
    finite constant refuses it, naming the first cube whose value passes
    the threshold in the per-cube loop."""
    grid, cubes, p = _edge_grid()
    x = grid.coords[..., 0]
    log_one = np.zeros(grid.shape)
    log_huge = np.where(x >= 0.6, math.log(1e200), 0.0)
    for factors, cube in (([(log_huge, p)], "d0u0"), ([(log_one, p), (log_huge, p)], "d0u0")):
        rep = _cube_scan(grid, cubes, factors, -1.0, 1e-10)
        _assert_scan_matches_loop(rep, grid, cubes, factors, -1.0)
        per_cube, best_cube, _ = _loop_scan(grid, cubes, factors, -1.0)
        assert best_cube.label() == cube and per_cube[0] == math.inf
        with pytest.raises(OverflowToInfinityError) as got:
            _bounded(rep)
        assert str(got.value) == f"cube constant beyond 1e+150 on cube {cube}"


def test_cube_scan_makes_one_row_solve_per_group_and_factor(monkeypatch):
    """A work-count guard: a fall-back to per-cube solves would make one
    call per cube (here 1 + 4 + 16 + 64 + 256 dyadic cubes plus the
    shifted ones) instead of at most one per (depth, shifted) group and
    factor, fewer where row sets share a solve."""
    calls = []
    real = norms_module.lux_rows

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(norms_module, "lux_rows", counting)
    box = Box((0.0, 0.0), (1.0, 2.0))
    grid = Grid(box, (33, 65))
    depth = 4
    cubes = DyadicCubeSet(box, depth)
    w = WeightField(grid, 1.0 + grid.coords[..., 0] * grid.coords[..., 1])
    rep = ap_constant(w, const_p(2.0, box), cubes)
    factors = 2
    assert len(calls) <= (depth + 1) * 2 * factors
    assert sum(calls) == factors * rep.cube_count == factors * len(all_cubes(cubes))


@pytest.mark.parametrize("shape, depth, solves", [((4097,), 6, 7), ((257, 257), 4, 17)])
def test_cube_scan_solves_a_depth_at_once_where_it_fits(monkeypatch, shape, depth, solves):
    """A work-count guard on the packing: at 4097 nodes every depth's
    sets fit ``PACK_NODES`` and make one solve; at 257^2 only the two
    sets of the depth-1 shifted group fit one solve together, and every
    other (group, factor) set is solved alone."""
    calls = []
    real = norms_module.lux_rows

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(norms_module, "lux_rows", counting)
    box = Box((0.0,) * len(shape), (1.0,) * len(shape))
    grid = Grid(box, shape)
    w = WeightField(grid, 1.5 + np.sin(grid.coords.sum(axis=-1)))
    rep = ap_constant(w, ExponentField.affine(box, 2.5, (0.5,) * len(shape)),
                      DyadicCubeSet(box, depth))
    assert len(calls) == solves
    assert sum(calls) == 2 * rep.cube_count


@pytest.mark.parametrize("shape, depth, budget, sizes", [
    ((33, 65), 2, weights_module.PACK_NODES, [4290, 5610, 7650]),
    ((65,), 3, 165, [130, 165, 33, 136, 102, 144, 126])], ids=["33x65", "65-budget-165"])
def test_cube_scan_makes_one_block_at_the_size_of_its_largest_solve(monkeypatch, shape, depth,
                                                                     budget, sizes):
    """Every solve of a scan gathers into one working block, made once at
    the size of the scan's largest solve (the last here on 33 x 65, where
    each depth's two groups and two factors are one solve; the second of
    seven at 65 nodes under a budget of 165): each solve's log|f|,
    exponent, log weight and Newton workspace are views of it."""
    seen = []
    real = norms_module.lux_rows

    def recording(la, p, lq, rel_tol, e):
        seen.append((la.size, [a.base for a in (la, p, lq, e)]))
        return real(la, p, lq, rel_tol, e)

    monkeypatch.setattr(norms_module, "lux_rows", recording)
    monkeypatch.setattr(weights_module, "PACK_NODES", budget)
    box = Box((0.0,) * len(shape), tuple(1.0 + axis for axis in range(len(shape))))
    grid = Grid(box, shape)
    w = WeightField(grid, 1.0 + np.prod(grid.coords, axis=-1))
    ap_constant(w, const_p(2.0, box), DyadicCubeSet(box, depth))
    assert [n for n, _ in seen] == sizes
    block = seen[0][1][0]
    assert block.shape == (4, max(sizes))
    assert all(base is block for _, bases in seen for base in bases)


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([1, 2]), depth=st.integers(0, 4), factors=st.integers(1, 4),
       budget=st.integers(0, 20000), data=st.data())
def test_scan_solves_pack_consecutive_sets_while_they_fit(dim, depth, factors, budget, data):
    """`_scan_solves` lists every (group, factor) set once, in scan order
    with factors ascending in a group; a solve of more than one set has
    one row width and at most ``PACK_NODES`` nodes; and a solve ends only
    where the next set does not fit it: another row width, or more than
    ``PACK_NODES`` nodes in all."""
    shape = tuple(data.draw(st.integers(2 ** depth + 1, 150 if dim == 1 else 60),
                            label=f"n{axis}") for axis in range(dim))
    box = Box((0.0,) * dim, (1.0,) * dim)
    plan = _scan_plan(Grid(box, shape), DyadicCubeSet(box, depth))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights_module, "PACK_NODES", budget)
        solves = _scan_solves(plan, factors)
    assert [s for sets in solves for s in sets] == [(i, k) for i in range(len(plan))
                                                    for k in range(factors)]
    for sets in solves:
        if len(sets) > 1:
            assert len({plan[i][1].shape[1] for i, _ in sets}) == 1
            assert sum(plan[i][1].size for i, _ in sets) <= budget
    for sets, after in zip(solves, solves[1:]):
        rows = plan[after[0][0]][1]  # the first set of the next solve
        assert (rows.shape[1] != plan[sets[0][0]][1].shape[1]
                or sum(plan[i][1].size for i, _ in sets) + rows.size > budget)


def _packed_and_alone(scan, budget):
    """``scan()`` with a packing budget of ``budget`` nodes and with every
    (group, factor) row set solved alone (a budget of none), with the
    `lux_rows` calls of each."""
    reports, calls = [], []
    real = norms_module.lux_rows
    for budget in (budget, 0):
        made = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights_module, "PACK_NODES", budget)
            mp.setattr(norms_module, "lux_rows",
                       lambda *args, **kwargs: made.append(1) or real(*args, **kwargs))
            reports.append(scan())
        calls.append(len(made))
    return reports, calls


def _assert_packing_keeps_every_bit(scan, factors, cubes, budget=weights_module.PACK_NODES):
    (packed, alone), (n_packed, n_alone) = _packed_and_alone(scan, budget)
    assert np.array_equal(packed.per_cube, alone.per_cube)
    assert packed.argmax_cube == alone.argmax_cube and packed.overflow == alone.overflow
    groups = 2 * cubes.max_depth + 1
    assert n_alone == factors * groups and n_packed <= n_alone
    return n_packed


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]), depth=st.integers(0, 3),
       three=st.booleans(), budget=st.integers(1, 5000))
def test_packed_cube_scan_is_bit_identical_to_one_solve_per_set(seed, dim, depth, three,
                                                                budget):
    """Packing row sets into one solve moves no bit of any cube value,
    under any budget, which also cuts a depth's sets into several solves
    and sets solved alone: rows of unequal width (node counts that
    are no power of two plus one) and anisotropic 2D grids, with 2
    factors (`ap_constant`) and 3 (`multilinear_constant`, m = 2)."""
    grid, cubes, w, p, rng = _scan_case(seed, dim, depth)
    if three:
        p_vec = (p, ExponentField.constant(grid.box, float(rng.uniform(3.0, 5.0))))
        spec = QuadrupleSpec(p_vec, reciprocal_affine(p_vec, (1.0, 1.0), 0.0), (1.1, 1.2),
                             math.inf)
        w2 = w.power(0.5)
        _assert_packing_keeps_every_bit(lambda: multilinear_constant((w, w2), spec, cubes),
                                        3, cubes, budget)
    else:
        _assert_packing_keeps_every_bit(lambda: ap_constant(w, p, cubes), 2, cubes, budget)


@pytest.mark.parametrize("shape, depth, budget", [
    ((65,), 3, weights_module.PACK_NODES), ((1025,), 5, weights_module.PACK_NODES),
    ((100,), 4, weights_module.PACK_NODES), ((33, 65), 3, weights_module.PACK_NODES),
    ((30, 17), 2, weights_module.PACK_NODES), ((65,), 1, 165)])
def test_packed_cube_scan_is_bit_identical_on_fixed_grids(shape, depth, budget):
    """The same on power-of-two grids (every depth one solve), on grids
    with rows of unequal width, and on anisotropic 2D grids, with 2 and 3
    factors; each case packs at least one depth.  With a budget of 165
    nodes at 65 nodes, depth 1 packs the dyadic sets and the first
    shifted one (2 * 66 + 33 nodes) and solves the last shifted set alone,
    which must gather its own log weights."""
    box = Box((0.0,) * len(shape), tuple(1.0 + axis for axis in range(len(shape))))
    grid = Grid(box, shape)
    w = WeightField(grid, np.exp(np.sin(3.0 * grid.coords.sum(axis=-1))))
    p = ExponentField.affine(box, 2.5, (0.3,) * len(shape))
    cubes = DyadicCubeSet(box, depth)
    assert _assert_packing_keeps_every_bit(lambda: ap_constant(w, p, cubes), 2, cubes,
                                           budget) < 2 * (2 * depth + 1)
    p_vec = (p, const_p(4.0, box))
    spec = QuadrupleSpec(p_vec, reciprocal_affine(p_vec, (1.0, 1.0), 0.0), (1.1, 1.2), math.inf)
    assert _assert_packing_keeps_every_bit(
        lambda: multilinear_constant((w, w.inverse()), spec, cubes), 3, cubes,
        budget) < 3 * (2 * depth + 1)


# -- the scan plan: node rows and cube measures built once per (grid, cube set)


def _per_scan_log_measures(grid, rows):
    """The log cube measures as the scan computed them before the plan:
    gathered into the workspace row of a working block wider than the
    rows, the padding zeroed, summed along each row."""
    qw = grid.quad_weights
    block = np.empty((4, rows.size + 7))
    work = block[:, :rows.size].reshape(4, *rows.shape)
    measure = qw.take(rows, out=work[3], mode="clip")
    if (rows[:, -1] == qw.size).any():
        measure[rows == qw.size] = 0.0
    return np.log(measure.sum(axis=1))


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), depth=st.integers(0, 4), data=st.data())
def test_scan_plan_holds_the_node_rows_and_the_per_scan_log_measures(dim, depth, data):
    """Per group, shifted ones included, the plan's rows are
    `CubeGroup.node_rows` (as int32) and its log measures are bit for bit
    the per-scan ones, on dyadic (2^k + 1 nodes) and other resolutions."""
    shape = tuple(data.draw(st.one_of(st.sampled_from([2 ** k + 1 for k in range(depth, 8)]),
                                      st.integers(2 ** depth + 1, 150)), label=f"n{axis}")
                  for axis in range(dim))
    hi = tuple(data.draw(st.floats(0.1, 10.0), label=f"hi{axis}") for axis in range(dim))
    box = Box((0.0,) * dim, hi)
    grid, cubes = Grid(box, shape), DyadicCubeSet(box, depth)
    plan = _scan_plan(grid, cubes)
    assert [(g.depth, g.shifted) for g, _, _ in plan] == [(g.depth, g.shifted)
                                                         for g in cubes.groups()]
    for (group, rows, log_measure), want in zip(plan, cubes.groups()):
        node_rows = want.node_rows(grid)
        assert rows.dtype == np.int32 and np.array_equal(rows, node_rows)
        assert np.array_equal(log_measure, _per_scan_log_measures(grid, node_rows))


def test_scan_plan_log_measures_of_padded_groups_are_the_clipped_and_zeroed_ones():
    """On a grid whose cube groups have padded rows, the plan's log
    measures, read from the weights with a zero measure appended for the
    padding node, are bit for bit the clipped gather with the padding
    zeroed.  (At 2^k + 1 nodes per axis no group is padded.)"""
    box = Box((0.0, 0.0), (1.0, 1.0))
    grid = Grid(box, (30, 50))
    plan = _scan_plan(grid, DyadicCubeSet(box, 3))
    assert any((rows == grid.size).any() for _, rows, _ in plan)
    for _, rows, log_measure in plan:
        assert log_measure.tobytes() == _per_scan_log_measures(grid, rows).tobytes()


def test_scan_plan_arrays_are_read_only_and_shared_by_every_scan():
    grid, cubes = Grid(UNIT, (65,)), DyadicCubeSet(UNIT, 3)
    plan = _scan_plan(grid, cubes)
    assert _scan_plan(Grid(UNIT, (65,)), DyadicCubeSet(UNIT, 3)) is plan
    for _, rows, log_measure in plan:
        for array in (rows, log_measure):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_scan_plan_raises_the_empty_cube_on_every_call():
    """No plan is kept for a family with an empty cube, so it is refused
    on every scan, naming the first empty cube in scan order."""
    box = Box((-2.0,), (2.0,))
    grid, cubes = Grid(box, (7,)), DyadicCubeSet(box, 4)
    for _ in range(2):
        with pytest.raises(EmptyRegionError, match="^cube d3s1 contains no grid node"):
            _scan_plan(grid, cubes)
        with pytest.raises(EmptyRegionError, match="^cube d3s1 contains no grid node"):
            ap_constant(unit_weight(grid), const_p(2.0, box), cubes)


def test_two_to_one_check_builds_each_groups_rows_once(monkeypatch):
    """A work-count guard: the two scans of `two_to_one_check` share one
    plan, so each group's node rows are built once, not once per scan."""
    calls = []
    real = CubeGroup.node_rows

    def counting(self, grid):
        calls.append((self.depth, self.shifted))
        return real(self, grid)

    monkeypatch.setattr(CubeGroup, "node_rows", counting)
    weights_module._plans.clear()
    grid, depth = Grid(UNIT, (257,)), 4
    cubes = DyadicCubeSet(UNIT, depth)
    p = const_p(2.0)
    spec = QuadrupleSpec((p,), const_p(4.0), (1.0,), math.inf)
    rep = two_to_one_check(rand_weight(grid, np.random.default_rng(43)), spec, cubes)
    assert rep.rel_error <= 1e-6
    assert len(calls) == len(set(calls)) == 2 * depth + 1


def test_scan_plan_cache_holds_at_most_its_byte_budget(monkeypatch):
    """The plans used last are kept while they fit ``PLAN_CACHE_BYTES`` in
    all, the oldest dropped first; a plan larger than the budget is built
    for its scan and not kept, and drops none."""
    keys = [(Grid(box, (65,)), DyadicCubeSet(box, 3))
            for box in (Box((0.0,), (hi,)) for hi in (1.0, 2.0, 3.0))]
    size = weights_module._plan_bytes(weights_module._build_plan(*keys[0]))
    monkeypatch.setattr(weights_module, "PLAN_CACHE_BYTES", 2 * size)
    weights_module._plans.clear()
    plans = [_scan_plan(*key) for key in keys]
    assert list(weights_module._plans) == keys[1:]
    assert _scan_plan(*keys[1]) is plans[1] and _scan_plan(*keys[0]) is not plans[0]
    assert list(weights_module._plans) == [keys[1], keys[0]]  # keys[2] was the oldest
    large = (Grid(UNIT, (513,)), DyadicCubeSet(UNIT, 3))
    assert _scan_plan(*large) is not _scan_plan(*large)
    assert list(weights_module._plans) == [keys[1], keys[0]]
    weights_module._plans.clear()
