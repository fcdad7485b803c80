"""Modulars, Luxemburg norms, mixed norms, pairings and the Hoelder constant."""

import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varleb import (Box, ConvergenceError, DomainError, DyadicCubeSet, ExponentField, Grid,
                    GridFunction, WeightField, ap_constant, holder_constant, mixed_norm,
                    modular, pairing, random_simple_function, realize_function,
                    scale_exponent, weighted_norm)

import varleb.norms as norms_module
from varleb.field import box_mask
from varleb.norms import NodeTable, lux_flat, lux_rows, weighted_norms, weighted_table

from _support import (UNIT, abs_power, from_callable, grid1d, rand_exponent, rand_weight,
                      unit_weight)


def gaussian(grid, center=0.5, width=0.2):
    return from_callable(
        grid, lambda pts: np.exp(-(((pts[..., 0] - center) / width) ** 2)))


# -- modular --------------------------------------------------------------


def test_modular_indicator_measures_support():
    g = grid1d(8193)
    chi = realize_function({"kind": "indicator", "box": [[0.0, 0.5]]}, g)
    p = ExponentField.affine(g.box, 1.5, (1.0,))
    # |f|^p = chi for any exponent; value is |E| up to the node at the cut
    assert modular(chi, p) == pytest.approx(0.5, abs=g.max_step)


def test_modular_piecewise_exponent_arithmetic():
    g = grid1d(8193)
    f = GridFunction(g, np.full(g.shape, 2.0))
    p = ExponentField.piecewise(g.box, [0.5], [2.0, 3.0])
    # 4 * (1/2) + 8 * (1/2), up to one node straddling the cut
    assert modular(f, p) == pytest.approx(6.0, abs=8.0 * g.max_step)


def test_modular_linear_squared():
    g = grid1d(4097)
    f = from_callable(g, lambda pts: pts[..., 0])
    p = ExponentField.constant(g.box, 2.0)
    assert modular(f, p) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_modular_zero_iff_zero():
    g = grid1d(257)
    p = ExponentField.constant(g.box, 2.0)
    assert modular(GridFunction(g, np.zeros(g.shape)), p) == 0.0
    tiny = np.zeros(g.shape)
    tiny[100] = 1e-8
    assert modular(GridFunction(g, tiny), p) > 0.0


# -- luxemburg norm --------------------------------------------------------


def test_lux_constant_exponent_classical():
    g = grid1d(1025)
    f = GridFunction(g, np.full(g.shape, 3.0))
    p = ExponentField.constant(g.box, 2.0)
    assert weighted_norm(f, p).value == pytest.approx(3.0, rel=1e-9)


def test_lux_zero_function():
    g = grid1d(65)
    p = ExponentField.constant(g.box, 2.0)
    res = weighted_norm(GridFunction(g, np.zeros(g.shape)), p)
    assert res.value == 0.0 and math.exp(res.log_modular) == 0.0


def test_lux_rejects_bad_tolerance():
    g = grid1d(65)
    p = ExponentField.constant(g.box, 2.0)
    f = GridFunction(g, np.ones(g.shape))
    with pytest.raises(DomainError):
        weighted_norm(f, p, rel_tol=0.5)
    with pytest.raises(DomainError):
        weighted_norm(f, p, rel_tol=0.0)


def test_lux_modular_at_value_is_one():
    g = grid1d(1025)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.uniform(0.1, 2.0, size=g.shape))
    p = ExponentField.affine(g.box, 1.5, (1.0,))
    res = weighted_norm(f, p)
    assert math.exp(res.log_modular) == pytest.approx(1.0, abs=1e-8)
    assert res.bracket[0] <= res.value <= res.bracket[1]


def _oracle_variable_norm(f_node_values, p_of_x, n_nodes, box=(0.0, 1.0)):
    """Independent Luxemburg solve: plain numpy trapezoid at the given
    resolution plus bisection on the closed-form modular map."""
    x = np.linspace(box[0], box[1], n_nodes)
    fv = f_node_values(x)
    pv = p_of_x(x)

    def rho(lam):
        integ = np.where(fv > 0, (fv / lam) ** pv, 0.0)
        return np.trapezoid(integ, x)

    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if rho(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rho(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_lux_unit_indicator_variable_exponent():
    """f = chi over the whole box with p(x) = 1+x has modular exactly 1
    at lambda = 1, so the norm is 1 regardless of the exponent."""
    g = grid1d(4097)
    f = GridFunction(g, np.ones(g.shape))
    p = ExponentField.affine(g.box, 1.0, (1.0,))
    got = weighted_norm(f, p).value
    oracle = _oracle_variable_norm(lambda x: np.ones_like(x),
                                   lambda x: 1.0 + x, 10 * 4096 + 1)
    assert oracle == pytest.approx(1.0, abs=1e-9)
    assert got == pytest.approx(oracle, abs=1e-9)


def test_lux_half_indicator_variable_exponent_oracle():
    g = grid1d(4097)
    chi = realize_function({"kind": "indicator", "box": [[0.0, 0.5]]}, g)
    p = ExponentField.affine(g.box, 1.0, (1.0,))
    got = weighted_norm(chi, p).value
    oracle = _oracle_variable_norm(lambda x: (x <= 0.5).astype(float),
                                   lambda x: 1.0 + x, 10 * 4096 + 1)
    # both solves carry a one-node boundary effect at the cut
    assert got == pytest.approx(oracle, abs=5e-4)


def test_lux_homogeneity_gaussian():
    g = grid1d(4097)
    f = gaussian(g)
    p = ExponentField.constant(g.box, 2.5)
    s = 0.5
    lhs = weighted_norm(abs_power(f, s), p, rel_tol=1e-11).value
    rhs = weighted_norm(f, scale_exponent(p, s), rel_tol=1e-11).value ** s
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_lux_monotone_in_absolute_value():
    g = grid1d(1025)
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = rand_exponent(g.box, rng)
        f = GridFunction(g, rng.uniform(0.0, 1.0, size=g.shape))
        bump = GridFunction(g, rng.uniform(0.0, 1.0, size=g.shape))
        assert (weighted_norm(f, p).value
                <= weighted_norm(f + bump, p).value + 1e-12)


def test_lux_scalar_homogeneity():
    g = grid1d(1025)
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = rand_exponent(g.box, rng)
        f = GridFunction(g, rng.normal(size=g.shape))
        n1 = weighted_norm(f * 7.0, p).value
        n2 = 7.0 * weighted_norm(f, p).value
        assert n1 == pytest.approx(n2, rel=1e-10)


def test_lux_rejects_nan_and_names_the_node():
    g = grid1d(65)
    p = ExponentField.constant(g.box, 2.0)
    vals = np.ones(g.shape)
    vals[17] = np.nan
    for solve in (weighted_norm, modular):
        with pytest.raises(DomainError, match="index 17"):
            solve(GridFunction(g, vals), p)


def test_lux_infinite_value_gives_infinite_norm():
    g = grid1d(65)
    vals = np.ones(g.shape)
    vals[0] = np.inf
    res = weighted_norm(GridFunction(g, vals), ExponentField.affine(g.box, 1.5, (1.0,)))
    assert res.value == math.inf and res.bracket == (math.inf, math.inf)


# -- solver properties --------------------------------------------------------


def _random_case(seed, n):
    """A seeded function (simple or gaussian, amplitude 1e-4 to 1e4) and
    exponent (p in [0.3, 8]) on [0, 1] with n nodes."""
    rng = np.random.default_rng(seed)
    g = grid1d(n)
    if rng.random() < 0.5:
        f = random_simple_function(g, rng)
    else:
        x = g.coords[..., 0]
        width = rng.uniform(0.02, 0.5)
        f = GridFunction(g, 10.0 ** rng.uniform(-4.0, 4.0)
                         * np.exp(-(((x - rng.uniform()) / width) ** 2)))
    return f, rand_exponent(g.box, rng, lo=0.3, hi=8.0)


def _log_modular(f, p, lam):
    """``log rho(f / lam)`` by a log-sum-exp reduction of its own."""
    a = np.abs(f.values).ravel()
    nz = a > 0.0
    x = (np.log(f.grid.quad_weights.ravel()[nz])
         + p.values_on(f.grid).ravel()[nz] * (np.log(a[nz]) - math.log(lam)))
    return float(np.logaddexp.reduce(x))


SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.sampled_from([65, 257, 1025])


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=SIZES, k=st.integers(-300, 300))
def test_lux_homogeneous_at_every_scale(seed, n, k):
    f, p = _random_case(seed, n)
    c = 10.0 ** k
    got = weighted_norm(f * c, p).value
    want = c * weighted_norm(f, p).value
    assert abs(got - want) <= 1e-9 * want


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=SIZES, k=st.integers(-300, 300))
def test_lux_bracket_straddles_modular_one(seed, n, k):
    f, p = _random_case(seed, n)
    f = f * 10.0 ** k
    res = weighted_norm(f, p)
    lo, hi = res.bracket
    assert lo <= res.value <= hi <= lo * (1.0 + 1e-10 + 1e-14)  # rel_tol, to rounding
    assert _log_modular(f, p, lo) >= -1e-12
    assert _log_modular(f, p, hi) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=SIZES, value=st.floats(0.2, 10.0))
def test_lux_constant_exponent_takes_two_evaluations(seed, n, value):
    f, _ = _random_case(seed, n)
    res = weighted_norm(f, ExponentField.constant(f.grid.box, value))
    assert res.iterations <= 2


# -- weighted norms ---------------------------------------------------------


def test_weighted_norm_unit_weight_reduces():
    g = grid1d(1025)
    f = gaussian(g)
    p = ExponentField.affine(g.box, 2.0, (1.0,))
    plain = weighted_norm(f, p).value
    unit = weighted_norm(f, p, unit_weight(g)).value
    assert unit == pytest.approx(plain, rel=1e-12)


def test_weighted_norm_linear_weight_analytic():
    g = grid1d(4097)
    f = GridFunction(g, np.ones(g.shape))
    w = WeightField(g, np.maximum(g.coords[..., 0], 1e-300))
    p = ExponentField.constant(g.box, 2.0)
    assert weighted_norm(f, p, w).value == pytest.approx(3.0 ** -0.5, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-300, 300), zero=st.booleans())
def test_weighted_norm_is_homogeneous_in_the_weight_in_log_terms(seed, k, zero):
    """``||f (c w)|| = c ||f w||`` for c = 10^k, as ``log`` norms: the
    weight enters the table as ``log|f| + log w``, so only log c moves,
    through the batched rows and through `lux_flat` alike."""
    rng = np.random.default_rng(seed)
    g = grid1d(int(rng.integers(17, 300)), Box((0.0,), (float(rng.uniform(0.5, 3.0)),)))
    f = random_simple_function(g, rng).values
    if zero and f[g.size // 3:].any():
        f[: g.size // 3] = 0.0
    p, w = rand_exponent(g.box, rng), rand_weight(g, rng, spread=2.0)
    c, log_c = 10.0 ** k, k * math.log(10.0)
    tol = 1e-12 * (1.0 + abs(log_c))
    base = weighted_table(f[None], g, p, w).solve().log_value[0]
    wc = WeightField(g, w.values * c)
    scaled = weighted_table(f[None], g, p, wc).solve().log_value[0]
    assert abs(scaled - base - log_c) <= tol
    one = math.log(weighted_norm(GridFunction(g, f), p, wc).value)
    assert abs(one - math.log(weighted_norm(GridFunction(g, f), p, w).value) - log_c) <= tol


def test_a_norm_is_solved_where_f_w_is_not_a_double():
    """f = 1e200 against w = 1e200 at p = 2 on [0, 1]: f w = 1e400 is no
    double, and neither is its norm, but the table's log norm is exact."""
    g = grid1d(1025)
    p = ExponentField.constant(g.box, 2.0)
    f = np.full(g.shape, 1e200)
    w = WeightField(g, np.full(g.shape, 1e200))
    assert weighted_table(f[None], g, p, w).solve().log_value[0] == pytest.approx(
        400.0 * math.log(10.0), rel=1e-14)
    assert weighted_norm(GridFunction(g, f), p, w).value == math.inf


# -- mixed norms -------------------------------------------------------------


def test_mixed_norm_separable_factors():
    box = Box((0.0, 0.0), (1.0, 1.0))
    g = Grid(box, (513, 513))
    gx = g.axis_grid(0)
    a = lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x)
    b = lambda y: np.exp(-y)
    F = from_callable(g, lambda pts: a(pts[..., 0]) * b(pts[..., 1]))
    p = ExponentField.affine(gx.box, 2.0, (0.5,))
    q = 3.0
    got = mixed_norm(F, q, p).value
    b_norm = float(np.sum(gx.quad_weights * b(gx.coords[..., 0]) ** q)) ** (1.0 / q)
    a_norm = weighted_norm(GridFunction(gx, a(gx.coords[..., 0])), p).value
    assert got == pytest.approx(b_norm * a_norm, rel=1e-8)


def test_mixed_norm_unit_square():
    g = Grid(Box((0.0, 0.0), (1.0, 1.0)), (257, 257))
    F = GridFunction(g, np.ones(g.shape))
    p = ExponentField.constant(Box((0.0,), (1.0,)), 2.0)
    assert mixed_norm(F, 2.0, p).value == pytest.approx(1.0, rel=1e-9)


def test_mixed_norm_triangle_indicator():
    # inner integral of chi_{x<y} in y is (1-x); rectangular grid keeps
    # the y-discretization error of the jump below the tolerance
    g = Grid(Box((0.0, 0.0), (1.0, 1.0)), (1025, 16385))
    F = from_callable(
        g, lambda pts: (pts[..., 0] < pts[..., 1]).astype(float))
    p = ExponentField.constant(Box((0.0,), (1.0,)), 2.0)
    assert mixed_norm(F, 1.0, p).value == pytest.approx(3.0 ** -0.5, abs=1e-4)


def test_mixed_norm_rejects_bad_inner():
    g = Grid(Box((0.0, 0.0), (1.0, 1.0)), (65, 65))
    F = GridFunction(g, np.ones(g.shape))
    p = ExponentField.constant(Box((0.0,), (1.0,)), 2.0)
    with pytest.raises(DomainError):
        mixed_norm(F, 0.0, p)
    with pytest.raises(DomainError):
        mixed_norm(GridFunction(grid1d(65), np.ones(65)), 2.0, p)


# -- pairing and the Hoelder constant ---------------------------------------


def test_holder_constant_of_an_affine_exponent():
    p = ExponentField.affine(UNIT, 2.0, (1.0,))
    assert holder_constant(p) == pytest.approx(1.0 / 2.0 - 1.0 / 3.0 + 1.0)


def test_pairing_requires_shared_grid():
    f = GridFunction(grid1d(65), np.ones(65))
    h = GridFunction(grid1d(129), np.ones(129))
    with pytest.raises(DomainError, match="pairing factors live on different grids"):
        pairing(f, h)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, rows=st.integers(1, 6), k=st.integers(-300, 300))
@example(seed=115470, rows=1, k=0)
def test_lux_rows_solves_each_row_as_lux_flat_with_a_certified_bracket(seed, rows, k):
    """Rows of different lengths and exponents, with zero nodes inside and
    padding after them, solved in one call.  Confirmed, each row makes
    `lux_flat`'s evaluations; unconfirmed, a row may stop one evaluation
    earlier, at the same value and with a bracket that holds the root.  A
    row whose nodes were all zeroed (seed 115470: 65 nodes) has norm 0,
    the bracket (0, 0) and no evaluation."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(rows):
        f, p = _random_case(seed + i, int(rng.choice([65, 257, 1025])))
        a = np.abs(f.values) * 10.0 ** k
        a[rng.random(a.size) < 0.2] = 0.0
        cases.append((a, p.values_on(f.grid), f.grid.quad_weights))
    width = max(a.size for a, _, _ in cases)
    la = np.full((rows, width), -math.inf)
    pv, lq = np.ones((rows, width)), np.zeros((rows, width))
    for i, (a, p, qw) in enumerate(cases):
        with np.errstate(divide="ignore"):
            la[i, :a.size], pv[i, :a.size], lq[i, :a.size] = np.log(a), p, np.log(qw)
    res, confirmed = lux_rows(la, pv, lq), lux_rows(la, pv, lq, confirm=True)
    assert res.log_value.tobytes() == confirmed.log_value.tobytes()
    assert np.all(res.iterations - confirmed.iterations >= -1)
    assert np.all(res.iterations <= confirmed.iterations)
    for i, (a, p, qw) in enumerate(cases):
        want = lux_flat(a, p, np.log(qw))
        assert abs(res.value[i] - want.value) <= 1e-12 * want.value
        assert confirmed.iterations[i] == want.iterations
        t, g, p_lo = res.log_value[i], res.log_modular[i], res.p_lo[i]
        lo, hi = np.exp([t + min(g, 0.0) / p_lo, t + max(g, 0.0) / p_lo])
        assert lo <= res.value[i] <= hi
        nz = a > 0.0
        if not nz.any():
            assert (res.value[i], lo, hi, res.iterations[i]) == (0.0, 0.0, 0.0, 0)
            continue
        for lam, side in ((lo, 1.0), (hi, -1.0)):
            log_rho = float(np.logaddexp.reduce(np.log(qw[nz]) + p[nz] * (np.log(a[nz]) - math.log(lam))))
            assert side * log_rho >= -1e-12


def _stop_rule_rows(seed, rows, scale):
    """``rows`` rows of widths 2 to 1025, each of a constant, variable,
    near-constant (spread 1e-12) or huge (p up to 1e300) exponent, values
    10^(scale +- 3), zero nodes inside and padding after, as ``(rows,
    n)`` arrays."""
    rng = np.random.default_rng(seed)
    widths = [int(rng.choice([2, 3, 17, 65, 257, 1025])) for _ in range(rows)]
    la = np.full((rows, max(widths)), -math.inf)
    pv, lq = np.ones(la.shape), np.zeros(la.shape)
    for i, n in enumerate(widths):
        kind = rng.choice(["constant", "variable", "near", "huge"])
        a = 10.0 ** rng.uniform(-0.5, 1.0) if kind != "huge" else 10.0 ** rng.uniform(2.0, 300.0)
        spread = {"constant": 0.0, "near": 1e-12, "variable": rng.uniform(0.01, 2.0),
                  "huge": rng.uniform(0.0, 0.5)}[kind]
        pv[i, :n] = a * (1.0 + spread * rng.random(n))
        la[i, :n] = (scale + rng.uniform(-3.0, 3.0, n)) * math.log(10.0)
        la[i, :n][rng.random(n) < 0.2] = -math.inf
        lq[i, :n] = np.log(rng.uniform(0.5, 1.5, n) / n)
    return la, pv, lq


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, rows=st.integers(1, 5), scale=st.floats(-300.0, 300.0),
       log_tol=st.floats(-14.0, -2.0))
def test_a_row_stopped_at_its_newton_point_is_the_confirmed_solve(seed, rows, scale, log_tol):
    """The variance bound ends a row one evaluation before the
    confirming solve, at the value that solve returns to the last bit,
    with a modular bound above the one it evaluates and a bracket that
    holds the root; where the confirming solve raises, the solve raises
    the same error."""
    rel_tol = 10.0 ** log_tol
    la, pv, lq = _stop_rule_rows(seed, rows, scale)
    try:
        want = lux_rows(la, pv, lq, rel_tol, confirm=True)
    except ConvergenceError as err:
        with pytest.raises(ConvergenceError, match=re.escape(str(err))):
            lux_rows(la, pv, lq, rel_tol)
        return
    got = lux_rows(la, pv, lq, rel_tol)
    assert np.asarray(got.log_value).tobytes() == np.asarray(want.log_value).tobytes()
    early = got.iterations < want.iterations
    assert np.array_equal(np.where(early, got.iterations + 1, got.iterations), want.iterations)
    assert np.all(np.where(early, got.log_modular >= want.log_modular, True))
    for i in np.flatnonzero(np.ravel(early)):
        row_la, row_p, row_lq = (np.atleast_2d(x)[i] for x in (la, pv, lq))
        t, g, p_lo = (np.ravel(x)[i] for x in (got.log_value, got.log_modular, got.p_lo))
        nz = row_la > -math.inf
        slack = 1e-12 * (1.0 + row_p[nz].max() * abs(t))
        for log_lam, side in ((t, 1.0), (t + g / p_lo, -1.0)):  # rho(f / lam) >= 1, then <= 1
            log_rho = np.logaddexp.reduce(row_lq[nz] + row_p[nz] * (row_la[nz] - log_lam))
            assert side * log_rho >= -slack


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, rows=st.integers(1, 5), scale=st.floats(-300.0, 300.0))
def test_the_bracket_of_every_row_is_the_certified_one(seed, rows, scale):
    """`RowNorms.bracket` of a confirmed row is, to the last bit, the
    bracket computed on Python floats as ``np.exp([lo, t, hi])``; that of
    an unconfirmed row, which may stop at its Newton point with an upper
    bound for its modular, holds the confirmed value.  A row with no
    nonzero node has the bracket (0, 0), one with an infinite value
    (inf, inf), placed among padded rows of scales 10^+-300."""
    la, pv, lq = (np.atleast_2d(x) for x in _stop_rule_rows(seed, rows, scale))
    dead = np.full((2, la.shape[1]), -math.inf)
    dead[1, np.random.default_rng(seed).integers(la.shape[1])] = math.inf
    at = np.random.default_rng(seed).permutation(rows + 2)
    la, pv, lq = (np.concatenate([x, d])[at] for x, d in
                  ((la, dead), (pv, np.full(dead.shape, 2.0)), (lq, np.zeros(dead.shape))))
    zero, inf = np.flatnonzero(at == rows), np.flatnonzero(at == rows + 1)
    try:
        want = lux_rows(la, pv, lq, confirm=True)
    except ConvergenceError:  # a huge exponent can stall the solve; that is tested above
        return
    got = lux_rows(la, pv, lq)
    for res in (want, got):
        lo, hi = res.bracket
        assert (lo[zero], hi[zero]) == (0.0, 0.0) and (lo[inf], hi[inf]) == (math.inf, math.inf)
        assert np.all(lo <= want.value) and np.all(want.value <= hi)
    lo, hi = want.bracket
    for i in range(len(la)):
        t, g, p_lo = (float(x[i]) for x in (want.log_value, want.log_modular, want.p_lo))
        with np.errstate(over="ignore"):
            old = np.exp([t + min(g, 0.0) / p_lo, t, t + max(g, 0.0) / p_lo])
        assert np.array([lo[i], want.value[i], hi[i]]).tobytes() == old.tobytes()


def test_a_constant_exponent_cube_scan_makes_one_evaluation_per_row(monkeypatch):
    """Every cube row of a constant exponent ends at its first Newton
    point: the scan makes as many evaluations as it solves rows."""
    rows, evaluations = [], []
    real = norms_module.lux_rows

    def counting(*args, **kwargs):
        res = real(*args, **kwargs)
        rows.append(np.size(res.iterations))
        evaluations.append(int(np.sum(res.iterations)))
        return res

    monkeypatch.setattr(norms_module, "lux_rows", counting)
    box = Box((0.0, 0.0), (1.0, 2.0))
    grid = Grid(box, (33, 65))
    w = WeightField(grid, 1.0 + grid.coords[..., 0] * grid.coords[..., 1])
    ap_constant(w, ExponentField.constant(box, 2.0), DyadicCubeSet(box, 3))
    assert sum(rows) > 0 and evaluations == rows


def test_lux_rows_zero_and_infinite_rows_need_no_evaluation():
    la = np.array([[-math.inf, -math.inf], [0.0, math.inf], [0.0, -math.inf]])
    res = lux_rows(la, np.full(la.shape, 2.0), np.full(la.shape, math.log(0.5)))
    assert res.value[0] == 0.0 and res.value[1] == math.inf
    assert res.value[2] == pytest.approx(0.5 ** 0.5, rel=1e-12)   # rho(f / lam) = 0.5 lam^-2
    assert list(res.iterations[:2]) == [0, 0]
    with pytest.raises(DomainError, match="NaN at flat node index 1 of member 2$"):
        lux_rows(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, math.nan]]), np.ones((3, 2)),
                 np.zeros((3, 2)))


def _row_fields(ref, got):
    return [(a.tobytes(), b.tobytes()) for a, b in zip(ref, got)]


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, rows=st.integers(2, 6), zero_row=st.booleans())
@example(seed=3594, rows=2, zero_row=False)
def test_lux_rows_in_a_given_workspace_is_the_allocating_solve_bit_for_bit(seed, rows,
                                                                         zero_row):
    """A workspace filled with NaN, which the solve must overwrite before
    it reads, gives the allocating call's `RowNorms` to the last bit.  Row
    0 has a constant exponent and stops before the variable-exponent rows
    (after one evaluation, or two confirmed), so the batch is compacted; a row of
    zeros sends the others through the partial path.  A variable row
    keeps its two end nodes, of different exponents, nonzero: with one
    nonzero node (seed 3594) its solve is exact after one evaluation."""
    rng = np.random.default_rng(seed)
    n = [int(rng.choice([65, 257, 1025])) for _ in range(rows)]
    la = np.full((rows + zero_row, max(n)), -math.inf)
    pv, lq = np.ones(la.shape), np.zeros(la.shape)
    for i, k in enumerate(n):
        g = grid1d(k)
        a, slope = rng.uniform(2.5, 5.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        p = ExponentField.constant(g.box, a) if i == 0 else ExponentField.affine(g.box, a, (slope,))
        f = np.abs(_random_case(seed + i, k)[0].values) * 10.0 ** rng.uniform(-3.0, 3.0)
        top = f.max()
        f[rng.random(k) < 0.2] = 0.0
        if i:
            f[[0, -1]] = np.where(f[[0, -1]] > 0.0, f[[0, -1]], top)
        with np.errstate(divide="ignore"):
            la[i, :k], pv[i, :k], lq[i, :k] = np.log(f), p.values_on(g), np.log(g.quad_weights)
    for confirm in (False, True):
        ref = lux_rows(la, pv, lq, confirm=confirm)
        assert ref.iterations[0] == 1 + confirm and ref.iterations[1:rows].max() > 1 + confirm
        got = lux_rows(la, pv, lq, e=np.full(la.shape, math.nan), confirm=confirm)
        assert all(a == b for a, b in _row_fields(ref, got))


def _family_case(seed, dim):
    """A 1D or 2D grid, a family of members of mixed support (each zero
    outside its own box and at random nodes inside), an exponent, a
    weight or none, and the node mask of a region: every node, a Box or
    random nodes."""
    rng = np.random.default_rng(seed)
    box = Box((0.0,) * dim, tuple(float(b) for b in rng.uniform(0.5, 2.0, size=dim)))
    grid = Grid(box, tuple(int(n) for n in rng.integers(5, 400 if dim == 1 else 40, size=dim)))
    p = ExponentField.affine(box, float(rng.uniform(1.5, 4.0)),
                             tuple(float(s) for s in rng.uniform(-0.3, 0.3, size=dim)))
    x = grid.coords
    members = []
    for _ in range(int(rng.integers(1, 7))):
        vals = 10.0 ** rng.uniform(-3.0, 3.0) * np.sin(rng.uniform(1.0, 9.0) * x.sum(axis=-1))
        lo = rng.uniform(box.lo, box.hi)
        hi = lo + rng.uniform(0.0, 1.0) * (np.array(box.hi) - lo)
        vals[~np.all((x >= lo) & (x <= hi), axis=-1) | (rng.random(grid.shape) < 0.2)] = 0.0
        members.append(vals)
    w = None if rng.random() < 0.3 else WeightField(grid, np.exp(rng.uniform(-1.0, 1.0, grid.shape)))
    kind = rng.integers(0, 3)
    if kind == 0:
        inside = np.ones(grid.shape, dtype=bool)
    elif kind == 1:
        lo = rng.uniform(box.lo, box.hi)
        inside = box_mask(grid, Box(tuple(lo), tuple(
            lo + rng.uniform(0.3, 1.0) * (np.array(box.hi) - lo))))
    else:
        inside = rng.random(grid.shape) < rng.uniform(0.2, 1.0)
        inside.flat[int(rng.integers(grid.size))] = True
    return grid, np.stack(members), p, w, inside


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, dim=st.sampled_from([1, 2]))
def test_weighted_norm_equals_its_row_of_weighted_norms(seed, dim):
    """One row path: `weighted_norm` of a member cut to a region is, to
    the last bit, the one-row `weighted_norms` solve of the cut member and
    the solve of the uncut member's table on its rows cut by the region's
    node mask.  In a family solve a shorter row is padded to the
    longest, which regroups its pairwise sums, so there it may move by a
    few ulps (seed 2645788, dim 2 moves one row by 1 ulp)."""
    grid, stack, p, w, inside = _family_case(seed, dim)
    cut = np.where(inside, stack, 0.0)
    batch = weighted_norms(cut, grid, p, w)
    for i in range(len(stack)):
        want = weighted_norm(GridFunction(grid, cut[i]), p, w).value
        assert weighted_norms(cut[i:i + 1], grid, p, w)[0] == want
        table = weighted_table(stack[i:i + 1], grid, p, w)
        assert table.solve(table.rows(inside)).value[0] == want
        assert abs(batch[i] - want) <= 1e-14 * want


# -- dense tables: solved in place, no gather ----------------------------------


def _dense_case(seed, dim, kind):
    """A 1D or 2D grid, a stack of 1-6 members that are nonzero at every
    node (amplitudes 1e-3 to 1e3), a constant, affine or piecewise
    exponent, and a weight or none."""
    rng = np.random.default_rng(seed)
    box = Box((0.0,) * dim, tuple(float(b) for b in rng.uniform(0.5, 2.0, size=dim)))
    grid = Grid(box, tuple(int(n) for n in rng.integers(3, 400 if dim == 1 else 40, size=dim)))
    a = float(rng.uniform(1.2, 4.0))
    if kind == "constant":
        p = ExponentField.constant(box, a)
    elif kind == "affine":
        p = ExponentField.affine(box, a, tuple(float(s) for s in rng.uniform(-0.3, 0.3, size=dim)))
    else:
        cut = float(rng.uniform(box.lo[0], box.hi[0]))
        p = ExponentField.piecewise(box, [cut], [a, float(rng.uniform(1.2, 4.0))])
    x = grid.coords.sum(axis=-1)
    stack = np.stack([10.0 ** rng.uniform(-3.0, 3.0) * (1.5 + np.sin(rng.uniform(1.0, 9.0) * x))
                      for _ in range(int(rng.integers(1, 7)))])
    w = None if rng.random() < 0.3 else WeightField(grid, np.exp(rng.uniform(-1.0, 1.0, grid.shape)))
    return grid, stack, p, w


EXPONENT_KINDS = st.sampled_from(["constant", "affine", "piecewise"])


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=st.sampled_from([1, 2]), kind=EXPONENT_KINDS)
def test_dense_table_solved_in_place_is_the_gathered_solve_bit_for_bit(seed, dim, kind):
    """A dense table's default solve reads its node table in place; it
    returns, field by field, the solve that gathers every member's row
    of all nodes in node order."""
    grid, stack, p, w = _dense_case(seed, dim, kind)
    table = weighted_table(stack, grid, p, w)
    assert table.dense
    every = np.tile(np.arange(grid.size), (len(stack), 1))
    assert all(a == b for a, b in _row_fields(table.solve(every), table.solve()))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=st.sampled_from([1, 2]), kind=EXPONENT_KINDS)
def test_a_zero_node_sends_the_solve_through_the_packed_rows(seed, dim, kind):
    """With one node zeroed in every member the table is not dense, so
    its default solve gathers the packed rows of the other nodes; each
    row, unpadded, is its member's `weighted_norm` to the last bit."""
    grid, stack, p, w = _dense_case(seed, dim, kind)
    node = np.random.default_rng(seed).integers(grid.size)
    stack.reshape(len(stack), -1)[:, node] = 0.0
    table = weighted_table(stack, grid, p, w)
    assert not table.dense
    got = table.solve()
    assert all(a == b for a, b in _row_fields(table.solve(table.rows()), got))
    for i, member in enumerate(stack):
        assert got.value[i] == weighted_norm(GridFunction(grid, member), p, w).value


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=st.sampled_from([1, 2]), kind=EXPONENT_KINDS)
def test_weighted_norm_of_a_dense_function_is_its_one_member_row(seed, dim, kind):
    grid, stack, p, w = _dense_case(seed, dim, kind)
    """`weighted_norm` is the confirmed one-member solve, evaluation for
    evaluation, and its value is the unconfirmed solve's."""
    got = weighted_norm(GridFunction(grid, stack[0]), p, w)
    table = weighted_table(stack[:1], grid, p, w)
    row, confirmed = table.solve(), table.solve(confirm=True)
    assert got.value == row.value[0] == confirmed.value[0]
    assert got.iterations == confirmed.iterations[0]
    assert weighted_norms(stack[:1], grid, p, w)[0] == got.value


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, dim=st.sampled_from([1, 2]), kind=EXPONENT_KINDS)
def test_modular_of_a_dense_function_is_the_masked_sum_bit_for_bit(seed, dim, kind):
    grid, stack, p, _ = _dense_case(seed, dim, kind)
    a = np.abs(stack[0]).ravel()
    nz = a > 0.0
    qw, pv = grid.quad_weights.ravel()[nz], p.values_on(grid).ravel()[nz]
    want = float(np.sum(qw * np.exp(pv * np.log(a[nz]))))
    assert modular(GridFunction(grid, stack[0]), p) == want


def test_log_quad_weights_are_one_read_only_array_per_grid():
    for shape in ((65,), (17, 33)):
        box = Box((0.0,) * len(shape), (1.5,) * len(shape))
        lq = Grid(box, shape).log_quad_weights
        assert lq.tobytes() == np.log(Grid(box, shape).quad_weights).tobytes()
        assert not lq.flags.writeable
        assert Grid(box, shape).log_quad_weights is lq


# -- working set of a dense solve ----------------------------------------------


_SQUARE = Grid(Box((0.0, 0.0), (1.0, 1.0)), (257, 257))


def _dense_square():
    x = _SQUARE.coords
    f = 2.0 + np.sin(3.0 * x[..., 0] + 5.0 * x[..., 1])
    p = ExponentField.affine(_SQUARE.box, 2.5, (0.3, -0.2))
    return f, p, WeightField(_SQUARE, np.exp(0.3 * x[..., 0]))


def test_dense_solves_never_build_rows(monkeypatch):
    def refuse(self, select=None):
        raise AssertionError("a dense default solve built node rows")

    f, p, w = _dense_square()
    monkeypatch.setattr(NodeTable, "rows", refuse)
    weighted_norm(GridFunction(_SQUARE, f), p, w)
    weighted_norms(np.stack([f, 2.0 * f]), _SQUARE, p, w)


def _peak_grids(fn) -> float:
    """The tracemalloc peak of a warm ``fn()``, in 257^2 float grids."""
    fn()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (_SQUARE.size * 8)


def test_dense_solves_hold_no_gathered_copies():
    """Peaks at 257^2: a norm holds its log|f| table, its nonzero mask
    and the Newton workspace (2.13 grids; 6.13 when it gathered three
    copies and built log weights); a 4-member weighted stack also holds
    ``f w`` (12.5 grids; 25.5 before); a modular holds |f|, its mask and
    two temporaries (3.13 grids; 5.13 with three masked copies)."""
    f, p, w = _dense_square()
    stack = np.stack([f * (k + 1) for k in range(4)])
    assert _peak_grids(lambda: weighted_norm(GridFunction(_SQUARE, f), p)) <= 2.5
    assert _peak_grids(lambda: weighted_norms(stack, _SQUARE, p, w)) <= 13.0
    assert _peak_grids(lambda: modular(GridFunction(_SQUARE, f), p)) <= 3.5


# -- the per-thread buffer of gathered solves ------------------------------------


def _sparse_table(members: int, n: int, seed: int = 0):
    """The table of ``members`` bumps on ``n`` nodes, each zero outside
    its own interval (so rows of different widths), with an affine
    exponent and a weight."""
    rng = np.random.default_rng(seed)
    g = grid1d(n)
    x = g.coords[..., 0]
    stack = []
    for _ in range(members):
        lo = rng.uniform(0.0, 0.5)
        hi = lo + rng.uniform(0.2, 0.5)
        stack.append(np.where((x > lo) & (x < hi), 10.0 ** rng.uniform(-2.0, 2.0)
                              * (1.2 + np.sin(rng.uniform(3.0, 9.0) * x)), 0.0))
    p = ExponentField.affine(g.box, float(rng.uniform(1.5, 3.0)), (0.8,))
    w = WeightField(g, np.exp(rng.uniform(-1.0, 1.0, g.shape)))
    return weighted_table(np.stack(stack), g, p, w)


def _fresh_solve(table, rows, confirm=False):
    """The solve of ``rows`` gathered by fancy indexing into fresh arrays,
    with a fresh workspace: the reference of the buffered solve."""
    n = len(table.p)
    member = np.arange(len(rows))[:, None] if len(table.la) > 1 else 0
    clipped = np.minimum(rows, n - 1)
    return lux_rows(table.la[member, rows], table.p[clipped], table.lq[clipped],
                    confirm=confirm)


@pytest.fixture
def new_buffer(monkeypatch):
    """Gathered solves in this test start from an empty buffer."""
    monkeypatch.setattr(norms_module, "_buffer", threading.local())


def test_a_gathered_solve_is_unchanged_when_a_later_solve_grows_the_buffer(new_buffer):
    small, large = _sparse_table(3, 257, seed=1), _sparse_table(8, 4097, seed=2)
    got = small.solve()
    want = [a.copy() for a in got]
    assert norms_module._buffer.floats.size == 4 * small.rows().size
    large.solve()
    assert norms_module._buffer.floats.size == 4 * large.rows().size
    assert all(a.tobytes() == b.tobytes() for a, b in zip(want, got))
    for field in got:
        assert not np.shares_memory(field, norms_module._buffer.floats)


@pytest.mark.parametrize("confirm", [False, True])
def test_buffered_solves_before_and_after_growth_and_above_the_cap_are_fresh_solves(
        new_buffer, monkeypatch, confirm):
    """A table's solve, first into an empty buffer, then into one grown by
    a larger solve (whose start the small solve then reuses), then with
    the cap below the small block, equals the solve gathered into fresh
    arrays field by field, to the last bit; a solve above the cap leaves
    the buffer as it was."""
    small, large = _sparse_table(5, 1025, seed=3), _sparse_table(8, 4097, seed=4)
    want_small = _fresh_solve(small, small.rows(), confirm)
    want_large = _fresh_solve(large, large.rows(), confirm)
    assert all(a == b for a, b in _row_fields(want_small, small.solve(confirm=confirm)))
    assert all(a == b for a, b in _row_fields(want_large, large.solve(confirm=confirm)))
    assert all(a == b for a, b in _row_fields(want_small, small.solve(confirm=confirm)))
    kept = norms_module._buffer.floats
    monkeypatch.setattr(norms_module, "SOLVE_BUFFER_BYTES", 8 * small.rows().size)
    assert all(a == b for a, b in _row_fields(want_small, small.solve(confirm=confirm)))
    assert norms_module._buffer.floats is kept


def test_two_threads_solving_at_once_get_their_serial_results():
    tables = [_sparse_table(6, 2049, seed=5), _sparse_table(4, 4097, seed=6)]
    serial = [table.solve() for table in tables]
    start = threading.Barrier(len(tables))
    results = [[] for _ in tables]

    def solve(i):
        start.wait()
        for _ in range(20):
            results[i].append(tables[i].solve())

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(tables))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for want, got in zip(serial, results):
        assert len(got) == 20
        assert all(a == b for res in got for a, b in _row_fields(want, res))


def test_a_node_mask_that_keeps_no_node_gives_norm_zero():
    table = _sparse_table(4, 257, seed=7)
    table.solve()  # a buffer with values in it
    for select in (np.zeros(257, dtype=bool), np.arange(257) > 300):
        res = table.solve(table.rows(select))
        assert res.value.tolist() == [0.0] * 4
        assert [b.tolist() for b in res.bracket] == [[0.0] * 4] * 2
        assert res.iterations.tolist() == [0] * 4


def test_a_warm_gathered_solve_allocates_less_than_one_row_array():
    """After one call, a gathered solve of an 8 x 4,097 sparse table, its
    node rows given, takes its three gathered rows and its workspace from
    the buffer: its tracemalloc peak is below one ``(rows, k)`` float
    array (0.53 of one, against 4.5 when each solve made its own).  Its
    rows stop together, so the Newton loop makes no smaller copies of
    them."""
    table = _sparse_table(8, 4097, seed=8)
    rows = table.rows()
    iterations = table.solve(rows).iterations
    assert (iterations == iterations[0]).all()
    tracemalloc.start()
    try:
        table.solve(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows.size
