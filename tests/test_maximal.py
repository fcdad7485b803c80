"""Maximal operator, oscillation averages, and the boundedness probe."""

import math
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varleb import (Box, DomainError, DyadicCubeSet, ExponentField, Grid,
                    GridFunction, HypothesisFailureError, RadiusSweep, ball_mask,
                    ball_mean, ball_measure, ball_sums, maximal_boundedness_probe,
                    maximal_function, oscillation_average, oscillation_profiles)
import varleb.maximal as maximal_module
from varleb.field import BALL_SHRINK, _shift_slices, realize_function
from varleb.maximal import _offset_list, _row_reach, _row_reaches

from _support import (UNIT, family_of, from_callable, grid1d, half_step_cell, half_step_units,
                      member_major_oscillation_profiles, unit_weight, with_radii)


def indicator(grid, lo, hi):
    return from_callable(
        grid, lambda pts: ((pts[..., 0] >= lo) & (pts[..., 0] <= hi)).astype(float))


# -- radius sweeps -------------------------------------------------------


def test_sweep_geometric_spans_grid():
    g = grid1d(257)
    sweep = RadiusSweep.geometric(g)
    assert len(sweep.radii) == 64
    assert sweep.radii[0] == pytest.approx(g.max_step)
    assert sweep.radii[-1] == pytest.approx(g.box.diameter)
    sweep.validate_for(g)



def test_sweep_geometric_starts_at_the_smallest_step_of_a_non_square_grid():
    g = Grid(Box((0.0, 0.0), (100.0, 1.0)), (17, 17))
    sweep = RadiusSweep.geometric(g, 4)
    assert sweep.radii[0] == min(g.steps) == 1.0 / 16.0
    sweep.validate_for(g)
    with pytest.raises(DomainError, match="below the grid step 0.0625"):
        RadiusSweep((0.06, 1.0)).validate_for(g)

def test_sweep_with_required_radii():
    g = Grid(Box((-0.5,), (8.5,)), (1025,))
    sweep = with_radii(g, 64, (1.5, 2.0, 4.0))
    assert {1.5, 2.0, 4.0} <= set(sweep.radii)


def test_sweep_with_required_radii_refuses_a_count_below_their_number():
    g = grid1d(257)
    with pytest.raises(DomainError, match="count must be at least the 3 required radii, got 2"):
        with_radii(g, 2, (0.1, 0.2, 0.3))


def test_sweep_rejects_disorder():
    with pytest.raises(DomainError):
        RadiusSweep((0.2, 0.1))
    with pytest.raises(DomainError):
        RadiusSweep(())
    with pytest.raises(DomainError):
        RadiusSweep((-1.0, 1.0))
    with pytest.raises(DomainError, match="positive"):
        RadiusSweep((math.nan, 1.0))
    with pytest.raises(DomainError, match="increase strictly"):
        RadiusSweep((0.1, math.nan))


def test_sweep_validation_against_grid():
    g = grid1d(257)
    with pytest.raises(DomainError):
        RadiusSweep((g.max_step / 10.0, 1.0)).validate_for(g)
    with pytest.raises(DomainError):
        RadiusSweep((g.max_step, 5.0)).validate_for(g)


# -- ball sums -----------------------------------------------------------


@st.composite
def grid_and_radius(draw):
    """A 1D or anisotropic 2D grid and a radius that is an exact multiple
    of a step, the box diameter, or anything in between."""
    dim = draw(st.sampled_from([1, 2]))
    widths = tuple(draw(st.sampled_from([0.5, 0.7, 1.0, 1.3, 3.0])) for _ in range(dim))
    shape = tuple(draw(st.integers(2, 40 if dim == 1 else 16)) for _ in range(dim))
    grid = Grid(Box((0.0,) * dim, widths), shape)
    radius = draw(st.one_of(
        st.builds(lambda k, h: k * h, st.integers(1, 12), st.sampled_from(grid.steps)),
        st.just(grid.box.diameter),
        st.floats(min(grid.steps), grid.box.diameter)))
    return grid, radius


def brute_ball_sums(arr, grid, radius):
    return np.array([np.sum(arr[ball_mask(grid, grid.coords[idx], radius)])
                     for idx in np.ndindex(*grid.shape)]).reshape(grid.shape)


SMALL_GRIDS = [grid1d(9), Grid(Box((0.0, 0.0), (1.3, 0.7)), (7, 5))]
BALL_ENTRIES = {
    "ball_sums": lambda g, r: ball_sums(np.ones(g.shape), g, r),
    "ball_measure": ball_measure,
    "ball_mean": lambda g, r: ball_mean(np.ones(g.shape), g, r),
    "ball_mask": lambda g, r: ball_mask(g, g.coords[(0,) * g.dim], r),
}


@pytest.mark.parametrize("radius", [0.0, -0.3, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("entry", sorted(BALL_ENTRIES))
@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=["1d", "2d"])
def test_a_ball_radius_that_is_not_positive_is_refused(grid, entry, radius):
    """Zero and negative radii gave uninitialised sums and garbage
    measures, and NaN a bare ValueError or an empty mask."""
    with pytest.raises(DomainError, match=f"ball radius must be positive, got {radius}"):
        BALL_ENTRIES[entry](grid, radius)


@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=["1d", "2d"])
def test_a_ball_whose_radius_squares_to_zero_is_its_centre_node(grid):
    """A radius of 1e-200 squares to 0, which in 2D left the lattice ball
    empty; below half a step every ball is its centre node alone."""
    arr = np.random.default_rng(2).uniform(size=grid.shape)
    assert np.array_equal(ball_measure(grid, 1e-200), grid.quad_weights)
    assert np.array_equal(ball_sums(arr, grid, 1e-200), arr)


@settings(max_examples=80, deadline=None)
@given(grid_and_radius(), st.data())
def test_ball_sums_match_brute_force_masks(case, data):
    grid, radius = case
    # entries are 0 or in [1/4, 1], so no window is tiny against a row total
    arr = data.draw(arrays(float, grid.shape, elements=st.one_of(
        st.just(0.0), st.floats(0.25, 1.0))))
    np.testing.assert_allclose(ball_sums(arr, grid, radius),
                               brute_ball_sums(arr, grid, radius), rtol=1e-12, atol=0.0)


@settings(max_examples=80, deadline=None)
@given(grid_and_radius(), st.data())
def test_ball_sums_error_is_bounded_by_the_row_totals(case, data):
    """For any nonnegative input the prefix-sum windows are nonnegative,
    and each of a ball's rows is off by at most (row length) x eps x
    (row total)."""
    grid, radius = case
    arr = data.draw(arrays(float, grid.shape, elements=st.floats(0.0, 1e6)))
    got = ball_sums(arr, grid, radius)
    want = brute_ball_sums(arr, grid, radius)
    bound = 1e-12 * want + 2.0 * grid.size * np.finfo(float).eps * arr.sum(axis=-1).max()
    assert np.all(got >= 0.0)
    assert np.all(np.abs(got - want) <= bound)


def two_interval_ball_sums(arr, grid, radius):
    """The earlier form of the row loop: every row offset k1 computes its
    interval twice, once for the rows above and once for the rows below."""
    reach = _row_reach(grid, radius * BALL_SHRINK)
    if reach == [0]:
        return arr.copy()
    n = arr.shape[-1]
    pad = min(reach[0], n - 1)
    csum = np.cumsum(arr, axis=-1)
    padded = np.concatenate([np.zeros(arr.shape[:-1] + (pad + 1,)), csum,
                             np.repeat(csum[..., -1:], pad, axis=-1)], axis=-1)

    def interval(rows, k2):
        k2 = min(k2, n - 1)
        return (padded[rows, pad + k2 + 1:pad + k2 + 1 + n]
                - padded[rows, pad - k2:pad - k2 + n])

    out = interval(Ellipsis, reach[0])
    for k1 in range(1, min(len(reach), arr.shape[0])):
        out[:-k1] += interval(slice(k1, None), reach[k1])
        out[k1:] += interval(slice(None, -k1), reach[k1])
    return out


@settings(max_examples=80, deadline=None)
@given(grid_and_radius(), st.data())
def test_ball_sums_are_bit_identical_to_the_two_interval_loop(case, data):
    """One interval per row offset, added at +k1 and -k1, makes the same
    subtractions and the same additions in the same order."""
    grid, radius = case
    arr = data.draw(arrays(float, grid.shape, elements=st.floats(-1e6, 1e6)))
    assert np.array_equal(ball_sums(arr, grid, radius),
                          two_interval_ball_sums(arr, grid, radius))


@st.composite
def banded_arrays(draw):
    """An anisotropic 2D grid, a sweep on it, and one array or a
    ``(trials, n1, n2)`` stack that is zero outside a row band: the
    empty band, one row, every row or any run of rows, with rows of
    each member inside the band zeroed at random (a gap)."""
    widths = tuple(draw(st.sampled_from([0.5, 0.7, 1.0, 1.3, 3.0])) for _ in range(2))
    shape = tuple(draw(st.integers(2, 16)) for _ in range(2))
    grid = Grid(Box((0.0, 0.0), widths), shape)
    n1 = shape[0]
    kind = draw(st.sampled_from(["empty", "one", "all", "run"]))
    if kind == "empty":
        s0 = s1 = draw(st.integers(0, n1))
    elif kind == "one":
        s0 = draw(st.integers(0, n1 - 1))
        s1 = s0 + 1
    elif kind == "all":
        s0, s1 = 0, n1
    else:
        s0 = draw(st.integers(0, n1 - 1))
        s1 = draw(st.integers(s0 + 1, n1))
    trials = draw(st.sampled_from([(), (1,), (3,)]))
    arr = draw(arrays(float, trials + shape, elements=st.floats(-1e6, 1e6)))
    arr[..., :s0, :] = 0.0
    arr[..., s1:, :] = 0.0
    gap = draw(arrays(bool, trials + (n1, 1)))
    arr[gap.repeat(shape[1], axis=-1)] = 0.0
    sweep = RadiusSweep.geometric(grid, draw(st.integers(2, 24)))
    return grid, arr, sweep


@settings(max_examples=100, deadline=None)
@given(banded_arrays())
def test_ball_sums_of_banded_rows_are_bit_identical_to_the_two_interval_loop(case):
    """Windowing only the mass rows, and adding only what they reach,
    changes no bit of any ball sum of a sweep."""
    grid, arr, sweep = case
    radii = {}
    for r in sweep.radii:
        radii.setdefault(tuple(_row_reach(grid, r * BALL_SHRINK)), r)
    sums = maximal_module._ball_sums(arr, [list(reach) for reach in radii])
    members = arr.reshape((-1,) + grid.shape)
    for r, (got, _) in zip(radii.values(), sums):
        want = [two_interval_ball_sums(member, grid, r) for member in members]
        assert np.array_equal(got, np.reshape(want, arr.shape))


def three_op_window(prefix, k2, out):
    """The window as three column-sliced operations over the block: the
    reference for `_window`."""
    n = out.shape[-1]
    out[..., :n - k2] = prefix[..., k2:]
    out[..., n - k2:] = prefix[..., -1:]
    out[..., k2 + 1:] -= prefix[..., :n - k2 - 1]
    return out


@st.composite
def window_blocks(draw):
    """Signed values with +-0.0 entries and whole zero rows, as a 1D row,
    a 2D block, a stack of either, or the mass band of a 2D stack, which
    is not contiguous; with the index of that band (all of it elsewhere)."""
    n = draw(st.integers(1, 24))
    lead = draw(st.sampled_from([(), (3,), (2, 5), (4, 1)]))
    arr = draw(arrays(float, lead + (n,), elements=st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))))
    if lead:
        zero = draw(arrays(bool, lead + (1,)))
        arr[zero.repeat(n, axis=-1)] = draw(st.sampled_from([0.0, -0.0]))
    band = (Ellipsis,)
    if len(lead) == 2 and draw(st.booleans()):
        s0 = draw(st.integers(0, lead[1]))
        band = (Ellipsis, slice(s0, draw(st.integers(s0, lead[1]))), slice(None))
    return arr, band


@settings(max_examples=150, deadline=None)
@given(window_blocks())
def test_window_is_the_three_op_window_bit_for_bit(case):
    """Run over the flattened block, narrow and wide half-widths alike
    give the bits and zero signs of the three column-sliced operations,
    also for the band of a stack windowed into the contiguous block at
    the start of a scratch array, as `_ball_sums` windows it."""
    arr, band = case
    prefix = maximal_module._prefix(arr[band])
    for k2 in range(arr.shape[-1]):
        want = three_op_window(prefix, k2, np.full(arr.shape, np.nan)[band])
        got = maximal_module._window(
            prefix, k2, np.full(arr.shape, np.nan).reshape(-1)[:prefix.size].reshape(prefix.shape))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def windowed_rows(monkeypatch):
    """The number of rows of every `_window` call, in call order."""
    rows = []
    original = maximal_module._window

    def counting(prefix, k2, out):
        rows.append(out.shape[-2] if out.ndim > 1 else 1)
        return original(prefix, k2, out)

    monkeypatch.setattr(maximal_module, "_window", counting)
    return rows


def test_maximal_function_windows_only_the_rows_that_hold_mass(monkeypatch):
    g = Grid(Box((0.0, 0.0), (1.0, 1.0)), (129, 129))
    f = realize_function({"kind": "bump", "center": [0.4, 0.6], "radius": 0.25}, g)
    live = np.flatnonzero(np.any(f.values != 0.0, axis=-1))
    a, b = live[0], live[-1]
    assert 0 < a and b < 128
    rows = windowed_rows(monkeypatch)
    sweep = RadiusSweep.geometric(g, 64)
    mf = maximal_function(f, 1.3, sweep)
    assert rows and set(rows) == {b - a + 1}
    assert np.array_equal(mf.values, looped_maximal(f, 1.3, sweep))


def test_maximal_function_of_zero_in_2d_is_zero(monkeypatch):
    g = Grid(Box((0.0, 0.0), (1.3, 0.7)), (21, 15))
    rows = windowed_rows(monkeypatch)
    mf = maximal_function(GridFunction(g, np.zeros(g.shape)), 2.0, RadiusSweep.geometric(g, 12))
    assert np.array_equal(mf.values, np.zeros(g.shape))
    assert set(rows) == {0}


def test_ball_sums_of_a_1d_stack_window_every_member(monkeypatch):
    """A stack of 1D functions has ``ndim`` 2 but no rows: its zero
    members are windowed like the others."""
    g = grid1d(65)
    stack = np.zeros((4,) + g.shape)
    stack[1:3] = np.random.default_rng(8).normal(size=(2,) + g.shape)
    rows = windowed_rows(monkeypatch)
    got = ball_sums(stack, g, 0.1)
    assert rows == [4]
    assert np.array_equal(got, [ball_sums(member, g, 0.1) for member in stack])


@settings(max_examples=80, deadline=None)
@given(grid_and_radius())
def test_ball_measure_matches_brute_force_masks(case):
    grid, radius = case
    got = ball_measure(grid, radius)
    assert np.all(got >= 0.0)
    np.testing.assert_allclose(got, brute_ball_sums(grid.quad_weights, grid, radius),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("lo, hi, shape", [
    ((0.0,), (1.0,), (65,)),
    ((0.0, 0.0), (1.0, 1.0), (33, 33)),
    ((0.0, -1.0), (2.0, 1.0), (17, 65)),
    ((0.0, 0.0), (0.5, 4.0), (33, 9)),
], ids=["1d", "square", "anisotropic", "wide"])
def test_ball_measure_is_the_ball_sums_of_the_weights_on_dyadic_grids(lo, hi, shape):
    """With power-of-two steps every partial sum of the weights is exact,
    so the tensor product and the row prefix sums give the same bits."""
    g = Grid(Box(lo, hi), shape)
    for r in RadiusSweep.geometric(g, 24).radii:
        assert np.array_equal(ball_measure(g, r), ball_sums(g.quad_weights, g, r))


def exact_count_measure(grid, radius):
    """The ball measure as the cell, ``h/2`` in 1D and ``(h1/2)(h2/2)``
    in 2D, times an integer count of half-step units, summed over every
    lattice offset that passes the membership test ``|k| h < r`` in 1D or
    ``(k1 h1)^2 + (k2 h2)^2 < r^2`` in 2D."""
    units = reduce(np.multiply.outer, map(half_step_units, grid.shape)).astype(np.int64)
    r_eff = radius * BALL_SHRINK
    count = np.zeros(grid.shape, dtype=np.int64)
    for delta in np.ndindex(*(2 * n - 1 for n in grid.shape)):
        delta = tuple(k - (n - 1) for k, n in zip(delta, grid.shape))
        if (abs(delta[0]) * grid.steps[0] < r_eff if grid.dim == 1 else
                (delta[0] * grid.steps[0]) ** 2 + (delta[1] * grid.steps[1]) ** 2 < r_eff ** 2):
            dst, src = _shift_slices(grid.shape, delta)
            count[dst] += units[src]
    return count * half_step_cell(grid)


@st.composite
def non_dyadic_grid_and_radius(draw):
    """A 1D or anisotropic 2D grid whose steps are not dyadic, and a
    radius from one step to the box diameter."""
    dim = draw(st.sampled_from([1, 2]))
    widths = tuple(draw(st.sampled_from([0.3, 0.7, 1.3, 3.0])) for _ in range(dim))
    grid = Grid(Box((0.0, -1.0)[:dim], (widths[0], widths[-1] - 1.0)[:dim]),
                tuple(draw(st.integers(2, 40 if dim == 1 else 16)) for _ in range(dim)))
    radius = draw(st.one_of(
        st.builds(lambda k, h: k * h, st.integers(1, 12), st.sampled_from(grid.steps)),
        st.floats(grid.max_step, grid.box.diameter)))
    return grid, radius


@settings(max_examples=80, deadline=None)
@given(non_dyadic_grid_and_radius())
@example((Grid(Box((0.0,), (1.3,)), (5,)), 0.65)).via("a rounded weight prefix in 1D")
def test_ball_measure_is_an_exact_count_of_half_steps_and_flips_to_itself(case):
    """On non-dyadic grids the weights' partial sums are not exact, but
    their counts in half-step units are: the measure is rounded once and
    is the same under every axis flip, in 1D and on anisotropic 2D
    grids."""
    grid, radius = case
    got = ball_measure(grid, radius)
    assert np.array_equal(got, exact_count_measure(grid, radius))
    for axis in range(grid.dim):
        assert np.array_equal(got, np.flip(got, axis))


def test_maximal_function_sums_f_once_per_distinct_ball_and_never_the_weights(monkeypatch):
    g = Grid(Box((0.0, 0.0), (1.3, 0.7)), (21, 15))
    f = GridFunction(g, np.random.default_rng(4).normal(size=g.shape))
    sweep = RadiusSweep.geometric(g, 12)
    seen = []
    original = maximal_module._ball_sums

    def counting(arr, reaches):
        seen.append((arr, list(reaches)))
        return original(arr, reaches)

    monkeypatch.setattr(maximal_module, "_ball_sums", counting)
    maximal_function(f, 1.3, sweep)
    balls = {tuple(_row_reach(g, r * BALL_SHRINK)) for r in sweep.radii}
    assert len(seen) == 1
    assert sorted(map(tuple, seen[0][1])) == sorted(balls)
    ball_mean(f.values, g, 0.2)
    assert len(seen) == 2 and len(seen[1][1]) == 1
    assert not any(np.array_equal(arr, g.quad_weights) for arr, _ in seen)


def distinct_balls(grid, sweep):
    """The reach lists of a sweep, a run of equal ones kept once."""
    reaches = []
    for r in sweep.radii:
        reach = _row_reach(grid, r * BALL_SHRINK)
        if not reaches or reach != reaches[-1]:
            reaches.append(reach)
    return reaches


def gathered_ball_measure(grid, radius):
    """The tensor-product measure ``T @ V``, with T and V gathered by
    index arrays over every node, in units of half a step, and scaled
    once by ``(h1/2)(h2/2)``; in 1D the row sums of the units, scaled
    once by ``h/2``."""
    reach = _row_reach(grid, radius * BALL_SHRINK)
    if reach == [0]:
        return grid.quad_weights.copy()
    if grid.dim == 1:
        return two_interval_ball_sums(half_step_units(grid.shape[0]), grid, radius) \
            * half_step_cell(grid)
    (n1, n), widest = grid.shape, reach[0]
    u1, u2 = half_step_units(n1), half_step_units(n)
    csum = np.cumsum(u2)
    padded = np.concatenate([np.zeros(widest + 1), csum, np.full(widest, csum[-1])])
    k2, cols = np.array(reach)[:, None], np.arange(n)
    v = padded[widest + k2 + 1 + cols] - padded[widest - k2 + cols]
    rows, m = len(reach), np.arange(len(reach))
    i = np.arange(n1)[:, None]
    zero_padded = np.concatenate([np.zeros(rows), u1, np.zeros(rows)])
    t = zero_padded[rows + i - m] + zero_padded[rows + i + m]
    t[:, 0] = u1
    h1, h2 = grid.steps
    return (t @ v) * ((0.5 * h1) * (0.5 * h2))


def power_of_two_at_or_above(top):
    """The least power of two s >= top (1 for top = 0)."""
    s = 1.0
    while s < top:
        s *= 2.0
    while top and s / 2.0 >= top:
        s /= 2.0
    return s


def looped_maximal(f, qtilde, sweep):
    """One ball sum and one ball measure per radius of the sweep, both
    from the references in this file, taken of f / s and scaled back by
    s = power_of_two_at_or_above(max |f|)."""
    s = power_of_two_at_or_above(np.abs(f.values).max())
    powed = f.grid.quad_weights * np.abs(f.values / s) ** qtilde
    best = np.zeros(f.grid.shape)
    for r in sweep.radii:
        num = two_interval_ball_sums(powed, f.grid, r)
        np.maximum(best, num / gathered_ball_measure(f.grid, r), out=best)
    return s * best ** (1.0 / qtilde)


@st.composite
def function_and_sweep(draw):
    """A 1D, square 2D or anisotropic 2D grid, values on it, and a
    geometric sweep, a sweep with required radii, or a sweep in which
    radii a relative 1e-7 apart repeat their lattice balls; every sweep
    starts at one step, the centre-node ball on 1D and square grids."""
    kind = draw(st.sampled_from(["1d", "square", "anisotropic"]))
    if kind == "square":
        n = draw(st.integers(2, 24))
        grid = Grid(Box((0.0, 0.0), (1.0, 1.0)), (n, n))
    else:
        dim = 1 if kind == "1d" else 2
        widths = tuple(draw(st.sampled_from([0.5, 0.7, 1.0, 1.3, 3.0])) for _ in range(dim))
        shape = tuple(draw(st.integers(3, 60) if dim == 1 else st.integers(2, 20))
                      for _ in range(dim))
        grid = Grid(Box((0.0,) * dim, widths), shape)
    values = draw(arrays(float, grid.shape, elements=st.one_of(
        st.just(0.0), st.floats(-1e3, 1e3))))
    lo, hi = grid.max_step, grid.box.diameter
    sweep_kind = draw(st.sampled_from(["geometric", "with_radii", "repeated"]))
    if sweep_kind == "geometric":
        sweep = RadiusSweep.geometric(grid, draw(st.integers(2, 40)))
    elif sweep_kind == "with_radii":
        required = draw(st.lists(st.floats(lo, hi), max_size=3, unique=True))
        sweep = with_radii(grid, draw(st.integers(len(required) + 2, 40)), required)
    else:
        base = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=12))
        twins = (max(lo, r * (1.0 - 1e-7)) for r in base)
        sweep = RadiusSweep(tuple(sorted({lo, *base, *twins})))
    return GridFunction(grid, values), sweep


@settings(max_examples=150, deadline=None)
@given(function_and_sweep(), st.sampled_from([0.5, 1.0, 1.3]))
def test_maximal_function_is_bit_identical_to_the_per_radius_loop(case, qtilde):
    """Radii that repeat a lattice ball are skipped, one prefix serves
    the sweep and chunks of balls share their row windows, yet every
    node gets the same subtractions and additions in the same order."""
    f, sweep = case
    assert np.array_equal(maximal_function(f, qtilde, sweep).values,
                          looped_maximal(f, qtilde, sweep))


@pytest.mark.parametrize("box, shape, count, windows", [
    (Box((0.0,), (1.0,)), (4097,), 64, 55),
    (Box((0.0, 0.0), (1.0, 1.0)), (129, 129), 64, 444),
    (Box((0.0, -1.0), (1.3, 0.7)), (21, 15), 12, None),
    (Box((0.0, 0.0), (0.1, 3.0)), (9, 40), 20, None),
], ids=["1d", "square", "anisotropic", "wide"])
def test_maximal_function_builds_one_prefix_and_one_window_per_half_width_of_a_chunk(
        monkeypatch, box, shape, count, windows):
    """At 129^2 x 64 radii (55 distinct balls) the per-radius loop took
    1104 windows and 63 prefixes of f; the sweep takes 444 windows and
    one prefix."""
    g = Grid(box, shape)
    sweep = RadiusSweep.geometric(g, count)
    calls = {"_prefix": 0, "_window": 0}

    def counting(name):
        original = getattr(maximal_module, name)

        def wrapped(*args):
            calls[name] += 1
            return original(*args)
        return wrapped

    def unit_measure(grid, reach, out):
        out.fill(1.0)
        return out

    for name in calls:
        monkeypatch.setattr(maximal_module, name, counting(name))
    # the measure does not depend on f; keep its windows out of the count
    monkeypatch.setattr(maximal_module, "_ball_measure", unit_measure)
    maximal_function(GridFunction(g, np.ones(shape)), 1.0, sweep)
    balls, chunk = distinct_balls(g, sweep), maximal_module._BALLS_PER_CHUNK
    bound = sum(len({c for reach in balls[i:i + chunk] if reach != [0] for c in reach})
                for i in range(0, len(balls), chunk))
    assert calls["_prefix"] == 1
    assert calls["_window"] <= bound
    if windows is not None:
        assert calls["_window"] == windows


def test_maximal_function_peak_memory_does_not_grow_with_the_radius_count():
    """At 129^2 x 64 radii (55 distinct balls) the peak is about 10.5
    grid arrays: the supremum, one prefix, one row window, four ball
    sums, the measure's two factors and numpy's fixed 192 KiB of
    iterator buffers.  One accumulator per ball would need 55 arrays,
    and a prefix padded to three row widths two more."""
    g = Grid(Box((0.0, 0.0), (1.0, 1.0)), (129, 129))
    f = GridFunction(g, np.random.default_rng(11).normal(size=g.shape))
    sweep = RadiusSweep.geometric(g, 64)
    maximal_function(f, 1.3, sweep)
    tracemalloc.start()
    try:
        maximal_function(f, 1.3, sweep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * g.size * 8


def test_ball_of_one_step_is_the_centre_node():
    g = Grid(Box((0.0, 0.0), (1.0, 1.0)), (17, 17))
    arr = np.random.default_rng(0).uniform(size=g.shape)
    assert np.array_equal(ball_sums(arr, g, g.max_step), arr)


def looped_row_reach(grid, r_eff):
    """Lattice-ball reach by one membership test settled per row, in 1D
    and 2D alike: the reference for `_row_reach`."""
    h1, h2 = grid.steps[0], grid.steps[-1]
    if grid.dim == 1:
        def inside(k1, k2):
            return k1 == 0 and k2 * h2 < r_eff
    else:
        def inside(k1, k2):
            return (k1 * h1) ** 2 + (k2 * h2) ** 2 < r_eff ** 2
    reach = []
    while len(reach) < grid.shape[0] and inside(len(reach), 0):
        k1 = len(reach)
        k2 = int(math.sqrt(max(r_eff ** 2 - (k1 * h1) ** 2, 0.0)) / h2)
        while inside(k1, k2 + 1):
            k2 += 1
        while not inside(k1, k2):
            k2 -= 1
        reach.append(min(k2, grid.shape[-1] - 1))
    return reach


@pytest.mark.parametrize("box, shape", [
    (Box((0.0,), (1.0,)), (65,)), (Box((-1.0,), (2.0,)), (4097,)), (Box((0.0,), (0.3,)), (31,)),
    (Box((0.0, 0.0), (1.0, 1.0)), (33, 33)), (Box((0.0, -1.0), (1.3, 0.7)), (21, 15)),
    (Box((0.0, 0.0), (0.1, 3.0)), (9, 40))])
def test_row_reach_matches_the_looped_test_at_and_beside_multiples_of_the_step(box, shape):
    grid = Grid(box, shape)
    for h in grid.steps:
        for k in range(1, 2 * max(shape)):
            r = k * h
            for r_eff in (r, np.nextafter(r, 0.0), np.nextafter(r, math.inf),
                          r * BALL_SHRINK, r * (1.0 + 1e-9)):
                assert _row_reach(grid, float(r_eff)) == looped_row_reach(grid, float(r_eff))


@pytest.mark.parametrize("r_eff", [1.5531753009963172, 0.17096349208237413])
def test_row_reaches_settle_their_guesses_up_and_down(r_eff):
    """On this grid the ``searchsorted`` guess of some row of the ball of
    1.5531753009963172 is one offset short, and of 0.17096349208237413 one
    offset long, so the pass settles up at the one and down at the other;
    both agree with the looped test, as do their neighbours."""
    grid = Grid(Box((0.0, -1.0), (1.3, 0.7)), (33, 33))
    radii = [float(np.nextafter(r_eff, 0.0)), r_eff, float(np.nextafter(r_eff, math.inf))]
    assert _row_reaches(grid, radii) == [looped_row_reach(grid, r) for r in radii]


@pytest.mark.parametrize("shape", [(65,), (33, 33)])
def test_a_nan_radius_is_refused_before_it_is_cast(shape):
    """A NaN radius raises, wherever it stands in the sweep, and not by way
    of a warning from a cast of NaN to an integer."""
    grid = Grid(Box((0.0,) * len(shape), (1.3,) * len(shape)), shape)
    for radii in ([math.nan], [0.5, math.nan], [math.nan, 0.5]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((ValueError, DomainError)):
                _row_reaches(grid, radii)


@st.composite
def grid_and_radii(draw):
    """A 1D, square or anisotropic grid and radii: exact multiples of a
    step and their neighbours, and anything from half a step to four
    box diameters."""
    kind = draw(st.sampled_from(["1d", "square", "anisotropic"]))
    if kind == "square":
        n = draw(st.integers(2, 80))
        grid = Grid(Box((0.0, 0.0), (1.0, 1.0)), (n, n))
    else:
        dim = 1 if kind == "1d" else 2
        widths = tuple(draw(st.sampled_from([0.1, 0.3, 0.7, 1.0, 1.3, 3.0])) for _ in range(dim))
        shape = tuple(draw(st.integers(2, 300 if dim == 1 else 60)) for _ in range(dim))
        grid = Grid(Box((0.0,) * dim, widths), shape)
    multiple = st.builds(lambda k, h, nudge: float(np.nextafter(k * h, k * h + nudge)),
                         st.integers(1, 2 * max(grid.shape)), st.sampled_from(grid.steps),
                         st.sampled_from([-math.inf, 0.0, math.inf]))
    anywhere = st.floats(0.5 * min(grid.steps), 4.0 * grid.box.diameter)
    return grid, draw(st.lists(st.one_of(multiple, anywhere), min_size=1, max_size=40))


@settings(max_examples=150, deadline=None)
@given(grid_and_radii())
def test_row_reaches_are_the_looped_test_radius_by_radius(case):
    """One array pass over a sweep gives what one loop per radius gives,
    past twice the box diameter too, where the radius is cut first."""
    grid, radii = case
    assert _row_reaches(grid, radii) == [looped_row_reach(grid, r) for r in radii]
    whole_box = [grid.shape[-1] - 1] * (1 if grid.dim == 1 else grid.shape[0])
    assert _row_reach(grid, math.inf) == whole_box


def test_an_infinite_radius_on_a_box_near_the_float_range_reaches_the_whole_axis():
    """On [-1e308, 1] with 33 nodes, twice the diameter and the last radius
    ``h 2^6`` of the compactness ladder are inf: each reach is capped at the
    node count before it becomes an integer, so that radius reaches the
    whole axis, as ``h 2^5`` already does, and the ladder's profiles are
    finite."""
    grid = Grid(Box((-1e308,), (1.0,)), (33,))
    assert 2.0 * grid.box.diameter == math.inf
    assert _row_reach(grid, math.inf) == [32]
    sweep = RadiusSweep(tuple(grid.max_step * 2.0 ** k for k in range(7)))
    assert sweep.radii[-1] == math.inf
    values = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 33))
    *_, at_32h, at_inf = oscillation_profiles(values, grid, 1.0, sweep)
    assert np.isfinite(at_inf).all() and np.array_equal(at_inf, at_32h)


def test_oscillation_offsets_are_the_ball_mask_in_row_order():
    g = Grid(Box((0.0, 0.0), (1.3, 0.7)), (21, 15))
    # radii away from every lattice distance, where the two tests agree
    for r in (0.071, 0.21, 0.31):
        offsets = _offset_list(g, _row_reach(g, r))
        assert offsets == sorted(offsets)
        centre = (10, 7)
        mask = ball_mask(g, g.coords[centre], r)
        assert {(i - centre[0], j - centre[1]) for i, j in zip(*np.nonzero(mask))} \
            == set(offsets)


# -- maximal function -----------------------------------------------------


def test_maximal_constant():
    g = grid1d(513)
    f = GridFunction(g, np.full(g.shape, 2.5))
    mf = maximal_function(f, 1.0, RadiusSweep.geometric(g, 16))
    assert np.allclose(mf.values, 2.5, atol=1e-12)


def test_maximal_indicator_analytic_profile():
    """M chi_[0,1] at qtilde = 1 equals 1/(2x) for x >= 1: the optimal
    ball radius is r = x, just covering the support."""
    g = Grid(Box((-0.5,), (8.5,)), (8193,))
    chi = indicator(g, 0.0, 1.0)
    sweep = with_radii(g, 64, (1.5, 2.0, 4.0))
    mf = maximal_function(chi, 1.0, sweep)
    x = g.coords[..., 0]
    for point in (1.5, 2.0, 4.0):
        idx = int(np.argmin(np.abs(x - point)))
        assert mf.values[idx] == pytest.approx(1.0 / (2.0 * point), abs=1e-3)


def test_maximal_dominates_pointwise():
    g = grid1d(1025)
    f = from_callable(
        g, lambda pts: np.exp(-(((pts[..., 0] - 0.5) / 0.15) ** 2)))
    mf = maximal_function(f, 1.0, RadiusSweep.geometric(g, 32))
    assert np.all(mf.values >= np.abs(f.values))


def test_maximal_dominates_pointwise_in_2d():
    """The smallest radius is one step, whose ball on a square grid is the
    centre node; with power-of-two quadrature weights and qtilde = 1 the
    centre average ``qw |f| / qw`` is exactly ``|f|``."""
    g = Grid(Box((0.0, 0.0), (1.0, 1.0)), (65, 65))
    f = GridFunction(g, np.random.default_rng(3).normal(size=g.shape))
    mf = maximal_function(f, 1.0, RadiusSweep.geometric(g, 16))
    assert np.all(mf.values >= np.abs(f.values))


def test_maximal_rejects_non_finite_values():
    g = grid1d(65)
    vals = np.ones(g.shape)
    vals[5] = math.inf
    vals[9] = math.nan
    with pytest.raises(DomainError, match="inf at flat node index 5"):
        maximal_function(GridFunction(g, vals), 1.0, RadiusSweep.geometric(g, 8))


def test_maximal_sublinear_at_qtilde_one():
    g = grid1d(513)
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.normal(size=g.shape))
    h = GridFunction(g, rng.normal(size=g.shape))
    sweep = RadiusSweep.geometric(g, 16)
    m_sum = maximal_function(f + h, 1.0, sweep)
    m_split = maximal_function(f, 1.0, sweep) + maximal_function(h, 1.0, sweep)
    assert np.all(m_sum.values <= m_split.values + 1e-9)


def test_maximal_monotone_in_sweep():
    g = grid1d(513)
    rng = np.random.default_rng(6)
    f = GridFunction(g, rng.normal(size=g.shape))
    few = RadiusSweep.geometric(g, 8)
    more = RadiusSweep(tuple(sorted(set(few.radii) | {0.1, 0.3, 0.7})))
    m_few = maximal_function(f, 1.0, few)
    m_more = maximal_function(f, 1.0, more)
    assert np.all(m_more.values >= m_few.values - 1e-12)


SCALE_GRIDS = {"1d": grid1d(513), "2d": Grid(Box((0.0, 0.0), (1.3, 0.7)), (21, 15))}


@settings(max_examples=60, deadline=None)
@given(st.integers(-300, 300), st.sampled_from([-1.0, 1.0]), st.sampled_from([0.5, 1.0, 2.0]),
       st.sampled_from(sorted(SCALE_GRIDS)))
@example(0, -3.0, 1.0, "1d").via("the c = -3 case")
@example(-170, 1.0, 2.0, "2d").via("|f|^2 underflowed to 0")
@example(200, 1.0, 2.0, "2d").via("|f|^2 overflowed: inf / inf")
def test_maximal_scale_equivariance(k, sign, qtilde, name):
    """M(c f) = |c| M f to 1e-12 relative at every scale c = +-10^k."""
    g = SCALE_GRIDS[name]
    f = GridFunction(g, np.random.default_rng(7).normal(size=g.shape))
    c = sign * 10.0 ** k
    sweep = RadiusSweep.geometric(g, 16)
    lhs = maximal_function(f * c, qtilde, sweep)
    rhs = maximal_function(f, qtilde, sweep).values * abs(c)
    np.testing.assert_allclose(lhs.values, rhs, rtol=1e-12, atol=0.0)


def test_maximal_rejects_bad_qtilde():
    g = grid1d(65)
    f = GridFunction(g, np.ones(g.shape))
    with pytest.raises(DomainError):
        maximal_function(f, 0.0, RadiusSweep.geometric(g, 8))


def test_ball_mean_keeps_sign():
    g = grid1d(513)
    f = from_callable(g, lambda pts: pts[..., 0] - 0.5)
    avg = ball_mean(f.values, g, 0.1)
    mid = g.shape[0] // 2
    assert avg[mid] == pytest.approx(0.0, abs=1e-12)
    assert avg[0] < 0.0 < avg[-1]


@pytest.mark.parametrize("grid", [grid1d(129), Grid(Box((0.0, -1.0), (1.0, 2.0)), (17, 33))],
                         ids=["1d", "2d"])
def test_ball_mean_past_twice_the_diameter_is_the_whole_box_mean(grid):
    f = GridFunction(grid, np.random.default_rng(3).normal(size=grid.shape))
    whole = ball_mean(f.values, grid, 2.0 * grid.box.diameter)
    assert np.array_equal(ball_mean(f.values, grid, 1e308), whole)
    assert np.allclose(whole, np.sum(grid.quad_weights * f.values) / math.prod(grid.box.widths),
                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("grid", [grid1d(129), Grid(Box((0.0, -1.0), (1.0, 2.0)), (17, 33))],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("members", [None, 3], ids=["array", "stack"])
@pytest.mark.parametrize("steps", [0.3, 1.0, 1e9])
def test_ball_mean_is_the_ball_sums_of_the_weighted_values_over_the_ball_measure(grid, members,
                                                                                  steps):
    """One lattice ball serves the sums and the measure of `ball_mean`:
    bit for bit the quotient of the public functions, below half a step,
    at one step and past the diameter."""
    shape = grid.shape if members is None else (members, *grid.shape)
    v = np.random.default_rng(5).normal(size=shape)
    r = steps * grid.max_step
    want = ball_sums(grid.quad_weights * v, grid, r) / ball_measure(grid, r)
    assert ball_mean(v, grid, r).tobytes() == want.tobytes()


# -- oscillation average ----------------------------------------------------


def test_oscillation_constant_is_zero():
    g = grid1d(513)
    f = GridFunction(g, np.full(g.shape, 4.2))
    osc = oscillation_average(f, 1.0, 0.05)
    assert np.allclose(osc.values, 0.0, atol=1e-14)


def test_oscillation_linear_half_radius():
    g = grid1d(4097)
    f = from_callable(g, lambda pts: pts[..., 0])
    r = 0.0625
    osc = oscillation_average(f, 1.0, r)
    interior = (g.coords[..., 0] > 2 * r) & (g.coords[..., 0] < 1.0 - 2 * r)
    assert np.allclose(osc.values[interior], r / 2.0, atol=2.0 * g.max_step)


def test_oscillation_indicator_deep_inside():
    g = grid1d(2049)
    chi = indicator(g, 0.25, 0.75)
    osc = oscillation_average(chi, 1.0, 0.01)
    mid = g.shape[0] // 2
    assert osc.values[mid] == pytest.approx(0.0, abs=1e-12)


def test_oscillation_lipschitz_bound():
    g = grid1d(2049)
    f = from_callable(g, lambda pts: np.sin(3.0 * pts[..., 0]))
    r = 0.03
    osc = oscillation_average(f, 2.0, r)
    assert float(osc.values.max()) <= 3.0 * r + 2.0 * g.max_step


def test_oscillation_radius_beyond_the_box_covers_the_box():
    g = Grid(Box((0.0, 0.0), (1.3, 0.7)), (7, 5))
    f = GridFunction(g, np.random.default_rng(8).normal(size=g.shape))
    qw, vals = g.quad_weights, f.values
    want = [np.sum(qw * np.abs(vals[idx] - vals) ** 1.5) / np.sum(qw)
            for idx in np.ndindex(*g.shape)]
    osc = oscillation_average(f, 1.5, 2.0 * g.box.diameter)
    np.testing.assert_allclose(osc.values.ravel() ** 1.5, want, rtol=1e-12)


@st.composite
def member_stack_and_sweep(draw):
    """A 1D or anisotropic 2D grid, a stack of members (zero members
    included) and a sweep from one step up to past the box diameter."""
    dim = draw(st.sampled_from([1, 2]))
    widths = tuple(draw(st.sampled_from([0.5, 0.7, 1.0, 1.3, 3.0])) for _ in range(dim))
    shape = tuple(draw(st.integers(2, 40 if dim == 1 else 12)) for _ in range(dim))
    grid = Grid(Box((0.0,) * dim, widths), shape)
    count = draw(st.integers(1, 4))
    members = draw(st.lists(st.one_of(
        st.just(np.zeros(shape)),
        arrays(float, shape, elements=st.floats(-1e3, 1e3))), min_size=count, max_size=count))
    h = grid.max_step
    radii = draw(st.lists(st.one_of(
        st.builds(lambda k: k * h, st.integers(1, 12)),
        st.floats(h, 2.0 * grid.box.diameter)), min_size=1, max_size=4, unique=True))
    return grid, np.stack(members), RadiusSweep(tuple(sorted(radii)))


def looped_oscillation(vals, grid, qtilde, radius):
    """One member at one radius, one offset at a time: every offset of
    the closed ball adds its own difference power and weight, taken of
    f / s and scaled back by s = power_of_two_at_or_above(max |f|).
    Returns the oscillation, s, and the mean of |f / s|^qtilde per ball."""
    s = power_of_two_at_or_above(np.abs(vals).max())
    vals = vals / s
    qw = grid.quad_weights
    num, den = np.zeros(grid.shape), np.zeros(grid.shape)
    for delta in _offset_list(grid, _row_reach(grid, radius * (1.0 + 1e-9))):
        dst = tuple(slice(max(-k, 0), n - max(k, 0)) for n, k in zip(grid.shape, delta))
        src = tuple(slice(max(k, 0), n - max(-k, 0)) for n, k in zip(grid.shape, delta))
        num[dst] += qw[src] * np.abs(vals[dst] - vals[src]) ** qtilde
        den[dst] += qw[src]
    mean = num / den
    return s * mean ** (1.0 / qtilde), s, mean


def _subnormal_mean_case():
    """65 at one corner, 2^-1023 elsewhere and 0 at one node: at (8, 8)
    the mean of |f / 128| over the one-step ball is about 2.2e12
    subnormal spacings, and the two summation orders put it one spacing
    apart, 4.5e-13 relative."""
    grid = Grid(Box((0.0, 0.0), (3.0, 3.0)), (10, 10))
    vals = np.full(grid.shape, 1.11253693e-308)
    vals[0, 0], vals[9, 8] = 65.0, 0.0
    return grid, vals[None], RadiusSweep((grid.max_step,))


@settings(max_examples=60, deadline=None)
@given(member_stack_and_sweep(), st.sampled_from([1.0, 1.37, 2.0]))
@example(_subnormal_mean_case(), 1.0).via("a ball mean below the normal range")
def test_oscillation_profiles_match_the_per_member_per_radius_loop(case, qtilde):
    """Relative to 1e-13 wherever the ball mean of |f / s|^qtilde is a
    normal number. Below the normal range the two summation orders round
    that mean to the subnormal grid independently, so there they agree to
    a few subnormal spacings at the member's scale, k 2^(e - 1074) with
    s = 2^e, carried through the 1/qtilde root; a relative bound cannot
    hold on subnormal outputs."""
    grid, stack, sweep = case
    got = list(oscillation_profiles(stack, grid, qtilde, sweep))
    assert len(got) == len(sweep.radii)
    floor = 4.0 * np.finfo(float).smallest_subnormal
    for r, osc in zip(sweep.radii, got):
        assert osc.shape == stack.shape
        for vals, row in zip(stack, osc):
            want, s, mean = looped_oscillation(vals, grid, qtilde, r)
            sub = mean < np.finfo(float).tiny
            # the floor alone matters only where the output itself is subnormal
            np.testing.assert_allclose(row[~sub], want[~sub], rtol=1e-13, atol=floor)
            np.testing.assert_allclose(row[sub], want[sub], rtol=0.0,
                                       atol=s * floor ** (1.0 / qtilde) + floor)


@settings(max_examples=30, deadline=None)
@given(member_stack_and_sweep())
def test_oscillation_profiles_power_each_offset_pair_once(case):
    """Per family the pass slices, differences and splits by partner
    each offset of the half ball of the largest radius (one of each pair
    +-delta, not the zero offset) once, whatever the number of members
    and radii."""
    grid, stack, sweep = case
    sliced, split = [], []
    originals = maximal_module._shift_slices, maximal_module._partner_pieces

    def slicing(shape, delta):
        sliced.append(delta)
        return originals[0](shape, delta)

    def splitting(signs):
        split.append(signs)
        return originals[1](signs)

    maximal_module._shift_slices, maximal_module._partner_pieces = slicing, splitting
    try:
        list(oscillation_profiles(stack, grid, 1.37, sweep))
    finally:
        maximal_module._shift_slices, maximal_module._partner_pieces = originals
    largest = _offset_list(grid, _row_reach(grid, sweep.radii[-1] * (1.0 + 1e-9)))
    assert len(sliced) == len(set(sliced)) == len(largest) // 2
    assert set(sliced) == set(largest[len(largest) // 2 + 1:])
    assert len(split) == len(largest) // 2


@st.composite
def exact_bits_case(draw):
    """A 1D or anisotropic 2D grid, one member or many, with all-zero
    members and members of subnormal values among them, and a sweep that
    may pass the box edge (offsets of n - 1 and more)."""
    dim = draw(st.sampled_from([1, 2]))
    widths = tuple(draw(st.sampled_from([0.5, 0.7, 1.0, 3.0])) for _ in range(dim))
    shape = tuple(draw(st.integers(2, 48 if dim == 1 else 10)) for _ in range(dim))
    grid = Grid(Box((0.0,) * dim, widths), shape)
    tiny = np.finfo(float).smallest_subnormal
    member = st.one_of(
        st.just(np.zeros(shape)),
        arrays(float, shape, elements=st.floats(-1e3, 1e3)),
        arrays(float, shape, elements=st.sampled_from([0.0, -0.0, tiny, -3 * tiny, 1e-310])),
        arrays(float, shape, elements=st.floats(-1e-300, 1e-300)))
    members = draw(st.lists(member, min_size=1, max_size=6))
    h = grid.max_step
    radii = draw(st.lists(st.one_of(
        st.builds(lambda k: k * h, st.integers(1, 2 * max(shape))),
        st.floats(h, 2.0 * grid.box.diameter)), min_size=1, max_size=5, unique=True))
    return grid, np.stack(members), RadiusSweep(tuple(sorted(radii)))


@settings(max_examples=150, deadline=None)
@given(exact_bits_case(), st.sampled_from([1.0, 0.53, 1.37, 2.0]))
def test_oscillation_profiles_are_the_bits_of_the_member_major_walk(case, qtilde):
    """The node-major walk with the scalar interior weight yields, radius
    by radius, the bits of the walk over one strided row per member with
    every weight read off the array, zero signs included, as C-contiguous
    ``(M, *grid.shape)`` arrays."""
    grid, stack, sweep = case
    got = list(oscillation_profiles(stack, grid, qtilde, sweep))
    want = list(member_major_oscillation_profiles(stack, grid, qtilde, sweep))
    assert len(got) == len(want) == len(sweep.radii)
    for a, b in zip(got, want):
        assert a.shape == stack.shape and a.flags.c_contiguous
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_oscillation_profiles_hold_no_more_memory_than_the_member_major_walk():
    """An (8, 4097) stack over the 7-radius sweep of `rk.classify`: the
    tracemalloc peak while the profiles are drawn one at a time (each
    held until the next is made) stays at or below the member-major
    walk's, about 6.1 stacks."""
    g = grid1d(4097)
    sweep = RadiusSweep(tuple(g.max_step * 2.0 ** k for k in range(7)))
    stack = np.random.default_rng(3).normal(size=(8, 4097))
    peaks = []
    for walk in (oscillation_profiles, member_major_oscillation_profiles):
        list(walk(stack, g, 1.0, sweep))  # fill the caches of the grid and the offsets
        tracemalloc.start()
        try:
            for _ in walk(stack, g, 1.0, sweep):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(-300, 300), st.sampled_from([0.5, 1.0, 2.0]),
       st.sampled_from(sorted(SCALE_GRIDS)))
@example(-200, 2.0, "1d").via("|f(x) - f(y)|^2 underflowed to 0")
@example(200, 2.0, "1d").via("|f(x) - f(y)|^2 overflowed to inf")
def test_oscillation_profiles_scale_equivariance(k, qtilde, name):
    """osc(c f) = |c| osc f to 1e-12 relative at every scale c = 10^k."""
    g = SCALE_GRIDS[name]
    stack = np.random.default_rng(9).normal(size=(3,) + g.shape)
    sweep = RadiusSweep((g.max_step, 3.0 * g.max_step, 0.3))
    c = 10.0 ** k
    for lhs, rhs in zip(oscillation_profiles(stack * c, g, qtilde, sweep),
                        oscillation_profiles(stack, g, qtilde, sweep)):
        np.testing.assert_allclose(lhs, rhs * c, rtol=1e-12, atol=0.0)


def test_oscillation_profiles_scale_each_member_by_its_own_power_of_two():
    """A member 1e-200 the size of another keeps its own scale: under a
    shared one, qtilde = 2 would square its differences to zero."""
    g = SCALE_GRIDS["1d"]
    f = np.random.default_rng(9).normal(size=g.shape)
    sweep = RadiusSweep((g.max_step, 0.3))
    pairs = zip(oscillation_profiles(np.stack([f, 1e-200 * f]), g, 2.0, sweep),
                oscillation_profiles(f[None], g, 2.0, sweep))
    for both, alone in pairs:
        assert np.array_equal(both[0], alone[0])
        np.testing.assert_allclose(both[1], 1e-200 * alone[0], rtol=1e-12, atol=0.0)


def test_oscillation_average_is_the_one_member_one_radius_pass():
    g = Grid(Box((0.0, 0.0), (1.3, 0.7)), (21, 15))
    f = GridFunction(g, np.random.default_rng(9).normal(size=g.shape))
    r = 4.0 * g.max_step
    (osc,) = oscillation_profiles(f.values[None], g, 1.5, RadiusSweep((r,)))
    assert np.array_equal(oscillation_average(f, 1.5, r).values, osc[0])


def test_oscillation_profiles_refuse_a_non_finite_member_naming_its_node():
    g = grid1d(65)
    stack = np.ones((3, 65))
    stack[2, 40] = math.inf
    with pytest.raises(DomainError, match="inf at flat node index 40 of member 2;"):
        next(oscillation_profiles(stack, g, 1.0, RadiusSweep((g.max_step,))))


def test_oscillation_profiles_refuse_a_radius_below_the_step():
    g = grid1d(65)
    with pytest.raises(DomainError, match="at least the grid step"):
        next(oscillation_profiles(np.ones((2, 65)), g, 1.0,
                                  RadiusSweep((g.max_step / 2.0, g.max_step))))
    with pytest.raises(DomainError, match="qtilde"):
        next(oscillation_profiles(np.ones((2, 65)), g, 0.0, RadiusSweep((g.max_step,))))


# -- boundedness probe ---------------------------------------------------------


def test_probe_constant_corpus_unit_ratios():
    g = grid1d(1025)
    p = ExponentField.constant(UNIT, 2.0)
    w = unit_weight(g)
    corpus = family_of(GridFunction(g, np.full(g.shape, c)) for c in (1.0, 2.0, 5.0))
    rep = maximal_boundedness_probe(corpus, p, w, 1.0,
                                    RadiusSweep.geometric(g, 16),
                                    DyadicCubeSet(UNIT, 3))
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)
    assert all(r == pytest.approx(1.0, abs=1e-9) for r in rep.ratios)


def test_probe_indicator_ratio_finite():
    g = Grid(Box((-0.5,), (8.5,)), (2049,))
    box = g.box
    p = ExponentField.constant(box, 2.0)
    w = unit_weight(g)
    rep = maximal_boundedness_probe(family_of([indicator(g, 0.0, 1.0)]), p, w, 1.0,
                                    RadiusSweep.geometric(g, 32),
                                    DyadicCubeSet(box, 3))
    assert math.isfinite(rep.max_ratio)
    assert rep.max_ratio > 1.0
    assert math.isfinite(rep.gate.constant)


def test_probe_gate_rejects_large_qtilde():
    g = grid1d(257)
    p = ExponentField.constant(UNIT, 2.0)
    w = unit_weight(g)
    corpus = family_of([GridFunction(g, np.ones(g.shape))])
    with pytest.raises(HypothesisFailureError):
        maximal_boundedness_probe(corpus, p, w, 2.5,
                                  RadiusSweep.geometric(g, 8),
                                  DyadicCubeSet(UNIT, 2))


@pytest.mark.parametrize("qtilde", [0.0, -1.0, math.nan])
def test_probe_gate_refuses_a_qtilde_that_is_not_finite_and_positive(qtilde):
    g = grid1d(129)
    with pytest.raises(DomainError, match="qtilde must be a finite positive constant"):
        maximal_boundedness_probe(family_of([GridFunction(g, np.ones(g.shape))]),
                                  ExponentField.constant(UNIT, 2.0), unit_weight(g),
                                  qtilde, RadiusSweep.geometric(g, 8), DyadicCubeSet(UNIT, 2))
