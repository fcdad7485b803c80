"""Grids, quadrature, regions, cube families, descriptors, and CSV input."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varleb import (Box, DomainError, DyadicCubeSet, ExponentField, Grid, GridFunction,
                    SchemaError, WeightField, ball_mask, ball_mean, box_mask,
                    random_simple_function, read_grid_csv, realize_function,
                    shift_function)
from varleb import field
from varleb.field import shared_grid

from _support import (UNIT, SYM, all_cubes, from_callable, grid1d, reference_simple_function,
                      write_grid_csv)


# -- boxes and grids ----------------------------------------------------


def test_box_geometry():
    b = Box((0.0, -1.0), (2.0, 1.0))
    assert b.dim == 2
    assert b.widths == (2.0, 2.0)
    assert b.diameter == pytest.approx(math.sqrt(8.0))
    assert b.center == (1.0, 0.0)


def test_box_rejects_empty_axis():
    with pytest.raises(Exception):
        Box((0.0,), (0.0,))


def test_grid_steps_and_weights():
    g = grid1d(5)  # 4 cells on [0, 1]
    assert g.steps == (0.25,)
    qw = g.quad_weights
    assert qw[0] == pytest.approx(0.125)
    assert qw[2] == pytest.approx(0.25)
    assert float(qw.sum()) == pytest.approx(1.0)



@pytest.mark.parametrize("lo, hi, span", [(-1e200, 1.0, "[inf, inf]"),
                                          (0.0, 1e-200, "[0.0, 0.0]")])
def test_grid_weights_outside_the_float_range_are_refused_naming_the_grid(lo, hi, span):
    g = Grid(Box((lo, lo), (hi, hi)), (17, 17))
    with pytest.raises(DomainError, match=rf"^the \(17, 17\) grid on .* has quadrature weights "
                                          rf"in \{span}; each must be positive and finite$"):
        g.quad_weights
    with pytest.raises(DomainError, match="quadrature weights"):
        g.log_quad_weights


# -- quadrature ---------------------------------------------------------


def integrate(f: GridFunction) -> float:
    """The trapezoid sum of ``f`` over its box, with the grid's weights."""
    return float(np.sum(f.grid.quad_weights * f.values))


def test_integrate_constant_exact():
    g = grid1d(257)
    one = GridFunction(g, np.ones(g.shape))
    assert integrate(one) == pytest.approx(1.0, abs=1e-12)


def test_integrate_linear():
    g = grid1d(4097)
    f = from_callable(g, lambda pts: pts[..., 0])
    assert integrate(f) == pytest.approx(0.5, abs=1e-6)


def test_integrate_gaussian_matches_sqrt_pi():
    g = Grid(Box((-8.0,), (8.0,)), (2 ** 14 + 1,))
    f = from_callable(g, lambda pts: np.exp(-pts[..., 0] ** 2))
    assert integrate(f) == pytest.approx(math.sqrt(math.pi), abs=1e-6)


def test_integrate_gaussian_refinement_contracts():
    """Each halving of the step shrinks the update by at least 4x
    (trapezoid rule is second order)."""
    box = Box((-8.0,), (8.0,))
    vals = []
    for n in (2 ** 10 + 1, 2 ** 11 + 1, 2 ** 12 + 1):
        g = Grid(box, (n,))
        f = from_callable(g, lambda pts: np.exp(-pts[..., 0] ** 2))
        vals.append(integrate(f))
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 < d1 / 4.0 + 1e-15


def test_quadrature_linearity():
    g = grid1d(513)
    rng = np.random.default_rng(7)
    f = GridFunction(g, rng.normal(size=g.shape))
    h = GridFunction(g, rng.normal(size=g.shape))
    lhs = integrate(f * 2.5 + h * (-1.25))
    rhs = 2.5 * integrate(f) - 1.25 * integrate(h)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_quadrature_monotone():
    g = grid1d(513)
    rng = np.random.default_rng(8)
    f = GridFunction(g, rng.uniform(0.0, 1.0, size=g.shape))
    h = f + GridFunction(g, rng.uniform(0.0, 1.0, size=g.shape))
    assert integrate(h) >= integrate(f) - 1e-15


def test_region_integral_restricts():
    g = grid1d(1025)
    one = GridFunction(g, np.ones(g.shape))
    # region integrals use the quadrature measure of the node set, so
    # the two boundary nodes carry their full interior weight
    h = g.max_step
    assert integrate(one * box_mask(g, Box((0.25,), (0.75,)))) == pytest.approx(0.5 + h, abs=1e-12)
    assert integrate(one) == pytest.approx(1.0, abs=1e-12)


# -- masks and ball averages --------------------------------------------


def test_box_mask_counts_interior_nodes():
    g = grid1d(5)
    m = box_mask(g, Box((0.25,), (0.75,)))
    assert m.tolist() == [False, True, True, True, False]


def test_ball_mask_is_open():
    g = grid1d(5)
    m = ball_mask(g, (0.5,), 0.25)
    # nodes at distance exactly 0.25 stay outside an open ball
    assert m.tolist() == [False, False, True, False, False]


# The ball average is node-centred: ``ball_mean`` averages over the in-box
# open ball around every node at once.


def test_ball_average_constant():
    g = grid1d(1025)
    c = GridFunction(g, np.full(g.shape, 3.7))
    assert np.allclose(ball_mean(c.values, g, 0.1), 3.7, rtol=0.0, atol=1e-12)


def test_ball_average_indicator_interior_and_edge():
    g = Grid(Box((-1.0,), (2.0,)), (3073,))
    chi = from_callable(
        g, lambda pts: ((pts[..., 0] >= 0.0) & (pts[..., 0] <= 1.0)).astype(float))
    x = g.coords[..., 0]
    mid, edge = int(np.argmin(np.abs(x - 0.5))), int(np.argmin(np.abs(x - 1.0)))
    assert x[mid] == 0.5 and x[edge] == 1.0
    assert ball_mean(chi.values, g, 0.25)[mid] == pytest.approx(1.0, abs=1e-9)
    # centered at the edge, half the ball sees the support
    assert ball_mean(chi.values, g, 0.5)[edge] == pytest.approx(0.5, abs=2.0 * g.max_step)


def test_ball_average_affine_midpoint():
    """Averaging a linear function over an in-box ball returns the
    center value."""
    g = grid1d(2049)
    f = from_callable(g, lambda pts: 2.0 * pts[..., 0] - 0.3)
    got = ball_mean(f.values, g, 0.125)[1024]
    assert g.coords[1024, 0] == 0.5
    assert got == pytest.approx(2.0 * 0.5 - 0.3, abs=1e-9)


def test_weight_product_is_a_left_fold_of_logs():
    g = grid1d(9)
    ws = [WeightField(g, np.full(g.shape, c)) for c in (0.1, 0.7, 3.0)]
    nu = WeightField.product(ws)
    assert isinstance(nu, WeightField) and nu.grid == g
    assert np.array_equal(nu.log_values,
                          (ws[0].log_values + ws[1].log_values) + ws[2].log_values)
    assert WeightField.product(ws[:1]).log_values is ws[0].log_values


# -- dyadic cube families ------------------------------------------------


def dyadic_cubes(cube_set):
    """The cubes of the unshifted groups of a set, in scan order."""
    return [group.cube(index) for group in cube_set.groups() if not group.shifted
            for index in np.ndindex(*group.shape)]


def test_cube_family_1d_depth1_unshifted():
    fam = DyadicCubeSet(Box((0.0,), (1.0,)), 1)
    boxes = sorted((c.box.lo[0], c.box.hi[0]) for c in dyadic_cubes(fam))
    assert boxes == [(0.0, 0.5), (0.0, 1.0), (0.5, 1.0)]


def test_cube_family_1d_depth3_count():
    fam = DyadicCubeSet(Box((0.0,), (1.0,)), 3)
    assert len(dyadic_cubes(fam)) == 1 + 2 + 4 + 8


def test_cube_family_2d_depth1_counts():
    fam = DyadicCubeSet(Box((0.0, 0.0), (1.0, 1.0)), 1)
    assert len(dyadic_cubes(fam)) == 1 + 4
    # the half-shifted generation adds interior translates per depth
    assert len(all_cubes(fam)) > len(dyadic_cubes(fam))


def test_cube_family_shifted_cubes_stay_inside():
    fam = DyadicCubeSet(Box((0.0,), (1.0,)), 3)
    root = Box((0.0,), (1.0,))
    assert all(root.contains_box(c.box) for c in all_cubes(fam))


def test_cube_labels_unique():
    fam = DyadicCubeSet(Box((0.0,), (1.0,)), 3)
    labels = [c.label() for c in all_cubes(fam)]
    assert len(labels) == len(set(labels))


# -- grid functions -------------------------------------------------------


def test_grid_function_arithmetic():
    g = grid1d(65)
    f = from_callable(g, lambda pts: pts[..., 0])
    h = f * 2.0 + f
    assert isinstance(h, GridFunction) and h.grid == g
    assert np.array_equal(h.values, 3.0 * f.values)


def test_weight_field_rejects_nonpositive():
    g = grid1d(17)
    vals = np.ones(g.shape)
    vals[3] = 0.0
    with pytest.raises(Exception):
        WeightField(g, vals)


def test_weight_power_and_inverse():
    g = grid1d(33)
    w = WeightField(g, np.linspace(0.5, 2.0, 33))
    back = w.power(2.0).power(0.5)
    assert np.allclose(back.values, w.values)
    assert np.allclose(WeightField.product((w, w.inverse())).values, 1.0)


def test_shift_function_node_aligned_zero_fill():
    g = grid1d(11)
    f = GridFunction(g, np.arange(11.0))
    s = shift_function(f, (0.2,))  # two steps of 0.1
    assert s.values[0] == 0.0 and s.values[1] == 0.0
    assert s.values[2] == 0.0 and s.values[10] == 8.0


@pytest.mark.parametrize("shift", [1.1, 5.0, 1e308, -1.1, -1e308])
def test_shift_function_past_the_grid_leaves_only_zeros(shift):
    g = grid1d(11)
    s = shift_function(GridFunction(g, np.arange(1.0, 12.0)), (shift,))
    assert not s.values.any()


@pytest.mark.parametrize("grid", [grid1d(129), grid1d(257, SYM), Grid(UNIT, (4,)),
                                  Grid(Box((0.0, -1.0), (1.0, 2.0)), (33, 17))],
                         ids=["1d-129", "1d-257-sym", "1d-4", "2d-33x17"])
def test_random_simple_function_matches_reference(grid):
    """Same values and the same generator stream, draw after draw."""
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(40):
        f = random_simple_function(grid, rng)
        g = reference_simple_function(grid, ref)
        assert np.array_equal(f.values, g.values)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("grid, fallbacks", [
    (grid1d(257, SYM), False), (Grid(UNIT, (4,)), True),
    (Grid(Box((0.0, -1.0), (1.0, 2.0)), (33, 17)), False),
    (Grid(Box((0.0, 0.0), (1.0, 1.0)), (3, 3)), True)],
    ids=["1d-257-sym", "1d-4", "2d-33x17", "2d-3x3"])
@pytest.mark.parametrize("seed", [0, 7, 104])
@pytest.mark.parametrize("count", [1, 3, 50])
def test_batched_simple_functions_match_the_per_function_loop(grid, fallbacks, seed, count):
    """One batch gives the values of the per-function loop, all-zero
    fallbacks included on the grids too coarse to catch every box, and
    leaves the generator in the same state."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = field._simple_functions(grid, rng, count)
    want = np.stack([reference_simple_function(grid, ref).values for _ in range(count)])
    assert got.shape == (count, *grid.shape)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state
    # a fallback is 1 on the lower half box and 0 elsewhere
    fallback = np.zeros(grid.shape)
    fallback[tuple(slice(0, (n + 1) // 2) for n in grid.shape)] = 1.0
    hits = sum(np.array_equal(row, fallback) for row in got)
    if not fallbacks:
        assert hits == 0
    elif count == 50:
        assert hits > 0


# -- descriptors ----------------------------------------------------------


def test_realize_gaussian_and_indicator():
    g = grid1d(257)
    f = realize_function({"kind": "gaussian", "center": [0.5], "width": 0.2}, g)
    assert f.values.max() == pytest.approx(1.0)
    chi = realize_function({"kind": "indicator", "box": [[0.0, 0.5]]}, g)
    # the node at the cut keeps its full trapezoid weight
    assert integrate(chi) == pytest.approx(0.5 + g.max_step / 2.0, abs=1e-12)


@st.composite
def _grid_and_center(draw):
    """A 1D, square 2D or anisotropic 2D grid, and a centre inside its
    box, outside it, or None (the box centre)."""
    shape = draw(st.sampled_from(["1d", "square", "anisotropic"]))
    dim = 1 if shape == "1d" else 2
    lo = [draw(st.floats(-5.0, 5.0)) for _ in range(dim)]
    width = [draw(st.floats(0.1, 10.0)) for _ in range(dim)]
    nodes = [draw(st.integers(2, 60)) for _ in range(dim)]
    if shape == "square":
        width, nodes = [width[0]] * 2, [nodes[0]] * 2
    grid = Grid(Box(tuple(lo), tuple(a + w for a, w in zip(lo, width))), tuple(nodes))
    where = draw(st.sampled_from(["inside", "outside", None]))
    if where is None:
        return grid, None
    if where == "inside":
        return grid, [draw(st.floats(a, a + w)) for a, w in zip(lo, width)]
    # beyond the box on every axis
    off = [draw(st.floats(w + 1e-3, 20.0)) * draw(st.sampled_from([-1.0, 1.0])) for w in width]
    return grid, [a + w / 2 + o for a, w, o in zip(lo, width, off)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_grid_and_center(), p_inf=st.floats(1.1, 4.0), amp=st.floats(-1.0, 1.0))
def test_axis_built_distances_equal_the_coords_formula_bit_for_bit(case, p_inf, amp):
    grid, center = case
    c = np.asarray(grid.box.center if center is None else center, dtype=float)
    old = np.sqrt(np.sum((grid.coords - c) ** 2, axis=-1))
    assert np.array_equal(field._radial(grid, center), old)
    # log_decay sums per axis too, on grids and on flat point sets alike
    p = ExponentField.log_decay(grid.box, p_inf, amp)
    for pts in (grid.coords - c, (grid.coords - c).reshape(-1, grid.dim)):
        r = np.sqrt(np.sum(pts ** 2, axis=-1))
        assert np.array_equal(p.fn(pts), p_inf + amp / np.log(math.e + r))


@pytest.mark.parametrize("desc", [
    {"kind": "gaussian", "center": [0.3, -0.2], "width": 0.4},
    {"kind": "bump", "radius": 0.7},
    {"kind": "power", "exponent": -0.3, "center": [0.51, 0.77]},
])
def test_radial_descriptors_do_not_build_node_coordinates(monkeypatch, desc):
    def refuse(grid):
        raise AssertionError("grid.coords was built")
    monkeypatch.setattr(field, "_coords", refuse)
    grid = Grid(Box((0.0, -1.0), (1.0, 2.0)), (23, 19))
    assert realize_function(desc, grid).values.shape == grid.shape
    assert ball_mask(grid, (0.5, 0.5), 0.3).shape == grid.shape


def test_realize_rejects_unknown_kind_and_keys():
    g = grid1d(17)
    with pytest.raises(SchemaError):
        realize_function({"kind": "wavelet"}, g)
    with pytest.raises(SchemaError):
        realize_function({"kind": "gaussian", "sigma": 0.1}, g)


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.5])
def test_realize_dilate_samples_the_inner_function_at_x_over_scale(scale):
    g = Grid(SYM, (257,))
    inner = {"kind": "gaussian", "center": [0.2], "width": 0.3}
    f = realize_function({"kind": "dilate", "scale": scale, "inner": inner}, g)
    x = g.axes[0]
    want = np.interp(x / scale, x, realize_function(inner, g).values, left=0.0, right=0.0)
    assert np.array_equal(f.values, want)


def test_realize_dilate_refuses_a_scale_that_is_not_positive_and_a_2d_grid():
    inner = {"kind": "gaussian", "center": [0.5], "width": 0.3}
    for scale in (0.0, -1.0):
        with pytest.raises(SchemaError, match="dilate scale must be positive"):
            realize_function({"kind": "dilate", "scale": scale, "inner": inner}, grid1d(17))
    g2 = Grid(Box((0.0, 0.0), (1.0, 1.0)), (9, 9))
    with pytest.raises(SchemaError, match="dilate descriptors are 1D only"):
        realize_function({"kind": "dilate", "scale": 2.0,
                          "inner": {"kind": "gaussian", "center": [0.5, 0.5], "width": 0.3}}, g2)


def test_shared_grid_returns_the_common_grid_and_names_what_differs():
    g, other = grid1d(17), grid1d(33)
    ones = GridFunction(g, np.ones(g.shape))
    assert shared_grid((ones,) * 3, "members") is g
    with pytest.raises(DomainError, match="^family members live on different grids$"):
        shared_grid((ones, GridFunction(other, np.ones(other.shape))), "family members")


def test_realize_sum_product_compose():
    g = grid1d(257)
    two = {"kind": "sum", "terms": [
        {"kind": "indicator", "box": [[0.0, 1.0]]},
        {"kind": "indicator", "box": [[0.0, 1.0]]}]}
    f = realize_function({"kind": "product", "terms": [
        two, {"kind": "gaussian", "center": [0.5], "width": 1.0}]}, g)
    assert f.values.max() == pytest.approx(2.0)


def test_csv_round_trip(tmp_path):
    g = grid1d(33)
    f = from_callable(g, lambda pts: np.sin(pts[..., 0]))
    path = tmp_path / "f.csv"
    write_grid_csv(f, str(path))
    back = read_grid_csv(str(path), g)
    assert np.allclose(back.values, f.values, atol=1e-12)


def test_csv_rejects_wrong_grid(tmp_path):
    g = grid1d(33)
    f = from_callable(g, lambda pts: pts[..., 0])
    path = tmp_path / "f.csv"
    write_grid_csv(f, str(path))
    with pytest.raises(Exception):
        read_grid_csv(str(path), grid1d(17))
