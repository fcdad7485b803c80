"""The benchmark's reference computations against brute force on tiny grids.

    python3 -m pytest -q bench/test_reference.py

These tests sit outside the repository's test suite (``testpaths`` names
``tests/`` only) and import nothing from varleb.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import reference as ref


def _bisect_norm(a, p, qw):
    """Luxemburg norm by bisection on the modular, without closed forms."""
    lo, hi = 1e-12, 1e12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if np.sum(qw * (a / mid) ** p) > 1.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _brute_cubes(box, depth):
    """Every dyadic cube and half-shifted cube, listed axis by axis."""
    out = []
    for d in range(depth + 1):
        k = 2 ** d
        sides = [(b - a) / k for a, b in box]
        starts = [[a + i * s for i in range(k)] for (a, _), s in zip(box, sides)]
        shifted = [[a + (i + 0.5) * s for i in range(k - 1)] for (a, _), s in zip(box, sides)]
        for family in [starts, shifted] if d else [starts]:
            for corner in itertools.product(*family):
                out.append([(c, c + s) for c, s in zip(corner, sides)])
    return out


def _brute_constant(grid, depth, factors, power):
    best = -math.inf
    x = grid.coords
    for cube in _brute_cubes(grid.box, depth):
        mask = np.ones(grid.shape, dtype=bool)
        for axis, ((lo, hi), (a, b)) in enumerate(zip(cube, grid.box)):
            tol = 1e-12 * (b - a)
            mask &= (x[..., axis] >= lo - tol) & (x[..., axis] <= hi + tol)
        qw = grid.qw[mask]
        value = float(np.sum(qw)) ** power
        for vals, e in factors:
            value *= _bisect_norm(np.abs(vals[mask]), e, qw)
        best = max(best, value)
    return best


@pytest.mark.parametrize("box,cells,depth", [([[0.0, 1.0]], 16, 3),
                                             ([[-1.0, 2.0]], 24, 2),
                                             ([[0.0, 1.0], [0.0, 2.0]], 8, 2)])
def test_cube_constant_matches_brute_force(box, cells, depth):
    grid = ref.Grid(box, cells)
    rng = np.random.default_rng(cells)
    w = np.exp(rng.uniform(-1.0, 1.0, size=grid.shape))
    p = 2.7
    factors = [(w, p), (1.0 / w, p / (p - 1.0))]
    want = _brute_constant(grid, depth, factors, -1.0)
    assert ref.cube_constant(grid, depth, factors, -1.0) == pytest.approx(want, rel=1e-9)
    assert len(ref.cube_boxes(grid.box, depth)) == len(_brute_cubes(grid.box, depth))


def test_two_index_constant_of_unit_weights_is_one():
    grid = ref.Grid([[0.0, 1.0]], 32)
    ps, r_vec = (3.0, 4.0), (1.2, 1.5)
    q = 1.0 / sum(1.0 / p for p in ps)
    ones = np.ones(grid.shape)
    factors = [(ones, q)] + [(ones, 1.0 / (1.0 / r - 1.0 / p)) for p, r in zip(ps, r_vec)]
    power = -sum(1.0 / r for r in r_vec)
    assert ref.cube_constant(grid, 3, factors, power) == pytest.approx(1.0, rel=1e-12)


def _brute_maximal(f, x, qw, qtilde, radii):
    out = np.zeros(f.size)
    for i in range(f.size):
        for r in radii:
            ball = np.abs(x - x[i]) < r * ref.BALL_SHRINK
            mean = np.sum(qw[ball] * np.abs(f[ball]) ** qtilde) / np.sum(qw[ball])
            out[i] = max(out[i], mean ** (1.0 / qtilde))
    return out


@pytest.mark.parametrize("cells,qtilde", [(20, 1.0), (33, 0.5), (40, 1.7)])
def test_prefix_sum_maximal_matches_brute_force(cells, qtilde):
    grid = ref.Grid([[0.0, 1.0]], cells)
    f = np.random.default_rng(cells).normal(size=grid.shape)
    radii = ref.geometric_radii(grid, 9)
    # the ladder starts at one grid step, where the open ball is one node
    assert radii[0] == pytest.approx(grid.steps[0])
    got = ref.maximal_1d(f, grid.qw, grid.steps[0], qtilde, radii)
    want = _brute_maximal(f, grid.axes[0], grid.qw, qtilde, radii)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert np.all(got >= np.abs(f) * (1.0 - 1e-12))


def test_closed_form_norm_and_log_modular_agree_with_bisection():
    grid = ref.Grid([[0.0, 1.0], [0.0, 1.0]], 12)
    a = np.abs(np.random.default_rng(3).normal(size=grid.shape))
    p = 2.3
    nrm = ref.closed_form_norm(a, p, grid.qw)
    assert nrm == pytest.approx(_bisect_norm(a, p, grid.qw), rel=1e-9)
    pv = np.full(grid.shape, p)
    assert ref.log_modular(a, pv, grid.qw, nrm) == pytest.approx(0.0, abs=1e-12)
    assert math.exp(ref.log_modular(a, pv, grid.qw, 1.0)) == pytest.approx(
        ref.modular(a, pv, grid.qw), rel=1e-12)
