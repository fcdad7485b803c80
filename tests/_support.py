"""Shared builders for the test suite.

Random generators here are all driven by explicit numpy Generators so
every test is reproducible from its literal seed.
"""

from __future__ import annotations

import csv
import math
from functools import reduce

import numpy as np

from varleb import (Box, Cube, DomainError, DyadicCubeSet, ExponentField, FunctionFamily, Grid,
                    GridFunction, RadiusSweep, WeightField)
from varleb.field import _shift_slices, box_slices, refuse_non_finite, shared_grid
from varleb.maximal import _binade, _check_qtilde, _offset_list, _row_reach

UNIT = Box((0.0,), (1.0,))
SYM = Box((-1.0,), (1.0,))


def grid1d(n: int = 1025, box: Box = UNIT) -> Grid:
    return Grid(box, (n,))


def from_callable(grid: Grid, fn) -> GridFunction:
    """The grid function of ``fn`` at the node coordinates, broadcast to
    the grid."""
    vals = np.asarray(fn(grid.coords), dtype=float)
    return GridFunction(grid, np.broadcast_to(vals, grid.shape).copy())


def abs_power(f: GridFunction, e: float) -> GridFunction:
    """Pointwise ``|f|^e``."""
    return GridFunction(f.grid, np.abs(f.values) ** np.asarray(e, dtype=float))


def unit_weight(grid: Grid) -> WeightField:
    return WeightField(grid, np.ones(grid.shape))


def all_cubes(cube_set: DyadicCubeSet) -> list[Cube]:
    """Every cube of a set, one by one in scan order: the reference for
    the scans that take a cube group at a time."""
    return [group.cube(index) for group in cube_set.groups()
            for index in np.ndindex(*group.shape)]


def with_radii(grid: Grid, count: int, required) -> RadiusSweep:
    """A geometric ladder from the grid step to the box diameter, thinned
    to make room for the ``required`` radii."""
    if count < len(required):
        raise DomainError(f"count must be at least the {len(required)} required radii, "
                          f"got {count}")
    base = np.geomspace(grid.max_step, grid.box.diameter, count - len(required))
    merged = sorted(set(map(float, base)) | set(map(float, required)))
    return RadiusSweep(tuple(merged))


def family_of(fs) -> FunctionFamily:
    """The family of the grid functions ``fs``, which share one grid."""
    fs = tuple(fs)
    return FunctionFamily(shared_grid(fs, "family members"), np.stack([f.values for f in fs]))


def reciprocal_affine_field(box: Box, c: float, d: float) -> ExponentField:
    """1/p(x) = c + d x on a 1D box, with exact bounds from the ends."""
    lo, hi = box.lo[0], box.hi[0]
    ends = (c + d * lo, c + d * hi)
    if min(ends) <= 0.0:
        raise ValueError("reciprocal must stay positive")
    vals = (1.0 / ends[0], 1.0 / ends[1])

    def fn(pts, c=c, d=d):
        return 1.0 / (c + d * pts[..., 0])

    return ExponentField(box, fn, min(vals), max(vals))


def closure_chain(fields, coeffs, offset: float = 0.0):
    """``x -> 1 / (offset + sum_j coeffs[j] / p_j(x))``, summed from the
    left through the components point by point, each a field or another
    chain.  Applied at every level of a chain of reciprocal helpers, each
    level calling the one below, it is the nested reference for the flat
    form `exponent.reciprocal_affine` builds: equal to it bit for bit at
    depth 1 and for the constant fields it folds to, and to rounding
    deeper."""
    def fn(pts):
        recip = np.full(pts.shape[:-1], float(offset))
        for f, c in zip(fields, coeffs):
            recip = recip + float(c) / f(pts)
        return 1.0 / recip

    return fn


def reference_simple_function(grid, rng, max_terms=8):
    """``random_simple_function`` as it was built through ``Box`` and
    ``box_slices``, one function and one term at a time: the reference
    for the draws, values and generator state of it and of the batched
    `field._simple_functions`."""
    n_terms = int(rng.integers(1, max_terms + 1))
    vals = np.zeros(grid.shape)
    for _ in range(n_terms):
        pairs = []
        for a, b in zip(grid.box.lo, grid.box.hi):
            u, v = np.sort(rng.uniform(a, b, size=2))
            if v - u < 0.05 * (b - a):
                mid = 0.5 * (u + v)
                half = 0.025 * (b - a)
                u, v = max(a, mid - half), min(b, mid + half)
            pairs.append((u, v))
        coeff = 10.0 ** rng.uniform(-2.0, 2.0)
        if rng.random() < 0.5:
            coeff = -coeff
        vals[box_slices(grid, Box.from_pairs(pairs))] += coeff
    if not vals.any():
        vals[box_slices(grid, Box.from_pairs([[a, (a + b) / 2] for a, b in
                                              zip(grid.box.lo, grid.box.hi)]))] += 1.0
    return GridFunction(grid, vals)


def rand_exponent(box: Box, rng: np.random.Generator, lo: float = 1.1,
                  hi: float = 6.0) -> ExponentField:
    """Random exponent field with p_minus >= lo and p_plus <= hi."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return ExponentField.constant(box, float(rng.uniform(lo, hi)))
    if kind == 1:
        a = float(rng.uniform(lo, hi))
        b = float(rng.uniform(lo, hi))
        width = box.hi[0] - box.lo[0]
        slope = (b - a) / width
        return ExponentField.affine(box, a - slope * box.lo[0], (slope,))
    cuts = np.sort(rng.uniform(box.lo[0], box.hi[0], size=2))
    vals = rng.uniform(lo, hi, size=3)
    return ExponentField.piecewise(box, [float(c) for c in cuts],
                                   [float(v) for v in vals])


def rand_weight(grid: Grid, rng: np.random.Generator,
                spread: float = 0.5) -> WeightField:
    """Random smooth positive weight with values within e^{+-spread}."""
    x = grid.coords[..., 0]
    width = grid.box.hi[0] - grid.box.lo[0]
    a, b, c = rng.uniform(-spread, spread, size=3)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    vals = np.exp(a * np.sin(2.0 * np.pi * x / width + phase)
                  + b * (x - grid.box.lo[0]) / width + c)
    return WeightField(grid, vals)


def write_grid_csv(f: GridFunction, path: str) -> None:
    """Write ``f`` in the ``grid_csv`` input format: header "x[,y],value",
    one row per node in row-major order."""
    coords = f.grid.coords.reshape(-1, f.grid.dim)
    vals = f.values.reshape(-1)
    header = ["x", "y"][: f.grid.dim] + ["value"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for pt, v in zip(coords, vals):
            writer.writerow([repr(float(c)) for c in pt] + [repr(float(v))])


def half_step_units(n: int) -> np.ndarray:
    """The trapezoid weights of an n-node axis in units of half a step."""
    return np.where(np.isin(np.arange(n), (0, n - 1)), 1.0, 2.0)


def half_step_cell(grid: Grid) -> float:
    """The quadrature weight of one half-step unit: h/2 in 1D and
    (h1/2)(h2/2) in 2D."""
    return math.prod(0.5 * h for h in grid.steps)


def member_major_oscillation_profiles(values: np.ndarray, grid: Grid, qtilde: float,
                                      sweep: RadiusSweep):
    """`maximal.oscillation_profiles` walked member-major, one strided
    ``(M, ...)`` view per offset and the weights as arrays: the reference
    whose bits the node-major walk keeps, zero signs included."""
    _check_qtilde(qtilde)
    if sweep.radii[0] < grid.max_step * (1.0 - 1e-9):
        raise DomainError("oscillation radius must be at least the grid step")
    refuse_non_finite(values, grid.size, "the oscillation average")
    e = _binade(values, tuple(range(-grid.dim, 0)))
    values = np.ldexp(values, -e)
    qw = grid.quad_weights
    units = reduce(np.multiply.outer, map(half_step_units, grid.shape))
    num = np.zeros(values.shape)
    den = np.zeros(grid.shape)  # in half-step units, so every partial sum is exact
    walked: set = set()
    for radius in sweep.radii:
        offsets = _offset_list(grid, _row_reach(grid, radius * (1.0 + 1e-9)))
        for delta in offsets[len(offsets) // 2:]:
            if delta in walked:
                continue
            walked.add(delta)
            dst, src = _shift_slices(grid.shape, delta)
            den[dst] += units[src]
            if dst == src:
                continue
            den[src] += units[dst]
            powed = np.abs(values[(Ellipsis,) + dst] - values[(Ellipsis,) + src])
            if qtilde != 1.0:
                powed **= qtilde
            num[(Ellipsis,) + dst] += qw[src] * powed
            num[(Ellipsis,) + src] += qw[dst] * powed
        mean = num / (den * half_step_cell(grid))
        if qtilde != 1.0:
            mean **= 1.0 / qtilde
        yield np.ldexp(mean, e, out=mean)
