"""Discrete maximal operators and oscillation averages.

The q-mean maximal function of a grid function is

    M_q f(x) = sup_r ( (1/|B(x,r)|) int_{B(x,r)} |f|^q )^(1/q),

with the supremum taken over a finite radius sweep and every ball
truncated to the grid box (the measure in the average is the
quadrature measure of the in-box discrete ball).  Balls are open with
the same deterministic shrink as the field module, so on a grid with
equal steps the smallest admissible radius (one grid step) reduces the
ball to its center node and ``M_q f >= |f|`` holds at the nodes up to
the rounding of ``(qw |f|^q / qw)^(1/q)``, which is exact for
``qtilde = 1`` and power-of-two quadrature weights.

The oscillation average pairs with the equicontinuity condition of the
compactness criterion:

    osc_{q,r} f(x) = ( (1/|B(x,r)|) int_{B(x,r)} |f(x) - f(y)|^q dy )^(1/q).

Ball sums for the maximal function are differences of one prefix sum
along the rows, built once per sweep: each lattice ball is a stack of
row intervals, and the interval (window) of half-width c is one
difference of two slices of the prefix, clipped to the box.  Radii
whose lattice balls coincide are summed once.  The distinct balls are
summed four at a time: each distinct half-width of the four is
windowed once and added at +k1 and -k1 to every ball whose row k1 has
that half-width.  The half-widths are taken in decreasing order, and a
ball's half-width does not grow with k1, so every ball still gets its
rows in increasing k1, each node the same subtractions and additions
in the same order as a ball summed on its own, and the sums the same
bits.  In 2D only the mass rows are windowed: the rows from the first
to the last that hold a nonzero of any member.  A row without mass
windows to ``+0.0``, and adding ``+0.0`` changes no bits, so the sums
keep their bits up to the sign of a zero sum; the maximal function's
input ``qw |f|^q`` holds no ``-0.0``.  A ball sum of a nonnegative
array is never negative.  The ball measure in the denominator does
not depend on f and is not a ball sum.  In units of half a step the
trapezoid weights of an axis are 1 at its ends and 2 inside, so the
measure is a cell, h/2 in 1D and (h1/2)(h2/2) in 2D, times an integer
count: exact in any summation order, rounded once, and so the same
under every axis flip.  In 1D the count is one window of the prefix of
the units, cached per node count.  In 2D only the top-left quadrant is
counted, by one (rows / 2 x strips of the ball)(strips x columns / 2)
matrix product read off a table of window counts cached per node
count, and mirrored.  One helper states which lattice offsets lie in a
ball, for every radius of a sweep in one array pass; the ball sums,
the ball measure and the oscillation offsets all read it.  It lifts a
radius below half the smallest step to that half step, so every ball
holds its centre node and no measure is zero.

Oscillation averages are summed offset by offset over a whole family
and a whole radius sweep in one pass.  The balls of increasing radii
are nested, so the pass walks the offsets of the largest ball once, in
radius order, and takes a snapshot of numerator over denominator after
each radius.  Offsets delta and -delta share one array
``|f(x) - f(x + delta)|^q``: it is added at x weighted by the node
x + delta and at x + delta weighted by x; the zero offset adds nothing.
The denominator does not depend on f: it is the ball measure of the
closed ball whose offsets the radius walked, read from the same reach
list.  The numerator is summed over the members at once, on a
node-major copy of the family, ``(*grid.shape, M)`` with the members
last, so that an offset's difference, absolute value, power and both
additions are single blocks, not one strided row per member.  Every
node off the box boundary has the same quadrature weight, h in 1D and
h1 h2 in 2D (the double the weight array holds there), so a term whose
partner node is interior is weighted by that scalar; a term whose
partner lies on the boundary is added with that node's own weight,
piece by piece along the faces of the box.  Each node gets +delta
before -delta for each offset in walk order, one addition each, so the
profiles are the bits of a member-by-member walk with the weights read
off the array, zero signs included.

Both operators are positively homogeneous, and both are computed so
at any scale: of ``f / 2^e``, with ``2^e`` the least power of two at
or above ``max |f|`` (per member for the oscillation), and the result
scaled back by ``2^e``.  The powers ``|f|^q`` then neither underflow
nor overflow, and where ``max |f|`` lies in (1/2, 1] nothing changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError
from .exponent import ExponentField
from .field import (BALL_SHRINK, DyadicCubeSet, FunctionFamily, Grid, GridFunction,
                    WeightField, _ball_radius, _shift_slices, refuse_non_finite, square_unit)
from .norms import norm_ratios, weighted_table
from .weights import WeightConstantReport, gate_constant

# balls summed together by one pass over their distinct row half-widths
_BALLS_PER_CHUNK = 4
# smallest qtilde accepted: M f >= |f| still holds to 1e-12 sup |f| ten times below it
_QTILDE_FLOOR = 1e-3


@dataclass(frozen=True)
class RadiusSweep:
    """Strictly increasing positive radii for ball suprema."""

    radii: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if not self.radii:
            raise DomainError("radius sweep must be nonempty")
        if not self.radii[0] > 0.0:
            raise DomainError("radii must be positive")
        if any(not b > a for a, b in zip(self.radii, self.radii[1:])):
            raise DomainError("radii must increase strictly")

    @classmethod
    def geometric(cls, grid: Grid, count: int = 64) -> "RadiusSweep":
        """Geometric ladder from the smallest grid step to the box diameter."""
        lo, hi = min(grid.steps), grid.box.diameter
        if count < 2:
            raise DomainError(f"radii_count must be at least 2, got {count}")
        if hi <= lo:
            raise DomainError(f"a radius sweep needs a box diameter above the grid step: "
                              f"diameter {hi}, step {lo}")
        return cls(tuple(np.geomspace(lo, hi, count)))

    def validate_for(self, grid: Grid) -> None:
        if self.radii[0] < min(grid.steps) * (1.0 - 1e-9):
            raise DomainError(
                f"smallest radius {self.radii[0]} is below the grid step {min(grid.steps)}")
        if self.radii[-1] > grid.box.diameter * (1.0 + 1e-9):
            raise DomainError(
                f"largest radius {self.radii[-1]} exceeds the box diameter")


def _row_reaches(grid: Grid, r_effs: Sequence[float]) -> list[list[int]]:
    """The open lattice balls of the radii ``r_effs``, each row by row,
    cut to the offsets that reach a node of the grid.

    Entry ``k1`` of a ball is the largest ``k2 >= 0`` with ``(k1 h1)^2 +
    (k2 h2)^2 < r_eff^2``, capped at ``n2 - 1``, for ``k1 = 0, 1, ...``
    while that row is nonempty and ``k1 < n1``; a 1D grid is the single
    row ``k1 = 0``, tested as ``k2 h < r_eff``.  This is the only
    statement of lattice-ball membership.  A radius of twice the box
    diameter takes in the whole box, so a larger one is cut to that, and an
    offset is capped at the node count before it becomes an integer.  A
    radius below half the smallest step is lifted to that half step: the
    ball is the same, its centre node alone.  In an exact power-of-two unit
    every square is a normal double, or the grid is refused.

    Every entry of every ball is found in one array pass: a
    ``searchsorted`` guess, settled by the rounded test itself.  In 2D the
    squares are Python floats, formed once per call up to the largest
    radius; in 1D the lengths ``k2 h`` stand in for them and ``r_eff``
    for ``r_eff^2``, and the one row ``k1 = 0`` adds ``+0.0``, which
    changes no bits.  A NaN radius is refused before anything is cast.
    """
    if any(math.isnan(r) for r in r_effs):
        raise DomainError("a lattice ball needs a radius, got NaN")
    half, whole = 0.5 * min(grid.steps), 2.0 * grid.box.diameter
    r_effs = [min(max(r, half), whole) for r in r_effs]
    unit = square_unit(max(r_effs), grid, "lattice balls")
    r_effs, h1, h2 = [r / unit for r in r_effs], grid.steps[0] / unit, grid.steps[-1] / unit
    n1, n2 = grid.shape[0], grid.shape[-1]
    # an offset of int(r / h) + 2 steps or more is outside every ball
    r_max = max(r_effs)
    m2 = min(n2, int(min(r_max / h2, n2)) + 2)
    if grid.dim == 1:
        sq1, sq2, r2 = np.zeros(1), np.arange(m2) * h2, np.array(r_effs)
    else:
        sq1 = np.array([(k * h1) ** 2 for k in range(min(n1, int(min(r_max / h1, n1)) + 2))])
        sq2 = np.array([(k * h2) ** 2 for k in range(m2)])
        r2 = np.array([r ** 2 for r in r_effs])
    counts = np.searchsorted(sq1, r2)
    ends = np.cumsum(counts)
    # one entry per (ball, row k1): the row's square and the ball's r^2
    k1 = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    row, lim = sq1[k1], np.repeat(r2, counts)
    k2 = np.searchsorted(sq2, lim - row) - 1
    # settled within the box as the scalar loop settles it: up while the
    # next offset is inside, then down while this one is not (offset 0
    # always is)
    top = sq2.size - 1
    while (up := (k2 < top) & (row + sq2[np.minimum(k2 + 1, top)] < lim)).any():
        k2 += up
    while (down := ~(row + sq2[k2] < lim)).any():
        k2 -= down
    return [reach.tolist() for reach in np.split(k2, ends[:-1])]


def _row_reach(grid: Grid, r_eff: float) -> list[int]:
    """The one-radius case of `_row_reaches`."""
    return _row_reaches(grid, [r_eff])[0]


def _prefix(arr: np.ndarray) -> np.ndarray:
    """Prefix sums ``P`` of ``arr`` along its last axis, from which every
    window clipped to the box is one difference (the summed-area idea of
    Crow, SIGGRAPH 1984)."""
    return np.cumsum(arr, axis=-1)


def _window(prefix: np.ndarray, k2: int, out: np.ndarray) -> np.ndarray:
    """At every j < n, the in-box sum over ``|k - j| <= k2`` read off
    ``prefix = _prefix(arr)`` into ``out``: ``P[min(j + k2, n - 1)]``,
    less ``P[j - k2 - 1]`` where ``j > k2``.  These are the differences
    of ``P`` padded with zeros on the left and its total on the right,
    without the pads, which would be two more grids wide at the widest
    ball.

    Both are C-contiguous ``(..., n)`` blocks: a 1D row, a 2D band or a
    stack.  numpy runs a ufunc over a strided block row by row and pays
    per row, a copy far less.  So while some column is interior
    (``2 k2 + 1 < n``) the copy of ``P[j + k2]`` and the subtraction of
    ``P[j - k2 - 1]`` run once over the flattened block, the row total
    is copied into the last ``k2`` columns before the subtraction, and
    ``P[j + k2]`` is copied back into the first ``k2 + 1`` columns of
    every row after the first, where the subtraction reached into the
    row before.  A wider window has no interior and runs the same steps
    row by row.  Every entry is the same subtraction of the same two
    prefix values as a row windowed on its own."""
    n = out.shape[-1]
    o, p = (out.reshape(-1, copy=False), prefix.ravel()) if 2 * k2 + 1 < n else (out, prefix)
    m = o.shape[-1]
    o[..., :m - k2] = p[..., k2:]
    out[..., n - k2:] = prefix[..., -1:]
    o[..., k2 + 1:] -= p[..., :m - k2 - 1]
    if m > n:
        out[..., :k2 + 1] = prefix[..., k2:2 * k2 + 1]
    return out


def _ball_sums(arr: np.ndarray, reaches: Sequence[list[int]]
               ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The sums of ``arr`` over the balls of the ``_row_reach`` lists
    ``reaches``, yielded in order, each with a scratch array of the same
    shape; both are the caller's to overwrite until the next ``next``.

    One prefix serves every ball.  The balls are summed
    ``_BALLS_PER_CHUNK`` at a time: each distinct row half-width ``c``
    of a chunk is windowed once, in decreasing ``c``, and added at
    ``+-k1`` to every ball of the chunk with ``reach[k1] == c``.  Reach
    is non-increasing in ``k1``, so every ball gets its rows in
    increasing ``k1``, the order of a ball summed on its own.

    When some ball spans more than one row (never on a 1D grid, whose
    stacks are windowed whole), only the mass rows are windowed: the
    rows (axis -2) from the first to the last that hold a nonzero of
    any member.  The prefix and the windows cover those rows alone,
    each ``+-k1`` add is cut to the rows it reaches from them, and the
    other rows of a sum start at zero.  A row without mass windows to
    ``+0.0``, and adding ``+0.0`` changes no bits, so the sums are those
    of every row windowed, up to the sign of a zero sum (``-0.0 + 0.0``
    is ``+0.0``).

    The passes are contiguous.  The windows of the mass rows are one
    C-contiguous block at the start of the scratch array, also for the
    band of a stack, which is not contiguous in ``arr``, so `_window`
    can run over it flattened.  The rows of a sum and the view of that
    block read by each ``+-k1`` add depend only on the band and on
    ``k1``: they are made the first time a ``k1`` is needed and kept for
    the sweep, and each add is one ``np.add`` in place.
    """
    rows = arr.shape[-2] if any(len(reach) > 1 for reach in reaches) else 0
    if rows:
        live = np.flatnonzero(np.any(arr, axis=-1).reshape(-1, rows).any(axis=0))
        s0, s1 = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
        band = (Ellipsis, slice(s0, s1), slice(None))
    else:
        band = (Ellipsis,)
    prefix = _prefix(arr[band])
    row = np.empty(arr.shape)
    # the band's windows, as one contiguous block at the start of row
    win = row.reshape(-1)[:prefix.size].reshape(prefix.shape)
    sums = [np.empty(arr.shape) for _ in range(min(_BALLS_PER_CHUNK, len(reaches)))]
    shifts: dict[int, tuple] = {}
    for start in range(0, len(reaches), _BALLS_PER_CHUNK):
        chunk = list(zip(reaches[start:start + _BALLS_PER_CHUNK], sums))
        rows_at: dict[int, list] = {}
        for reach, out in chunk:
            if reach == [0]:
                np.copyto(out, arr)  # not the window P[j] - P[j - 1], which rounds
                continue
            for k1, c in enumerate(reach):
                rows_at.setdefault(c, []).append((k1, out))
        for c in sorted(rows_at, reverse=True):
            _window(prefix, c, win)
            for k1, out in rows_at[c]:
                if k1 == 0:
                    out[band] = win
                    if rows:
                        out[..., :s0, :] = 0.0
                        out[..., s1:, :] = 0.0
                    continue
                if k1 not in shifts:
                    shifts[k1] = _shifted_rows(win, s0, rows, k1)
                for dst, src in shifts[k1]:
                    o = out[dst]
                    np.add(o, src, out=o)
        # a centre-node ball is the smallest, so only the first chunk
        # copies arr: let a caller's temporary go
        arr = None
        for _, out in chunk:
            yield out, row


def _shifted_rows(win: np.ndarray, s0: int, rows: int, k1: int) -> tuple:
    """The adds of ball row ``k1`` to a sum of ``rows`` rows whose mass
    rows from ``s0`` on are windowed in ``win``: ``sum[i] += win row i +
    k1``, then ``sum[i] += win row i - k1``, each cut to the rows i whose
    partner row is a mass row and dropped when none is.  Each add is a
    pair: the index of its rows of the sum, and the view of ``win`` it
    reads."""
    s1 = s0 + win.shape[-2]
    lo, hi = max(s0 - k1, 0), max(s1 - k1, 0)
    up = (Ellipsis, slice(lo, hi), slice(None)), win[..., lo + k1 - s0:hi + k1 - s0, :]
    lo = s0 + k1
    hi = max(min(s1 + k1, rows), lo)
    down = (Ellipsis, slice(lo, hi), slice(None)), win[..., lo - k1 - s0:hi - k1 - s0, :]
    return tuple(add for add in (up, down) if add[1].shape[-2])


def ball_sums(arr: np.ndarray, grid: Grid, radius: float) -> np.ndarray:
    """For every node x, the sum of ``arr`` over in-box nodes of the
    open ball B(x, radius), for an ``arr`` on the grid or a stack of them.

    Each row of a ball is an interval, read off one prefix sum along the
    last axis.  In 2D the interval of row offset ``k1`` is computed once
    per distinct half-width and added at ``+k1`` and at ``-k1``.  For
    ``arr >= 0`` every window of the nondecreasing prefix sum is
    ``>= 0``, and each row of a ball is off by at most about (row
    length) x eps x (row total).
    """
    return next(_ball_sums(arr, [_row_reach(grid, _ball_radius(radius) * BALL_SHRINK)]))[0]


@lru_cache(maxsize=32)
def _unit_prefix(n: int) -> np.ndarray:
    """The prefix sums of the trapezoid weights of an n-node axis in units
    of half a step, 1 at the ends and 2 inside: integers, so every window
    of it is exact.  Read-only, cached per n."""
    units = np.full(n, 2.0)
    units[[0, -1]] = 1.0
    out = np.cumsum(units)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _unit_windows(n: int) -> np.ndarray:
    """``W[k, j]``, the half-step units of an n-node axis summed over the
    in-box window ``|l - j| <= k``, for every half-width ``k < n`` and the
    first half of the nodes, ``j < (n + 1) // 2``; a last row of zeros,
    read as ``W[-1]``, is the empty window.  Read-only, cached per n."""
    prefix = _unit_prefix(n)
    k, j = np.arange(n)[:, None], np.arange((n + 1) // 2)
    out = np.zeros((n + 1, j.size))
    np.subtract(prefix[np.minimum(j + k, n - 1)],
                np.concatenate([[0.0], prefix])[np.maximum(j - k, 0)], out=out[:n])
    out.flags.writeable = False
    return out


def _ball_measure(grid: Grid, reach: list[int], out: np.ndarray) -> np.ndarray:
    if grid.dim == 1:
        count = _window(_unit_prefix(grid.shape[0]), reach[0], out)
        return np.multiply(count, 0.5 * grid.steps[0], out=out)
    (n1, n2), (h1, h2) = grid.shape, grid.steps
    # the top-left quadrant, nodes (i, j) with i < a and j < b, mirrored
    a, b = (n1 + 1) // 2, (n2 + 1) // 2
    # one strip per row m whose reach the next row (or no row) does not keep
    k2 = np.array(reach + [-1])
    m = np.flatnonzero(k2[:-1] != k2[1:])
    w2 = _unit_windows(n2)
    count = _unit_windows(n1)[m].T @ (w2[k2[m]] - w2[k2[m + 1]])
    np.multiply(count, (0.5 * h1) * (0.5 * h2), out=out[:a, :b])
    out[a:, :b] = out[:n1 - a, :b][::-1]
    out[:, b:] = out[:, :n2 - b][:, ::-1]
    return out


def ball_measure(grid: Grid, radius: float) -> np.ndarray:
    """The quadrature measure of the in-box open ball B(x, radius) at
    every node: ``ball_sums(grid.quad_weights, grid, radius)`` up to
    rounding, and equal to it where the sums are exact (dyadic steps).

    In units of half a step the trapezoid weights are 1 and 2 on each
    axis, so the measure is the cell, ``h/2`` in 1D and ``(h1/2)(h2/2)``
    in 2D, times an integer count, rounded once.  In 1D the count is one
    window of the prefix of the units, cached per node count.  In 2D the
    lattice ball is the disjoint union of strips, one per row ``m``
    whose reach exceeds the next row's (``reach[rows] = -1``): the
    offsets with ``|k1| <= m`` and ``reach[m + 1] < |k2| <= reach[m]``.
    With ``W[k, j]`` the units of an axis summed over the in-box window
    ``|l - j| <= k``, a strip counts ``W1[m, i] (W2[reach[m], j] -
    W2[reach[m + 1], j])`` at node (i, j), so the count is one matrix
    product over the strips.  It is exact in any summation order, so the
    measure is one rounded product, the same under both axis flips and
    for any BLAS; only its top-left quadrant is multiplied, of order
    (rows / 2) x (strips) x (columns / 2) per radius, and mirrored.
    """
    return _ball_measure(grid, _row_reach(grid, _ball_radius(radius) * BALL_SHRINK),
                         np.empty(grid.shape))


def ball_mean(values: np.ndarray, grid: Grid, radius: float) -> np.ndarray:
    """Signed in-box ball average at every node (linear in f) of each function
    f of a ``(..., *grid.shape)`` value stack; its sums and measure share one lattice ball."""
    reach = _row_reach(grid, _ball_radius(radius) * BALL_SHRINK)
    num = next(_ball_sums(grid.quad_weights * values, [reach]))[0]
    return num / _ball_measure(grid, reach, np.empty(grid.shape))


def _check_qtilde(qtilde: float) -> None:
    """Below ``_QTILDE_FLOOR`` the root ``(mean of |f|^qtilde)^(1/qtilde)``
    amplifies the rounding of the power sums by ``1/qtilde``: at 1e-6
    ``M f >= |f|`` already fails, and at 1e-16 the ratio is off by 1e19."""
    if qtilde <= 0.0 or not math.isfinite(qtilde):
        raise DomainError("qtilde must be a finite positive constant")
    if qtilde < _QTILDE_FLOOR:
        raise DomainError(f"qtilde = {qtilde} is below the floor {_QTILDE_FLOOR}, where the "
                          "1/qtilde root amplifies the rounding of the power sums")


def _binade(values: np.ndarray, axes=None) -> np.ndarray:
    """The least ``e`` with ``2^e >= max |values|`` over ``axes``, kept as
    length-1 axes (0 where the values are all zero): ``np.ldexp(values,
    -e)`` puts the largest ``|f|`` in (1/2, 1] exactly, without forming
    ``2^e``, which for ``e = 1024`` is not a double.  The max and min
    make no copy of ``|values|``."""
    m, e = np.frexp(np.maximum(values.max(axis=axes, keepdims=True),
                               -values.min(axis=axes, keepdims=True)))
    return e - (m == 0.5)


def maximal_function(f: GridFunction, qtilde: float, sweep: RadiusSweep) -> GridFunction:
    """``M_qtilde f`` over the sweep, computed as ``2^e M(f / 2^e)`` with
    the largest ``|f / 2^e|`` in (1/2, 1], so that ``|f|^qtilde`` neither
    overflows nor underflows at any scale of f."""
    _check_qtilde(qtilde)
    sweep.validate_for(f.grid)
    refuse_non_finite(f.values, f.grid.size, "the maximal function")
    # radii with the same lattice ball give the same ratio: keep the first
    reaches: list[list[int]] = []
    for reach in _row_reaches(f.grid, [r * BALL_SHRINK for r in sweep.radii]):
        if not reaches or reach != reaches[-1]:
            reaches.append(reach)
    best = np.zeros(f.grid.shape)
    e = _binade(f.values)
    # the generator drops its input after the first chunk; hold no name to it
    sums = _ball_sums(f.grid.quad_weights * np.ldexp(np.abs(f.values), -e) ** qtilde, reaches)
    for reach, (num, scratch) in zip(reaches, sums):
        den = _ball_measure(f.grid, reach, scratch)
        np.maximum(best, np.divide(num, den, out=num), out=best)
    best **= 1.0 / qtilde
    return GridFunction(f.grid, np.ldexp(best, e, out=best))


# no library caller; bench/layers.py traces it by name until its counters move inside
def oscillation_average(f: GridFunction, qtilde: float, radius: float) -> GridFunction:
    """``osc_{qtilde, radius} f`` at every node, in-box truncated."""
    osc = next(oscillation_profiles(f.values[None], f.grid, qtilde, RadiusSweep((radius,))))
    return GridFunction(f.grid, osc[0])


def oscillation_profiles(values: np.ndarray, grid: Grid, qtilde: float,
                         sweep: RadiusSweep) -> Iterator[np.ndarray]:
    """``osc_{qtilde, r}`` of every member of an ``(M, *grid.shape)``
    stack, yielded as an ``(M, *grid.shape)`` array once per sweep
    radius in increasing order (checks run at the first ``next``).

    The offsets of the largest ball are walked once: each radius adds
    the offsets of its ball that the previous radius did not cover, and
    divides by `_ball_measure` of its ball; an offset and its negative
    share one difference power.  The walk
    runs on a node-major copy, ``(*grid.shape, M)``, so that each
    offset's operations are single blocks, and weighs a term by the
    scalar interior weight unless its partner node lies on the box
    boundary (`_partner_pieces`).
    """
    _check_qtilde(qtilde)
    if sweep.radii[0] < grid.max_step * (1.0 - 1e-9):
        raise DomainError("oscillation radius must be at least the grid step")
    refuse_non_finite(values, grid.size, "the oscillation average")
    e = _binade(values, tuple(range(-grid.dim, 0)))
    nodes = np.empty(grid.shape + values.shape[:1])
    np.ldexp(values, -e, out=np.moveaxis(nodes, -1, 0))
    qw = grid.quad_weights
    interior = qw[tuple(n // 2 for n in grid.shape)]  # every node off the boundary weighs this
    num = np.zeros(nodes.shape)
    den = np.empty(grid.shape)
    scratch = np.empty(nodes.size)  # each offset's powers
    walked: set = set()
    # Closed offset balls, unlike the open balls elsewhere: at the
    # smallest admissible radius (one grid step) the open convention
    # would leave only the zero offset and a vacuous oscillation.
    for reach in _row_reaches(grid, [r * (1.0 + 1e-9) for r in sweep.radii]):
        offsets = _offset_list(grid, reach)
        # the list is sorted and symmetric: zero, which adds nothing, then one of each pair
        for delta in offsets[len(offsets) // 2 + 1:]:
            if delta in walked:
                continue
            walked.add(delta)
            dst, src = _shift_slices(grid.shape, delta)
            here = nodes[dst]
            powed = scratch[:here.size].reshape(here.shape)
            np.subtract(here, nodes[src], out=powed)
            np.abs(powed, out=powed)
            if qtilde != 1.0:
                powed **= qtilde
            # +delta at x in dst weighted by x + delta, then -delta at x + delta by x
            terms = []
            for at, by, (inner, faces) in zip((dst, src), (src, dst), _partner_pieces(
                    tuple((k > 0) - (k < 0) for k in delta))):
                acc, weights = num[at], qw[by]
                # the interior piece is a view, read after the scaling below
                terms.append((acc[inner], powed[inner]))
                terms += [(acc[face], weights[by_face] * powed[face]) for face, by_face in faces]
            powed *= interior
            for acc, term in terms:
                np.add(acc, term, out=acc)
        # member-major again, read across the node-major sums
        mean = np.divide(np.moveaxis(num, -1, 0), _ball_measure(grid, reach, den),
                         out=np.empty(values.shape))
        if qtilde != 1.0:
            mean **= 1.0 / qtilde
        yield np.ldexp(mean, e, out=mean)


@lru_cache(maxsize=None)  # at most 3^dim keys
def _partner_pieces(signs: tuple[int, ...]) -> tuple:
    """How the block of an offset pair ``+-delta`` splits by partner, for
    the signs of the components of delta: per sign of the pair, ``(inner,
    faces)``, indices into the block laid out like `_shift_slices`'s
    nodes.  ``inner`` holds the nodes whose partner is off the box
    boundary; each face holds, along one axis in turn, the block's first
    or last row where the partner row is a face of the box, cut to
    ``inner`` on the axes before.  A face comes twice: as an index into
    the block, and with a new last axis into the partners' weights, to
    broadcast over the members.  The pieces are disjoint and cover the
    block.  Along an axis the partner rows of ``+delta`` start at the box
    edge where the component is at most 0 and end at it where it is at
    least 0; ``-delta`` is the same with the signs flipped.  Counted from
    the block's ends, the pieces do not depend on its length (at an
    offset of n - 1 some are empty)."""
    out = []
    for sign in (signs, tuple(-k for k in signs)):
        inner, faces = (), []
        for axis, k in enumerate(sign):
            rest = (slice(None),) * (len(sign) - axis - 1)
            faces += [(inner + (face,) + rest, inner + (face,) + rest + (None,))
                      for face, on in ((slice(0, 1), k <= 0), (slice(-1, None), k >= 0)) if on]
            inner += (slice(1 if k <= 0 else 0, -1 if k >= 0 else None),)
        out.append((inner, tuple(faces)))
    return tuple(out)


def _offset_list(grid: Grid, reach: list[int]) -> list[tuple[int, ...]]:
    """The offsets of the `_row_reach` list ``reach``, sorted."""
    if grid.dim == 1:
        return [(k,) for k in range(-reach[0], reach[0] + 1)]
    rows = range(1 - len(reach), len(reach))
    return [(k1, k2) for k1 in rows for k2 in range(-reach[abs(k1)], reach[abs(k1)] + 1)]


@dataclass(frozen=True)
class ProbeReport:
    gate: WeightConstantReport
    qtilde: float
    ratios: tuple[float, ...]
    max_ratio: float


def maximal_boundedness_probe(corpus: FunctionFamily, p: ExponentField,
                              w: WeightField, qtilde: float, sweep: RadiusSweep,
                              cubes: DyadicCubeSet, rel_tol: float = 1e-10) -> ProbeReport:
    """Empirical norm ratios ``||M_q f|| / ||f||`` under the gating
    weight condition ``w^qtilde`` in the class at exponent ``p/qtilde``.

    The gate is `weights.gate_constant`: DomainError for a qtilde that
    is not finite and positive, HypothesisFailureError when qtilde is not
    below p_- or the gate constant overflows.
    """
    gate = gate_constant(w, p, qtilde, cubes, rel_tol)
    grid = corpus.grid
    fn = weighted_table(corpus.values, grid, p, w).solve(rel_tol=rel_tol).log_value
    live = np.flatnonzero(fn > -math.inf)
    if not live.size:
        raise DomainError("probe corpus contains only zero functions")
    mf = FunctionFamily.fill(grid, live.size, lambda k: maximal_function(
        GridFunction(grid, corpus.values[live[k]]), qtilde, sweep).values)
    ratios = norm_ratios(mf.values, grid, p, w, fn[live], rel_tol)[1].tolist()
    return ProbeReport(gate, qtilde, tuple(ratios), max(ratios))
