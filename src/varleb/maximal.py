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
not depend on f and is not a ball sum: the quadrature weights are the
outer product of two 1D trapezoid factors, so the measure is one
window of w in 1D and one (nodes x rows of the ball)(rows of the ball
x nodes) matrix product in 2D.  One helper states which lattice
offsets lie in a ball; the ball sums, the ball measure and the
oscillation offsets all read it.

Oscillation averages are summed offset by offset over a whole family
and a whole radius sweep in one pass.  The balls of increasing radii
are nested, so the pass walks the offsets of the largest ball once, in
radius order, and takes a snapshot of numerator over denominator after
each radius.  Offsets delta and -delta share one array
``|f(x) - f(x + delta)|^q``: it is added at x weighted by the node
x + delta and at x + delta weighted by x.  The numerator is stacked
over the members; the denominator does not depend on f and is summed
once.

Both operators are positively homogeneous, and both are computed so
at any scale: of ``f / 2^e``, with ``2^e`` the least power of two at
or above ``max |f|`` (per member for the oscillation), and the result
scaled back by ``2^e``.  The powers ``|f|^q`` then neither underflow
nor overflow, and where ``max |f|`` lies in (1/2, 1] nothing changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .exponent import ExponentField
from .field import (BALL_SHRINK, DyadicCubeSet, FunctionFamily, Grid, GridFunction,
                    WeightField, _shift_slices, refuse_non_finite)
from .norms import weighted_norms
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
        if self.radii[0] <= 0.0:
            raise DomainError("radii must be positive")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise DomainError("radii must increase strictly")

    @classmethod
    def geometric(cls, grid: Grid, count: int = 64) -> "RadiusSweep":
        """Geometric ladder from the grid step to the box diameter."""
        lo, hi = grid.max_step, grid.box.diameter
        if count < 2 or hi <= lo:
            raise DomainError("need count >= 2 and a box diameter above the grid step")
        return cls(tuple(np.geomspace(lo, hi, count)))

    @classmethod
    def with_radii(cls, grid: Grid, count: int, required: Sequence[float]) -> "RadiusSweep":
        """Geometric ladder thinned to make room for required radii."""
        if count < len(required):
            raise DomainError(f"count must be at least the {len(required)} required radii, "
                              f"got {count}")
        base = np.geomspace(grid.max_step, grid.box.diameter, count - len(required))
        merged = sorted(set(map(float, base)) | set(map(float, required)))
        return cls(tuple(merged))

    def validate_for(self, grid: Grid) -> None:
        if self.radii[0] < grid.max_step * (1.0 - 1e-9):
            raise DomainError(
                f"smallest radius {self.radii[0]} is below the grid step {grid.max_step}")
        if self.radii[-1] > grid.box.diameter * (1.0 + 1e-9):
            raise DomainError(
                f"largest radius {self.radii[-1]} exceeds the box diameter")


def _row_reach(grid: Grid, r_eff: float) -> list[int]:
    """The open lattice ball of radius ``r_eff``, row by row, cut to the
    offsets that reach a node of the grid.

    Entry ``k1`` is the largest ``k2 >= 0`` with ``(k1 h1)^2 + (k2 h2)^2
    < r_eff^2``, capped at ``n2 - 1``, for ``k1 = 0, 1, ...`` while that
    row is nonempty and ``k1 < n1``; a 1D grid is the single row
    ``k1 = 0``, tested as ``k2 h < r_eff``.  This is the only statement
    of lattice-ball membership.  A radius of twice the box diameter
    already takes in the whole box, so a larger one is cut to that
    before any integer is formed from it.
    """
    r_eff = min(r_eff, 2.0 * grid.box.diameter)
    h1, h2 = grid.steps[0], grid.steps[-1]
    if grid.dim == 1:
        # the answer in real arithmetic, then settled by the rounded test
        k2 = int(r_eff / h2)
        while (k2 + 1) * h2 < r_eff:
            k2 += 1
        while not k2 * h2 < r_eff:
            k2 -= 1
        return [min(k2, grid.shape[0] - 1)]
    r2 = r_eff ** 2
    reach = []
    while len(reach) < grid.shape[0] and (len(reach) * h1) ** 2 < r2:
        row = (len(reach) * h1) ** 2
        k2 = int(math.sqrt(max(r2 - row, 0.0)) / h2)
        while row + ((k2 + 1) * h2) ** 2 < r2:
            k2 += 1
        while not row + (k2 * h2) ** 2 < r2:
            k2 -= 1
        reach.append(min(k2, grid.shape[1] - 1))
    return reach


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
    ball."""
    n = out.shape[-1]
    out[..., :n - k2] = prefix[..., k2:]
    out[..., n - k2:] = prefix[..., -1:]
    out[..., k2 + 1:] -= prefix[..., :n - k2 - 1]
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
    sums = [np.empty(arr.shape) for _ in range(min(_BALLS_PER_CHUNK, len(reaches)))]
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
            _window(prefix, c, row[band])
            for k1, out in rows_at[c]:
                if k1 == 0:
                    out[band] = row[band]
                    if rows:
                        out[..., :s0, :] = 0.0
                        out[..., s1:, :] = 0.0
                    continue
                # out[i] += row[i + k1], then out[i] += row[i - k1], for
                # the rows i whose partner row is a mass row
                lo, hi = max(s0 - k1, 0), max(s1 - k1, 0)
                out[..., lo:hi, :] += row[..., lo + k1:hi + k1, :]
                lo, hi = s0 + k1, min(s1 + k1, rows)
                out[..., lo:hi, :] += row[..., lo - k1:hi - k1, :]
        # a centre-node ball is the smallest, so only the first chunk
        # copies arr: let a caller's temporary go
        arr = None
        for _, out in chunk:
            yield out, row


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
    return next(_ball_sums(arr, [_row_reach(grid, radius * BALL_SHRINK)]))[0]


def _ball_measure(grid: Grid, reach: list[int], out: np.ndarray) -> np.ndarray:
    if reach == [0]:
        np.copyto(out, grid.quad_weights)
        return out
    widest, n = reach[0], grid.shape[-1]
    if grid.dim == 1:
        return _window(_prefix(grid.quad_weights), widest, out)
    w1, w2 = (grid.axis_grid(axis).quad_weights for axis in (0, 1))
    # row s of `starts` is padded[s:s + n], with P of w2 padded by zeros
    # on the left and its total on the right
    c2 = _prefix(w2)
    starts = sliding_window_view(
        np.concatenate([np.zeros(widest + 1), c2, np.full(widest, c2[-1])]), n)
    k2 = np.array(reach)
    v = starts[widest + k2 + 1]
    v -= starts[widest - k2]
    # row s of `spans` is zero_padded[s:s + rows], so T[i, m] reads
    # zero_padded[rows + i - m] at spans[i + 1, rows - 1 - m]
    rows = len(reach)
    spans = sliding_window_view(np.concatenate([np.zeros(rows), w1, np.zeros(rows)]), rows)
    t = spans[1:grid.shape[0] + 1, ::-1] + spans[rows:rows + grid.shape[0]]
    t[:, 0] = w1
    return np.matmul(t, v, out=out)


def ball_measure(grid: Grid, radius: float) -> np.ndarray:
    """The quadrature measure of the in-box open ball B(x, radius) at
    every node: ``ball_sums(grid.quad_weights, grid, radius)`` up to
    rounding, and equal to it where the sums are exact (dyadic steps).

    In 1D it is one window of the trapezoid weights.  In 2D the weights
    are the outer product of 1D factors w1 and w2, so with ``V[m, j]``
    the window of w2 of half-width ``reach[m]`` and ``T[i, m] =
    w1[i - m] + w1[i + m]`` over the in-box rows (``T[i, 0] = w1[i]``),
    the measure is the one product ``T @ V``, of order (rows) x (rows
    of the ball) x (columns) per radius.
    """
    return _ball_measure(grid, _row_reach(grid, radius * BALL_SHRINK), np.empty(grid.shape))


def ball_mean(values: np.ndarray, grid: Grid, radius: float) -> np.ndarray:
    """Signed in-box ball average at every node (linear in f) of each
    function f of a ``(..., *grid.shape)`` value stack."""
    num = ball_sums(grid.quad_weights * values, grid, radius)
    return num / np.maximum(ball_measure(grid, radius), 1e-300)


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
    for r in sweep.radii:
        reach = _row_reach(f.grid, r * BALL_SHRINK)
        if not reaches or reach != reaches[-1]:
            reaches.append(reach)
    best = np.zeros(f.grid.shape)
    e = _binade(f.values)
    # the generator drops its input after the first chunk; hold no name to it
    sums = _ball_sums(f.grid.quad_weights * np.ldexp(np.abs(f.values), -e) ** qtilde, reaches)
    for reach, (num, scratch) in zip(reaches, sums):
        den = np.maximum(_ball_measure(f.grid, reach, scratch), 1e-300, out=scratch)
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
    an offset and its negative share one difference power.
    """
    _check_qtilde(qtilde)
    if sweep.radii[0] < grid.max_step * (1.0 - 1e-9):
        raise DomainError("oscillation radius must be at least the grid step")
    refuse_non_finite(values, grid.size, "the oscillation average")
    e = _binade(values, tuple(range(-grid.dim, 0)))
    values = np.ldexp(values, -e)
    qw = grid.quad_weights
    num = np.zeros(values.shape)
    den = np.zeros(grid.shape)
    walked: set = set()
    for radius in sweep.radii:
        # Closed offset ball, unlike the open balls elsewhere: at the
        # smallest admissible radius (one grid step) the open convention
        # would leave only the zero offset and a vacuous oscillation.
        offsets = _offset_list(grid, radius * (1.0 + 1e-9))
        # the list is sorted and symmetric: zero, then one of each pair
        for delta in offsets[len(offsets) // 2:]:
            if delta in walked:
                continue
            walked.add(delta)
            dst, src = _shift_slices(grid.shape, delta)
            den[dst] += qw[src]
            if dst == src:
                continue
            den[src] += qw[dst]
            powed = np.abs(values[(Ellipsis,) + dst] - values[(Ellipsis,) + src])
            if qtilde != 1.0:
                powed **= qtilde
            num[(Ellipsis,) + dst] += qw[src] * powed
            num[(Ellipsis,) + src] += qw[dst] * powed
        mean = num / np.maximum(den, 1e-300)
        if qtilde != 1.0:
            mean **= 1.0 / qtilde
        yield np.ldexp(mean, e, out=mean)


def _offset_list(grid: Grid, r_eff: float):
    reach = _row_reach(grid, r_eff)
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
    fn = weighted_norms(corpus.values, grid, p, w, rel_tol)
    live = np.flatnonzero(fn > 0.0)
    if not live.size:
        raise DomainError("probe corpus contains only zero functions")
    mf = FunctionFamily.fill(grid, live.size, lambda k: maximal_function(
        GridFunction(grid, corpus.values[live[k]]), qtilde, sweep).values)
    ratios = (weighted_norms(mf.values, grid, p, w, rel_tol) / fn[live]).tolist()
    return ProbeReport(gate, qtilde, tuple(ratios), max(ratios))
