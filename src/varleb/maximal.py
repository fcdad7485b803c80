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
per row: each lattice ball is a stack of row intervals, so a radius
costs O(rows of the ball x nodes), and a ball sum of a nonnegative
array is never negative.  One helper states which lattice offsets lie
in a ball; the ball sums and the oscillation offsets both read it.

Oscillation averages are summed offset by offset over a whole family
and a whole radius sweep in one pass.  The balls of increasing radii
are nested, so the pass walks the offsets of the largest ball once, in
radius order, and takes a snapshot of numerator over denominator after
each radius.  Offsets delta and -delta share one array
``|f(x) - f(x + delta)|^q``: it is added at x weighted by the node
x + delta and at x + delta weighted by x.  The numerator is stacked
over the members; the denominator does not depend on f and is summed
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, HypothesisFailureError, OverflowToInfinityError
from .exponent import ExponentField, scale_exponent
from .field import BALL_SHRINK, DyadicCubeSet, Grid, GridFunction, WeightField
from .norms import weighted_norms
from .weights import WeightConstantReport, ap_constant


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
    def geometric(cls, grid: Grid, count: int = 64,
                  r_min: float | None = None, r_max: float | None = None) -> "RadiusSweep":
        """Geometric ladder from the grid step to the box diameter."""
        lo = grid.max_step if r_min is None else r_min
        hi = grid.box.diameter if r_max is None else r_max
        if count < 2 or hi <= lo:
            raise DomainError("need count >= 2 and r_max > r_min")
        return cls(tuple(np.geomspace(lo, hi, count)))

    @classmethod
    def with_radii(cls, grid: Grid, count: int, required: Sequence[float]) -> "RadiusSweep":
        """Geometric ladder thinned to make room for required radii."""
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
    """The open lattice ball of radius ``r_eff``, row by row.

    Entry ``k1`` is the largest ``k2 >= 0`` with ``(k1 h1)^2 + (k2 h2)^2
    < r_eff^2``, for ``k1 = 0, 1, ...`` while that row is nonempty; a 1D
    grid is the single row ``k1 = 0``, tested as ``k2 h < r_eff``.  This
    is the only statement of lattice-ball membership.
    """
    h1, h2 = grid.steps[0], grid.steps[-1]
    if grid.dim == 1:
        def inside(k1, k2):
            return k1 == 0 and k2 * h2 < r_eff
    else:
        def inside(k1, k2):
            return (k1 * h1) ** 2 + (k2 * h2) ** 2 < r_eff ** 2
    reach = []
    while inside(len(reach), 0):
        k1 = len(reach)
        # the answer in real arithmetic, then settled by the rounded test
        k2 = int(math.sqrt(max(r_eff ** 2 - (k1 * h1) ** 2, 0.0)) / h2)
        while inside(k1, k2 + 1):
            k2 += 1
        while not inside(k1, k2):
            k2 -= 1
        reach.append(k2)
    return reach


def ball_sums(arr: np.ndarray, grid: Grid, radius: float) -> np.ndarray:
    """For every node x, the sum of ``arr`` over in-box nodes of the
    open ball B(x, radius).

    Row-interval sums are differences of one prefix sum along the last
    axis (the summed-area idea of Crow, SIGGRAPH 1984), padded with
    zeros on the left and the row total on the right so that both
    window ends are slices; in 2D each row adds the interval sums of
    the rows ``k1`` above and below it.  For ``arr >= 0`` every window
    of the nondecreasing prefix sum is ``>= 0``, and each row of a ball
    is off by at most about (row length) x eps x (row total).
    """
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


def ball_mean(f: GridFunction, radius: float) -> GridFunction:
    """Signed in-box ball average of f at every node (linear in f)."""
    qw = f.grid.quad_weights
    num = ball_sums(qw * f.values, f.grid, radius)
    den = ball_sums(qw, f.grid, radius)
    return GridFunction(f.grid, num / np.maximum(den, 1e-300))


def maximal_function(f: GridFunction, qtilde: float, sweep: RadiusSweep) -> GridFunction:
    if qtilde <= 0.0 or not math.isfinite(qtilde):
        raise DomainError("qtilde must be a finite positive constant")
    sweep.validate_for(f.grid)
    bad = np.flatnonzero(~np.isfinite(f.values))
    if bad.size:
        raise DomainError(f"function value is {f.values.flat[bad[0]]} at flat node "
                          f"index {int(bad[0])}; the maximal function needs finite values")
    qw = f.grid.quad_weights
    powed = qw * np.abs(f.values) ** qtilde
    best = np.zeros(f.grid.shape)
    for r in sweep.radii:
        num = ball_sums(powed, f.grid, r)
        den = ball_sums(qw, f.grid, r)
        np.maximum(best, num / np.maximum(den, 1e-300), out=best)
    return GridFunction(f.grid, best ** (1.0 / qtilde))


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
    if qtilde <= 0.0 or not math.isfinite(qtilde):
        raise DomainError("qtilde must be a finite positive constant")
    if sweep.radii[0] < grid.max_step * (1.0 - 1e-9):
        raise DomainError("oscillation radius must be at least the grid step")
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
        yield mean if qtilde == 1.0 else mean ** (1.0 / qtilde)


def _offset_list(grid: Grid, r_eff: float):
    # offsets of a whole grid length or more reach no node
    reach = [min(k2, grid.shape[-1] - 1) for k2 in _row_reach(grid, r_eff)[:grid.shape[0]]]
    if grid.dim == 1:
        return [(k,) for k in range(-reach[0], reach[0] + 1)]
    rows = range(1 - len(reach), len(reach))
    return [(k1, k2) for k1 in rows for k2 in range(-reach[abs(k1)], reach[abs(k1)] + 1)]


def _shift_slices(shape, delta):
    dst, src = [], []
    for n, k in zip(shape, delta):
        if k >= 0:
            dst.append(slice(0, n - k))
            src.append(slice(k, n))
        else:
            dst.append(slice(-k, n))
            src.append(slice(0, n + k))
    return tuple(dst), tuple(src)


@dataclass(frozen=True)
class ProbeReport:
    gate: WeightConstantReport
    qtilde: float
    ratios: tuple[float, ...]
    max_ratio: float


def maximal_boundedness_probe(corpus: Sequence[GridFunction], p: ExponentField,
                              w: WeightField, qtilde: float, sweep: RadiusSweep,
                              cubes: DyadicCubeSet, rel_tol: float = 1e-10) -> ProbeReport:
    """Empirical norm ratios ``||M_q f|| / ||f||`` under the gating
    weight condition ``w^qtilde`` in the class at exponent ``p/qtilde``.

    Raises HypothesisFailureError when the gate constant overflows or
    the scaled exponent leaves the class P.
    """
    if qtilde >= p.p_minus:
        raise HypothesisFailureError(
            f"qtilde = {qtilde} is not below p_- = {p.p_minus}")
    gate_p = scale_exponent(p, 1.0 / qtilde)
    try:
        gate = ap_constant(w.power(qtilde), gate_p, cubes, rel_tol, allow_overflow=False)
    except OverflowToInfinityError as exc:
        raise HypothesisFailureError(f"gate weight condition fails: {exc}") from exc
    fn = weighted_norms(corpus, p, w, rel_tol=rel_tol) if len(corpus) else np.zeros(0)
    live = np.flatnonzero(fn > 0.0)
    if not live.size:
        raise DomainError("probe corpus contains only zero functions")
    mf = [maximal_function(corpus[i], qtilde, sweep) for i in live]
    ratios = (weighted_norms(mf, p, w, rel_tol=rel_tol) / fn[live]).tolist()
    return ProbeReport(gate, qtilde, tuple(ratios), max(ratios))
