"""Grids, grid functions, weights, regions and dyadic cube families.

Conventions
-----------
All computations live on an axis-aligned box ``[lo_1, hi_1] x ... x
[lo_n, hi_n]`` with ``n <= 2``, discretized by an inclusive tensor grid
of ``shape_i`` nodes per axis (node spacing ``h_i = (hi_i - lo_i) /
(shape_i - 1)``).  Integrals are composite trapezoid sums: every node
carries the tensor-product weight ``prod_i h_i`` except on the box
faces, where the 1D factor drops to ``h_i / 2``.  For the full box this
is exact on affine integrands; sub-regions are handled by node
membership masking, so region boundaries carry an O(h) error that the
resolution-convergence tests are expected to absorb.

Balls are open: a node belongs to ``B(c, r)`` when ``|x - c| <
r * (1 - 1e-12)``.  The deterministic shrink keeps nodes that sit
exactly on the sphere out of the ball regardless of floating-point
noise, so a radius equal to the grid step reduces the ball to its
center node.

Functions are extended by zero outside the box wherever a construction
(shifts, mollification) would need exterior values.  A weight is held as
``log w``: its powers, inverse and products are multiples and sums of logs.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from typing import Iterator, Sequence

import numpy as np

from .errors import (REQUIRED, DomainError, SchemaError, _refuse, descriptor, list_of, number,
                     per_axis, read_kind, string)

BALL_SHRINK = 1.0 - 1e-12
_BOX_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by per-axis bounds."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DomainError("box lo/hi dimension mismatch")
        if not self.lo:
            raise DomainError("box must have at least one axis")
        object.__setattr__(self, "lo", tuple(float(a) for a in self.lo))
        object.__setattr__(self, "hi", tuple(float(b) for b in self.hi))
        for a, b in zip(self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise DomainError(f"degenerate box axis [{a}, {b}]")

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]], key: str, where: str, *_) -> "Box":
        """The box of a list of [lo, hi] pairs; with the reader signature
        of ``errors``, the reader of box-valued config keys."""
        if not isinstance(pairs, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
            _refuse("a list of [lo, hi] pairs", pairs, key, where)
        if not pairs:
            _refuse("a nonempty list of [lo, hi] pairs", pairs, key, where)
        pair = f"{where} key '{key}' pair"
        try:
            return cls(tuple(number(p[0], "lo", pair) for p in pairs),
                       tuple(number(p[1], "hi", pair) for p in pairs))
        except DomainError:  # a degenerate axis
            _refuse("a list of finite [lo, hi] pairs with lo < hi", pairs, key, where)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def diameter(self) -> float:
        return float(np.hypot.reduce(self.widths)) if self.dim > 1 else self.widths[0]

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    def contains_box(self, other: "Box") -> bool:
        return all(a - 1e-9 * w <= oa and ob <= b + 1e-9 * w
                   for a, b, oa, ob, w in zip(self.lo, self.hi, other.lo, other.hi, self.widths))


@dataclass(frozen=True)
class Grid:
    """Inclusive tensor grid on a box; nodes per axis given by shape."""

    box: Box
    shape: tuple[int, ...]

    def __post_init__(self):
        if len(self.shape) != self.box.dim:
            raise DomainError("grid shape dimension does not match box")
        if self.box.dim > 2:
            raise DomainError("grids support at most two axes")
        for n in self.shape:
            if n < 2:
                raise DomainError("need at least 2 nodes per axis")

    @property
    def dim(self) -> int:
        return self.box.dim

    @cached_property
    def steps(self) -> tuple[float, ...]:
        return tuple(w / (n - 1) for w, n in zip(self.box.widths, self.shape))

    @property
    def max_step(self) -> float:
        return max(self.steps)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        return _axes(self)

    @property
    def quad_weights(self) -> np.ndarray:
        return _quad_weights(self)

    @property
    def log_quad_weights(self) -> np.ndarray:
        """``np.log(quad_weights)``, read-only and cached per grid like
        `quad_weights`: the log weights of every Luxemburg solve."""
        return _log_quad_weights(self)

    @property
    def coords(self) -> np.ndarray:
        """Node coordinates, shape ``grid.shape + (dim,)``."""
        return _coords(self)

    def axis_grid(self, axis: int) -> "Grid":
        """The 1D grid along one axis of a 2D grid."""
        return Grid(Box((self.box.lo[axis],), (self.box.hi[axis],)), (self.shape[axis],))


@lru_cache(maxsize=128)
def _axes(grid: Grid) -> tuple[np.ndarray, ...]:
    out = []
    for a, b, n in zip(grid.box.lo, grid.box.hi, grid.shape):
        ax = np.linspace(a, b, n)
        ax.flags.writeable = False
        out.append(ax)
    return tuple(out)


@lru_cache(maxsize=128)
def _quad_weights(grid: Grid) -> np.ndarray:
    factors = []
    for h, n in zip(grid.steps, grid.shape):
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        factors.append(w)
    with np.errstate(over="ignore"):  # refused below, naming the grid
        out = reduce(np.multiply.outer, factors)
    lo, hi = float(out.min()), float(out.max())
    if not np.finfo(float).tiny <= lo <= hi < math.inf:  # a subnormal weight has lost digits
        raise DomainError(f"the {grid.shape} grid on {grid.box.lo}-{grid.box.hi} has quadrature "
                          f"weights in [{lo!r}, {hi!r}]; each must be positive and finite")
    out.flags.writeable = False
    return out


@lru_cache(maxsize=128)
def _log_quad_weights(grid: Grid) -> np.ndarray:
    out = np.log(_quad_weights(grid))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=128)
def _coords(grid: Grid) -> np.ndarray:
    mesh = np.meshgrid(*_axes(grid), indexing="ij")
    out = np.stack(mesh, axis=-1)
    out.flags.writeable = False
    return out


class GridFunction:
    """Real values at the nodes of a grid, with pointwise sums and products."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise DomainError(f"value shape {values.shape} does not match grid shape {grid.shape}")
        self.grid = grid
        self.values = values

    def _pointwise(self, other, op) -> "GridFunction":
        """``op`` of the values and a same-grid function's (or anything
        numpy broadcasts)."""
        if isinstance(other, GridFunction):
            shared_grid((self, other), "grid functions")
            other = other.values
        return GridFunction(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._pointwise(other, operator.add)

    def __mul__(self, other):
        return self._pointwise(other, operator.mul)

    __rmul__ = __mul__


class WeightField:
    """Strictly positive grid function, held as ``log w`` alone."""

    __slots__ = ("grid", "log_values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = GridFunction(grid, values).values
        ok = np.isfinite(values) & (values > 0.0)
        if not ok.all():
            node = int(np.argmin(ok))
            raise DomainError(f"weight must satisfy 0 < w < inf at every node; it is "
                              f"{float(values.flat[node])!r} at flat node index {node}")
        self.grid, self.log_values = grid, np.log(values)

    @classmethod
    def from_log(cls, grid: Grid, log_values: np.ndarray) -> "WeightField":
        """The weight ``exp(log_values)``, derived from checked weights."""
        out = cls.__new__(cls)
        out.grid, out.log_values = grid, log_values
        return out

    @property
    def values(self) -> np.ndarray:
        """``w``, computed from the logs."""
        return np.exp(self.log_values)

    def power(self, a: float) -> "WeightField":
        return WeightField.from_log(self.grid, a * self.log_values)

    def inverse(self) -> "WeightField":
        return WeightField.from_log(self.grid, -self.log_values)

    @staticmethod
    def product(ws: Sequence["WeightField"]) -> "WeightField":
        """``w_1 w_2 ...``: the sum of the logs, from the left."""
        return WeightField.from_log(shared_grid(ws, "weight components"),
                                    reduce(np.add, (w.log_values for w in ws)))


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Functions on one grid: the ``(members, *grid.shape)`` stack of
    their values."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if np.shape(self.values)[1:] != self.grid.shape or not len(self.values):
            raise DomainError(f"family values of shape {np.shape(self.values)} are not a stack "
                              f"of one or more {self.grid.shape} grid functions")

    @classmethod
    def fill(cls, grid: Grid, count: int, member) -> "FunctionFamily":
        """The family whose member k is ``member(k)``, written into one stack."""
        values = np.empty((max(count, 0), *grid.shape))
        for k, row in enumerate(values):
            row[...] = member(k)
        return cls(grid, values)

    def __len__(self) -> int:
        return len(self.values)


def shared_grid(functions: Sequence[GridFunction], what: str, grid: Grid | None = None) -> Grid:
    """The grid that grid functions share, ``grid`` if given, else the first
    one's (DomainError saying that ``what`` differ otherwise)."""
    grid = functions[0].grid if grid is None else grid
    if any(f.grid != grid for f in functions):
        raise DomainError(f"{what} live on different grids")
    return grid


def refuse_non_finite(values: np.ndarray, nodes: int, needs: str | None = None) -> None:
    """Raise DomainError naming the first NaN of a table of ``nodes`` values,
    or of a stack of such tables, by flat node index (and member); with
    ``needs`` (what requires finite values) an infinity too."""
    bad = np.isnan(values) if needs is None else ~np.isfinite(values)
    if bad.any():
        first = int(np.argmax(bad))
        member, node = divmod(first, nodes)
        value = values.flat[first]
        raise DomainError(
            f"function value is {'NaN' if np.isnan(value) else value} at flat node index {node}"
            + (f" of member {member}" if values.size > nodes else "")
            + ("" if needs is None else f"; {needs} needs finite values"))


# ---------------------------------------------------------------------------
# regions: boolean node masks, which restrict a function by multiplication
# (``f * mask``) and a norm by cutting `norms.NodeTable.rows`


def _axis_ranges(ax: np.ndarray, width: float, lo, hi):
    """First and one-past-last index of the nodes of axis ``ax`` (of a box
    of this width) in ``[lo, hi]``, for scalar or array bounds; nodes on
    the boundary are included up to a 1e-12 relative tolerance, so dyadic
    corners computed two different ways agree."""
    tol = _BOX_EDGE_TOL * width
    return (np.searchsorted(ax, lo - tol, side="left"),
            np.searchsorted(ax, hi + tol, side="right"))


def box_slices(grid: Grid, box: Box) -> tuple[slice, ...]:
    """Index slices of the nodes lying in an axis-aligned sub-box."""
    if box.dim != grid.dim:
        raise DomainError("region dimension does not match grid")
    out = []
    for ax, lo, hi, w in zip(grid.axes, box.lo, box.hi, grid.box.widths):
        i0, i1 = _axis_ranges(ax, w, lo, hi)
        out.append(slice(int(i0), int(i1)))
    return tuple(out)


def box_mask(grid: Grid, box: Box) -> np.ndarray:
    mask = np.zeros(grid.shape, dtype=bool)
    mask[box_slices(grid, box)] = True
    return mask


def ball_mask(grid: Grid, center: Sequence[float], radius: float) -> np.ndarray:
    if len(center) != grid.dim:
        raise DomainError("ball center dimension does not match grid")
    r_eff = np.float64(_open_radius(radius))
    unit = _distance_unit(grid, center)
    with np.errstate(over="ignore"):  # a numpy scalar's ** is C pow, as Python's, but may be inf
        return _squared_distance(grid, center, unit) < (r_eff / unit) ** 2


def _open_radius(radius: float) -> float:
    """``radius * BALL_SHRINK``, the radius that open balls B(x, radius) are
    tested with; ``radius`` is refused unless above zero, so also when NaN."""
    if not radius > 0.0:
        raise DomainError(f"ball radius must be positive, got {radius}")
    return radius * BALL_SHRINK


def square_unit(top: float, grid: Grid, noun: str) -> float:
    """The power-of-two unit of length, 1 wherever it can be, in which
    every length from half the smallest step of ``grid`` up to ``top`` has
    a normal square, below 2^1000; the ``noun`` on the grid is refused, by
    its steps, when there is none."""
    # top < 2^e_t and half >= 2^(e_h - 1): top^2 < 2^1000 and half^2 >= 2^-1022 in the unit
    least, most = math.frexp(top)[1] - 500, math.frexp(0.5 * min(grid.steps))[1] + 510
    if least > most:
        raise DomainError(f"{noun} on the grid of steps {' and '.join(map(repr, grid.steps))}: "
                          f"no power-of-two unit keeps their squares normal")
    return math.ldexp(1.0, min(max(0, least), most))


def _distance_unit(grid: Grid, center: Sequence[float]) -> float:
    """The `square_unit` of the node distances from ``center`` on ``grid``:
    from half its smallest step up to its widest axis and its farthest
    node, or up to 2^1000 half steps, past which a square may read inf,
    farther than any radius.  A grid that no unit can square across its
    widest axis is refused."""
    box = grid.box
    far = max(max(abs(a - c), abs(b - c)) for a, b, c in zip(box.lo, box.hi, center))
    reach = min(far, 0.5 * min(grid.steps) * 2.0 ** 1000)  # inf past the float range
    return square_unit(max(max(box.widths), reach), grid, "distances")


def _squared_distance(grid: Grid, center: Sequence[float], unit: float) -> np.ndarray:
    """``sum_i ((x_i - c_i) / unit)^2`` at every node, broadcast from the
    1D axes, in a power-of-two ``unit`` (`_distance_unit`), which scales
    each difference exactly; per node the same sum in the same order as
    over ``grid.coords``, so in the unit 1 the same bits, without building
    the coordinates."""
    d2 = 0.0
    with np.errstate(over="ignore"):  # past the float range: inf, farther than any radius
        for axis, (ax, c) in enumerate(zip(grid.axes, center)):
            shape = [1] * grid.dim
            shape[axis] = -1
            d = ax - c
            if unit != 1.0:
                d /= unit
            d2 = d2 + (d ** 2).reshape(shape)
    return d2


# ---------------------------------------------------------------------------
# dyadic cubes


@dataclass(frozen=True)
class Cube:
    box: Box
    depth: int
    shifted: bool
    index: tuple[int, ...]

    def label(self) -> str:
        tag = "s" if self.shifted else "u"
        return f"d{self.depth}{tag}{'.'.join(map(str, self.index))}"


@dataclass(frozen=True)
class DyadicCubeSet:
    """Dyadic subcubes of a root box up to a depth, plus shifted copies.

    At depth ``d`` the root splits into ``2^d`` pieces per axis.  The
    shifted family translates each depth-``d`` cube by half its side
    along every axis and keeps the translates that stay inside the root
    box; it is the discrete surrogate for a supremum over all cubes, so
    the scanned constant is a certified lower bound for the true one.
    """

    root: Box
    max_depth: int

    def __post_init__(self):
        if self.max_depth < 0:
            raise DomainError("max_depth must be nonnegative")

    def groups(self) -> Iterator["CubeGroup"]:
        """The scan order: per depth the dyadic cubes, then the shifted ones."""
        lo = np.array(self.root.lo)
        side_0 = np.array(self.root.widths)
        for depth in range(self.max_depth + 1):
            k = 2 ** depth
            side = side_0 / k
            yield CubeGroup(depth, False, tuple(a + np.arange(k) * s for a, s in zip(lo, side)), side)
            if depth >= 1:
                yield CubeGroup(depth, True,
                                tuple(a + (np.arange(k - 1) + 0.5) * s for a, s in zip(lo, side)), side)


@dataclass(frozen=True, eq=False)
class CubeGroup:
    """The cubes of one depth, dyadic or shifted: the products of the
    per-axis lower corners, in C order, each of side ``side``."""

    depth: int
    shifted: bool
    corners: tuple[np.ndarray, ...]
    side: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.corners)

    def cube(self, index: Sequence[int]) -> Cube:
        c_lo = np.array([c[i] for c, i in zip(self.corners, index)])
        return Cube(Box(tuple(c_lo), tuple(c_lo + self.side)), self.depth, self.shifted,
                    tuple(int(i) for i in index))

    def node_rows(self, grid: Grid) -> np.ndarray:
        """Flat indices of each cube's nodes, one row per cube in scan
        order and the nodes in C order, padded with ``grid.size``."""
        dim = grid.dim
        flat, inside, stride = 0, True, 1
        for axis in reversed(range(dim)):
            lo = self.corners[axis]
            i0, i1 = _axis_ranges(grid.axes[axis], grid.box.widths[axis], lo, lo + self.side[axis])
            # one column at least: a group of empty cubes is all padding
            local = np.arange((i1 - i0).max(initial=1))
            shape = [1] * (2 * dim)
            shape[axis], shape[dim + axis] = lo.size, local.size
            flat = flat + ((i0[:, None] + local) * stride).reshape(shape)
            if (i1 - i0).min() < local.size:  # padded where a cube is short on this axis
                inside = inside & (local < (i1 - i0)[:, None]).reshape(shape)
            stride *= grid.shape[axis]
        flat = flat if inside is True else np.where(inside, flat, grid.size)
        return flat.reshape(math.prod(self.shape), -1)


# ---------------------------------------------------------------------------
# function descriptors: the builder of each kind returns the values on the grid


def _radial(grid: Grid, center) -> np.ndarray:
    """Distance of every node from ``center``; None is the box center.
    The squares are formed in the `_distance_unit`, and the root is
    scaled back by it, exactly."""
    center = grid.box.center if center is None else center
    unit = _distance_unit(grid, center)
    r = np.sqrt(_squared_distance(grid, center, unit))
    return r if unit == 1.0 else r * unit


def _gaussian(grid: Grid, center, width: float, amplitude: float) -> np.ndarray:
    if width <= 0:
        raise SchemaError("gaussian width must be positive")
    with np.errstate(over="ignore"):  # past 1e154 widths out: exp(-inf) = 0
        return amplitude * np.exp(-((_radial(grid, center) / width) ** 2))


def _power(grid: Grid, exponent: float, center, floor: float) -> np.ndarray:
    r = _radial(grid, center)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(r > 0, r, 1.0) ** exponent
        vals = np.where(r > 0, vals, 0.0 if exponent > 0 else np.inf)
    return np.maximum(vals, floor) if floor > 0 else vals


def _bump(grid: Grid, center, radius: float, amplitude: float) -> np.ndarray:
    if radius <= 0:
        raise SchemaError("bump radius must be positive")
    with np.errstate(divide="ignore", over="ignore"):
        t2 = (_radial(grid, center) / radius) ** 2
        vals = np.where(t2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - t2, 1e-300)), 0.0)
    return amplitude * vals


def _sine(grid: Grid, frequency, phase: float, amplitude: float) -> np.ndarray:
    arg = phase
    with np.errstate(over="ignore", invalid="ignore"):  # inf args give NaN, refused where used
        for axis, om in enumerate(frequency):
            arg = arg + 2.0 * np.pi * om * grid.coords[..., axis]
        return amplitude * np.sin(arg)


def _dilate(grid: Grid, inner: np.ndarray, scale: float) -> np.ndarray:
    if scale <= 0:
        raise SchemaError("dilate scale must be positive")
    if grid.dim != 1:
        raise SchemaError("dilate descriptors are 1D only")
    x = grid.axes[0]
    return np.interp(x / scale, x, inner, left=0.0, right=0.0)


def _fold(kind: str, op, grid: Grid, terms: list) -> np.ndarray:
    """The values of the ``terms`` of a ``kind`` descriptor, folded from the left by ``op``."""
    if not terms:
        raise SchemaError(f"'{kind}' needs a nonempty 'terms' list")
    return reduce(op, terms)


_FUNCTION = descriptor("a function", lambda desc, grid: realize_function(desc, grid).values)
_TERMS = {"terms": (list_of(_FUNCTION), REQUIRED)}
# kind -> (builder, its keys besides "kind")
_FUNCTIONS = {
    "gaussian": (_gaussian, {"center": (per_axis(number), None), "width": (number, 1.0),
                             "amplitude": (number, 1.0)}),
    "indicator": (lambda grid, box: box_mask(grid, box).astype(float),
                  {"box": (Box.from_pairs, REQUIRED)}),
    "power": (_power, {"exponent": (number, 1.0), "center": (per_axis(number), 0.0),
                       "floor": (number, 0.0)}),
    "bump": (_bump, {"center": (per_axis(number), None), "radius": (number, 1.0),
                     "amplitude": (number, 1.0)}),
    "sine": (_sine, {"frequency": (per_axis(number), 1.0), "phase": (number, 0.0),
                     "amplitude": (number, 1.0)}),
    "translate": (lambda grid, inner, shift:
                  shift_function(GridFunction(grid, inner), shift).values,
                  {"inner": (_FUNCTION, REQUIRED), "shift": (per_axis(number), REQUIRED)}),
    "dilate": (_dilate, {"inner": (_FUNCTION, REQUIRED), "scale": (number, REQUIRED)}),
    "sum": (partial(_fold, "sum", operator.add), _TERMS),
    "product": (partial(_fold, "product", operator.mul), _TERMS),
    "grid_csv": (lambda grid, path: read_grid_csv(path, grid).values,
                 {"path": (string, REQUIRED)}),
}


def realize_function(desc: dict, grid: Grid) -> GridFunction:
    """Build a grid function from a JSON-style descriptor: the values that
    the builder of its kind in ``_FUNCTIONS`` gives."""
    return GridFunction(grid, read_kind(desc, _FUNCTIONS, "function", grid))


def _shift_slices(shape, delta):
    """Slices ``dst, src`` of an array of ``shape``, such that each node of
    ``src`` lies ``delta`` steps past its node of ``dst``."""
    dst, src = [], []
    for n, k in zip(shape, delta):
        if k >= 0:
            dst.append(slice(0, n - k))
            src.append(slice(k, n))
        else:
            dst.append(slice(-k, n))
            src.append(slice(0, n + k))
    return tuple(dst), tuple(src)


def shift_function(f: GridFunction, shift: Sequence[float]) -> GridFunction:
    """Translate by a node-aligned shift, filling with zeros.

    The shift is rounded to the nearest whole number of grid steps per
    axis so translated copies stay exactly on the node lattice (after a
    clip to the n nodes of the axis, so a huge shift gives zeros).
    """
    back = [-int(round(min(max(s / h, -n), n)))
            for s, h, n in zip(shift, f.grid.steps, f.grid.shape)]
    dst, src = _shift_slices(f.grid.shape, back)
    vals = np.zeros_like(f.values)
    vals[dst] = f.values[src]
    return GridFunction(f.grid, vals)


def _simple_functions(grid: Grid, rng: np.random.Generator, count: int) -> np.ndarray:
    """The ``(count, *grid.shape)`` values of ``count`` random simple
    functions, drawn one after another: each a finite sum of one to eight
    scaled box indicators, with coefficients log-uniform in [1e-2, 1e2]
    and either sign, and nonzero somewhere.

    Per function the generator gives the term count, then one
    ``rng.random`` block of the terms' doubles, row by row: two box
    bounds per axis, the log coefficient and the sign.  These are the
    doubles, in the order, that one ``uniform``/``random`` call per value
    would draw.  Everything past the two calls runs once over the terms
    of all functions, and each function's terms are added in their order,
    so a function's values are the same as drawn alone.  Each coefficient
    stays the Python float ``10.0 ** x``, since numpy's ``power`` can
    differ in the last bit.
    """
    counts, blocks = [], []
    for _ in range(count):
        counts.append(int(rng.integers(1, 9)))
        blocks.append(rng.random((counts[-1], 2 * grid.dim + 2)))
    draws = np.concatenate(blocks)
    ranges = []
    for axis, (a, b) in enumerate(zip(grid.box.lo, grid.box.hi)):
        u, v = np.sort(a + (b - a) * draws[:, 2 * axis:2 * axis + 2], axis=1).T
        thin = v - u < 0.05 * (b - a)  # keep every box wide enough to catch nodes
        mid = 0.5 * (u + v)
        half = 0.025 * (b - a)
        i0, i1 = _axis_ranges(grid.axes[axis], grid.box.widths[axis],
                              np.where(thin, np.maximum(a, mid - half), u),
                              np.where(thin, np.minimum(b, mid + half), v))
        ranges.append(list(map(slice, i0.tolist(), i1.tolist())))
    logs = (-2.0 + 4.0 * draws[:, 2 * grid.dim]).tolist()
    signs = (draws[:, -1] < 0.5).tolist()
    owners = np.repeat(np.arange(count), counts).tolist()
    vals = np.zeros((count, *grid.shape))
    for k, x, negative, *index in zip(owners, logs, signs, *ranges):
        coeff = 10.0 ** x
        vals[(k, *index)] += -coeff if negative else coeff
    empty = ~vals.reshape(count, -1).any(axis=1)
    if empty.any():
        vals[(empty, *(slice(*map(int, _axis_ranges(ax, w, a, (a + b) / 2)))
                       for ax, w, a, b in zip(grid.axes, grid.box.widths, grid.box.lo,
                                              grid.box.hi)))] += 1.0
    return vals


# ---------------------------------------------------------------------------
# CSV grid input: header "x[,y],value", row-major node order


def read_grid_csv(path: str, grid: Grid) -> GridFunction:
    """The function of the CSV file at ``path``; a fault of the file raises
    a SchemaError that names the path and, for a fault within a line, the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        rows = csv.reader(io.StringIO(data.decode(), newline=""))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path}: line {line}: not UTF-8 text: {exc}") from None
    body = []
    try:
        header = next(rows, [])
        if header[-1:] != ["value"]:
            raise SchemaError(f"{path}: expected a 'x[,y],value' CSV header")
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row width {len(row)}, header width {len(header)}")
            body += map(float, row)
    except (ValueError, csv.Error) as exc:
        raise SchemaError(f"{path}: line {rows.line_num}: {exc}") from None
    body = np.array(body).reshape(-1, len(header))
    if body.shape != (grid.size, grid.dim + 1):
        raise SchemaError(f"{path}: got {body.shape[0]} rows of width {body.shape[1]}, "
                          f"grid wants {grid.size} rows of width {grid.dim + 1}")
    coords = grid.coords.reshape(-1, grid.dim)
    scale = max(grid.box.widths)
    if not np.allclose(body[:, : grid.dim], coords, atol=1e-9 * scale, rtol=0.0):
        raise SchemaError(f"{path}: node coordinates do not match the grid (row-major order)")
    return GridFunction(grid, body[:, -1].reshape(grid.shape))
