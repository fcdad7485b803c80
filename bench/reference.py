"""Reference computations for the benchmark's output checks.

Everything here is written from the documented config semantics with
numpy alone; nothing imports varleb, so a check compares varleb with a
computation made apart from it.

* Grids: ``n`` cells per axis give ``n + 1`` nodes, trapezoid weights.
* Descriptors: the function kinds (gaussian, power, bump, sine, sum,
  product) and exponent kinds (constant, affine, log_decay, piecewise)
  used by the workloads.
* Closed forms for constant exponents: ``||g||_p = (sum qw |g|^p)^(1/p)``.
* Dyadic-plus-shift cube families and per-cube weight constants.
* The 1D q-mean maximal function from prefix sums over open in-box balls.
"""

from __future__ import annotations

import math

import numpy as np

BALL_SHRINK = 1.0 - 1e-12
BOX_EDGE_TOL = 1e-12


class Grid:
    """Inclusive tensor grid on a box given as ``[[lo, hi], ...]``."""

    def __init__(self, box, cells):
        self.box = [(float(a), float(b)) for a, b in box]
        cells = cells if isinstance(cells, (list, tuple)) else [cells] * len(self.box)
        self.shape = tuple(int(c) + 1 for c in cells)
        self.axes = [np.linspace(a, b, n) for (a, b), n in zip(self.box, self.shape)]
        self.steps = [(b - a) / (n - 1) for (a, b), n in zip(self.box, self.shape)]
        w = None
        for h, n in zip(self.steps, self.shape):
            f = np.full(n, h)
            f[0] = f[-1] = 0.5 * h
            w = f if w is None else np.multiply.outer(w, f)
        self.qw = w
        self.coords = np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)

    @property
    def dim(self):
        return len(self.box)


def grid_of(cfg):
    return Grid(cfg["box"], cfg["resolution"])


# ---------------------------------------------------------------------------
# descriptors


def function_values(desc, grid):
    """Node values of a function descriptor."""
    kind = desc["kind"]
    x = grid.coords
    if kind == "gaussian":
        r = np.sqrt(np.sum((x - np.asarray(desc["center"])) ** 2, axis=-1))
        return desc.get("amplitude", 1.0) * np.exp(-((r / desc["width"]) ** 2))
    if kind == "power":
        r = np.sqrt(np.sum((x - np.asarray(desc["center"])) ** 2, axis=-1))
        e = desc["exponent"]
        with np.errstate(divide="ignore"):
            vals = np.where(r > 0, np.where(r > 0, r, 1.0) ** e, 0.0 if e > 0 else np.inf)
        return np.maximum(vals, desc.get("floor", 0.0))
    if kind == "bump":
        r = np.sqrt(np.sum((x - np.asarray(desc["center"])) ** 2, axis=-1))
        t2 = (r / desc["radius"]) ** 2
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.where(t2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - t2, 1e-300)), 0.0)
        return desc.get("amplitude", 1.0) * vals
    if kind == "sine":
        freq = desc["frequency"]
        freq = [freq] * grid.dim if np.isscalar(freq) else freq
        arg = desc.get("phase", 0.0)
        for axis, om in enumerate(freq):
            arg = arg + 2.0 * np.pi * om * x[..., axis]
        return desc.get("amplitude", 1.0) * np.sin(arg) * np.ones(grid.shape)
    if kind in ("sum", "product"):
        acc = function_values(desc["terms"][0], grid)
        for term in desc["terms"][1:]:
            nxt = function_values(term, grid)
            acc = acc + nxt if kind == "sum" else acc * nxt
        return acc
    raise ValueError(f"no reference for function kind {kind!r}")


def exponent_values(desc, grid):
    """Node values of an exponent descriptor on ``grid``."""
    kind = desc["kind"]
    x = grid.coords
    if kind == "constant":
        return np.full(grid.shape, float(desc["value"]))
    if kind == "affine":
        return desc["base"] + sum(s * x[..., i] for i, s in enumerate(desc["slopes"]))
    if kind == "log_decay":
        r = np.sqrt(np.sum(x ** 2, axis=-1))
        return desc["p_infinity"] + desc["amplitude"] / np.log(math.e + r)
    if kind == "piecewise":
        idx = np.searchsorted(np.asarray(desc["breakpoints"]), x[..., 0], side="right")
        return np.asarray(desc["values"], dtype=float)[idx]
    raise ValueError(f"no reference for exponent kind {kind!r}")


def exponent_bounds(desc, box):
    """Exact (p_minus, p_plus) of a constant or affine exponent on a box."""
    if desc["kind"] == "constant":
        return float(desc["value"]), float(desc["value"])
    corners = [desc["base"]]
    for s, (a, b) in zip(desc["slopes"], box):
        corners = [c + s * v for c in corners for v in (a, b)]
    return min(corners), max(corners)


# ---------------------------------------------------------------------------
# modulars and norms


def log_modular(a, p, qw, lam):
    """``log sum qw (a / lam)^p`` over the nodes with ``a > 0``, in the
    log domain so that amplitudes near the float limits stay exact."""
    nz = a > 0
    if not nz.any():
        return -math.inf
    t = np.log(qw[nz]) + p[nz] * (np.log(a[nz]) - math.log(lam))
    m = float(t.max())
    return m + math.log(float(np.sum(np.exp(t - m))))


def closed_form_norm(a, p, qw):
    """``(sum qw a^p)^(1/p)`` for a constant exponent ``p``."""
    a = np.abs(np.asarray(a, dtype=float)).ravel()
    qw = np.asarray(qw).ravel()
    m = float(a.max())
    if m == 0.0:
        return 0.0
    return m * float(np.sum(qw * (a / m) ** p)) ** (1.0 / p)


def modular(a, p, qw):
    """Trapezoid sum ``sum qw |a|^p(x)``."""
    a = np.abs(a)
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.where(a > 0, qw * np.abs(a) ** p, 0.0)
    return float(np.sum(terms))


# ---------------------------------------------------------------------------
# dyadic cubes and weight constants


def cube_boxes(box, max_depth):
    """Dyadic subcubes of ``box`` to ``max_depth`` plus the half-shifted
    copies that stay inside, as lists of ``(lo, hi)`` pairs per axis."""
    lo = np.array([a for a, _ in box])
    width = np.array([b - a for a, b in box])
    out = []
    for depth in range(max_depth + 1):
        k = 2 ** depth
        side = width / k
        for idx in np.ndindex(*([k] * len(box))):
            c = lo + np.array(idx) * side
            out.append(list(zip(c, c + side)))
        if depth >= 1:
            for idx in np.ndindex(*([k - 1] * len(box))):
                c = lo + (np.array(idx) + 0.5) * side
                out.append(list(zip(c, c + side)))
    return out


def cube_slices(grid, cube):
    """Index slices of the nodes inside a cube, faces included."""
    out = []
    for ax, (a, b), (lo, hi) in zip(grid.axes, grid.box, cube):
        tol = BOX_EDGE_TOL * (b - a)
        out.append(slice(int(np.searchsorted(ax, lo - tol, side="left")),
                         int(np.searchsorted(ax, hi + tol, side="right"))))
    return tuple(out)


def cube_constant(grid, max_depth, factors, measure_power):
    """``max_Q |Q|^measure_power prod_k ||v_k chi_Q||_{e_k}`` for constant
    exponents ``e_k``, each norm in closed form.  ``factors`` is a list
    of ``(values, e)``."""
    best = -math.inf
    for cube in cube_boxes(grid.box, max_depth):
        sl = cube_slices(grid, cube)
        qw = grid.qw[sl]
        value = float(np.sum(qw)) ** measure_power
        for vals, e in factors:
            value *= closed_form_norm(vals[sl], e, qw)
        best = max(best, value)
    return best


# ---------------------------------------------------------------------------
# 1D maximal function


def ball_halfwidths(h, radius):
    """Node offsets ``k`` with ``|k h| < radius * BALL_SHRINK``."""
    r_eff = radius * BALL_SHRINK
    k = int(math.floor(r_eff / h))
    while k > 0 and k * h >= r_eff:
        k -= 1
    return k


def maximal_1d(f, qw, h, qtilde, radii):
    """``M_q f`` on a 1D grid: for each radius, sums of ``qw |f|^q`` and of
    ``qw`` over the in-box index window ``[i - k, i + k]``, taken as
    differences of prefix sums."""
    n = f.size
    cf = np.concatenate(([0.0], np.cumsum(qw * np.abs(f) ** qtilde)))
    cw = np.concatenate(([0.0], np.cumsum(qw)))
    idx = np.arange(n)
    best = np.zeros(n)
    for r in radii:
        k = ball_halfwidths(h, r)
        lo = np.maximum(idx - k, 0)
        hi = np.minimum(idx + k + 1, n)
        np.maximum(best, (cf[hi] - cf[lo]) / (cw[hi] - cw[lo]), out=best)
    return best ** (1.0 / qtilde)


def geometric_radii(grid, count):
    """The radius ladder of ``maximal`` jobs: geometric from the largest
    grid step to the box diameter."""
    return np.geomspace(max(grid.steps), math.hypot(*[b - a for a, b in grid.box]), count)
