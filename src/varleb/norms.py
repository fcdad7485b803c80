"""Modulars and Luxemburg norms for variable exponents.

The modular of ``f`` against an exponent field ``p`` is ``rho(f) = int
|f(x)|^p(x) dx`` (a trapezoid sum here).  The norm is the Luxemburg
functional

    ||f||_p = inf { lam > 0 : rho(f / lam) <= 1 },

computed by Newton's method on ``g(t) = log rho(f / e^t)``.  Over the
nonzero nodes ``g`` is convex and decreasing with slope in ``[-p_+,
-p_-]``, so Newton iterates started at ``t = log sup|f|`` rise
monotonically to the root, and the slope bounds turn the last value of
``g`` into a certified bracket for the norm.

The solver, `lux_rows`, runs on a ``(rows, n)`` array of ``log|f|``:
each row is an independent solve, padded with zero-valued nodes
(``log|f| = -inf``, which add nothing to the modular), and all rows take
their Newton steps together; a row that has converged keeps its ``t``.
`lux_flat` is its one-row case, `weighted_norms` solves a whole family
of functions at once and the weight-constant cube scan a whole group of
cubes.

Weighted norms follow the convention ``||f||_{p,w} = || f w ||_p`` (the
weight multiplies the function, it does not change the measure).

A mixed norm of a bivariate function first reduces the second axis by a
constant-exponent integral norm (`inner_norm`), then applies a
variable-exponent Luxemburg norm in the first axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, EmptyRegionError
from .exponent import ExponentField, dual_exponent
from .field import (Box, Grid, GridFunction, WeightField, box_slices,
                    random_simple_function)

MAX_EVALUATIONS = 100


@dataclass(frozen=True)
class NormResult:
    """Outcome of a Luxemburg solve: the norm value, the number of
    modular evaluations, a certified bracket for the norm, and the
    modular of ``f / value``."""

    value: float
    iterations: int
    bracket: tuple[float, float]
    modular_at_value: float

    def __float__(self) -> float:
        return self.value


def _region_arrays(f: GridFunction, p: ExponentField, region):
    """Flat (|f|, p, weights) arrays over the region's nodes."""
    if p.box != f.grid.box:
        raise DomainError("exponent domain does not match the function's box")
    vals = f.values
    pv = p.values_on(f.grid)
    qw = f.grid.quad_weights
    if region is None:
        return np.abs(vals).ravel(), pv.ravel(), qw.ravel()
    if isinstance(region, Box):
        sl = box_slices(f.grid, region)
        sub = vals[sl]
        if sub.size == 0:
            raise EmptyRegionError(f"no grid node inside region {region.as_pairs()}")
        return np.abs(sub).ravel(), pv[sl].ravel(), qw[sl].ravel()
    mask = np.asarray(region, dtype=bool)
    if mask.shape != f.grid.shape:
        raise DomainError("region mask shape does not match grid")
    if not mask.any():
        raise EmptyRegionError("region mask selects no grid node")
    return np.abs(vals[mask]), pv[mask], qw[mask]


def _refuse_nan(a: np.ndarray) -> None:
    """Raise DomainError naming the first NaN node of a flat array, or of
    an array of rows, so a NaN is never read as zero."""
    bad = np.flatnonzero(np.isnan(a))
    if bad.size:
        row, node = divmod(int(bad[0]), a.shape[-1])
        of_row = f" of row {row}" if a.ndim > 1 and a.shape[0] > 1 else ""
        raise DomainError(f"function value is NaN at flat node index {node}{of_row}")


def _nonzero_nodes(a: np.ndarray, p: np.ndarray, qw: np.ndarray):
    """The (|f|, p, weights) entries where ``|f| > 0``; a NaN value is
    refused rather than read as zero."""
    _refuse_nan(a)
    nz = a > 0.0
    return a[nz], p[nz], qw[nz]


def modular_flat(a: np.ndarray, p: np.ndarray, qw: np.ndarray) -> float:
    a, p, qw = _nonzero_nodes(a, p, qw)
    with np.errstate(over="ignore"):
        return float(np.sum(qw * np.exp(p * np.log(a))))


def modular(f: GridFunction, p: ExponentField, region=None) -> float:
    """``int_region |f|^p(x) dx``; may overflow to inf."""
    a, pv, qw = _region_arrays(f, p, region)
    return modular_flat(a, pv, qw)


def log_abs(values: np.ndarray) -> np.ndarray:
    """``log|f|``, ``-inf`` at zero nodes and NaN at NaN nodes."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


class RowNorms(NamedTuple):
    """Outcome of `lux_rows` in the log domain, one entry per row: the
    final Newton iterate ``t`` (the norm is ``e^t``), ``g = log rho(f /
    e^t)``, the ``p_-`` of the nonzero nodes and the number of modular
    evaluations.  The certified bracket is ``exp(t + min(g, 0) / p_lo)``
    to ``exp(t + max(g, 0) / p_lo)``."""

    log_value: np.ndarray
    log_modular: np.ndarray
    p_lo: np.ndarray
    iterations: np.ndarray

    @property
    def value(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_value)


def lux_rows(la: np.ndarray, p: np.ndarray, lq: np.ndarray,
             rel_tol: float = 1e-10) -> RowNorms:
    """Luxemburg solves of the independent rows of ``(rows, n)`` arrays,
    or of a single ``(n,)`` row (then every result is a scalar).

    Row ``i`` holds ``la = log|f|`` (see `log_abs`), the exponent ``p``
    and the log quadrature weights ``lq``.  A zero or padding node has
    ``la = -inf`` and adds nothing to the modular.  Newton steps on
    ``g(t) = log sum exp(lq + p (la - t))``, started at ``t = max la``,
    run on all rows at once; a row stops once ``|g| <= p_-
    log1p(rel_tol)``, with ``p_-`` taken over its nonzero nodes, and
    keeps its ``t`` from then on.  Since ``|g'| >= p_-``, the root lies
    within ``|g| / p_-`` of ``t`` on the side given by the sign of
    ``g``, which is the certified bracket.  A constant exponent makes
    ``g`` affine and finishes in two evaluations.  A row with no nonzero
    node has norm 0, and one with an infinite value an infinite norm,
    after no evaluation; a NaN value is refused.
    """
    if not 0.0 < rel_tol <= 1e-2:
        raise DomainError(f"rel_tol must lie in (0, 1e-2], got {rel_tol}")
    t = la.max(axis=-1, initial=-math.inf)
    live = np.isfinite(t)
    if np.count_nonzero(live) == t.size > 0:
        return _newton_rows(la, p, lq, t, rel_tol)
    _refuse_nan(la)
    # t = -inf: no nonzero node, so log rho = -inf; t = inf: an infinite value
    out = RowNorms(t, np.copy(t), np.ones_like(t), np.zeros(np.shape(t), dtype=int))
    if live.any():
        r = _newton_rows(la[live], p[live], lq[live], t[live], rel_tol)
        for name in ("log_value", "log_modular", "p_lo", "iterations"):
            getattr(out, name)[live] = getattr(r, name)
    return out


def _newton_rows(la, p, lq, t, rel_tol: float) -> RowNorms:
    """The Newton loop of `lux_rows` over rows with a finite start; the
    reductions run along the last axis, so one ``(n,)`` row works on
    numpy scalars throughout."""
    p_lo = np.where(la > -math.inf, p, math.inf).min(axis=-1)
    tol = p_lo * math.log1p(rel_tol)
    out = None              # per-row results, once some rows stop before others
    e = np.empty_like(la)
    for k in range(1, MAX_EVALUATIONS + 1):
        np.subtract(la, t[..., None], out=e)  # e = exp(lq + p (la - t) - shift), in place
        e *= p
        e += lq
        shift = np.maximum.reduce(e, axis=-1)
        e -= shift[..., None]
        np.exp(e, out=e)
        s = np.add.reduce(e, axis=-1)
        g = shift + np.log(s)
        done = abs(g) <= tol
        n_done = np.count_nonzero(done)
        if n_done == done.size and out is None:
            return RowNorms(t, g, p_lo, np.full(np.shape(t), k))
        if n_done:
            if out is None:
                out = RowNorms(t.copy(), np.empty_like(t), p_lo, np.zeros(t.size, dtype=int))
                rows = np.arange(t.size)
            fin = rows[done]
            out.log_value[fin], out.log_modular[fin], out.iterations[fin] = t[done], g[done], k
            if n_done == done.size:
                return out
            keep = ~done
            rows, la, p, lq, e = rows[keep], la[keep], p[keep], lq[keep], e[keep]
            t, g, s, tol = t[keep], g[keep], s[keep], tol[keep]
        t = t + g * s / np.vecdot(p, e)
    worst = np.argmax(np.abs(g) - tol)
    raise ConvergenceError(
        f"Luxemburg Newton solve left |log rho| = {abs(np.ravel(g)[worst]):.3g} above "
        f"{np.ravel(tol)[worst]:.3g} after {MAX_EVALUATIONS} evaluations")


def lux_flat(a: np.ndarray, p: np.ndarray, qw: np.ndarray,
             rel_tol: float = 1e-10) -> NormResult:
    """Luxemburg solve on flat node data ``a = |f|``: `lux_rows` on the
    single row of its nonzero nodes."""
    a, p, qw = _nonzero_nodes(a, p, qw)
    r = lux_rows(np.log(a), p, np.log(qw), rel_tol)
    t, g, p_lo = float(r.log_value), float(r.log_modular), float(r.p_lo)
    with np.errstate(over="ignore"):
        lo, value, hi = np.exp([t + min(g, 0.0) / p_lo, t, t + max(g, 0.0) / p_lo])
    return NormResult(float(value), int(r.iterations), (float(lo), float(hi)), math.exp(g))


def luxemburg_norm(f: GridFunction, p: ExponentField, region=None,
                   rel_tol: float = 1e-10) -> NormResult:
    a, pv, qw = _region_arrays(f, p, region)
    return lux_flat(a, pv, qw, rel_tol)


def weighted_norm(f: GridFunction, p: ExponentField, w: WeightField | None = None,
                  region=None, rel_tol: float = 1e-10) -> NormResult:
    """``|| f w ||_p``; with ``w`` omitted this is the plain norm."""
    g = f if w is None else f * w
    return luxemburg_norm(g, p, region, rel_tol)


def weighted_norms(fs: Sequence[GridFunction], p: ExponentField,
                   w: WeightField | None = None, rel_tol: float = 1e-10) -> np.ndarray:
    """``|| f w ||_p`` of each function of a sequence on one grid, solved
    together as the rows of one `lux_rows` call.  Each row holds its
    function's nonzero nodes in node order, as `lux_flat` would, padded
    with zero nodes to the longest row."""
    grid = fs[0].grid
    if p.box != grid.box:
        raise DomainError("exponent domain does not match the function's box")
    a = np.stack([f.values.ravel() for f in fs])
    if w is not None:
        if w.grid != grid:
            raise DomainError("grid functions live on different grids")
        a *= w.values.ravel()
    with np.errstate(divide="ignore"):
        a = np.log(np.abs(a, out=a), out=a)
    _refuse_nan(a)
    nz = a > -math.inf
    counts = np.count_nonzero(nz, axis=1)
    head = np.arange(counts.max(initial=0)) < counts[:, None]
    # one packed array at a time, so the peak memory stays near the rows
    la = np.full(head.shape, -math.inf)
    la[head] = a[nz]
    del a
    pv = np.ones(head.shape)
    pv[head] = np.broadcast_to(p.values_on(grid).ravel(), nz.shape)[nz]
    lq = np.zeros(head.shape)
    lq[head] = np.broadcast_to(np.log(grid.quad_weights.ravel()), nz.shape)[nz]
    del nz, head
    return lux_rows(la, pv, lq, rel_tol).value


def weight_measure(w: WeightField, p: ExponentField, region=None) -> float:
    """``w(A) = int_A w(x)^p(x) dx``, the measure a weight induces."""
    return modular(w, p, region)


def inner_norm(F: GridFunction, inner_exponent: float) -> GridFunction:
    """The profile ``x -> ||F(x, .)||_{L^inner}`` of a bivariate grid
    function, on the 1D grid of its first axis; the inner exponent is a
    positive constant."""
    if F.grid.dim != 2:
        raise DomainError("mixed norms need a bivariate grid function")
    if inner_exponent <= 0.0 or not math.isfinite(inner_exponent):
        raise DomainError("inner exponent must be a finite positive constant")
    wy = F.grid.axis_grid(1).quad_weights
    with np.errstate(over="ignore"):
        inner = np.sum(wy[None, :] * np.abs(F.values) ** inner_exponent, axis=1) ** (
            1.0 / inner_exponent)
    return GridFunction(F.grid.axis_grid(0), inner)


def mixed_norm(F: GridFunction, inner_exponent: float, outer_p: ExponentField,
               outer_weight: WeightField | None = None,
               rel_tol: float = 1e-10) -> NormResult:
    """Norm of ``x -> ||F(x, .)||_{L^inner}`` in ``L^outer_p(v)``.

    ``F`` lives on a 2D grid whose first axis is the outer variable.
    The inner exponent is a positive constant; the outer exponent and
    weight live on the first-axis 1D grid.
    """
    return weighted_norm(inner_norm(F, inner_exponent), outer_p, outer_weight,
                         rel_tol=rel_tol)


def holder_constant(p: ExponentField) -> float:
    """Working convention for the two-factor Hoelder constant:
    ``1/p_- - 1/p_+ + 1`` (equal to 1 exactly when p is constant, and
    invariant under duality)."""
    return 1.0 / p.p_minus - 1.0 / p.p_plus + 1.0


def pairing(f: GridFunction, g: GridFunction) -> float:
    """``int |f g|`` over the shared grid."""
    if g.grid != f.grid:
        raise DomainError("pairing requires a shared grid")
    return float(np.sum(f.grid.quad_weights * np.abs(f.values * g.values)))


def duality_pairing_lower_bound(f: GridFunction, p: ExponentField,
                                trials: int = 16, seed: int = 0,
                                rel_tol: float = 1e-10) -> float:
    """Best pairing ``int |f g|`` over candidates with ``||g||_{p'} = 1``.

    Always includes the classical norming candidate ``|f|^{p(.)-1}``,
    which attains ``||f||_p`` exactly for constant exponents, plus
    seeded random simple functions.  The result is a certified lower
    bound for the dual norm of ``f`` up to normalization error.
    """
    p.require_P("duality pairing")
    pd = dual_exponent(p)
    candidates = [f.power(p.values_on(f.grid) - 1.0)]
    rng = np.random.default_rng(seed)
    candidates.extend(random_simple_function(f.grid, rng, signed=False)
                      for _ in range(trials))
    best = 0.0
    for g in candidates:
        gn = luxemburg_norm(g, pd, rel_tol=rel_tol).value
        if gn <= 0.0 or not math.isfinite(gn):
            continue
        best = max(best, pairing(f, g * (1.0 / gn)))
    return best
