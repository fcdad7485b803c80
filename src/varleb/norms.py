"""Modulars and Luxemburg norms for variable exponents.

The modular of ``f`` against an exponent field ``p`` is ``rho(f) = int
|f(x)|^p(x) dx`` (a trapezoid sum here).  The norm is the Luxemburg
functional

    ||f||_p = inf { lam > 0 : rho(f / lam) <= 1 },

computed by Newton's method on ``g(t) = log rho(f / e^t)``.  Over the
nonzero nodes ``g`` is convex and decreasing with slope in ``[-p_+,
-p_-]``, so Newton iterates started at ``t = log sup|f|`` rise
monotonically to the root, and the slope bounds turn the last value of
``g`` into a certified bracket for the norm.  Weighted norms follow the
convention ``||f||_{p,w} = || f w ||_p`` (the weight multiplies the
function, it does not change the measure).

A mixed norm of a bivariate function first reduces the second axis by a
constant-exponent integral norm, then applies a variable-exponent
Luxemburg norm in the first axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _nonzero_nodes(a: np.ndarray, p: np.ndarray, qw: np.ndarray):
    """The (|f|, p, weights) entries where ``|f| > 0``; a NaN value is
    refused rather than read as zero."""
    nan = np.flatnonzero(np.isnan(a))
    if nan.size:
        raise DomainError(f"function value is NaN at flat node index {int(nan[0])}")
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


def lux_flat(a: np.ndarray, p: np.ndarray, qw: np.ndarray,
             rel_tol: float = 1e-10) -> NormResult:
    """Luxemburg solve on flat node data.

    Newton steps on ``g(t) = log sum qw exp(p (log a - t))`` stop once
    ``|g| <= p_- log1p(rel_tol)``; since ``|g'| >= p_-``, the root lies
    within ``|g| / p_-`` of ``t`` on the side given by the sign of ``g``,
    which is the returned bracket.  A constant exponent makes ``g``
    affine and finishes in two evaluations; an infinite value gives an
    infinite norm.
    """
    if not 0.0 < rel_tol <= 1e-2:
        raise DomainError(f"rel_tol must lie in (0, 1e-2], got {rel_tol}")
    a, p, qw = _nonzero_nodes(a, p, qw)
    if a.size == 0:
        return NormResult(0.0, 0, (0.0, 0.0), 0.0)
    top = float(a.max())
    if top == math.inf:
        return NormResult(math.inf, 0, (math.inf, math.inf), math.inf)
    la = np.log(a)
    lq = np.log(qw)
    p_lo = float(p.min())
    tol = p_lo * math.log1p(rel_tol)
    t = math.log(top)
    for evals in range(1, MAX_EVALUATIONS + 1):
        x = lq + p * (la - t)
        shift = float(x.max())
        e = np.exp(x - shift)
        s = float(e.sum())
        g = shift + math.log(s)
        if abs(g) <= tol:
            with np.errstate(over="ignore"):
                lo, value, hi = np.exp([t + min(g, 0.0) / p_lo, t, t + max(g, 0.0) / p_lo])
            return NormResult(float(value), evals, (float(lo), float(hi)), math.exp(g))
        t += g * s / float(p @ e)
    raise ConvergenceError(f"Luxemburg Newton solve left |log rho| = {abs(g):.3g} "
                           f"above {tol:.3g} after {MAX_EVALUATIONS} evaluations")


def luxemburg_norm(f: GridFunction, p: ExponentField, region=None,
                   rel_tol: float = 1e-10) -> NormResult:
    a, pv, qw = _region_arrays(f, p, region)
    return lux_flat(a, pv, qw, rel_tol)


def weighted_norm(f: GridFunction, p: ExponentField, w: WeightField | None = None,
                  region=None, rel_tol: float = 1e-10) -> NormResult:
    """``|| f w ||_p``; with ``w`` omitted this is the plain norm."""
    g = f if w is None else f * w
    return luxemburg_norm(g, p, region, rel_tol)


def weight_measure(w: WeightField, p: ExponentField, region=None) -> float:
    """``w(A) = int_A w(x)^p(x) dx``, the measure a weight induces."""
    return modular(w, p, region)


def mixed_norm(F: GridFunction, inner_exponent: float, outer_p: ExponentField,
               outer_weight: WeightField | None = None,
               rel_tol: float = 1e-10) -> NormResult:
    """Norm of ``x -> ||F(x, .)||_{L^inner}`` in ``L^outer_p(v)``.

    ``F`` lives on a 2D grid whose first axis is the outer variable.
    The inner exponent is a positive constant; the outer exponent and
    weight live on the first-axis 1D grid.
    """
    if F.grid.dim != 2:
        raise DomainError("mixed norms need a bivariate grid function")
    if inner_exponent <= 0.0 or not math.isfinite(inner_exponent):
        raise DomainError("inner exponent must be a finite positive constant")
    x_grid = F.grid.axis_grid(0)
    y_grid = F.grid.axis_grid(1)
    wy = y_grid.quad_weights
    with np.errstate(over="ignore"):
        inner = np.sum(wy[None, :] * np.abs(F.values) ** inner_exponent, axis=1) ** (
            1.0 / inner_exponent)
    g = GridFunction(x_grid, inner)
    return weighted_norm(g, outer_p, outer_weight, rel_tol=rel_tol)


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
