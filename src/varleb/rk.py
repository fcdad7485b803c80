"""Totally-bounded-or-not diagnostics for families of grid functions.

A family F in a weighted space ``L^p(.)(w)`` is probed through the
three conditions of the compactness criterion:

(i)   uniform bound:        sup_f ||f w||_p < inf,
(ii)  equicontinuity:       sup_f || osc_{q,r} f ||_{p,w} -> 0 as r -> 0,
(iii) uniform vanishing:    sup_f || f chi_{outside B(x0,R)} ||_{p,w} -> 0,

under the gating hypothesis that ``w^q`` satisfies the Muckenhoupt
condition at exponent ``p(.)/q`` for some ``0 < q < p_-``.  On a finite
grid none of these are limits, so the diagnostic reports profiles over
finite ladders and thresholds them, and cross-checks the verdict with
a covering-net oracle: greedy farthest-point covering numbers over an
epsilon ladder ``diam * 2^-k``.  A family whose net sizes stop growing
strictly below the family size compresses (evidence for total
boundedness); a family that stays fully separated at the smallest
epsilon does not.

Verdicts are "consistent-compact", "consistent-noncompact", or
"inconclusive"; they are evidence statements about the sampled family,
never theorems.  A family is one `FunctionFamily`, the ``(members,
*grid.shape)`` stack that its generator fills once and every probe reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .exponent import ExponentField
from .field import (DyadicCubeSet, FunctionFamily, GridFunction, WeightField, ball_mask,
                    shift_function)
from .maximal import RadiusSweep, oscillation_profiles
from .norms import weighted_norms, weighted_table
from .weights import WeightConstantReport, gate_constant


# ---------------------------------------------------------------------------
# family generators


def translate_family(base: GridFunction, count: int, step: float) -> FunctionFamily:
    """Shifted copies ``f(x - k step)`` along axis 0, zero filled."""
    rest = [0.0] * (base.grid.dim - 1)
    # member 0 is the base at any step, an infinite one too (0 * inf is NaN)
    return FunctionFamily.fill(base.grid, count,
                               lambda k: shift_function(base, [k * step if k else 0.0,
                                                               *rest]).values)


def modulate_family(base: GridFunction, count: int, base_frequency: float = 1.0,
                    growth: float = 2.0) -> FunctionFamily:
    """``f(x) sin(2 pi w_k x_0)`` with frequencies ``w_k = growth^k w_0``.

    The top frequency must stay resolvable (at least four nodes per
    period), otherwise aliasing would silently collapse members; pick a
    growth factor below 2 to enlarge the family on a fixed grid.
    """
    if growth <= 1.0:
        raise DomainError("frequency growth factor must exceed 1")
    # a negative frequency aliases as its absolute value does
    top = abs(base_frequency * _last_power("modulate", "growth", growth, count))
    if not math.isfinite(top):
        raise DomainError(f"modulate base_frequency {base_frequency} gives a top frequency "
                          f"of {top} after count - 1 = {count - 1} growth steps")
    if top > 1.0 / (4.0 * base.grid.max_step):
        raise DomainError(
            f"modulate base_frequency {base_frequency}: top frequency {top:.6g} exceeds a "
            "quarter of the grid rate; refine the grid or lower the growth factor")
    x0 = base.grid.coords[..., 0]
    return FunctionFamily.fill(base.grid, count, lambda k: base.values * np.sin(
        2.0 * np.pi * base_frequency * growth ** k * x0))


def _last_power(family: str, key: str, value: float, count: int) -> float:
    """``value ** (count - 1)``, refused naming the key unless a positive float."""
    try:
        last = value ** max(count - 1, 0)
    except OverflowError:
        last = math.inf
    if not 0.0 < last < math.inf:
        raise DomainError(f"{family} {key} {value} to the power count - 1 = {count - 1} "
                          "leaves the range of positive floats")
    return last


def dilate_family(base: GridFunction, count: int, ratio: float = 0.5) -> FunctionFamily:
    """``f(x / ratio^k)`` on a 1D grid, zero beyond the box."""
    if base.grid.dim != 1:
        raise DomainError("dilate families are 1D only")
    if not 0.0 < ratio < math.inf:
        raise DomainError(f"dilate ratio must be a finite positive number, got {ratio}")
    _last_power("dilate", "ratio", ratio, count)
    x = base.grid.axes[0]
    return FunctionFamily.fill(base.grid, count, lambda k: np.interp(
        x / ratio ** k, x, base.values, left=0.0, right=0.0))


def mollify(f: GridFunction, sigma: float) -> GridFunction:
    """Gaussian smoothing at scale sigma (1D); sigma below the grid
    step returns the function unchanged, matching the identity limit,
    and sigma above the box width is refused."""
    if f.grid.dim != 1:
        raise DomainError("mollification is 1D only")
    h, width = f.grid.steps[0], f.grid.box.widths[0]
    if sigma < h:
        return GridFunction(f.grid, f.values.copy())
    # the kernel then has about 8 (n - 1) + 1 taps at most
    if not sigma <= width:
        raise DomainError(f"mollify sigma {sigma} exceeds the box width {width}")
    k = int(math.ceil(4.0 * sigma / h))
    t = np.arange(-k, k + 1) * h
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel /= kernel.sum()
    # pad-then-valid keeps the output aligned with the grid even when the
    # kernel is longer than the signal, where mode="same" would not
    smoothed = np.convolve(np.pad(f.values, k), kernel, mode="valid")
    return GridFunction(f.grid, smoothed)


def mollify_family(base: GridFunction, count: int, sigma: float,
                   ratio: float = 0.1) -> FunctionFamily:
    """Mollifications at scales ``sigma * ratio^k``; the scales collapse
    below the grid step, so the tail of the family is Cauchy by
    construction (a sampled convergent sequence).  The smoothing bias
    shrinks like the scale squared, so the default ratio keeps the
    distinct head members separated by whole rungs of the dyadic eps
    ladder used by `classify`."""
    for key, value in (("sigma", sigma), ("ratio", ratio)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"mollify {key} must be a finite positive number, got {value}")
    if ratio > 1.0:  # a scale that underflows to 0 is the identity, which is fine
        _last_power("mollify", "ratio", ratio, count)
    return FunctionFamily.fill(base.grid, count,
                               lambda k: mollify(base, sigma * ratio ** k).values)


# ---------------------------------------------------------------------------
# condition profiles


@dataclass(frozen=True)
class UniformBoundReport:
    per_member: tuple[float, ...]
    sup: float


@dataclass(frozen=True)
class EquicontinuityReport:
    radii: tuple[float, ...]
    profile: tuple[float, ...]
    threshold: float
    passed: bool


@dataclass(frozen=True)
class VanishingReport:
    center: tuple[float, ...]
    radii: tuple[float, ...]
    profile: tuple[float, ...]
    threshold: float
    passed: bool


def uniform_bound_profile(family: FunctionFamily, p: ExponentField,
                          w: WeightField | None = None,
                          rel_tol: float = 1e-10) -> UniformBoundReport:
    norms = tuple(weighted_norms(family.values, family.grid, p, w, rel_tol).tolist())
    return UniformBoundReport(norms, max(norms))


def equicontinuity_profile(family: FunctionFamily, p: ExponentField,
                           w: WeightField | None, qtilde: float,
                           sweep: RadiusSweep, threshold: float,
                           rel_tol: float = 1e-10) -> EquicontinuityReport:
    """Sup over members of the weighted norm of the oscillation average,
    per sweep radius; passes when the smallest radius lands below the
    threshold."""
    grid = family.grid
    profile = [float(weighted_norms(osc, grid, p, w, rel_tol).max())
               for osc in oscillation_profiles(family.values, grid, qtilde, sweep)]
    return EquicontinuityReport(sweep.radii, tuple(profile), threshold,
                                profile[0] < threshold)


def vanishing_profile(family: FunctionFamily, p: ExponentField,
                      w: WeightField | None, radii: Sequence[float],
                      threshold: float, center: Sequence[float] | None = None,
                      rel_tol: float = 1e-10) -> VanishingReport:
    """Sup over members of the norm outside balls B(center, R); the
    profile is nonincreasing in R and passes when the largest R lands
    below the threshold."""
    grid = family.grid
    center = tuple(center) if center is not None else grid.box.center
    radii = tuple(sorted(float(r) for r in radii))
    profile = _region_sups(family, p, w, (~ball_mask(grid, center, R) for R in radii), rel_tol)
    return VanishingReport(center, radii, tuple(profile), threshold,
                           profile[-1] < threshold)


def _region_sups(family: FunctionFamily, p: ExponentField, w: WeightField | None,
                 masks, rel_tol: float) -> list[float]:
    """Per node mask, the sup over members of ``||f w chi_mask||_p``: one
    node table of the family, whose rows of nonzero nodes each mask cuts."""
    table = weighted_table(family.values, family.grid, p, w)
    return [float(table.solve(table.rows(mask), rel_tol).value.max()) for mask in masks]


# ---------------------------------------------------------------------------
# covering-net oracle


@dataclass(frozen=True)
class NetReport:
    eps: float
    size: int
    centers: tuple[int, ...]
    assignment: tuple[int, ...]
    max_distance: float


def family_distance_matrix(family: FunctionFamily, p: ExponentField,
                           w: WeightField | None = None,
                           rel_tol: float = 1e-10) -> np.ndarray:
    """Pairwise distances ``|| (f_i - f_j) w ||_p``, every pair solved in
    one `lux_rows` call."""
    n = len(family)
    d = np.zeros((n, n))
    i, j = np.triu_indices(n, 1)
    if i.size:
        table = weighted_table(family.values[i] - family.values[j], family.grid, p, w)
        d[i, j] = d[j, i] = table.solve(rel_tol=rel_tol).value
    return d


def eps_net_oracle(distances: np.ndarray, eps: float) -> NetReport:
    """Greedy farthest-point covering net at radius eps of the members of
    a family with the `family_distance_matrix` ``distances``.

    Starts from member 0, repeatedly promotes the member farthest from
    the current net until everything is within eps of a center.  The
    greedy size is within the usual factor-2 of the optimal covering
    number, which is all the plateau heuristics need.
    """
    if eps < 0.0:
        raise DomainError("eps must be nonnegative")
    n = len(distances)
    centers = [0]
    nearest = distances[0].copy()
    assignment = np.zeros(n, dtype=int)
    while True:
        far = int(np.argmax(nearest))
        if nearest[far] <= eps:
            break
        centers.append(far)
        closer = distances[far] < nearest
        nearest[closer] = distances[far][closer]
        assignment[closer] = far
        if len(centers) == n:
            break
    return NetReport(eps, len(centers), tuple(centers),
                     tuple(int(a) for a in assignment), float(nearest.max()))


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class RKReport:
    gate: WeightConstantReport
    qtilde: float
    uniform: UniformBoundReport
    equicontinuity: EquicontinuityReport
    vanishing: VanishingReport
    diameter: float
    eps_ladder: tuple[float, ...]
    net_sizes: tuple[int, ...]
    plateau: bool
    growth: bool
    verdict: str


def classify(family: FunctionFamily, p: ExponentField, w: WeightField,
             qtilde: float, *, cubes: DyadicCubeSet | None = None,
             threshold_factor: float = 1e-2,
             rel_tol: float = 1e-10) -> RKReport:
    """Run the three-condition diagnostic plus the net oracle.

    Gate: ``w^qtilde`` must have a finite constant at exponent
    ``p/qtilde`` (HypothesisFailureError otherwise).  Thresholds for
    (ii) and (iii) default to ``threshold_factor`` times the uniform
    bound; (ii) is probed at the radii ``h 2^k``, ``k < 7`` (h the
    largest grid step), (iii) outside balls about the box center of
    radii ``diam * (1/8, 3/16, .., 7/16)``, and the nets at the nine
    radii ``D 2^-k``, ``k <= 8`` (D the family diameter).  Verdict: all pass and the
    net sizes plateau below the family size -> consistent-compact; a
    condition fails and a family of two or more members stays fully
    separated at the smallest eps -> consistent-noncompact; else
    inconclusive.
    """
    grid = family.grid
    gate = gate_constant(w, p, qtilde, cubes or DyadicCubeSet(grid.box, 3), rel_tol)

    uniform = uniform_bound_profile(family, p, w, rel_tol)
    threshold = threshold_factor * uniform.sup

    sweep = RadiusSweep(tuple(grid.max_step * 2.0 ** k for k in range(7)))
    equicont = equicontinuity_profile(family, p, w, qtilde, sweep, threshold, rel_tol)

    diam = grid.box.diameter
    tail_radii = tuple(diam * t for t in (0.125, 0.1875, 0.25, 0.3125, 0.375, 0.4375))
    vanishing = vanishing_profile(family, p, w, tail_radii, threshold, rel_tol=rel_tol)

    d = family_distance_matrix(family, p, w, rel_tol)
    diameter = float(d.max())
    ladder = tuple(diameter * 2.0 ** (-k) for k in range(9))
    sizes = tuple(eps_net_oracle(d, eps).size for eps in ladder)

    n = len(family)
    plateau = len(sizes) >= 3 and sizes[-1] == sizes[-2] == sizes[-3] and sizes[-1] < n
    growth = n >= 2 and sizes[-1] == n
    all_pass = equicont.passed and vanishing.passed
    if all_pass and plateau:
        verdict = "consistent-compact"
    elif not all_pass and growth:
        verdict = "consistent-noncompact"
    else:
        verdict = "inconclusive"
    return RKReport(gate, qtilde, uniform, equicont, vanishing, diameter,
                    ladder, sizes, plateau, growth, verdict)
