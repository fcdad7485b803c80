"""Variable exponents: fields, duals, blends, and admissible quadruples.

An exponent field is a function ``p : box -> (0, inf)`` backed by a
closed-form evaluator.  The class P0 collects fields with ``0 < p_- <=
p_+ < inf``; the class P additionally demands ``p_- > 1`` so that the
pointwise dual ``1/p(x) + 1/p'(x) = 1`` stays finite.

Bounds policy
-------------
Every field carries certified bounds ``(p_minus, p_plus)``.  For the
primitive descriptor kinds (constant, affine, log_decay, piecewise,
grid) the bounds are exact, and every value lies inside them: a grid
field clips its interpolant to its node values' range, since where node
values repeat the interpolation weights can miss 1 by an ulp.  So a
field with ``p_minus == p_plus`` takes that one double at every point.
A derived field is one flat form ``1/p = offset + sum_j c_j / p_j`` over
primitive fields, each evaluated once per grid.  Its bounds are the
outer interval of its terms when that stays positive, and otherwise a
dense scan widened by a relative 1e-6.  A positive reciprocal of terms
that all have equal bounds folds to the constant field of the double
the pointwise sum gives.  Outer bounds only ever widen the interval,
which keeps every inequality that consumes them (norm sandwiches,
Hoelder constants, admissibility thresholds) on the safe side.

Pointwise feasibility (for example positivity of an inverted blend
``1/p_0 = (1/p - theta/p_1) / (1 - theta)``) is checked on the field's
scan grid and reported with the violating point; strictly between scan
nodes the sign is not certified, which is the usual grid-scale caveat.

Infinite exponents are not representable as fields; the only place
``inf`` is accepted is the outer integrability parameter ``s`` of a
quadruple, which enters formulas through ``1/s = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (REQUIRED, DomainError, RangeError, SchemaError, SpecMismatchError, array,
                     descriptor, integer, list_of, number, read_kind)
from .field import Box, Grid

DEFAULT_SCAN_1D = 4096
DEFAULT_SCAN_2D = 256
_SCAN_WIDEN = 1e-6
# quadruple validation: gamma tolerance, log-Hoelder pair budget and bound
GAMMA_TOL = 1e-9
LH_BUDGET = 2000
LH_THRESHOLD = 10.0


def default_scan_shape(box: Box) -> tuple[int, ...]:
    return (DEFAULT_SCAN_1D,) if box.dim == 1 else (DEFAULT_SCAN_2D,) * box.dim


@dataclass(frozen=True)
class ExponentField:
    """Exponent function on a box with certified bounds."""

    box: Box
    # a primitive's evaluator, or None for a derived field, whose 1/p is offset +
    # sum c / p_j over its (c, p_j) terms of primitives; fn, terms and offset take part
    # in equality/hash so that different formulas with equal bounds never compare equal
    fn: Callable[[np.ndarray], np.ndarray] | None
    p_minus: float
    p_plus: float
    p_infinity: float | None = None
    terms: tuple[tuple[float, "ExponentField"], ...] = ()
    offset: float = 0.0
    # values_on results per grid; they live and die with the field
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.p_minus <= self.p_plus < math.inf):
            raise RangeError(
                f"exponent bounds [{self.p_minus}, {self.p_plus}] leave the class P0"
            )

    # -- evaluation --------------------------------------------------

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.box.dim:
            raise DomainError("point dimension does not match exponent domain")
        if self.terms:
            return 1.0 / _reciprocal(self.terms, self.offset, lambda p: p(pts))
        return np.asarray(self.fn(pts), dtype=float)

    def values_on(self, grid: Grid) -> np.ndarray:
        if grid.box != self.box:
            raise DomainError("grid box does not match exponent domain")
        out = self._values.get(grid)
        if out is None:
            out = (1.0 / _reciprocal(self.terms, self.offset, lambda p: p.values_on(grid))
                   if self.terms else np.broadcast_to(self(grid.coords), grid.shape).copy())
            out.flags.writeable = False
            self._values[grid] = out
        return out

    @property
    def scan_grid(self) -> Grid:
        return Grid(self.box, default_scan_shape(self.box))

    # -- classes -----------------------------------------------------

    @property
    def in_P(self) -> bool:
        return self.p_minus > 1.0

    def require_P(self, what: str = "exponent") -> None:
        if not self.in_P:
            raise RangeError(f"{what} needs p_- > 1, got p_- = {self.p_minus}")

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, box: Box, value: float) -> "ExponentField":
        value = float(value)
        return cls(box, lambda pts, v=value: np.full(pts.shape[:-1], v), value, value,
                   p_infinity=value)

    @classmethod
    def affine(cls, box: Box, base: float, slopes: Sequence[float]) -> "ExponentField":
        slopes = tuple(float(s) for s in slopes)
        if len(slopes) != box.dim:
            raise SchemaError("affine exponent needs one slope per axis")
        corners = [()]
        for a, b in zip(box.lo, box.hi):
            corners = [c + (v,) for c in corners for v in (a, b)]
        corner_vals = [base + sum(s * x for s, x in zip(slopes, c)) for c in corners]

        def fn(pts, base=float(base), slopes=slopes):
            return base + sum(s * pts[..., i] for i, s in enumerate(slopes))

        return cls(box, fn, min(corner_vals), max(corner_vals))

    @classmethod
    def log_decay(cls, box: Box, p_infinity: float, amplitude: float) -> "ExponentField":
        """``p(x) = p_inf + amplitude / log(e + |x|)``, the model field
        with exact log-Hoelder decay at infinity."""
        p_inf, amp = float(p_infinity), float(amplitude)
        r_min, r_max = _radial_range(box)
        g = lambda r: p_inf + amp / math.log(math.e + r)
        lo, hi = sorted((g(r_min), g(r_max)))

        def fn(pts, p_inf=p_inf, amp=amp):
            # per-axis terms: a reduction over a short last axis is slow
            with np.errstate(over="ignore"):
                r = np.sqrt(sum(pts[..., i] ** 2 for i in range(pts.shape[-1])))
            far = np.isinf(r)  # squares past the float range: hypot there
            if far.any():
                r = np.where(far, np.hypot.reduce(pts, axis=-1), r)
            return p_inf + amp / np.log(math.e + r)

        return cls(box, fn, lo, hi, p_infinity=p_inf)

    @classmethod
    def piecewise(cls, box: Box, breakpoints: Sequence[float],
                  values: Sequence[float]) -> "ExponentField":
        """Step function along axis 0: ``values[i]`` on
        ``[breakpoints[i-1], breakpoints[i])``."""
        breaks = tuple(float(b) for b in breakpoints)
        vals = tuple(float(v) for v in values)
        if len(vals) != len(breaks) + 1:
            raise SchemaError("piecewise exponent needs len(values) == len(breakpoints) + 1")
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise SchemaError("piecewise breakpoints must increase strictly")

        def fn(pts, breaks=np.array(breaks), vals=np.array(vals)):
            idx = np.searchsorted(breaks, pts[..., 0], side="right")
            return vals[idx]

        return cls(box, fn, min(vals), max(vals))

    @classmethod
    def from_grid(cls, box: Box, values,
                  resolution: Sequence[int] | None = None) -> "ExponentField":
        """Multilinear interpolation of node values on the box, the flat
        ``values`` laid out in ``resolution`` when it is given."""
        try:
            arr = np.asarray(values, dtype=float)
        except ValueError:
            raise SchemaError("exponent 'grid' key 'values' must be a rectangular array "
                              "of numbers") from None
        if resolution is not None:
            if min(resolution, default=0) < 1 or math.prod(resolution) != arr.size:
                raise SchemaError(f"exponent 'grid' key 'resolution' {resolution} does not hold "
                                  f"the {arr.size} values")
            arr = arr.reshape(resolution)
        if arr.ndim != box.dim:
            raise SchemaError(f"exponent 'grid' key 'values' of shape {arr.shape} does not have "
                              f"the box's {box.dim} axes")
        if min(arr.shape) < 2:
            raise SchemaError(f"exponent 'grid' key 'values' needs at least 2 nodes per axis, "
                              f"got shape {arr.shape}")
        sample = Grid(box, arr.shape)
        lo, hi = float(arr.min()), float(arr.max())

        def fn(pts, arr=arr, sample=sample, lo=lo, hi=hi):
            # where node values repeat the weights' sum can miss 1 by an ulp
            return np.clip(_multilinear(sample, arr, pts), lo, hi)

        return cls(box, fn, lo, hi)

    @classmethod
    def from_descriptor(cls, desc: dict, box: Box) -> "ExponentField":
        """The field of a JSON descriptor on ``box``, built by its kind."""
        return read_kind(desc, _EXPONENTS, "exponent", box)


def _shifted_reciprocal(box: Box, inner: dict, gamma: float) -> ExponentField:
    """``1/p = 1/inner - gamma``: how an output exponent with a constant
    smoothing offset from the input is written down."""
    return reciprocal_affine((ExponentField.from_descriptor(inner, box),), (1.0,), -gamma,
                             what="shifted reciprocal exponent")


# kind -> (builder, its keys besides "kind")
_EXPONENTS = {
    "constant": (ExponentField.constant, {"value": (number, REQUIRED)}),
    "affine": (ExponentField.affine, {"base": (number, REQUIRED),
                                      "slopes": (list_of(number), REQUIRED)}),
    "log_decay": (ExponentField.log_decay, {"p_infinity": (number, REQUIRED),
                                            "amplitude": (number, REQUIRED)}),
    "piecewise": (ExponentField.piecewise, {"breakpoints": (list_of(number), REQUIRED),
                                            "values": (list_of(number), REQUIRED)}),
    "grid": (ExponentField.from_grid, {"values": (array, REQUIRED),
                                       "resolution": (list_of(integer), None)}),
    "shifted_reciprocal": (_shifted_reciprocal, {"inner": (descriptor("an exponent"), REQUIRED),
                                                 "gamma": (number, REQUIRED)}),
}


def _radial_range(box: Box) -> tuple[float, float]:
    """The least and the greatest ``|x|`` over the box."""
    near = [a if a > 0.0 else b if b < 0.0 else 0.0 for a, b in zip(box.lo, box.hi)]
    far = [max(a, b, key=abs) for a, b in zip(box.lo, box.hi)]
    r_min, r_max = _row_norms(np.array([near, far]))
    return float(r_min), float(r_max)


def _multilinear(sample: Grid, arr: np.ndarray, pts: np.ndarray) -> np.ndarray:
    idx_frac = []
    for axis in range(sample.dim):
        ax = sample.axes[axis]
        t = (pts[..., axis] - ax[0]) / (ax[-1] - ax[0]) * (len(ax) - 1)
        t = np.clip(t, 0.0, len(ax) - 1)
        i0 = np.minimum(t.astype(int), len(ax) - 2)
        idx_frac.append((i0, t - i0))
    if sample.dim == 1:
        i0, f = idx_frac[0]
        return arr[i0] * (1 - f) + arr[i0 + 1] * f
    (i0, fx), (j0, fy) = idx_frac
    return (arr[i0, j0] * (1 - fx) * (1 - fy) + arr[i0 + 1, j0] * fx * (1 - fy)
            + arr[i0, j0 + 1] * (1 - fx) * fy + arr[i0 + 1, j0 + 1] * fx * fy)


# ---------------------------------------------------------------------------
# reciprocal arithmetic


def _reciprocal(terms, offset: float, values) -> np.ndarray:
    """``offset + c_1 / values(p_1) + ...``, summed from the left: the flat form's evaluator."""
    for c, p in terms:
        offset = offset + c / values(p)
    return offset


def reciprocal_affine(fields: Sequence[ExponentField], coeffs: Sequence[float],
                      offset: float = 0.0, what: str = "derived exponent") -> ExponentField:
    """Field with ``1/p_new(x) = offset + sum_j coeffs[j] / p_j(x)``, a
    derived ``p_j``'s terms and offset entering scaled, in order, unmerged.

    Single positive-coefficient terms give exact bounds (the transform
    is monotone); general combinations get outer interval bounds, with a
    widened scan as fallback when the interval cannot certify positivity.
    A scan that exhibits a nonpositive reciprocal raises RangeError with
    its point.  When every term has equal bounds and the reciprocal is
    positive, the result is the constant field of the pointwise sum.
    """
    fields = tuple(fields)
    coeffs = tuple(float(c) for c in coeffs)
    if not fields or len(fields) != len(coeffs):
        raise DomainError("need one coefficient per field")
    box = fields[0].box
    for f in fields[1:]:
        if f.box != box:
            raise DomainError(f"{what}: component fields live on different boxes")

    terms, offset = (), float(offset)
    for f, c in zip(fields, coeffs):
        terms += tuple((c * c_j, p) for c_j, p in f.terms) if f.terms else ((c, f),)
        offset += c * f.offset  # a primitive's is 0

    p_infinity = None
    if all(p.p_infinity is not None for _, p in terms):
        r_inf = offset + sum(c / p.p_infinity for c, p in terms)
        if r_inf > 0.0:
            p_infinity = 1.0 / r_inf

    r_lo = r_hi = offset
    for c, p in terms:
        t1, t2 = c / p.p_plus, c / p.p_minus
        r_lo += min(t1, t2)
        r_hi += max(t1, t2)

    if r_lo > 0.0:
        lo, hi = 1.0 / r_hi, 1.0 / r_lo
        if all(p.p_minus == p.p_plus for _, p in terms):
            # each term takes its one double everywhere, so the evaluator
            # would sum r_lo at every point: the constant field lo = hi
            return ExponentField(box, lambda pts, value=lo: np.full(pts.shape[:-1], value),
                                 lo, hi, p_infinity=p_infinity)
    else:
        scan = fields[0].scan_grid
        recip = _reciprocal(terms, offset, lambda p: p.values_on(scan))
        worst = int(np.argmin(recip))
        if recip.reshape(-1)[worst] <= 0.0:
            point = tuple(scan.coords.reshape(-1, scan.dim)[worst].tolist())
            raise RangeError(f"{what} has nonpositive reciprocal", point=point)
        lo = (1.0 / float(recip.max())) * (1.0 - _SCAN_WIDEN)
        hi = (1.0 / float(recip.min())) * (1.0 + _SCAN_WIDEN)

    return ExponentField(box, None, lo, hi, p_infinity, terms, offset)


def dual_exponent(p: ExponentField) -> ExponentField:
    """Pointwise conjugate ``p'(x) = p(x) / (p(x) - 1)``; needs p in P."""
    p.require_P("dual exponent")
    return reciprocal_affine((p,), (-1.0,), 1.0, what="dual exponent")


def harmonic_combine(p_vec: Sequence[ExponentField]) -> ExponentField:
    """``1/p = sum_j 1/p_j``, the natural exponent of an m-fold product."""
    if not p_vec:
        raise DomainError("harmonic_combine needs at least one field")
    return reciprocal_affine(tuple(p_vec), (1.0,) * len(p_vec), 0.0,
                             what="harmonic combination")


def theta_blend(p0: ExponentField, p1: ExponentField, theta: float) -> ExponentField:
    """``1/p_theta = (1-theta)/p_0 + theta/p_1`` for theta in [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"theta must lie in [0, 1], got {theta}")
    return reciprocal_affine((p0, p1), (1.0 - theta, theta), 0.0, what="theta blend")


def theta_invert(p: ExponentField, p1: ExponentField, theta: float) -> ExponentField:
    """Solve the blend for the missing endpoint:
    ``1/p_0 = (1/p - theta/p_1) / (1 - theta)``, theta in [0, 1)."""
    if not 0.0 <= theta < 1.0:
        raise DomainError(f"theta must lie in [0, 1) for inversion, got {theta}")
    return reciprocal_affine((p, p1), (1.0 / (1.0 - theta), -theta / (1.0 - theta)), 0.0,
                             what="inverted blend endpoint")


def scale_exponent(p: ExponentField, factor: float) -> ExponentField:
    """``p(x) * factor``, used for powers ``|f|^s`` and ratios ``p/qtilde``."""
    if factor <= 0.0:
        raise DomainError("scale factor must be positive")
    return reciprocal_affine((p,), (1.0 / factor,), 0.0, what="scaled exponent")


def nu_exponent(q: ExponentField, s: float) -> ExponentField:
    """``1/(1/q - 1/s)``: the norm exponent carried by a product weight."""
    if q.p_plus >= s:
        raise RangeError(f"need q_+ < s, got q_+ = {q.p_plus}, s = {s}")
    return reciprocal_affine((q,), (1.0,), -1.0 / s, what="nu exponent")


def component_exponent(p_j: ExponentField, r_j: float) -> ExponentField:
    """``1/(1/r_j - 1/p_j)``: the norm exponent of an inverse weight factor."""
    if not 0.0 < r_j < p_j.p_minus:
        raise RangeError(f"need 0 < r_j < (p_j)_-, got r_j = {r_j}, (p_j)_- = {p_j.p_minus}")
    return reciprocal_affine((p_j,), (-1.0,), 1.0 / r_j, what="component exponent")


# ---------------------------------------------------------------------------
# log-Hoelder continuity estimates


@dataclass(frozen=True)
class LogHolderReport:
    c0_estimate: float
    c_infinity_estimate: float
    pairs_used: int
    p_infinity: float
    p_infinity_declared: bool

    @property
    def c_log(self) -> float:
        return max(self.c0_estimate, self.c_infinity_estimate)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``sqrt(sum x^2)`` per row, or ``hypot`` where the squares pass the float range."""
    with np.errstate(over="ignore"):
        r = np.sqrt(np.sum(x ** 2, axis=1))
    far = np.isinf(r)
    r[far] = np.hypot.reduce(x[far], axis=1, initial=0.0)
    return r


@lru_cache(maxsize=8)
def _pair_sample(box: Box, budget: int, seed: int) -> tuple:
    """The pair sample of `_log_holder_reports`, read-only and cached per
    ``(box, budget, seed)``: far corner, X, Y, ``near``, ``-log|x - y|`` of
    the near pairs, ``log(e + |x|)`` and the near count.  Rows are dyadic
    steps along each axis from fixed anchors, in (anchor, k, axis) order,
    then the seeded pairs."""
    dim, lo, hi = box.dim, np.array(box.lo), np.array(box.hi)
    diam = box.diameter
    corners = np.array(np.meshgrid(*(np.array([a, b]) for a, b in zip(box.lo, box.hi)),
                                   indexing="ij")).reshape(dim, -1).T
    far_corner = corners[int(np.argmax(_row_norms(corners)))]

    anchors = np.vstack([box.center, 0.75 * np.array(box.center) + 0.25 * corners])
    steps = (diam * 2.0 ** -np.arange(1.0, 24.0))[:, None, None] * np.eye(dim)
    x_dyadic = np.broadcast_to(anchors[:, None, None, :], (len(anchors), *steps.shape))
    y_dyadic = np.clip(x_dyadic + steps, lo, hi)

    rng = np.random.default_rng(seed)
    draws = rng.uniform(size=(budget, 2 * dim + 1))
    x_rand = lo + draws[:, :dim] * np.array(box.widths)
    direction = draws[:, dim: 2 * dim] - 0.5
    norms = np.maximum(np.sqrt(np.sum(direction ** 2, axis=1)), 1e-12)
    direction = direction / norms[:, None]
    d_rand = diam * np.exp(draws[:, -1] * (math.log(1e-9) - math.log(0.5)) + math.log(0.5))
    y_rand = np.clip(x_rand + direction * d_rand[:, None], lo, hi)

    X = np.concatenate([x_dyadic.reshape(-1, dim), x_rand])
    Y = np.concatenate([y_dyadic.reshape(-1, dim), y_rand])
    dist = _row_norms(X - Y)
    near = (dist > 0.0) & (dist < 0.5)
    sample = (far_corner, X, Y, near, -np.log(dist[near]), np.log(math.e + _row_norms(X)))
    for arr in sample:
        arr.flags.writeable = False
    return (*sample, int(near.sum()))


def _log_holder_reports(fields: Sequence[ExponentField], budget: int,
                        seed: int) -> list[LogHolderReport]:
    """Sampled lower estimates of the log-Hoelder constants of fields on
    one box, from one pair sample (`_pair_sample`).

    The local constant is ``sup |p(x)-p(y)| * (-log|x-y|)`` over pairs
    with ``|x-y| < 1/2``; the decay constant is ``sup |p(x)-p_inf| *
    log(e+|x|)``.  Estimates are suprema over a deterministic pair
    sample extended by a seeded stream, so a larger budget never lowers
    them.  Fields without a declared limit use the value at the far
    corner of the box as the ``p_inf`` proxy.
    """
    if budget < 1:
        raise DomainError("budget must be positive")
    far_corner, X, Y, near, neg_log, log_r, pairs_used = _pair_sample(fields[0].box, budget, seed)
    reports = []
    for p in fields:
        if p.p_infinity is not None:
            p_inf, declared = float(p.p_infinity), True
        else:
            p_inf, declared = float(p(far_corner[None])[0]), False
        px = p(X)
        c0 = float(np.max(np.abs(px - p(Y))[near] * neg_log)) if pairs_used else 0.0
        c_inf = float(np.max(np.abs(px - p_inf) * log_r))
        reports.append(LogHolderReport(c0, c_inf, pairs_used, p_inf, declared))
    return reports


# ---------------------------------------------------------------------------
# admissible quadruples


@dataclass(frozen=True)
class QuadrupleSpec:
    """Input/output exponent data ``(p_vec, q, r_vec, s)`` of an
    m-linear bound.  ``s = inf`` is allowed and means ``1/s = 0``."""

    p_vec: tuple[ExponentField, ...]
    q: ExponentField
    r_vec: tuple[float, ...]
    s: float
    # a declared gamma is validated against the derived profile; left
    # as None the profile alone decides admissibility
    gamma_declared: float | None = None

    def __post_init__(self):
        if not self.p_vec:
            raise SpecMismatchError("quadruple needs at least one input exponent")
        if len(self.r_vec) != len(self.p_vec):
            raise SpecMismatchError("r_vec length must match p_vec length")
        box = self.q.box
        for p in self.p_vec:
            if p.box != box:
                raise DomainError("quadruple exponents live on different boxes")
        for r in self.r_vec:
            if not (0.0 < r < math.inf):
                raise RangeError(f"r components must be finite and positive, got {r}")
        if not self.s > 0.0:
            raise RangeError(f"s must be positive (inf allowed), got {self.s}")

    @property
    def m(self) -> int:
        return len(self.p_vec)

    @property
    def box(self) -> Box:
        return self.q.box

    @property
    def r(self) -> float:
        return 1.0 / sum(1.0 / rj for rj in self.r_vec)

    @property
    def p_combined(self) -> ExponentField:
        return harmonic_combine(self.p_vec)

    @cached_property
    def gamma_profile(self) -> np.ndarray:
        """``1/p - 1/q`` on the scan grid of ``q``, built once per spec."""
        grid = self.q.scan_grid
        return 1.0 / self.p_combined.values_on(grid) - 1.0 / self.q.values_on(grid)

    @property
    def gamma(self) -> float:
        prof = self.gamma_profile
        return float(0.5 * (prof.min() + prof.max()))


@dataclass(frozen=True)
class QuadrupleVerdict:
    admissible: bool
    proper: bool
    gamma: float
    clauses: dict
    failures: tuple[str, ...]


def validate_quadruple(spec: QuadrupleSpec) -> QuadrupleVerdict:
    """Check m-admissibility clause by clause.

    Admissible means: every ``r_j < (p_j)_-``, ``q_+ < s``, and
    ``1/p - 1/q`` is a nonnegative constant gamma (within ``GAMMA_TOL``
    on the scan grid), equal to the declared gamma if there is one.
    Proper additionally demands that every exponent pass the
    log-Hoelder estimate over ``LH_BUDGET`` random pairs below
    ``LH_THRESHOLD``.
    """
    gamma, spread = spec.gamma, float(np.ptp(spec.gamma_profile))
    bad_r = [(j, rj, p.p_minus) for j, (rj, p) in enumerate(zip(spec.r_vec, spec.p_vec))
             if rj >= p.p_minus]
    c_log = [r.c_log for r in _log_holder_reports((*spec.p_vec, spec.q), LH_BUDGET, 0)]
    # (clause, holds, failure message); every clause but log_holder decides admissibility
    checks = [
        ("r_below_p_minus", not bad_r, f"r_j < (p_j)_- fails at components {bad_r}"),
        ("q_plus_below_s", spec.q.p_plus < spec.s,
         f"q_+ = {spec.q.p_plus} is not below s = {spec.s}"),
        ("gamma_constant", spread <= GAMMA_TOL,
         f"1/p - 1/q varies by {spread:.3e} (> tol {GAMMA_TOL:.1e})"),
        ("gamma_nonnegative", gamma >= -GAMMA_TOL, f"gamma = {gamma:.3e} is negative"),
    ]
    if spec.gamma_declared is not None:
        checks.append(("gamma_matches_declared", abs(gamma - spec.gamma_declared) <= GAMMA_TOL,
                       f"derived gamma {gamma:.6g} does not match the "
                       f"declared value {spec.gamma_declared:.6g}"))
    checks.append(("log_holder", all(c <= LH_THRESHOLD for c in c_log),
                   f"log-Hoelder estimate {max(c_log):.3g} exceeds threshold {LH_THRESHOLD:g}"))
    clauses = {name: holds for name, holds, _ in checks}
    admissible = all(holds for name, holds, _ in checks[:-1])
    return QuadrupleVerdict(admissible, clauses["log_holder"], max(gamma, 0.0), clauses,
                            tuple(msg for _, holds, msg in checks if not holds))


def blend_quadruple(spec0: QuadrupleSpec, spec1: QuadrupleSpec, theta: float) -> QuadrupleSpec:
    """Componentwise theta blend of two quadruples sharing (r_vec, s)."""
    if spec0.m != spec1.m:
        raise SpecMismatchError("quadruples have different arity")
    if spec0.r_vec != spec1.r_vec or spec0.s != spec1.s:
        raise SpecMismatchError("blend requires shared (r_vec, s)")
    if spec0.box != spec1.box:
        raise DomainError("quadruples live on different boxes")
    p_vec = tuple(theta_blend(a, b, theta) for a, b in zip(spec0.p_vec, spec1.p_vec))
    return QuadrupleSpec(p_vec, theta_blend(spec0.q, spec1.q, theta), spec0.r_vec, spec0.s)


def two_to_one_data(spec: QuadrupleSpec):
    """The scalar ``a`` and field ``t`` that turn a 1-linear two-index
    constant into a classical one: ``a = 1/(1/r - 1/s - gamma)`` and
    ``t = (1/r - 1/s - gamma) / (1/q - 1/s)``, so that ``a t = 1/(1/q -
    1/s)`` and ``a t' = 1/(1/r - 1/p)``."""
    if spec.m != 1:
        raise SpecMismatchError("two-to-one reduction is stated for m = 1")
    inv_s = 1.0 / spec.s
    gamma = spec.gamma
    denom = 1.0 / spec.r - inv_s - gamma
    if denom <= 0.0:
        raise RangeError(f"need 1/r - 1/s - gamma > 0, got {denom}")
    a = 1.0 / denom
    # 1/t = a * (1/q - 1/s)
    t = reciprocal_affine((spec.q,), (a,), -a * inv_s, what="two-to-one exponent t")
    t.require_P("two-to-one exponent t")
    return a, t
