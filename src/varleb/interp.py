"""Empirical interpolation bounds and extrapolation of weighted spaces.

An m-linear operator certified at two endpoint space tuples
``(L^{p_ij}(w_ij)) -> L^{q_i}(v_i)`` with bounds ``M_i`` is expected to
satisfy the blended bound

    ||T(f_1, .., f_m)||_{q_th, v_th}
        <= M_0^(1-th) M_1^th  prod_j ||f_j||_{p_th_j, w_th_j}

where reciprocal exponents and weights blend geometrically at parameter
``th``.  One pipeline checks it: it certifies the endpoint bounds over
a random corpus (inflating a supplied ``M_i`` when the corpus exceeds
it), then asserts the blended inequality trial by trial, with a small
multiplicative slack for norm-solver tolerance, and shrinks a witness
for each violation.  Every set of functions is one value stack: the
corpus is a ``(trials, m, *grid.shape)`` array, `apply_operator` maps
a ``(..., m, *grid.shape)`` stack to the ``(..., *grid.shape)`` stack
of outputs, and every ratio comes from log norms that one batched call
solves per corpus slot.  The mixed-norm bound is the same
pipeline with an output map: ``T f`` is replaced by the profile ``x ->
||S(x, .)||_{qtilde}`` of the difference field ``S(x, y) = T(x) - T(x +
y)``, a block of trials at a time, and both maps can share one pass
over the corpus.  Operators are one frozen class per kind.

The extrapolation half inverts the blend: given a target space tuple, a
second endpoint, and ``th``, it reconstructs the other endpoint (spaces
and weights), validates it, and round-trips the blend back to the
target.  The workflow driver chains that construction with a
compactness classification of the operator outputs at the target space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ArityMismatchError, DomainError, RangeError,
                     SchemaError, SpecMismatchError)
from .exponent import (ExponentField, QuadrupleSpec, QuadrupleVerdict,
                       blend_quadruple, theta_blend, theta_invert,
                       validate_quadruple)
from .field import (Box, DyadicCubeSet, FunctionFamily, Grid, WeightField, _simple_functions,
                    shared_grid)
from .maximal import ball_mean
from .norms import inner_norm, norm_ratios, weighted_table
from .rk import RKReport, classify
from .weights import WeightConstantReport, multilinear_constant, weight_products

# fractional-kernel (trial, node) rows per block: the block's histograms
# and Hankel product hold about (block) x m x n doubles
_NODES_PER_BLOCK = 64
# difference-field values per block of trials (the corpus's would be trials x n x offsets)
_FIELD_VALUES_PER_BLOCK = 2 ** 16


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class Operator:
    """An m-linear operator; each kind adds its parameters and ``apply``."""
    arity: int

    def __post_init__(self):
        if self.arity < 1:
            raise SchemaError("operator arity must be at least 1")


class Product(Operator):
    """``prod_j f_j(x)``, as the left fold ``(f_1 f_2) f_3 ..``."""

    def apply(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        return np.prod(values, axis=-1 - grid.dim)


@dataclass(frozen=True)
class BallAverageProduct(Product):
    """The mean of ``prod_j f_j`` over ``B(x, radius)``."""
    radius: float

    def __post_init__(self):
        super().__post_init__()
        if self.radius <= 0.0:
            raise SchemaError("ball averaging needs a positive radius")

    def apply(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        return ball_mean(super().apply(values, grid), grid, self.radius)


@dataclass(frozen=True)
class FractionalKernel(Operator):
    """``T f(x) = int (sum_j |x - y_j|)^(alpha - m) prod_j f_j(y_j) dy`` in
    1D, for ``0 < alpha < m``, without the singular cell ``y_1 = .. = y_m
    = x``.  It sums ``K(s) = (s h)^(alpha - m)`` against the distance
    histograms of the inputs: with ``A_j[i, d]`` the mass of ``f_j qw``
    at distance d from node i, ``T f(i) = sum_s C[i, s] (A_m H)[i, s]``,
    where the Hankel matrix ``H[d, s] = K(s + d)`` is a view of the kernel
    and C is a column of ones at m = 1, ``A_1`` at m = 2 and the row-wise
    convolution of ``A_1 .. A_{m-1}`` beyond.  The (trial, node) rows go
    through in blocks of ``_NODES_PER_BLOCK``, so the working memory stays
    of order (block) x m x n and no matrix product has more rows than a
    block."""
    alpha: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.alpha < self.arity:
            raise RangeError(f"alpha must lie in (0, {self.arity}), got {self.alpha}")

    def apply(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        if grid.dim != 1:
            raise DomainError("fractional kernels are 1D only")
        return _fractional_kernel(values, grid, self.arity, self.alpha)


def apply_operator(op: Operator, values: np.ndarray, grid: Grid) -> np.ndarray:
    """``T(f_1, .., f_m)`` of every input tuple of a ``(..., m,
    *grid.shape)`` value stack, as a ``(..., *grid.shape)`` stack."""
    shape = np.shape(values)
    if len(shape) <= grid.dim or shape[-grid.dim:] != grid.shape:
        raise DomainError(f"operator inputs of shape {shape} are not a stack on the grid")
    if shape[-1 - grid.dim] != op.arity:
        raise ArityMismatchError(f"operator takes {op.arity} inputs, got {shape[-1 - grid.dim]}")
    return op.apply(values, grid)


def _fractional_kernel(values: np.ndarray, grid: Grid, m: int, alpha: float) -> np.ndarray:
    n = grid.size
    fs = np.reshape(values, (-1, m, n))
    s = np.arange(1, m * (n - 1) + 1) * grid.steps[0]
    kernel = np.concatenate([[0.0], s ** (alpha - m)])  # K(0) = 0
    # H[d, s] = K(s + d): a Hankel view of the kernel, s < (m - 1)(n - 1) + 1
    hankel = sliding_window_view(kernel, (m - 1) * (n - 1) + 1)
    out = np.empty(len(fs) * n)
    # one histogram block for all blocks: a new one would be made while the last is alive
    block = np.empty((m, min(_NODES_PER_BLOCK, out.size), n))
    for r0 in range(0, out.size, _NODES_PER_BLOCK):
        r1 = min(r0 + _NODES_PER_BLOCK, out.size)
        # the block's rows r = t n + i meet trials t0 .. t1 - 1: their f qw
        # with n - 1 zeros on each side, and in row r, for d = 0 .. n - 1,
        # A[r, d] = (f qw)(i + d) + (f qw)(i - d), zero past the ends
        t0, t1 = r0 // n, (r1 - 1) // n + 1
        padded = np.zeros((m, t1 - t0, 3 * n - 2))
        np.multiply(fs[t0:t1].swapaxes(0, 1), grid.quad_weights, out=padded[..., n - 1:2 * n - 1])
        windows = sliding_window_view(padded, n, axis=-1)
        hists = block[:, :r1 - r0]
        for t in range(t0, t1):  # the block holds nodes [a, b) of trial t
            a, b = max(r0 - t * n, 0), min(r1 - t * n, n)
            np.add(windows[:, t - t0, a + n - 1:b + n - 1], windows[:, t - t0, a:b, ::-1],
                   out=hists[:, t * n + a - r0:t * n + b - r0])
        hists[:, :, 0] *= 0.5  # distance 0 is one node, not two
        *head, last = hists
        if m <= 2:  # C is a column of ones at m = 1 and the first histogram at m = 2
            conv = head[0] if head else np.ones((len(last), 1))
        else:  # the convolution of the middle histograms, row by row
            conv = np.stack([reduce(np.convolve, row) for row in zip(*head)])
        out[r0:r1] = np.einsum("is,is->i", conv, np.matmul(last, hankel))
    return out.reshape(np.shape(values)[:-2] + (n,))


# ---------------------------------------------------------------------------
# endpoint spaces and the blended bound


@dataclass(frozen=True)
class EndpointSpace:
    """Input exponents/weights and the output space of one endpoint."""
    p_vec: tuple[ExponentField, ...]
    q: ExponentField
    w_vec: tuple[WeightField, ...]
    v: WeightField
    bound: float | None = None

    def __post_init__(self):
        if len(self.p_vec) != len(self.w_vec):
            raise ArityMismatchError("one weight per input exponent is required")
        grid = shared_grid((self.v, *self.w_vec), "endpoint weights")
        for p in self.p_vec + (self.q,):
            if p.box != grid.box:
                raise DomainError("endpoint exponents live on a different box")

    @property
    def m(self) -> int:
        return len(self.p_vec)

    @property
    def grid(self) -> Grid:
        return self.v.grid


def blend_spaces(space0: EndpointSpace, space1: EndpointSpace,
                 theta: float) -> EndpointSpace:
    if space0.m != space1.m:
        raise ArityMismatchError("endpoints have different arity")
    shared_grid((space0.v, space1.v), "endpoints")
    p_vec = tuple(theta_blend(a, b, theta) for a, b in zip(space0.p_vec, space1.p_vec))
    q = theta_blend(space0.q, space1.q, theta)
    *w_vec, v = weight_products((*space0.w_vec, space0.v), (*space1.w_vec, space1.v),
                                1.0 - theta, theta)
    return EndpointSpace(p_vec, q, tuple(w_vec), v)


@dataclass(frozen=True)
class EndpointCertificate:
    supplied: float | None
    max_ratio: float
    bound: float
    inflated: bool


@dataclass(frozen=True)
class Violation:
    trial: int
    ratio: float
    support_cells: int


@dataclass(frozen=True)
class InterpolationReport:
    theta: float
    trials: int
    certificates: tuple[EndpointCertificate, EndpointCertificate]
    worst_ratio: float
    violations: tuple[Violation, ...]
    slack: float

    @property
    def passed(self) -> bool:
        return not self.violations


def _draw_corpus(grid: Grid, m: int, trials: int, seed: int) -> np.ndarray:
    """The ``(trials, m, *grid.shape)`` corpus: ``trials * m`` random
    simple functions in one `field._simple_functions` draw from one
    generator, trial by trial, the same as drawn one at a time."""
    rng = np.random.default_rng(seed)
    return _simple_functions(grid, rng, trials * m).reshape(trials, m, *grid.shape)


def _slot_log_norms(corpus: np.ndarray, grid: Grid, space: EndpointSpace,
                    rel_tol: float) -> list[np.ndarray]:
    """Per-trial ``log ||f_j||_{p_j,w_j}`` of a corpus, one batched solve per slot."""
    return [weighted_table(corpus[:, j], grid, p, w).solve(rel_tol=rel_tol).log_value
            for j, (p, w) in enumerate(zip(space.p_vec, space.w_vec))]


def _corpus_ratios(slot_logs: list[np.ndarray], outputs: np.ndarray, grid: Grid,
                   space: EndpointSpace, scale: float, rel_tol: float) -> np.ndarray:
    """Per-trial ``||T f||_{q,v} / (scale prod_j ||f_j||_{p_j,w_j})``
    from the input slots' log norms (`_slot_log_norms`) and the ``(trials,
    *grid.shape)`` outputs, 0 where an input norm vanishes: one batched
    solve for the outputs, whose log norm and the input ones are summed
    and exponentiated once, so no product of norms overflows.  A NaN ratio
    (inf over inf) is a DomainError naming the trial and both sides."""
    log_den = np.full(len(outputs), math.log(scale) if scale > 0.0 else -math.inf)
    for logs in slot_logs:
        log_den += logs
    num, ratios = norm_ratios(outputs, grid, space.q, space.v, log_den, rel_tol)
    ratios = np.where(log_den > -math.inf, ratios, 0.0)  # a NaN left is refused below
    bad = np.flatnonzero(np.isnan(ratios))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"interpolation ratio of trial {i} is NaN: output log norm "
                          f"{float(num.log_value[i])!r} over input log norm {float(log_den[i])!r}")
    return ratios


def _certify(space: EndpointSpace, ratios: np.ndarray, safety: float) -> EndpointCertificate:
    worst = float(ratios.max())
    if space.bound is not None and worst <= space.bound:
        return EndpointCertificate(space.bound, worst, space.bound, False)
    return EndpointCertificate(space.bound, worst, safety * worst,
                               space.bound is not None)


def _shrink_witness(fs: np.ndarray, violates) -> np.ndarray:
    """Chop supports in half while the inequality still fails, to hand
    back the smallest ``(m, *shape)`` witness the reduction finds."""
    improved = True
    while improved:
        improved = False
        for j in range(len(fs)):
            support = np.flatnonzero(fs[j])
            if support.size < 2:
                continue
            for half in (support[:support.size // 2], support[support.size // 2:]):
                trial = fs.copy()
                trial[j] = 0.0
                trial[j].flat[half] = fs[j].flat[half]
                if violates(trial):
                    fs, improved = trial, True
                    break
    return fs


def verify_interpolation_bounds(op: Operator, space0: EndpointSpace, space1: EndpointSpace,
                                theta: float, qtilde: float | None = None,
                                offset_count: int = 8, trials: int = 100, seed: int = 0,
                                safety: float = 1.05, slack: float = 1e-6,
                                rel_tol: float = 1e-10,
                                plain: bool = True) -> list[InterpolationReport]:
    """Both verifiers in one pass, one report per output map: that of
    `verify_interpolation_bound` on ``T f`` when ``plain``, then, when
    ``qtilde`` is given, that of `verify_mixed_interpolation_bound` on the
    profiles ``x -> ||S(x, .)||_{qtilde}``, a block of trials at a time.
    The corpus, T and the input slots of both endpoints and the blend are
    done once; each map then certifies both endpoints, asserts the blended
    bound on every corpus member and shrinks a witness for each violation."""
    maps = [(lambda outputs: outputs, InterpolationReport, ())] if plain else []
    if qtilde is not None:
        limit = min(space0.q.p_minus, space1.q.p_minus)
        if not 0.0 < qtilde < limit:
            raise DomainError(f"qtilde must lie in (0, {limit}), got {qtilde}")
        step = max(1, _FIELD_VALUES_PER_BLOCK // ((2 * offset_count + 1) * space0.grid.size))

        def profiles(outputs):
            return np.concatenate([inner_norm(*difference_field(
                outputs[t:t + step], space0.grid, offset_count), qtilde)
                for t in range(0, len(outputs), step)])
        maps.append((profiles, MixedInterpolationReport, (qtilde, offset_count)))
    if op.arity != space0.m:
        raise ArityMismatchError("operator arity does not match the endpoint spaces")
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    # a zero safety certifies every bound as 0 and passes vacuously
    if not 0.0 < safety < math.inf:
        raise DomainError(f"safety must be a finite positive number, got {safety}")
    blended = blend_spaces(space0, space1, theta)
    grid = blended.grid
    corpus = _draw_corpus(grid, op.arity, trials, seed)
    outputs = apply_operator(op, corpus, grid)
    spaces = (space0, space1, blended)
    slot_logs = [_slot_log_norms(corpus, grid, s, rel_tol) for s in spaces]
    reports = []
    for out_map, report, extra in maps:
        mapped = out_map(outputs)
        certs = tuple(_certify(s, _corpus_ratios(logs, mapped, grid, s, 1.0, rel_tol), safety)
                      for s, logs in zip(spaces[:2], slot_logs))
        m_blend = certs[0].bound ** (1.0 - theta) * certs[1].bound ** theta
        ratios = _corpus_ratios(slot_logs[2], mapped, grid, blended, m_blend, rel_tol)

        def violates(fs, out_map=out_map, m_blend=m_blend):
            out = out_map(apply_operator(op, fs[None], grid))
            return _corpus_ratios(_slot_log_norms(fs[None], grid, blended, rel_tol), out, grid,
                                  blended, m_blend, rel_tol)[0] > 1.0 + slack

        violations = tuple(
            Violation(int(t), float(ratios[t]),
                      int(np.count_nonzero(_shrink_witness(corpus[t], violates))))
            for t in np.flatnonzero(ratios > 1.0 + slack))
        reports.append(report(theta, trials, certs, float(ratios.max()), violations, slack,
                              *extra))
    return reports


def verify_interpolation_bound(op: Operator, space0: EndpointSpace,
                               space1: EndpointSpace, theta: float,
                               trials: int = 100, seed: int = 0,
                               safety: float = 1.05, slack: float = 1e-6,
                               rel_tol: float = 1e-10) -> InterpolationReport:
    """Certify both endpoints over one random corpus, then assert the
    blended bound on every corpus member.

    Endpoint bounds are the supplied values inflated to ``safety``
    times the observed worst ratio when the corpus beats them.  The
    blended inequality then has no free constant left; violations
    beyond ``1 + slack`` are reported with shrunken witnesses.
    """
    return verify_interpolation_bounds(op, space0, space1, theta, None, 8, trials, seed, safety,
                                       slack, rel_tol)[0]


# ---------------------------------------------------------------------------
# mixed-norm variant on difference fields


@dataclass(frozen=True)
class MixedInterpolationReport(InterpolationReport):
    qtilde: float
    offsets: int


def difference_field(values: np.ndarray, grid: Grid,
                     offset_count: int) -> tuple[np.ndarray, Grid]:
    """``S(x, y) = T(x) - T(x + y)`` of each output T of a ``(..., n)``
    value stack on a 1D grid, for node-aligned offsets ``y = k h``,
    ``|k| <= offset_count``, zero extension past the box: the ``(..., n,
    2 offset_count + 1)`` stack of fields and their 2D grid of ``(x, y)``."""
    if grid.dim != 1:
        raise DomainError("difference fields start from 1D outputs")
    if offset_count < 1:
        raise DomainError("need at least one offset")
    h = grid.steps[0]
    n = grid.size
    if offset_count >= n:  # an offset of n steps or more reaches no node
        raise DomainError(f"offset_count {offset_count} must be below the {n} grid nodes")
    pad = np.zeros(np.shape(values)[:-1] + (offset_count,))
    # row i of the window is T(x_i + k h) for k = -offset_count .. offset_count
    shifted = sliding_window_view(np.concatenate([pad, values, pad], axis=-1),
                                  2 * offset_count + 1, axis=-1)
    ybox = Box((grid.box.lo[0], -offset_count * h), (grid.box.hi[0], offset_count * h))
    return values[..., None] - shifted, Grid(ybox, (n, 2 * offset_count + 1))


def verify_mixed_interpolation_bound(op: Operator, space0: EndpointSpace,
                                     space1: EndpointSpace, theta: float,
                                     qtilde: float, offset_count: int = 8,
                                     trials: int = 100, seed: int = 0,
                                     safety: float = 1.05, slack: float = 1e-6,
                                     rel_tol: float = 1e-10) -> MixedInterpolationReport:
    """Blended bound for ``x -> ||S(x, .)||_{qtilde}`` where S differences
    the operator output over node-aligned offsets; requires ``qtilde``
    below both endpoint output lower bounds.  This is the plain bound
    on that output profile in place of ``T f``."""
    return verify_interpolation_bounds(op, space0, space1, theta, qtilde, offset_count, trials,
                                       seed, safety, slack, rel_tol, plain=False)[0]


# ---------------------------------------------------------------------------
# extrapolation: rebuild the missing endpoint


@dataclass(frozen=True)
class ExtrapolationBuild:
    theta: float
    spec0: QuadrupleSpec
    w0_vec: tuple[WeightField, ...]
    verdict0: QuadrupleVerdict
    roundtrip_exponent_error: float
    roundtrip_weight_error: float
    constant0: WeightConstantReport


def build_extrapolation_family(target: QuadrupleSpec, w_vec, spec1: QuadrupleSpec,
                               w1_vec, theta: float,
                               cubes: DyadicCubeSet | None = None,
                               rel_tol: float = 1e-10) -> ExtrapolationBuild:
    """Invert the blend at ``theta``: recover the endpoint-0 quadruple
    and weights that blend with ``(spec1, w1_vec)`` into the target.

    Raises RangeError when the inverted exponents leave the admissible
    range (the target is then not reachable at this theta) and checks
    the reconstruction by blending forward again.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie strictly in (0, 1), got {theta}")
    if target.m != spec1.m or len(tuple(w_vec)) != target.m or len(tuple(w1_vec)) != target.m:
        raise ArityMismatchError("target and endpoint arities disagree")
    if target.r_vec != spec1.r_vec or target.s != spec1.s:
        raise SpecMismatchError("extrapolation needs shared (r_vec, s)")
    if target.box != spec1.box:
        raise SpecMismatchError("target and endpoint live on different boxes")

    p0_vec = tuple(theta_invert(p, p1, theta) for p, p1 in zip(target.p_vec, spec1.p_vec))
    q0 = theta_invert(target.q, spec1.q, theta)
    spec0 = QuadrupleSpec(p0_vec, q0, target.r_vec, target.s)
    verdict0 = validate_quadruple(spec0)

    inv = 1.0 / (1.0 - theta)
    w0_vec = weight_products(w_vec, w1_vec, inv, -theta * inv)

    back = blend_quadruple(spec0, spec1, theta)
    grid = w0_vec[0].grid
    exp_err = 0.0
    for a, b in zip(back.p_vec + (back.q,), target.p_vec + (target.q,)):
        exp_err = max(exp_err, float(np.max(np.abs(
            1.0 / a.values_on(grid) - 1.0 / b.values_on(grid)))))
    w_err = 0.0  # of log w, which is that of w relative to itself
    for again, w in zip(weight_products(w0_vec, w1_vec, 1.0 - theta, theta), w_vec):
        w_err = max(w_err, float(np.max(np.abs(again.log_values - w.log_values))))

    cubes = cubes or DyadicCubeSet(grid.box, 3)
    constant0 = multilinear_constant(w0_vec, spec0, cubes, rel_tol)
    return ExtrapolationBuild(theta, spec0, w0_vec, verdict0, exp_err, w_err, constant0)


@dataclass(frozen=True)
class ThetaEntry:
    theta: float
    built: bool
    admissible: bool
    proper: bool
    roundtrip_ok: bool
    constant0: float | None  # None, as is the ratio, when endpoint 0 was not built
    constant0_overflow: bool
    endpoint_max_ratio: float | None
    error: str = ""


@dataclass(frozen=True)
class WorkflowReport:
    qtilde: float
    entries: tuple[ThetaEntry, ...]
    rk: RKReport

    @property
    def verdict(self) -> str:
        return self.rk.verdict


def run_extrapolation_workflow(op: Operator, inputs: np.ndarray, grid: Grid,
                               target: QuadrupleSpec, w_vec, spec1: QuadrupleSpec, w1_vec,
                               thetas: Sequence[float], qtilde: float | None = None,
                               cubes: DyadicCubeSet | None = None,
                               roundtrip_tol: float = 1e-10,
                               rel_tol: float = 1e-10) -> WorkflowReport:
    """Sweep a theta ladder: rebuild endpoint 0 at each theta, certify
    the operator against it over the given inputs, and classify the
    operator outputs in the target output space.

    ``inputs`` is a ``(members, m, *grid.shape)`` stack of input tuples;
    the default ``qtilde = 1 / (1/r - gamma)`` always sits below the
    target output lower bound for admissible targets.
    """
    if op.arity != target.m:
        raise ArityMismatchError(f"operator arity {op.arity} does not match the "
                                 f"target's {target.m} inputs")
    w_vec = tuple(w_vec)
    if len(w_vec) != target.m:
        raise ArityMismatchError(f"{len(w_vec)} weights against arity {target.m}")
    w1_vec = tuple(w1_vec)
    if qtilde is None:
        inv_r, gamma = 1.0 / target.r, target.gamma
        if not inv_r > gamma:
            raise DomainError(f"the default qtilde = 1/(1/r - gamma) needs 1/r > gamma, but the "
                              f"target has 1/r = {inv_r:.6g} and gamma = {gamma:.6g}; give qtilde")
        qtilde = 1.0 / (inv_r - gamma)
    outputs = FunctionFamily(grid, apply_operator(op, inputs, grid))
    nu = WeightField.product(w_vec)
    rk = classify(outputs, target.q, nu, qtilde, cubes=cubes, rel_tol=rel_tol)

    entries = []
    for theta in thetas:
        try:
            built = build_extrapolation_family(target, w_vec, spec1, w1_vec,
                                               theta, cubes, rel_tol)
        except (RangeError, SpecMismatchError) as exc:
            entries.append(ThetaEntry(theta, False, False, False, False,
                                      None, False, None, str(exc)))
            continue
        space0 = EndpointSpace(built.spec0.p_vec, built.spec0.q, built.w0_vec,
                               WeightField.product(built.w0_vec))
        worst = float(_corpus_ratios(_slot_log_norms(inputs, grid, space0, rel_tol),
                                     outputs.values, grid, space0, 1.0, rel_tol).max())
        ok = (built.roundtrip_exponent_error <= roundtrip_tol
              and built.roundtrip_weight_error <= roundtrip_tol)
        entries.append(ThetaEntry(theta, True, built.verdict0.admissible,
                                  built.verdict0.proper, ok,
                                  built.constant0.constant,
                                  built.constant0.overflow, worst))
    return WorkflowReport(qtilde, tuple(entries), rk)
