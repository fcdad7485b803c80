"""Weight constants over dyadic cube families.

The symmetric constant of a weight ``w`` against an exponent ``p`` is

    [w]_p = sup_Q |Q|^(-1) ||w chi_Q||_p ||w^(-1) chi_Q||_p',

and the two-index m-linear constant of a weight vector against an
admissible quadruple ``(p_vec, q, r_vec, s)`` with gamma = 1/p - 1/q is

    sup_Q |Q|^(gamma - (1/r - 1/s)) ||nu chi_Q||_{1/(1/q - 1/s)}
          prod_j ||w_j^(-1) chi_Q||_{1/(1/r_j - 1/p_j)},

with ``nu = prod_j w_j``.  Three conventions are fixed throughout:

* ``|Q|`` is the quadrature measure of the cube's node set, the same
  measure the norms integrate against, so identities that hold per
  cube in the continuum hold per cube here too.
* The supremum runs over a finite dyadic-plus-shift cube family, so
  every reported constant is a certified lower bound for the continuum
  supremum.
* A cube value is ``exp(power log|Q| + sum_k log ||f_k chi_Q||)``, the
  same for ``c w`` as for ``w``.  One with a log above ``log 1e150`` reads
  inf and sets the overflow flag; checks that need a finite one refuse it.

The scan works one cube depth at a time, in the row format of ``norms``.
A factor is its log values (``nu``, an inverse and the gate's
``w^qtilde`` are sums and multiples of ``log w``; a NaN is refused at
its grid node), with a padding node of log value ``-inf`` appended, and
its exponent on the grid.  A (depth, shifted) group is one integer array
of node rows, one row per cube in scan order padded with the padding
index (`field.CubeGroup.node_rows`), a row set of each factor.
`_scan_solves` lists a scan's solves: consecutive sets share one solve
while they have one row width and hold ``PACK_NODES`` nodes at most.
A cube adds its factors' log norms in factor order.  Measures, log sums,
the overflow test and the argmax (the first maximal cube in scan order)
are vectorised.

The geometry of a scan depends only on the grid and the cube family, so
it is built once per (grid, cube set) by `_scan_plan` and shared by every
scan on that pair (the two scans of `two_to_one_check`, the three of
`blend_constant_check`, and every job of a process that repeats a
family): per group in scan order, its node rows and the log measures of
its cubes.  The rows are read-only int32 (intp only on a grid of 2^31
nodes or more), half the memory of intp rows; a solve copies them once
to intp in its Newton workspace, which the gathers read.  A plan holds
about 4 bytes per node per group, 2 depth + 1 groups: 2.1 MB for a
257^2, depth-4 family, 32 MB for 1025^2.  A scan holds its whole plan.
Between scans the plans used last are kept up to ``PLAN_CACHE_BYTES``
(16 MiB) in all, the oldest dropped first; a larger plan is dropped
after its scan.

The scan makes one working block of four float rows, at the size of
its largest solve.  A solve casts each set's rows to intp in the
workspace row, gathers the set's log values, exponent and log weights
into its slices of the other three (a set solved alone after the same
group's previous factor keeps that set's log weights) and runs
`norms.lux_rows` in the block, which spares each solve a row-sized array
and refaulted pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import norms
from .errors import (ArityMismatchError, DomainError, EmptyRegionError,
                     HypothesisFailureError, OverflowToInfinityError,
                     SpecMismatchError)
from .exponent import (GAMMA_TOL, ExponentField, QuadrupleSpec, blend_quadruple,
                       component_exponent, dual_exponent, nu_exponent,
                       scale_exponent, two_to_one_data, validate_quadruple)
from .field import Cube, CubeGroup, DyadicCubeSet, Grid, WeightField, refuse_non_finite
from .norms import holder_constant

OVERFLOW_THRESHOLD = 1e150
PACK_NODES = 2 ** 16  # nodes of a packed scan solve: 4 float rows in 2 MiB, a core's L2
PLAN_CACHE_BYTES = 2 ** 24  # scan plans kept between scans, in all
# slack of the inequalities that the lemma-shaped checks assert
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class WeightConstantReport:
    constant: float
    overflow: bool
    argmax_cube: Cube | None
    cube_count: int
    per_cube: tuple[float, ...]


_plans: dict = {}  # (grid, cube set) -> scan plan, the least recently used first


def _scan_plan(grid: Grid, cubes: DyadicCubeSet
               ) -> tuple[tuple[CubeGroup, np.ndarray, np.ndarray], ...]:
    """Per group of ``cubes`` in scan order: the group, its node rows on
    ``grid`` (read-only, int32 below 2^31 nodes) and the log quadrature
    measures of its cubes (read-only).  The plans used last are kept while
    they hold ``PLAN_CACHE_BYTES`` in all; a larger plan is not kept.  The
    first cube with no node in scan order is an EmptyRegionError, raised
    on every call."""
    key = (grid, cubes)
    plan = _plans.pop(key, None)
    if plan is None:
        plan = _build_plan(grid, cubes)
    if _plan_bytes(plan) <= PLAN_CACHE_BYTES:
        _plans[key] = plan
        while sum(map(_plan_bytes, _plans.values())) > PLAN_CACHE_BYTES:
            del _plans[next(iter(_plans))]
    return plan


def _plan_bytes(plan) -> int:
    return sum(rows.nbytes + log_measure.nbytes for _, rows, log_measure in plan)


def _build_plan(grid: Grid, cubes: DyadicCubeSet):
    qw = grid.quad_weights
    dtype = np.int32 if grid.size < 2 ** 31 else np.intp
    plan = []
    for group in cubes.groups():
        node_rows = group.node_rows(grid)
        # a cube with no node holds only padding, from its first entry on
        empty = np.flatnonzero(node_rows[:, 0] == grid.size)
        if empty.size:
            raise EmptyRegionError(
                f"cube {group.cube(np.unravel_index(empty[0], group.shape)).label()} contains "
                "no grid node; lower max_depth or refine the grid")
        # padding node: measure 0, from a copy per group (one kept for the loop raised peak RSS)
        rows, log_measure = node_rows.astype(dtype), np.log(np.append(qw, 0.0)[node_rows].sum(1))
        rows.flags.writeable = log_measure.flags.writeable = False
        plan.append((group, rows, log_measure))
    return tuple(plan)


def _scan_solves(plan, n_factors: int) -> list[list[tuple[int, int]]]:
    """The solves of a scan of ``n_factors`` factors over ``plan``, in
    order, each a list of (group, factor) row sets, a group by its index
    in the plan.  Consecutive sets share one solve while they have one row
    width and hold at most ``PACK_NODES`` nodes in all."""
    solves, width, nodes = [], None, 0
    for i, (_, rows, _) in enumerate(plan):
        for k in range(n_factors):
            if rows.shape[1] != width or nodes + rows.size > PACK_NODES:
                solves.append([])
                width, nodes = rows.shape[1], 0
            solves[-1].append((i, k))
            nodes += rows.size
    return solves


def _cube_scan(grid: Grid, cubes: DyadicCubeSet, factors, measure_power: float,
               rel_tol: float) -> WeightConstantReport:
    """Scan the cube family one depth at a time: a (depth, shifted) group's
    node rows from the `_scan_plan` are a row set of each ``(log_values,
    exponent)`` factor, and each solve of `_scan_solves` gathers its sets
    into one working block, made once at the size of the largest solve."""
    if not grid.box.contains_box(cubes.root):
        raise DomainError("cube family root box must lie inside the grid box")
    for lw, _ in factors:
        refuse_non_finite(lw, grid.size)
    plan = _scan_plan(grid, cubes)
    group_rows = [rows for _, rows, _ in plan]
    solves = _scan_solves(plan, len(factors))
    las = [np.append(lw, -math.inf) for lw, _ in factors]  # padding node: log|w| = -inf
    ps = [p.values_on(grid).ravel() for _, p in factors]
    lq = grid.log_quad_weights.ravel()
    values = [measure_power * log_measure for _, _, log_measure in plan]  # per group
    sizes = [sum(group_rows[i].size for i, _ in sets) for sets in solves]
    block = np.empty((4, max(sizes)))
    lone = None  # the group of the last set solved alone, whose log weights the block holds
    for sets, n in zip(solves, sizes):
        la, p, lq_rows, e = block[:, :n].reshape(4, -1, group_rows[sets[0][0]].shape[1])
        ends = np.cumsum([len(group_rows[i]) for i, _ in sets])
        for (i, k), end in zip(sets, ends):
            part = slice(end - len(group_rows[i]), end)
            rows = e[part].view(np.intp)  # int32 rows as intp: one cast, not one per gather
            rows[...] = group_rows[i]
            las[k].take(rows, out=la[part], mode="clip")
            ps[k].take(rows, out=p[part], mode="clip")
            if len(sets) > 1 or i != lone:
                lq.take(rows, out=lq_rows[part], mode="clip")
        lone = sets[0][0] if len(sets) == 1 else None
        log_value = norms.lux_rows(la, p, lq_rows, rel_tol, e).log_value
        for (i, _), end in zip(sets, ends):  # in factor order, as solved one by one
            values[i] += log_value[end - len(group_rows[i]):end]
    log_cube = np.concatenate(values)
    over = log_cube > math.log(OVERFLOW_THRESHOLD)
    per_cube = np.exp(np.where(over, math.inf, log_cube))  # exp(inf) raises no overflow
    best = int(np.argmax(per_cube))
    for (group, _, _), value in zip(plan, values):
        if best < value.size:
            break
        best -= value.size
    return WeightConstantReport(float(per_cube.max()), bool(over.any()),
                                group.cube(np.unravel_index(best, group.shape)),
                                per_cube.size, tuple(per_cube.tolist()))


def _bounded(rep: WeightConstantReport) -> WeightConstantReport:
    """``rep``, or OverflowToInfinityError naming its argmax cube if it overflowed."""
    if rep.overflow:
        raise OverflowToInfinityError(f"cube constant beyond {OVERFLOW_THRESHOLD:.0e} "
                                      f"on cube {rep.argmax_cube.label()}")
    return rep


def ap_constant(w: WeightField, p: ExponentField, cubes: DyadicCubeSet,
                rel_tol: float = 1e-10) -> WeightConstantReport:
    """Symmetric variable-exponent Muckenhoupt constant of ``w``."""
    p.require_P("Muckenhoupt constant")
    factors = [(w.log_values, p), (w.inverse().log_values, dual_exponent(p))]
    return _cube_scan(w.grid, cubes, factors, -1.0, rel_tol)


def gate_constant(w: WeightField, p: ExponentField, qtilde: float, cubes: DyadicCubeSet,
                  rel_tol: float = 1e-10) -> WeightConstantReport:
    """The gate of the compactness criterion: the constant of ``w^qtilde``
    at exponent ``p/qtilde``.  A qtilde that is not finite and positive is
    a DomainError; one at or above ``p_-``, or an overflowing constant,
    fails the hypothesis (HypothesisFailureError)."""
    if not 0.0 < qtilde < math.inf:
        raise DomainError(f"qtilde must be a finite positive constant, got {qtilde}")
    if qtilde >= p.p_minus:
        raise HypothesisFailureError(f"qtilde = {qtilde} is not below p_- = {p.p_minus}")
    try:
        return _bounded(ap_constant(w.power(qtilde), scale_exponent(p, 1 / qtilde), cubes, rel_tol))
    except OverflowToInfinityError as exc:
        raise HypothesisFailureError(f"gate weight condition fails: {exc}") from exc


def multilinear_constant(w_vec, spec: QuadrupleSpec, cubes: DyadicCubeSet,
                         rel_tol: float = 1e-10) -> WeightConstantReport:
    """Two-index m-linear constant of a weight vector."""
    w_vec = tuple(w_vec)
    if len(w_vec) != spec.m:
        raise ArityMismatchError(f"{len(w_vec)} weights against arity {spec.m}")
    factors = [(WeightField.product(w_vec).log_values, nu_exponent(spec.q, spec.s))]
    factors += [(w.inverse().log_values, component_exponent(p_j, r_j))
                for w, p_j, r_j in zip(w_vec, spec.p_vec, spec.r_vec)]
    power = spec.gamma - (1.0 / spec.r - 1.0 / spec.s)
    return _cube_scan(w_vec[0].grid, cubes, factors, power, rel_tol)


# ---------------------------------------------------------------------------
# lemma-shaped checks


@dataclass(frozen=True)
class TwoToOneReport:
    lhs: WeightConstantReport
    rhs_inner: WeightConstantReport
    a: float
    lhs_constant: float
    rhs_constant: float
    rel_error: float
    max_cube_rel_error: float


def two_to_one_check(w: WeightField, spec: QuadrupleSpec, cubes: DyadicCubeSet,
                     rel_tol: float = 1e-10) -> TwoToOneReport:
    """Compare the 1-linear two-index constant with the classical
    constant of ``w^a`` at the exponent ``t``, raised to ``1/a``.

    The identity is exact cube by cube, so both the suprema and the
    per-cube values must agree to solver tolerance.
    """
    lhs = _bounded(multilinear_constant((w,), spec, cubes, rel_tol))
    a, t = two_to_one_data(spec)
    rhs_inner = _bounded(ap_constant(w.power(a), t, cubes, rel_tol))
    rhs = rhs_inner.constant ** (1.0 / a)
    rel = abs(lhs.constant - rhs) / max(abs(lhs.constant), abs(rhs), 1e-300)
    per = [abs(l - ri ** (1.0 / a)) / max(l, ri ** (1.0 / a), 1e-300)
           for l, ri in zip(lhs.per_cube, rhs_inner.per_cube)]
    return TwoToOneReport(lhs, rhs_inner, a, lhs.constant, rhs, rel, max(per))


@dataclass(frozen=True)
class ContainmentReport:
    lhs: WeightConstantReport          # constant at (r_vec, inf)
    rhs: WeightConstantReport          # constant at (r_vec, s)
    holder_c: float
    global_ratio: float
    max_cube_ratio: float
    passed: bool


def containment_check(w_vec, spec: QuadrupleSpec, cubes: DyadicCubeSet,
                      rel_tol: float = 1e-10) -> ContainmentReport:
    """Check ``[w]_{(r, inf)} <= C_H [w]_{(r, s)}`` cube by cube (slack ``CHECK_TOL``).

    Replacing ``s`` by ``inf`` keeps gamma and the inverse-weight
    factors; the product-weight factor splits by the two-factor Hoelder
    inequality at the target exponent ``q``, whose working constant
    ``holder_constant(q)`` collapses to 1 for constant exponents.
    """
    if math.isinf(spec.s):
        raise SpecMismatchError("containment compares a finite s against s = inf")
    spec_inf = QuadrupleSpec(spec.p_vec, spec.q, spec.r_vec, math.inf)
    lhs = _bounded(multilinear_constant(w_vec, spec_inf, cubes, rel_tol))
    rhs = _bounded(multilinear_constant(w_vec, spec, cubes, rel_tol))
    c_h = holder_constant(spec.q)
    ratios = [l / (c_h * r) if r > 0 else math.inf
              for l, r in zip(lhs.per_cube, rhs.per_cube)]
    global_ratio = lhs.constant / (c_h * rhs.constant)
    passed = global_ratio <= 1.0 + CHECK_TOL and max(ratios) <= 1.0 + CHECK_TOL
    return ContainmentReport(lhs, rhs, c_h, global_ratio, max(ratios), passed)


def weight_products(w0_vec, w1_vec, a: float, b: float) -> tuple[WeightField, ...]:
    """``w0_j^a w1_j^b`` per component ``j``, of log ``a log w0_j + b log
    w1_j``: the theta blend of two weight vectors (``a, b = 1 - theta,
    theta``) and its inversion."""
    return tuple(WeightField.product((w0.power(a), w1.power(b))) for w0, w1 in zip(w0_vec, w1_vec))


@dataclass(frozen=True)
class BlendReport:
    blended: WeightConstantReport
    endpoint0: WeightConstantReport
    endpoint1: WeightConstantReport
    holder_factor: float
    bound: float
    ratio: float
    passed: bool
    blended_admissible: bool
    gamma: float


def blend_constant_check(w_vec0, w_vec1, spec0: QuadrupleSpec, spec1: QuadrupleSpec,
                         theta: float, cubes: DyadicCubeSet,
                         rel_tol: float = 1e-10) -> BlendReport:
    """Check the constant of blended weights against the geometric mean
    of the endpoint constants, whose gammas agree to ``GAMMA_TOL``.

    The blended weight vector is ``w_j = w_{0,j}^(1-theta) w_{1,j}^theta``
    and the allowed loss is one two-factor Hoelder constant per norm
    factor: ``prod_j holder_constant(e_j) * holder_constant(e_nu)`` at
    the blended factor exponents (exactly 1 when everything is
    constant), up to a relative ``CHECK_TOL``.
    """
    w_vec0, w_vec1 = tuple(w_vec0), tuple(w_vec1)
    if len(w_vec0) != spec0.m or len(w_vec1) != spec1.m:
        raise ArityMismatchError("weight vector arity does not match its quadruple")
    g0, g1 = spec0.gamma, spec1.gamma
    if abs(g0 - g1) > GAMMA_TOL:
        raise SpecMismatchError(f"endpoints have different gamma: {g0} vs {g1}")
    spec = blend_quadruple(spec0, spec1, theta)
    w_vec = weight_products(w_vec0, w_vec1, 1.0 - theta, theta)

    blended, c0, c1 = (_bounded(multilinear_constant(v, s, cubes, rel_tol))
                       for v, s in ((w_vec, spec), (w_vec0, spec0), (w_vec1, spec1)))

    factor = holder_constant(nu_exponent(spec.q, spec.s))
    for p_j, r_j in zip(spec.p_vec, spec.r_vec):
        factor *= holder_constant(component_exponent(p_j, r_j))

    bound = factor * c0.constant ** (1.0 - theta) * c1.constant ** theta
    ratio = blended.constant / bound
    verdict = validate_quadruple(spec)
    return BlendReport(blended, c0, c1, factor, bound, ratio, ratio <= 1.0 + CHECK_TOL,
                       verdict.admissible, verdict.gamma)
