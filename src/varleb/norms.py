"""Modulars and Luxemburg norms for variable exponents.

The modular of ``f`` against an exponent field ``p`` is ``rho(f) = int
|f(x)|^p(x) dx`` (a trapezoid sum here).  The norm is the Luxemburg
functional

    ||f||_p = inf { lam > 0 : rho(f / lam) <= 1 },

computed by Newton's method on ``g(t) = log rho(f / e^t)``.  Over the
nonzero nodes ``g`` is convex and decreasing with slope in ``[-p_+,
-p_-]``, so Newton iterates started at ``t = log sup|f|`` rise
monotonically to the root, and the slope bounds turn the last value of
``g`` into a certified bracket for the norm.  Every solve returns a
`RowNorms`, and `RowNorms.bracket` states the bracket.  A row ends at
its Newton point without evaluating there when a variance bound proves
that this evaluation would end it (`lux_rows`): a constant exponent
mostly takes one evaluation, not two.  `lux_flat` alone confirms every
row, as the ``norm`` report prints the evaluation count, bracket and
modular of the last evaluation.

Every norm is solved in one row format: rows of per-node ``log|f|``,
exponent and log quadrature weight, gathered by rows of node indices
padded with a node whose ``log|f| = -inf`` adds nothing to a modular,
and solved by `lux_rows`, whose Newton steps run on all rows together.
The log weights are the grid's `log_quad_weights`, computed once per
grid and shared by every solve on it; a zero node keeps its log weight,
which its ``-inf`` log|f| cancels.  A gathered solve takes its three
rows and its Newton workspace as the four slices of one block of a
float buffer that each thread keeps and grows to its largest block up
to ``SOLVE_BUFFER_BYTES`` (16 MiB), so that a process repeating its
solves does not fault their pages in afresh each time; a larger block
is made for its solve alone.  No `RowNorms` is a view of the buffer.

A value stack is held as a `NodeTable`: its ``log|f|`` (one row per
member, refusing NaN by node and member), its exponent and its log
weights.  `NodeTable.solve` is the one way from a value stack into
`lux_rows`.  The default rows are each member's nonzero nodes: one for
`lux_flat` (so `weighted_norm`), one per member for `weighted_norms`;
``rk`` cuts them by a node mask.  When no member has a zero node, each
default row is every node in node order, so the solve reads the table
in place; any other solve gathers into the thread's buffer.  The cube
scan of ``weights`` holds no value stack: it gathers its factors by cube
rows into one working block per scan and calls `lux_rows` itself.

Weighted norms follow the convention ``||f||_{p,w} = || f w ||_p`` (the
weight multiplies the function, it does not change the measure); a table
takes ``log|f| + log w`` (`WeightField.log_values`), never ``f w``, so
a norm has a finite log even where ``f w`` is no double.

A set of functions is one ``(members, *grid.shape)`` value stack, as
in ``rk`` and ``interp``.  A mixed norm of a bivariate function first
reduces the second axis by a constant-exponent integral norm
(`inner_norm`, of a whole stack), then applies a variable-exponent
Luxemburg norm in the first axis.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .exponent import ExponentField
from .field import Grid, GridFunction, WeightField, refuse_non_finite, shared_grid

MAX_EVALUATIONS = 100
# the largest block of gathered rows and workspace a thread's buffer grows to
SOLVE_BUFFER_BYTES = 2 ** 24
_buffer = threading.local()


def modular(f: GridFunction, p: ExponentField) -> float:
    """``int |f|^p(x) dx``; may overflow to inf."""
    a = np.abs(f.values).ravel()
    refuse_non_finite(a, a.size)
    pv, qw = p.values_on(f.grid).ravel(), f.grid.quad_weights.ravel()
    nz = a > 0.0
    if not nz.all():
        a, pv, qw = a[nz], pv[nz], qw[nz]
    with np.errstate(over="ignore"):
        return float(np.sum(qw * np.exp(pv * np.log(a))))


class RowNorms(NamedTuple):
    """Outcome of a Luxemburg solve in the log domain, one entry per row
    (numpy scalars for one row): the final Newton iterate ``t``, the norm
    being ``value = e^t``; ``log_modular``, ``g = log rho(f / e^t)`` for
    a row confirmed by an evaluation at ``t``, or for a row stopped at
    its Newton point an upper bound on it, which is at least 0; the
    ``p_-`` of the nonzero nodes; and the number of modular evaluations.

    The certified bracket for the norm is ``bracket``: since ``|d g / d
    t| >= p_-``, the root lies within ``|g| / p_-`` of ``t`` on the side
    of the sign of ``g``, so it lies in ``exp(t + min(g, 0) / p_-)`` to
    ``exp(t + max(g, 0) / p_-)``; an upper bound ``g >= 0`` only widens
    the bracket above.  A row with no nonzero node has the bracket ``(0,
    0)``, one with an infinite value ``(inf, inf)``."""

    log_value: np.ndarray
    log_modular: np.ndarray
    p_lo: np.ndarray
    iterations: np.ndarray

    @property
    def value(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_value)

    @property
    def bracket(self) -> tuple[np.ndarray, np.ndarray]:
        t, g, p_lo = self.log_value, self.log_modular, self.p_lo
        with np.errstate(over="ignore"):
            return np.exp(t + np.minimum(g, 0.0) / p_lo), np.exp(t + np.maximum(g, 0.0) / p_lo)


def lux_rows(la: np.ndarray, p: np.ndarray, lq: np.ndarray,
             rel_tol: float = 1e-10, e: np.ndarray | None = None, *,
             confirm: bool = False) -> RowNorms:
    """Luxemburg solves of the independent rows of ``(rows, n)`` arrays.

    Row ``i`` holds ``la = log|f|``, the exponent ``p`` and the log
    quadrature weights ``lq``.  A zero or padding node has ``la = -inf``
    and adds nothing to the modular.  Newton steps on
    ``g(t) = log sum exp(lq + p (la - t))``, started at ``t = max la``,
    run on all rows at once; a row stops once ``|g| <= tol = p_-
    log1p(rel_tol)``, with ``p_-`` and ``p_+`` taken over its nonzero
    nodes, and keeps its ``t`` from then on; its certified bracket is
    `RowNorms.bracket`.

    A row also stops at its Newton point ``t'`` without evaluating there,
    when a bound proves that the evaluation at ``t'`` would stop it.
    ``g`` is convex, so ``g(t') >= 0``; ``g''`` is the variance of ``p``
    under the modular's weights, at most ``(p_+ - p_-)^2 / 4``
    (Popoviciu), and ``|t' - t| <= |g| / p_-``, so ``g(t') <= (p_+ -
    p_-)^2 g^2 / (8 p_-^2)``: exactly 0 for a constant exponent.  The row
    stops at ``t'`` when that bound, plus ``1e-12 |g|`` for the rounding
    of the step ``g s / slope``, plus 64 ulps of ``1 + |shift| + p_+
    |t'|`` (``shift`` the largest log term) for the rounding of ``t'``
    and of the evaluations at ``t`` and at ``t'``, is at most ``tol /
    2``.  Without the last term a row at ``rel_tol`` 1e-14 could stop
    where the evaluation at ``t'`` would not stop it and the confirmed
    solve raises.  The row's ``t'`` is then bit for bit what that
    evaluation would return; its ``log_modular`` is the bound, an upper
    bound on ``g(t')``, so its bracket stays certified; its
    ``iterations`` counts the evaluations made.  A constant exponent
    mostly finishes in one evaluation.  With ``confirm`` every row makes
    the evaluation that stops it, as `lux_flat` does for the ``norm``
    report's evaluation count, bracket and modular.

    A row whose step leaves ``t`` unmoved or non-finite before it stops
    raises ConvergenceError at once, naming its largest exponent.  A row
    with no nonzero node has norm 0, and one with an infinite value an
    infinite norm, after no evaluation; a NaN value is refused.

    The Newton loop works in ``e``, a ``(rows, n)`` array like ``la``
    whose values are overwritten (a fresh one when omitted).
    """
    if not 0.0 < rel_tol <= 1e-2:
        raise DomainError(f"rel_tol must lie in (0, 1e-2], got {rel_tol}")
    if e is None:
        e = np.empty_like(la)
    t = la.max(axis=1, initial=-math.inf)
    live = np.isfinite(t)
    n_live = np.count_nonzero(live)
    if n_live == t.size > 0:
        return _newton_rows(la, p, lq, t, rel_tol, e, confirm)
    refuse_non_finite(la, la.shape[1])
    # t = -inf: no nonzero node, so log rho = -inf; t = inf: an infinite value
    out = RowNorms(t, t.copy(), np.ones_like(t), np.zeros(len(t), dtype=int))
    if n_live:
        r = _newton_rows(la[live], p[live], lq[live], t[live], rel_tol, e[:n_live], confirm)
        for name in ("log_value", "log_modular", "p_lo", "iterations"):
            getattr(out, name)[live] = getattr(r, name)
    return out


# the rounding allowance of a stop at the Newton point: 64 ulps of 1
_ULPS = 64 * 2.0 ** -52


# p near the float limit: p (la - t) to -inf (exp: 0), p e to inf; p_+ / p_- past
# 1e154: an infinite curvature factor, which times a stopped row's g = 0 is NaN
@np.errstate(over="ignore", invalid="ignore")
def _newton_rows(la, p, lq, t, rel_tol: float, e: np.ndarray, confirm: bool) -> RowNorms:
    """The Newton loop of `lux_rows` over ``(rows, n)`` arrays whose rows
    have a finite start ``t``, in the workspace ``e`` of ``la``'s shape."""
    if (zero := la == -math.inf).any():  # zero and padding nodes: their p does not count
        np.copyto(e, p)  # the workspace first holds p over the nonzero nodes
        e[zero] = math.inf
        p_lo = e.min(axis=1)
        e[zero] = -math.inf
        p_hi = e.max(axis=1)
    else:
        p_lo, p_hi = p.min(axis=1), p.max(axis=1)
    del zero  # not held through the loop, which allocates as rows stop
    tol = p_lo * math.log1p(rel_tol)
    curve = ((p_hi - p_lo) / p_lo) ** 2 / 8.0  # g(t') <= curve g^2 at the Newton point t'
    out = None              # per-row results, once some rows stop before others
    for k in range(1, MAX_EVALUATIONS + 1):
        np.subtract(la, t[:, None], out=e)  # e = exp(lq + p (la - t) - shift), in place
        e *= p
        e += lq
        shift = np.maximum.reduce(e, axis=1)
        e -= shift[:, None]
        np.exp(e, out=e)
        s = np.add.reduce(e, axis=1)
        g = shift + np.log(s)
        done = abs(g) <= tol
        n_done = np.count_nonzero(done)
        if n_done == done.size and out is None:
            return RowNorms(t, g, p_lo, np.full(len(t), k))
        if n_done < done.size:
            slope = np.vecdot(p, e)
            step = t + g * s / slope
            if not (moved := np.isfinite(step) & (step != t)).all():
                _refuse_stall(~moved & ~done, g, tol, slope, p)
            # rows that evaluation k + 1, at t', would stop, where the limit allows one
            if not confirm and k < MAX_EVALUATIONS:
                ag = abs(g)
                bound = ag * (curve * ag + 1e-12) + _ULPS * (1.0 + abs(shift) + p_hi * abs(step))
                ends = ~done & (bound <= 0.5 * tol)
                if n_ends := np.count_nonzero(ends):
                    if n_ends == done.size and out is None:
                        return RowNorms(step, bound, p_lo, np.full(len(t), k))
                    t, g, done, n_done = (np.where(ends, step, t), np.where(ends, bound, g),
                                          done | ends, n_done + n_ends)
        if not n_done:
            t = step
            continue
        if out is None:
            out = RowNorms(t.copy(), np.empty_like(t), p_lo, np.zeros(t.size, dtype=int))
            rows = np.arange(t.size)
        fin = rows[done]
        out.log_value[fin], out.log_modular[fin], out.iterations[fin] = t[done], g[done], k
        if n_done == done.size:
            return out
        keep = ~done
        rows, la, p, lq = rows[keep], la[keep], p[keep], lq[keep]
        t, g, tol, curve, p_hi = step[keep], g[keep], tol[keep], curve[keep], p_hi[keep]
        e = e[:len(rows)]  # rewritten before it is read again, so never copied
    worst = np.argmax(np.abs(g) - tol)
    raise ConvergenceError(
        f"Luxemburg Newton solve left |log rho| = {abs(g[worst]):.3g} above "
        f"{tol[worst]:.3g} after {MAX_EVALUATIONS} evaluations")


def _refuse_stall(stuck, g, tol, slope, p) -> None:
    """Raise for the first row of ``stuck``, a row that has not stopped
    and whose Newton step leaves ``t`` where it is or makes it
    non-finite: each evaluation left would repeat the last, so name its
    largest exponent and its slope now.  An exponent near the float
    limit does this: it takes the slope, the sum of p times the modular
    terms, to 1e307 or past the float range, so the step
    ``g s / slope`` falls below the spacing of ``t``."""
    if not stuck.any():
        return
    row = int(np.argmax(stuck))
    raise ConvergenceError(
        f"Luxemburg Newton solve cannot move: at |log rho| = {abs(g[row]):.3g} above "
        f"{tol[row]:.3g}, with exponents up to {p[row].max():.6g}, the slope (the sum of p "
        f"times the modular terms) is {slope[row]:.3g}, and the step no longer "
        f"changes log lambda")


class NodeTable(NamedTuple):
    """Per-node tables of a ``(members, n)`` value stack: ``log|f|`` per
    member, with a padding node at index ``n`` where it is ``-inf``, the
    exponent and the log quadrature weights, shared by every member, and
    whether no member has a zero node.  A ``-inf``
    log|f| cancels its node's exponent and weight, so a gather reads the
    padding node's from node ``n - 1`` (any finite values would do)."""

    la: np.ndarray
    p: np.ndarray
    lq: np.ndarray
    dense: bool

    def rows(self, select: np.ndarray | None = None) -> np.ndarray:
        """Per member, its nonzero nodes (where the node mask ``select``
        holds, if given) in node order, padded with ``n`` to the longest."""
        keep = self.la[:, :-1] > -math.inf
        if select is not None:
            keep &= select.ravel()
        nodes = [k.nonzero()[0] for k in keep]
        if len(nodes) == 1:
            return nodes[0][None]
        rows = np.full((len(nodes), max(k.size for k in nodes)), keep.shape[1])
        for row, k in zip(rows, nodes):
            row[:k.size] = k
        return rows

    def solve(self, rows: np.ndarray | None = None, rel_tol: float = 1e-10,
              confirm: bool = False) -> RowNorms:
        """`lux_rows` on ``(rows, k)`` node indices (by default `rows()`),
        row ``i`` reading member ``i`` or the only member.

        With the default rows of a dense table (no zero node), each
        member's row is every node in node order, so the solve reads the
        table in place, with no gather.  Otherwise it gathers into three
        ``(rows, k)`` slices of a `_solve_block` and runs `lux_rows` in
        the fourth, once a default row array is freed.  (A block is kept
        between solves, not freed: a freed one raises glibc's mmap
        threshold to its size, which leaves more freed heap resident, and
        its pages are faulted in again by the next solve.)  ``confirm`` is
        `lux_rows`'s."""
        if rows is None:
            if self.dense:
                la = self.la[:, :-1]
                return lux_rows(la, np.broadcast_to(self.p, la.shape),
                                np.broadcast_to(self.lq, la.shape), rel_tol, confirm=confirm)
            rows = self.rows()
        la, p, lq, e = _solve_block(rows.shape)
        flat = rows
        if len(self.la) > 1:  # a row reads its member's la, at flat indices built in lq
            flat = np.add(rows, (np.arange(len(rows)) * self.la.shape[1])[:, None],
                          out=lq.view(np.intp))
        self.la.take(flat, out=la, mode="clip")
        self.p.take(rows, out=p, mode="clip")
        self.lq.take(rows, out=lq, mode="clip")
        del rows, flat  # a default row array is freed before the solve
        return lux_rows(la, p, lq, rel_tol, e, confirm=confirm)


def _solve_block(shape: tuple[int, int]) -> np.ndarray:
    """A ``(4, *shape)`` float block: the start of this thread's buffer,
    which grows to it if it is larger, or, above ``SOLVE_BUFFER_BYTES``,
    a block of its own.  Its contents are left as they were."""
    size = 4 * shape[0] * shape[1]
    if 8 * size > SOLVE_BUFFER_BYTES:
        return np.empty((4, *shape))
    buffer = getattr(_buffer, "floats", None)
    if buffer is None or buffer.size < size:
        _buffer.floats = None  # the old buffer is freed before the new one is made
        buffer = _buffer.floats = np.empty(size)
    return buffer[:size].reshape(4, *shape)


def node_table(values: np.ndarray, p: np.ndarray, lq: np.ndarray,
               lw: np.ndarray | None = None) -> NodeTable:
    """The `NodeTable` of a ``(members, *shape)`` value stack (or of one
    ``shape`` array) times the weight of log values ``lw``, if given, with
    an exponent and a grid's `log_quad_weights` ``lq`` (shared) on ``shape``."""
    n = p.size
    refuse_non_finite(values, n)
    la = np.full((values.size // n if n else 1, n + 1), -math.inf)
    nz = values.reshape(len(la), n) != 0.0
    dense = bool(nz.all())  # logs at nonzero nodes only, unmasked (faster) when all are
    np.abs(values.reshape(nz.shape), out=la[:, :n], where=dense or nz)
    np.log(la[:, :n], out=la[:, :n], where=dense or nz)
    if lw is not None:  # unmasked: a zero node's -inf stays -inf
        la[:, :n] += lw.ravel()
    return NodeTable(la, p.ravel(), lq.ravel(), dense)


def lux_flat(a: np.ndarray, p: np.ndarray, lq: np.ndarray, rel_tol: float = 1e-10,
             lw: np.ndarray | None = None) -> RowNorms:
    """Luxemburg solve on flat node values ``a`` (of ``|f|`` or ``f``) times
    a weight of log values ``lw``, if given, exponent ``p`` and log weights
    ``lq``: the row of its nonzero nodes, the one-member `NodeTable` solve,
    confirmed, as a `RowNorms` of numpy scalars: its modular and evaluation
    count are those of its last evaluation, at the value it returns."""
    return RowNorms(*(x[0] for x in node_table(a, p, lq, lw).solve(rel_tol=rel_tol, confirm=True)))


def _log_weight(grid: Grid, w: WeightField | None) -> np.ndarray | None:
    """``log w`` of a weight on ``grid``, or None for no weight."""
    if w is not None:
        shared_grid((w,), "grid functions", grid)
        return w.log_values


def weighted_norm(f: GridFunction, p: ExponentField, w: WeightField | None = None,
                  rel_tol: float = 1e-10) -> RowNorms:
    """``|| f w ||_p``; with ``w`` omitted this is the plain norm."""
    return lux_flat(f.values.ravel(), p.values_on(f.grid).ravel(),
                    f.grid.log_quad_weights.ravel(), rel_tol, _log_weight(f.grid, w))


def weighted_table(values: np.ndarray, grid: Grid, p: ExponentField,
                   w: WeightField | None = None) -> NodeTable:
    """The `NodeTable` of ``f w`` for a ``(members, *grid.shape)`` value
    stack of functions ``f``."""
    return node_table(values, p.values_on(grid), grid.log_quad_weights, _log_weight(grid, w))


def weighted_norms(values: np.ndarray, grid: Grid, p: ExponentField,
                   w: WeightField | None = None, rel_tol: float = 1e-10) -> np.ndarray:
    """``|| f w ||_p`` of each function of a ``(members, *grid.shape)``
    value stack, solved together: row ``i`` holds member ``i``'s nonzero
    nodes, as `lux_flat` would."""
    return weighted_table(values, grid, p, w).solve(rel_tol=rel_tol).value


def norm_ratios(values: np.ndarray, grid: Grid, p: ExponentField, w: WeightField | None,
                log_den: np.ndarray, rel_tol: float = 1e-10) -> tuple[RowNorms, np.ndarray]:
    """``|| f w ||_p`` of each function of a value stack (or of one), and its
    ratio to a norm of log ``log_den`` as ``exp`` of a difference of logs: a
    double wherever the ratio is, also where neither norm is (NaN at 0 / 0)."""
    num = weighted_table(values, grid, p, w).solve(rel_tol=rel_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        return num, np.exp(num.log_value - log_den)


def inner_norm(values: np.ndarray, grid: Grid, inner_exponent: float) -> np.ndarray:
    """The profile ``x -> ||F(x, .)||_{L^inner}`` of each bivariate
    function F of a ``(..., *grid.shape)`` value stack on a 2D grid, as a
    ``(..., grid.shape[0])`` stack on the grid of its first axis; the
    inner exponent is a positive constant."""
    if grid.dim != 2:
        raise DomainError("mixed norms need a bivariate grid function")
    if inner_exponent <= 0.0 or not math.isfinite(inner_exponent):
        raise DomainError("inner exponent must be a finite positive constant")
    wy = grid.axis_grid(1).quad_weights
    with np.errstate(over="ignore"):
        return np.sum(wy * np.abs(values) ** inner_exponent, axis=-1) ** (1.0 / inner_exponent)


# no library caller; bench/layers.py traces it by name until its counters move inside
def mixed_norm(F: GridFunction, inner_exponent: float, outer_p: ExponentField,
               outer_weight: WeightField | None = None,
               rel_tol: float = 1e-10) -> RowNorms:
    """Norm of ``x -> ||F(x, .)||_{L^inner}`` in ``L^outer_p(v)``.

    ``F`` lives on a 2D grid whose first axis is the outer variable.
    The inner exponent is a positive constant; the outer exponent and
    weight live on the first-axis 1D grid.
    """
    inner = inner_norm(F.values, F.grid, inner_exponent)
    return weighted_norm(GridFunction(F.grid.axis_grid(0), inner), outer_p, outer_weight, rel_tol)


def holder_constant(p: ExponentField) -> float:
    """Working convention for the two-factor Hoelder constant:
    ``1/p_- - 1/p_+ + 1`` (equal to 1 exactly when p is constant, and
    invariant under duality)."""
    return 1.0 / p.p_minus - 1.0 / p.p_plus + 1.0
