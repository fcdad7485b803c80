"""Tests for the interpolation verifier: demo operators, blended-bound
experiments, mixed-norm variants, and the extrapolation builder."""

import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varleb import interp, norms
from varleb.errors import (ArityMismatchError, DomainError, RangeError,
                           SchemaError, SpecMismatchError)
from varleb.exponent import ExponentField, QuadrupleSpec
from varleb.field import Box, Grid, GridFunction, WeightField
from varleb.interp import (BallAverageProduct, EndpointSpace, FractionalKernel, Product,
                           _corpus_ratios, _draw_corpus, _slot_log_norms, apply_operator,
                           blend_spaces, build_extrapolation_family,
                           difference_field, run_extrapolation_workflow,
                           verify_interpolation_bound, verify_interpolation_bounds,
                           verify_mixed_interpolation_bound)
from varleb.norms import weighted_norm
from varleb.rk import mollify_family

from _support import SYM, UNIT, rand_exponent, rand_weight, simple_function, unit_weight


def _const_space(grid: Grid, p_values, q_value, bound=None) -> EndpointSpace:
    box = grid.box
    return EndpointSpace(tuple(ExponentField.constant(box, v) for v in p_values),
                         ExponentField.constant(box, q_value),
                         tuple(unit_weight(grid) for _ in p_values),
                         unit_weight(grid), bound)


def _abs_power(grid: Grid, a: float) -> WeightField:
    x = grid.coords[..., 0]
    return WeightField(grid, np.abs(x) ** a)


# ---------------------------------------------------------------------------
# operators and their application


def test_product_guards():
    Product(1)
    with pytest.raises(SchemaError, match="operator arity must be at least 1"):
        Product(0)


def test_ball_average_product_guards():
    BallAverageProduct(2, radius=0.1)
    with pytest.raises(SchemaError, match="operator arity must be at least 1"):
        BallAverageProduct(0, radius=0.1)
    with pytest.raises(SchemaError, match="ball averaging needs a positive radius"):
        BallAverageProduct(2, radius=0.0)


def test_fractional_kernel_guards():
    FractionalKernel(3, alpha=2.5)  # any alpha in (0, arity) is accepted
    with pytest.raises(SchemaError, match="operator arity must be at least 1"):
        FractionalKernel(0, alpha=0.5)
    with pytest.raises(RangeError):
        FractionalKernel(3, alpha=3.0)
    with pytest.raises(RangeError):
        FractionalKernel(1, alpha=1.5)
    with pytest.raises(DomainError, match="fractional kernels are 1D only"):
        apply_operator(FractionalKernel(1, alpha=0.5), np.ones((1, 5, 5)),
                       Grid(Box((0.0, 0.0), (1.0, 1.0)), (5, 5)))


def test_product_with_identity_factor_returns_the_function():
    g = Grid(UNIT, (257,))
    x = g.coords[..., 0]
    f = GridFunction(g, np.sin(3.0 * x))
    one = GridFunction(g, np.ones(g.shape))
    out = apply_operator(Product(2), np.stack([f.values, one.values]), g)
    assert np.array_equal(out, f.values)


def test_product_of_indicators_is_the_intersection_indicator():
    g = Grid(UNIT, (513,))
    x = g.coords[..., 0]
    chi_a = GridFunction(g, ((x >= 0.1) & (x <= 0.6)).astype(float))
    chi_b = GridFunction(g, ((x >= 0.4) & (x <= 0.9)).astype(float))
    out = apply_operator(Product(2), np.stack([chi_a.values, chi_b.values]), g)
    expect = ((x >= 0.4) & (x <= 0.6)).astype(float)
    assert np.array_equal(out, expect)


def test_apply_operator_arity_and_grid_mismatch():
    g = Grid(UNIT, (65,))
    with pytest.raises(ArityMismatchError, match="operator takes 2 inputs, got 1"):
        apply_operator(Product(2), np.ones((1, 65)), g)
    with pytest.raises(ArityMismatchError, match="operator takes 2 inputs, got 3"):
        apply_operator(Product(2), np.ones((4, 3, 65)), g)
    with pytest.raises(DomainError, match=r"\(2, 129\) are not a stack on the grid"):
        apply_operator(Product(2), np.ones((2, 129)), g)
    with pytest.raises(DomainError, match="not a stack"):
        apply_operator(Product(1), np.ones(65), g)


def test_operators_are_multilinear_on_random_probes():
    rng = np.random.default_rng(3)
    g = Grid(UNIT, (129,))
    ops = (Product(2), BallAverageProduct(2, radius=0.1), FractionalKernel(2, alpha=0.75),
           FractionalKernel(3, alpha=1.5))
    for op in ops:
        f = rng.normal(size=g.shape)
        gfun = rng.normal(size=g.shape)
        others = [rng.normal(size=g.shape) for _ in range(op.arity - 1)]
        a, b = 1.7, -0.4
        scale = None
        for j in range(op.arity):  # linearity in every slot
            def at(h):
                return apply_operator(op, np.stack(others[:j] + [h] + others[j:]), g)
            left = at(a * f + b * gfun)
            right = a * at(f) + b * at(gfun)
            scale = scale or max(np.max(np.abs(left)), 1.0)
            assert np.max(np.abs(left - right)) <= 1e-12 * scale


def test_fractional_kernel_matches_analytic_value_off_support():
    g = Grid(Box((-1.0,), (3.0,)), (4097,))
    x = g.coords[..., 0]
    chi = GridFunction(g, ((x >= 0.0) & (x <= 1.0)).astype(float))
    out = apply_operator(FractionalKernel(1, alpha=0.5), chi.values[None], g)
    i = int(np.argmin(np.abs(x - 2.0)))
    assert x[i] == 2.0
    # int_0^1 |2 - y|^(-1/2) dy
    assert abs(out[i] - 2.0 * (math.sqrt(2.0) - 1.0)) <= 1e-3


_KERNEL_CASES = [(1, 0.25), (1, 0.75), (2, 0.75), (2, 1.3), (3, 0.5), (3, 2.2)]


@pytest.mark.parametrize("m, alpha, block", [
    *(pytest.param(m, alpha, None, id=f"{m}-{alpha}") for m, alpha in _KERNEL_CASES),
    *(pytest.param(m, alpha, 16, id=f"{m}-{alpha}-blocks-of-16") for m, alpha in _KERNEL_CASES)])
def test_fractional_kernel_matches_a_direct_sum(m, alpha, block, monkeypatch):
    # sum over every node tuple y of (sum_j |x - y_j|)^(alpha - m)
    # prod_j f_j(y_j) qw, dropping only the cell y_1 = .. = y_m = x;
    # blocks of 16 nodes split 129 and 33 nodes unevenly, with a one-row tail
    if block is not None:
        monkeypatch.setattr(interp, "_NODES_PER_BLOCK", block)
    rng = np.random.default_rng(29)
    n = 33 if m == 3 else 129
    g = Grid(UNIT, (n,))
    x = g.coords[..., 0]
    dist = np.abs(x[:, None] - x[None, :])
    s = dist
    for j in range(1, m):
        s = s[..., None] + dist.reshape((n,) + (1,) * j + (n,))
    with np.errstate(divide="ignore"):
        kernel = np.where(s > 0.0, s, np.inf) ** (alpha - m)
    op = FractionalKernel(m, alpha=alpha)
    for signed in (False, True):
        fs = tuple(GridFunction(g, rng.normal(size=g.shape) if signed
                                else rng.uniform(0.5, 1.5, size=g.shape)) for _ in range(m))
        weights = fs[0].values * g.quad_weights
        for f in fs[1:]:
            weights = np.multiply.outer(weights, f.values * g.quad_weights)
        direct = (kernel * weights).reshape(n, -1).sum(axis=1)
        out = apply_operator(op, np.stack([f.values for f in fs]), g)
        if signed:
            assert np.max(np.abs(out - direct)) <= 1e-13 * np.max(np.abs(direct))
        else:
            assert np.max(np.abs(out / direct - 1.0)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_fractional_kernel_below_arity_three_convolves_nothing(m, monkeypatch):
    """At m <= 2 the kernel is one Hankel product per block of nodes, with
    no per-node convolution of histograms."""
    calls = []
    real = np.convolve
    monkeypatch.setattr(np, "convolve", lambda *a, **k: calls.append(1) or real(*a, **k))
    g = Grid(UNIT, (129,))
    fs = np.tile(np.linspace(1.0, 2.0, 129), (m, 1))
    out = apply_operator(FractionalKernel(m, alpha=0.5), fs, g)
    assert np.all(out > 0.0)
    assert calls == []


@pytest.mark.parametrize("n", [129, 100], ids=["n=1-mod-64", "n=36-mod-64"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["product", "ball_average_product", "fractional_kernel"])
def test_a_stack_of_trials_maps_as_each_trial_alone(kind, m, n):
    """A ``(2, 3, m, n)`` stack against each trial applied on its own:
    the same bits, except where a fractional trial alone ends in a
    one-row block (n = 1 mod 64).  There the last node goes through
    numpy's matrix-vector path alone, and at m = 1, where every block
    is a matrix-vector product, the last two nodes of the stack's short
    final block take that kernel's remainder path; both stay within
    1e-15 relative."""
    g = Grid(UNIT, (n,))
    op = {"product": Product(m), "ball_average_product": BallAverageProduct(m, radius=0.1),
          "fractional_kernel": FractionalKernel(m, alpha=0.75)}[kind]
    corpus = np.random.default_rng(10 * n + m).uniform(0.5, 1.5, size=(2, 3, m, n))
    stacked = apply_operator(op, corpus, g)
    assert stacked.shape == (2, 3, n)
    alone = np.array([apply_operator(op, fs, g) for fs in corpus.reshape(-1, m, n)])
    stacked = stacked.reshape(-1, n)
    tail = np.zeros(n, dtype=bool)
    tail[-2:] = kind == "fractional_kernel" and n % interp._NODES_PER_BLOCK == 1
    assert np.array_equal(stacked[:, ~tail], alone[:, ~tail])
    assert np.all(np.abs(stacked / alone - 1.0) <= 1e-15)
    if kind == "product":  # the left fold (f_1 f_2) f_3 of the old tuple path
        fold = [reduce(operator.mul, [GridFunction(g, f) for f in fs]).values
                for fs in corpus.reshape(-1, m, n)]
        assert np.array_equal(stacked, fold)


@pytest.mark.parametrize("kind", ["product", "ball_average_product"])
def test_a_2d_stack_of_trials_maps_as_each_trial_alone(kind):
    g = Grid(Box((0.0, -1.0), (1.0, 2.0)), (17, 33))
    op = {"product": Product(2), "ball_average_product": BallAverageProduct(2, radius=0.3)}[kind]
    corpus = np.random.default_rng(5).normal(size=(4, 2, 17, 33))
    stacked = apply_operator(op, corpus, g)
    assert stacked.shape == (4, 17, 33)
    assert np.array_equal(stacked, [apply_operator(op, fs, g) for fs in corpus])


def test_fractional_kernel_multiplies_no_more_rows_than_a_block(monkeypatch):
    """(trial, node) rows go through in blocks: no matrix product of a
    12-trial stack has more rows than ``_NODES_PER_BLOCK``."""
    rows = []
    real = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **k: rows.append(len(a)) or real(a, b, **k))
    g = Grid(UNIT, (129,))
    out = apply_operator(FractionalKernel(2, alpha=0.5),
                         np.ones((12, 2, 129)), g)
    assert out.shape == (12, 129)
    assert max(rows) <= interp._NODES_PER_BLOCK
    assert sum(rows) == 12 * 129


# ---------------------------------------------------------------------------
# blended-bound verification


def test_blend_spaces_guards():
    g = Grid(UNIT, (65,))
    s2 = _const_space(g, (4.0, 4.0), 2.0)
    s1 = _const_space(g, (2.0, 2.0), 1.0)
    with pytest.raises(DomainError):
        blend_spaces(s2, s1, 1.5)
    with pytest.raises(ArityMismatchError):
        blend_spaces(s2, _const_space(g, (2.0,), 2.0), 0.5)
    with pytest.raises(DomainError):
        blend_spaces(s2, _const_space(Grid(UNIT, (129,)), (2.0, 2.0), 1.0), 0.5)


def test_blend_spaces_midpoint_of_holder_endpoints():
    g = Grid(UNIT, (65,))
    blended = blend_spaces(_const_space(g, (4.0, 4.0), 2.0),
                           _const_space(g, (2.0, 2.0), 1.0), 0.5)
    for p in blended.p_vec:
        assert abs(p.p_minus - 8.0 / 3.0) < 1e-12
    assert abs(blended.q.p_minus - 4.0 / 3.0) < 1e-12


def test_holder_endpoints_give_zero_violations():
    g = Grid(UNIT, (257,))
    space0 = _const_space(g, (4.0, 4.0), 2.0, bound=1.0)
    space1 = _const_space(g, (2.0, 2.0), 1.0, bound=1.0)
    report = verify_interpolation_bound(Product(2), space0,
                                        space1, 0.5, trials=200, seed=11)
    assert report.passed
    assert report.worst_ratio <= 1.0 + report.slack
    # the classical inequality holds with constant one, so the supplied
    # endpoint bounds survive certification
    for cert in report.certificates:
        assert cert.supplied == 1.0
        assert not cert.inflated
        assert cert.bound == 1.0
        assert cert.max_ratio <= 1.0 + 1e-8


def test_equal_endpoints_degenerate_to_the_endpoint_inequality():
    g = Grid(UNIT, (257,))
    box = g.box
    p = ExponentField.constant(box, 3.0)
    q = ExponentField.constant(box, 1.5)
    space = EndpointSpace((p, p), q, (unit_weight(g), unit_weight(g)), unit_weight(g))
    for theta in (0.1, 0.5, 0.9):
        report = verify_interpolation_bound(Product(2), space,
                                            space, theta, trials=100, seed=5)
        assert report.passed, f"violation at theta={theta}"


def test_theta_near_zero_reproduces_endpoint_zero():
    g = Grid(UNIT, (257,))
    space = _const_space(g, (4.0, 4.0), 2.0)
    op = Product(2)
    at_zero = verify_interpolation_bound(op, space, space, 0.0, trials=60, seed=2)
    nearby = verify_interpolation_bound(op, space, space, 1e-6, trials=60, seed=2)
    assert abs(at_zero.worst_ratio - nearby.worst_ratio) <= 1e-9
    assert at_zero.passed and nearby.passed


def test_supplied_bound_is_kept_when_generous_and_inflated_when_beaten():
    g = Grid(UNIT, (257,))
    op = Product(2)
    generous0 = _const_space(g, (4.0, 4.0), 2.0, bound=1e6)
    generous1 = _const_space(g, (2.0, 2.0), 1.0, bound=1e6)
    report = verify_interpolation_bound(op, generous0, generous1, 0.5,
                                        trials=50, seed=4)
    assert all(c.bound == 1e6 and not c.inflated for c in report.certificates)

    tight0 = _const_space(g, (4.0, 4.0), 2.0, bound=1e-6)
    tight1 = _const_space(g, (2.0, 2.0), 1.0, bound=1e-6)
    report = verify_interpolation_bound(op, tight0, tight1, 0.5,
                                        trials=50, seed=4)
    for cert in report.certificates:
        assert cert.inflated
        assert cert.bound == pytest.approx(1.05 * cert.max_ratio, rel=1e-12)
    assert report.passed


def test_certified_bound_is_monotone_in_the_trial_budget():
    g = Grid(UNIT, (257,))
    op = Product(2)
    space0 = _const_space(g, (4.0, 4.0), 2.0)
    space1 = _const_space(g, (2.0, 2.0), 1.0)
    small = verify_interpolation_bound(op, space0, space1, 0.5, trials=40, seed=9)
    large = verify_interpolation_bound(op, space0, space1, 0.5, trials=80, seed=9)
    for c_small, c_large in zip(small.certificates, large.certificates):
        assert c_large.max_ratio >= c_small.max_ratio


def test_fractional_endpoints_blend_without_violations():
    g = Grid(Box((1.0,), (2.0,)), (257,))
    box = g.box
    op = FractionalKernel(1, alpha=0.125)
    # gamma = alpha relates input to output exponents: 1/q = 1/p - gamma
    space0 = EndpointSpace((ExponentField.constant(box, 2.0),),
                           ExponentField.constant(box, 8.0 / 3.0),
                           (_abs_power(g, 0.125),), _abs_power(g, 0.125))
    space1 = EndpointSpace((ExponentField.constant(box, 4.0),),
                           ExponentField.constant(box, 8.0),
                           (_abs_power(g, 0.25),), _abs_power(g, 0.25))
    report = verify_interpolation_bound(op, space0, space1, 0.5,
                                        trials=120, seed=17)
    assert report.passed
    assert all(c.max_ratio > 0.0 for c in report.certificates)


def test_verification_is_deterministic_per_seed():
    g = Grid(UNIT, (257,))
    op = Product(2)
    space0 = _const_space(g, (4.0, 4.0), 2.0)
    space1 = _const_space(g, (2.0, 2.0), 1.0)
    a = verify_interpolation_bound(op, space0, space1, 0.3, trials=30, seed=21)
    b = verify_interpolation_bound(op, space0, space1, 0.3, trials=30, seed=21)
    assert a == b


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 2), trials=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
       weighted=st.booleans(), scale=st.floats(0.1, 10.0), zero=st.integers(0, 9))
def test_corpus_ratios_match_a_per_trial_norm_loop(m, trials, seed, weighted, scale, zero):
    rng = np.random.default_rng(seed)
    g = Grid(UNIT, (129,))
    weight = (lambda: rand_weight(g, rng)) if weighted else (lambda: unit_weight(g))
    space = EndpointSpace(tuple(rand_exponent(g.box, rng) for _ in range(m)),
                          rand_exponent(g.box, rng),
                          tuple(weight() for _ in range(m)), weight())
    corpus = np.array([[simple_function(g, rng).values for _ in range(m)]
                       for _ in range(trials)])
    if zero < trials:  # one trial with a zero input
        corpus[zero, 0] = 0.0
    outputs = apply_operator(Product(m), corpus, g)
    ratios = _corpus_ratios(_slot_log_norms(corpus, g, space, 1e-10), outputs, g, space,
                            scale, 1e-10)
    for fs, Tf, got in zip(corpus, outputs, ratios):
        den = scale
        for f, p, w in zip(fs, space.p_vec, space.w_vec):
            den *= weighted_norm(GridFunction(g, f), p, w).value
        num = weighted_norm(GridFunction(g, Tf), space.q, space.v).value
        want = num / den if den > 0.0 else 0.0
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_corpus_ratios_refuse_an_infinite_norm_over_an_infinite_norm_naming_the_trial():
    """The last line of defence of the log-space ratios: an infinite input
    gives an infinite output, and inf - inf in log space is refused."""
    g = Grid(UNIT, (65,))
    corpus = np.ones((2, 1, 65))
    corpus[1, 0, 7] = math.inf
    outputs = apply_operator(Product(1), corpus, g)
    with pytest.raises(DomainError, match="^interpolation ratio of trial 1 is NaN: output log "
                                          "norm inf over input log norm inf$"):
        space = _const_space(g, (2.0,), 2.0)
        _corpus_ratios(_slot_log_norms(corpus, g, space, 1e-10), outputs, g, space, 1.0, 1e-10)


def test_verifiers_reject_an_empty_corpus():
    g = Grid(UNIT, (65,))
    space = _const_space(g, (4.0, 4.0), 2.0)
    op = Product(2)
    for trials in (0, -3):
        with pytest.raises(DomainError, match="trials"):
            verify_interpolation_bound(op, space, space, 0.5, trials=trials)
        with pytest.raises(DomainError, match="trials"):
            verify_mixed_interpolation_bound(op, space, space, 0.5, qtilde=0.75,
                                             trials=trials)


@pytest.mark.parametrize("mixed", [False, True])
def test_halved_certificates_report_shrunken_violations(mixed):
    # safety 0.5 halves both certified bounds, so the blended bound fails
    # on the trials that came close to the endpoint bounds
    g = Grid(UNIT, (129,))
    space0 = _const_space(g, (4.0, 4.0), 2.0)
    space1 = _const_space(g, (2.0, 2.0), 1.0)
    op = Product(2)
    kwargs = dict(trials=20, seed=3, safety=0.5)
    if mixed:
        report = verify_mixed_interpolation_bound(op, space0, space1, 0.5,
                                                  qtilde=0.75, offset_count=4, **kwargs)
    else:
        report = verify_interpolation_bound(op, space0, space1, 0.5, **kwargs)
    assert not report.passed
    trials = [v.trial for v in report.violations]
    assert trials == sorted(set(trials))
    corpus = _draw_corpus(g, 2, 20, 3)
    for v in report.violations:
        assert v.ratio > 1.0 + report.slack
        assert v.ratio <= report.worst_ratio
        support = int(np.count_nonzero(corpus[v.trial]))
        assert 1 <= v.support_cells <= support


def _count_solves(monkeypatch):
    """Count `norms.lux_rows` calls, the one Luxemburg solver."""
    calls = []
    solve = norms.lux_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(norms, "lux_rows", counted)
    return calls


@pytest.mark.parametrize("m", [1, 2])
def test_a_passing_verification_solves_three_batches_per_slot(monkeypatch, m):
    g = Grid(UNIT, (129,))
    op = Product(m)
    space0 = _const_space(g, (4.0,) * m, 4.0 / m)
    space1 = _const_space(g, (2.0,) * m, 2.0 / m)
    calls = _count_solves(monkeypatch)
    for trials in (1, 7, 40):
        for verify, extra in ((verify_interpolation_bound, {}),
                              (verify_mixed_interpolation_bound, {"qtilde": 0.5})):
            calls.clear()
            report = verify(op, space0, space1, 0.5, trials=trials, seed=1, **extra)
            assert report.passed
            assert len(calls) == 3 * (m + 1)



@pytest.mark.parametrize("m", [1, 2])
def test_both_bounds_in_one_pass_draw_one_corpus_and_solve_each_input_slot_once(monkeypatch,
                                                                              m):
    """3m input-slot solves (both endpoints and the blend) and three output
    solves per map, where the two verifiers called apart make 6m + 6."""
    g = Grid(UNIT, (129,))
    space0 = _const_space(g, (4.0,) * m, 4.0 / m)
    space1 = _const_space(g, (2.0,) * m, 2.0 / m)
    calls = _count_solves(monkeypatch)
    draws = []
    draw = interp._draw_corpus
    monkeypatch.setattr(interp, "_draw_corpus", lambda *args: draws.append(args) or draw(*args))
    reports = verify_interpolation_bounds(Product(m), space0, space1, 0.5, qtilde=0.5,
                                          trials=7, seed=1)
    assert [type(r) for r in reports] == [interp.InterpolationReport,
                                          interp.MixedInterpolationReport]
    assert all(r.passed for r in reports)
    assert len(draws) == 1
    assert len(calls) == 3 * m + 6


@pytest.mark.parametrize("case", ["product", "ball_average", "fractional_kernel", "violating"])
def test_both_bounds_in_one_pass_equal_the_two_separate_verifiers(case):
    g = Grid(UNIT, (129,))
    space0 = _const_space(g, (4.0, 4.0), 2.0)
    space1 = _const_space(g, (2.0, 2.0), 1.0)
    op, kwargs = Product(2), dict(trials=20, seed=3)
    if case == "ball_average":
        op = BallAverageProduct(2, radius=0.1)
    elif case == "fractional_kernel":
        g = Grid(Box((1.0,), (2.0,)), (129,))
        box = g.box
        op = FractionalKernel(1, alpha=0.125)
        space0 = EndpointSpace((ExponentField.constant(box, 2.0),),
                               ExponentField.constant(box, 8.0 / 3.0),
                               (_abs_power(g, 0.125),), _abs_power(g, 0.125))
        space1 = EndpointSpace((ExponentField.constant(box, 4.0),),
                               ExponentField.constant(box, 8.0),
                               (_abs_power(g, 0.25),), _abs_power(g, 0.25))
    elif case == "violating":  # halved certificates: the blended bound fails
        kwargs["safety"] = 0.5
    mixed = dict(qtilde=0.75, offset_count=4)
    plain, profiles = verify_interpolation_bounds(op, space0, space1, 0.4, **mixed, **kwargs)
    # dataclass equality: certificates, worst ratio, and each violation's
    # trial, ratio and shrunken witness size
    assert plain == verify_interpolation_bound(op, space0, space1, 0.4, **kwargs)
    assert profiles == verify_mixed_interpolation_bound(op, space0, space1, 0.4, **mixed,
                                                        **kwargs)
    assert verify_interpolation_bounds(op, space0, space1, 0.4, **kwargs) == [plain]
    assert bool(plain.violations and profiles.violations) == (case == "violating")


# ---------------------------------------------------------------------------
# mixed-norm variant


def test_difference_field_geometry_and_zero_offset_column():
    g = Grid(UNIT, (129,))
    x = g.coords[..., 0]
    Tf = np.sin(2.0 * x)
    S, ygrid = difference_field(Tf, g, 4)
    assert ygrid.shape == S.shape == (129, 9)
    h = g.steps[0]
    assert ygrid.box.lo[1] == pytest.approx(-4.0 * h)
    assert np.array_equal(S[:, 4], np.zeros(129))
    with pytest.raises(DomainError):
        difference_field(Tf, g, 0)
    # an offset of n steps reaches no node, and is refused before any allocation
    with pytest.raises(DomainError, match="offset_count 129 must be below the 129 grid nodes"):
        difference_field(Tf, g, 129)
    g2 = Grid(Box((0.0, 0.0), (1.0, 1.0)), (9, 9))
    with pytest.raises(DomainError):
        difference_field(np.ones(g2.shape), g2, 2)


def _difference_columns(Tf, offset_count):
    """The difference field one offset column at a time, as a reference."""
    n = Tf.grid.size
    padded = np.concatenate([np.zeros(offset_count), Tf.values, np.zeros(offset_count)])
    return np.stack([Tf.values - padded[offset_count + k + np.arange(n)]
                     for k in range(-offset_count, offset_count + 1)], axis=1)


@pytest.mark.parametrize("offset_count", [1, 4, 128])
def test_difference_field_equals_the_column_by_column_field(offset_count):
    g = Grid(SYM, (129,))
    Tf = GridFunction(g, np.random.default_rng(7).normal(size=129))
    S, ygrid = difference_field(Tf.values, g, offset_count)
    assert ygrid.shape == S.shape == (129, 2 * offset_count + 1)
    assert np.array_equal(S, _difference_columns(Tf, offset_count))


def test_difference_of_constant_output_vanishes_identically():
    g = Grid(UNIT, (257,))
    const = np.full(g.shape, 3.25)
    out = apply_operator(Product(2), np.stack([const, const]), g)
    S, _ = difference_field(out, g, 8)
    # zero extension past the box leaves T(x) - 0 at the edges, so only
    # interior columns vanish; the zero-offset column always does
    assert np.max(np.abs(S[:, 8])) == 0.0
    interior = S[8:-8, :]
    assert np.max(np.abs(interior)) == 0.0


def test_mixed_bound_rejects_qtilde_at_the_output_floor():
    g = Grid(UNIT, (129,))
    space0 = _const_space(g, (4.0, 4.0), 2.0)
    space1 = _const_space(g, (2.0, 2.0), 1.0)
    with pytest.raises(DomainError):
        verify_mixed_interpolation_bound(Product(2), space0,
                                         space1, 0.5, qtilde=1.0, trials=5)


def test_mixed_bound_on_holder_data_has_zero_violations():
    g = Grid(UNIT, (257,))
    space0 = _const_space(g, (4.0, 4.0), 2.0)
    space1 = _const_space(g, (2.0, 2.0), 1.0)
    h = g.steps[0]
    offsets = int(math.floor(0.1 / h))
    report = verify_mixed_interpolation_bound(Product(2),
                                              space0, space1, 0.5, qtilde=0.75,
                                              offset_count=offsets, trials=150,
                                              seed=13)
    assert report.passed
    assert report.offsets == offsets
    assert report.worst_ratio <= 1.0 + report.slack


# ---------------------------------------------------------------------------
# extrapolation builder


def _quadruple(box, p_values, q_value, r_values, s):
    return QuadrupleSpec(tuple(ExponentField.constant(box, v) for v in p_values),
                         ExponentField.constant(box, q_value), r_values, s)


def test_build_fixed_point_returns_the_shared_endpoint():
    g = Grid(SYM, (2048,))
    spec = _quadruple(SYM, (8.0 / 3.0,), 8.0 / 3.0, (1.5,), 6.0)
    w = (_abs_power(g, 0.0625),)
    build = build_extrapolation_family(spec, w, spec, w, 0.5)
    assert abs(build.spec0.p_vec[0].p_minus - 8.0 / 3.0) < 1e-12
    assert np.max(np.abs(build.w0_vec[0].values - w[0].values)) < 1e-12
    assert build.roundtrip_exponent_error <= 1e-10
    assert build.roundtrip_weight_error <= 1e-10
    assert build.verdict0.admissible


def test_build_closed_form_inversion_with_power_weights():
    g = Grid(SYM, (2048,))
    target = _quadruple(SYM, (8.0 / 3.0,), 8.0 / 3.0, (1.5,), 6.0)
    spec1 = _quadruple(SYM, (2.0,), 2.0, (1.5,), 6.0)
    w = (_abs_power(g, 0.0625),)
    w1 = (unit_weight(g),)
    build = build_extrapolation_family(target, w, spec1, w1, 0.5)
    assert abs(build.spec0.p_vec[0].p_minus - 4.0) < 1e-12
    assert abs(build.spec0.q.p_minus - 4.0) < 1e-12
    x = g.coords[..., 0]
    assert np.max(np.abs(build.w0_vec[0].values - np.abs(x) ** 0.125)) < 1e-12
    assert build.verdict0.admissible
    assert not build.constant0.overflow
    assert math.isfinite(build.constant0.constant)
    assert build.roundtrip_exponent_error <= 1e-10
    assert build.roundtrip_weight_error <= 1e-10


def test_build_rejects_theta_that_leaves_the_admissible_range():
    g = Grid(SYM, (2048,))
    target = _quadruple(SYM, (8.0 / 3.0,), 8.0 / 3.0, (1.5,), 6.0)
    spec1 = _quadruple(SYM, (2.0,), 2.0, (1.5,), 6.0)
    w = (_abs_power(g, 0.0625),)
    with pytest.raises(RangeError):
        build_extrapolation_family(target, w, spec1, (unit_weight(g),), 0.99)


def test_build_input_guards():
    g = Grid(SYM, (2048,))
    spec = _quadruple(SYM, (8.0 / 3.0,), 8.0 / 3.0, (1.5,), 6.0)
    w = (_abs_power(g, 0.0625),)
    with pytest.raises(DomainError):
        build_extrapolation_family(spec, w, spec, w, 0.0)
    other = _quadruple(SYM, (8.0 / 3.0,), 8.0 / 3.0, (1.25,), 6.0)
    with pytest.raises(SpecMismatchError):
        build_extrapolation_family(spec, w, other, w, 0.5)
    two = _quadruple(SYM, (4.0, 4.0), 2.0, (1.5, 1.5), 6.0)
    with pytest.raises(ArityMismatchError):
        build_extrapolation_family(spec, w, two, (w[0], w[0]), 0.5)


# ---------------------------------------------------------------------------
# workflow ladder


def test_workflow_all_ones_sanity_run_is_consistent_compact():
    g = Grid(Box((-2.0,), (2.0,)), (1025,))
    box = g.box
    x = g.coords[..., 0]
    target = _quadruple(box, (4.0, 4.0), 2.0, (1.5, 1.5), 6.0)
    ones = (unit_weight(g), unit_weight(g))
    left = mollify_family(GridFunction(g, np.exp(-4.0 * x ** 2)), 5,
                          sigma=0.15, ratio=0.01)
    right = mollify_family(GridFunction(g, np.exp(-6.0 * x ** 2)), 5,
                           sigma=0.15, ratio=0.01)
    inputs = np.stack([left.values, right.values], axis=1)
    report = run_extrapolation_workflow(Product(2), inputs, g,
                                        target, ones, target, ones,
                                        thetas=(0.25, 0.5, 0.75))
    assert report.verdict == "consistent-compact"
    assert abs(report.qtilde - 0.75) < 1e-12
    for entry in report.entries:
        assert entry.built and entry.admissible and entry.roundtrip_ok
        assert math.isfinite(entry.endpoint_max_ratio)
        assert abs(entry.constant0 - 1.0) <= 1e-6


def test_workflow_isolates_an_invalid_theta():
    g = Grid(SYM, (2048,))
    x = g.coords[..., 0]
    target = _quadruple(SYM, (8.0 / 3.0,), 8.0 / 3.0, (1.5,), 6.0)
    spec1 = _quadruple(SYM, (2.0,), 2.0, (1.5,), 6.0)
    fam = mollify_family(GridFunction(g, np.exp(-4.0 * x ** 2)), 4,
                         sigma=0.15, ratio=0.01)
    report = run_extrapolation_workflow(Product(1), fam.values[:, None], g,
                                        target, (_abs_power(g, 0.0625),),
                                        spec1, (unit_weight(g),),
                                        thetas=(0.3, 0.99))
    good, bad = report.entries
    assert good.built and good.error == ""
    assert not bad.built
    assert "reciprocal" in bad.error or "range" in bad.error.lower()
    assert bad.constant0 is None and bad.endpoint_max_ratio is None


def test_workflow_solves_one_batch_per_slot_per_built_theta(monkeypatch):
    g = Grid(SYM, (512,))
    x = g.coords[..., 0]
    target = _quadruple(SYM, (8.0 / 3.0,), 8.0 / 3.0, (1.5,), 6.0)
    spec1 = _quadruple(SYM, (2.0,), 2.0, (1.5,), 6.0)
    fam = mollify_family(GridFunction(g, np.exp(-4.0 * x ** 2)), 4,
                         sigma=0.15, ratio=0.01)
    calls = _count_solves(monkeypatch)
    inside = []  # solves made by the classification and the cube scans

    def counting(fn):
        def wrapped(*args, **kwargs):
            before = len(calls)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.append(len(calls) - before)
        return wrapped

    monkeypatch.setattr(interp, "classify", counting(interp.classify))
    monkeypatch.setattr(interp, "multilinear_constant",
                        counting(interp.multilinear_constant))
    report = run_extrapolation_workflow(Product(1),
                                        fam.values[:, None], g, target,
                                        (_abs_power(g, 0.0625),), spec1, (unit_weight(g),),
                                        thetas=(0.3, 0.5, 0.99))
    built = sum(e.built for e in report.entries)
    assert built == 2
    assert len(calls) - sum(inside) == 2 * built


def _refusal_cases():
    grid = Grid(UNIT, (33,))
    wide = Box((0.0,), (2.0,))
    spec = QuadrupleSpec((ExponentField.constant(UNIT, 2.0),), ExponentField.constant(UNIT, 4.0),
                         (1.2,), 10.0)
    wide_spec = QuadrupleSpec((ExponentField.constant(wide, 2.0),),
                              ExponentField.constant(wide, 4.0), (1.2,), 10.0)
    space = _const_space(grid, [2.0], 2.0)
    return {
        "endpoint-box": (lambda: EndpointSpace(
            (ExponentField.constant(wide, 2.0),), ExponentField.constant(UNIT, 2.0),
            (unit_weight(grid),), unit_weight(grid)),
            DomainError, "endpoint exponents live on a different box"),
        "operator-arity": (lambda: verify_interpolation_bound(Product(2), space, space, 0.5),
                           ArityMismatchError, "operator arity does not match the endpoint"),
        "extrapolation-boxes": (lambda: build_extrapolation_family(
            spec, (unit_weight(grid),), wide_spec, (unit_weight(grid),), 0.5),
            SpecMismatchError, "target and endpoint live on different boxes"),
        "workflow-weights": (lambda: run_extrapolation_workflow(
            Product(1), np.ones((1, 1, 33)), grid, spec, (), spec, (unit_weight(grid),), [0.5]),
            ArityMismatchError, "0 weights against arity 1"),
    }


@pytest.mark.parametrize("case", sorted(_refusal_cases()))
def test_each_interpolation_refusal_names_its_fault(case):
    call, error, fault = _refusal_cases()[case]
    with pytest.raises(error, match=fault):
        call()
