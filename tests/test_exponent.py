"""Exponent fields, reciprocal algebra, log-Hoelder estimates, quadruples."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varleb import (Box, DomainError, ExponentField, Grid, QuadrupleSpec,
                    RangeError, SchemaError, dual_exponent, harmonic_combine,
                    nu_exponent, component_exponent, scale_exponent, theta_blend,
                    theta_invert, two_to_one_data, validate_quadruple)
from varleb.exponent import _log_holder_reports, _pair_sample

from _support import UNIT, rand_exponent

SAMPLE = Grid(UNIT, (1025,))


def values(p):
    return p.values_on(SAMPLE)


# -- field construction -------------------------------------------------


def test_constant_field_bounds():
    p = ExponentField.constant(UNIT, 2.5)
    assert p.p_minus == p.p_plus == 2.5
    assert p.in_P
    assert np.all(values(p) == 2.5)


def test_affine_field_corner_bounds():
    p = ExponentField.affine(UNIT, 2.0, (1.0,))
    assert (p.p_minus, p.p_plus) == (2.0, 3.0)


def test_field_class_gate():
    with pytest.raises(RangeError):
        ExponentField.constant(UNIT, 0.0)
    weak = ExponentField.constant(UNIT, 0.7)
    assert not weak.in_P
    with pytest.raises(RangeError):
        weak.require_P()


def test_piecewise_field_steps():
    p = ExponentField.piecewise(UNIT, [0.25, 0.75], [2.0, 5.0, 3.0])
    pts = np.array([[0.1], [0.5], [0.9]])
    assert p(pts).tolist() == [2.0, 5.0, 3.0]
    with pytest.raises(SchemaError):
        ExponentField.piecewise(UNIT, [0.75, 0.25], [2.0, 5.0, 3.0])


def test_descriptor_round_trip():
    p = ExponentField.affine(UNIT, 2.0, (0.5,))
    q = ExponentField.from_descriptor({"kind": "affine", "base": 2.0, "slopes": [0.5]}, UNIT)
    assert np.allclose(values(p), values(q))
    with pytest.raises(SchemaError):
        ExponentField.from_descriptor({"kind": "affine", "base": 2.0, "slopes": [0.5],
                                       "typo": 1}, UNIT)


@pytest.mark.parametrize("desc, key", [
    ({"kind": "constant"}, "value"),
    ({"kind": "affine", "base": 2.0}, "slopes"),
    ({"kind": "log_decay", "amplitude": 0.5}, "p_infinity"),
    ({"kind": "piecewise", "values": [2.0]}, "breakpoints"),
    ({"kind": "grid"}, "values"),
    ({"kind": "shifted_reciprocal", "inner": {"kind": "constant", "value": 2.0}},
     "gamma"),
])
def test_descriptor_requires_the_keys_of_its_kind(desc, key):
    with pytest.raises(SchemaError, match=f"missing keys \\['{key}'\\]"):
        ExponentField.from_descriptor(desc, UNIT)


def test_values_on_is_cached_per_field_and_freed_with_it():
    desc = {"kind": "affine", "base": 2.0, "slopes": [0.5]}
    p = ExponentField.from_descriptor(desc, UNIT)
    assert values(p) is values(p)
    # equal descriptors parse to distinct fields, each with its own values
    assert values(ExponentField.from_descriptor(desc, UNIT)) is not values(p)
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_shifted_reciprocal_descriptor():
    desc = {"kind": "shifted_reciprocal", "inner": {"kind": "constant", "value": 2.0},
            "gamma": 0.25}
    q = ExponentField.from_descriptor(desc, UNIT)
    assert np.allclose(values(q), 4.0)


# -- duals ----------------------------------------------------------------


def test_dual_constant_two_self():
    assert values(dual_exponent(ExponentField.constant(UNIT, 2.0))).max() == pytest.approx(2.0)


def test_dual_constant_four():
    d = dual_exponent(ExponentField.constant(UNIT, 4.0))
    assert np.allclose(values(d), 4.0 / 3.0)


def test_dual_affine_pointwise():
    p = ExponentField.affine(UNIT, 2.0, (1.0,))
    d = dual_exponent(p)
    x = SAMPLE.coords[..., 0]
    assert np.allclose(values(d), (2.0 + x) / (1.0 + x), atol=1e-12)
    assert d(np.array([[0.0]]))[0] == pytest.approx(2.0)
    assert d(np.array([[1.0]]))[0] == pytest.approx(1.5)


def test_dual_requires_P():
    with pytest.raises(RangeError):
        dual_exponent(ExponentField.constant(UNIT, 1.0))


def test_dual_involution_random_fields():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = rand_exponent(UNIT, rng)
        back = dual_exponent(dual_exponent(p))
        assert np.max(np.abs(values(back) - values(p))) < 1e-12


def test_dual_swaps_bounds():
    p = ExponentField.affine(UNIT, 2.0, (1.0,))
    d = dual_exponent(p)
    assert d.p_minus == pytest.approx(3.0 / 2.0)
    assert d.p_plus == pytest.approx(2.0)


# -- harmonic combination ---------------------------------------------------


def test_harmonic_combine_pairs():
    two = ExponentField.constant(UNIT, 2.0)
    assert np.allclose(values(harmonic_combine((two, two))), 1.0)
    four = ExponentField.constant(UNIT, 4.0)
    assert np.allclose(values(harmonic_combine((four,) * 3)), 4.0 / 3.0)


def test_harmonic_combine_variable():
    p = harmonic_combine((ExponentField.affine(UNIT, 2.0, (1.0,)),
                          ExponentField.constant(UNIT, 3.0)))
    assert p(np.array([[0.0]]))[0] == pytest.approx(6.0 / 5.0)
    assert p(np.array([[1.0]]))[0] == pytest.approx(3.0 / 2.0)


def test_harmonic_combine_permutation_invariant():
    rng = np.random.default_rng(9)
    fields = [rand_exponent(UNIT, rng) for _ in range(3)]
    a = harmonic_combine(fields)
    b = harmonic_combine(fields[::-1])
    assert np.allclose(values(a), values(b), atol=1e-13)


def test_harmonic_combine_empty():
    with pytest.raises(DomainError):
        harmonic_combine(())


# -- blends ------------------------------------------------------------------


def test_blend_fixed_point():
    p = ExponentField.affine(UNIT, 2.0, (1.0,))
    for theta in (0.1, 0.5, 0.9):
        assert np.allclose(values(theta_blend(p, p, theta)), values(p), atol=1e-13)


def test_blend_constant_endpoints():
    p0 = ExponentField.constant(UNIT, 4.0)
    p1 = ExponentField.constant(UNIT, 2.0)
    assert np.allclose(values(theta_blend(p0, p1, 0.5)), 8.0 / 3.0)


def test_blend_variable_against_formula():
    p0 = ExponentField.affine(UNIT, 2.0, (1.0,))
    p1 = ExponentField.constant(UNIT, 3.0)
    got = values(theta_blend(p0, p1, 0.25))
    x = SAMPLE.coords[..., 0]
    want = 1.0 / (0.75 / (2.0 + x) + 0.25 / 3.0)
    assert np.allclose(got, want, atol=1e-12)


def test_blend_rejects_bad_theta():
    p = ExponentField.constant(UNIT, 2.0)
    with pytest.raises(DomainError):
        theta_blend(p, p, 1.5)
    with pytest.raises(DomainError):
        theta_blend(p, p, -0.1)


@settings(max_examples=40, deadline=None)
@given(p0=st.floats(1.2, 8.0), p1=st.floats(1.2, 8.0),
       theta=st.floats(0.05, 0.95))
def test_blend_invert_round_trip_constants(p0, p1, theta):
    f0 = ExponentField.constant(UNIT, p0)
    f1 = ExponentField.constant(UNIT, p1)
    blended = theta_blend(f0, f1, theta)
    back = theta_invert(blended, f1, theta)
    assert np.max(np.abs(values(back) - p0)) < 1e-12


def test_invert_blend_example():
    p = ExponentField.constant(UNIT, 8.0 / 3.0)
    p1 = ExponentField.constant(UNIT, 2.0)
    assert np.allclose(values(theta_invert(p, p1, 0.5)), 4.0, atol=1e-12)


def test_invert_round_trip_variable():
    p = ExponentField.affine(UNIT, 2.0, (1.0,))
    p1 = ExponentField.constant(UNIT, 3.0)
    p0 = theta_invert(p, p1, 0.3)
    back = theta_blend(p0, p1, 0.3)
    assert np.max(np.abs(values(back) - values(p))) < 1e-12


def test_invert_reports_violating_point():
    p = ExponentField.constant(UNIT, 10.0)
    p1 = ExponentField.constant(UNIT, 1.5)
    with pytest.raises(RangeError):
        theta_invert(p, p1, 0.5)


def test_a_nonpositive_reciprocal_names_its_point_in_python_floats():
    box = Box((0.0, 0.0), (1.0, 2.0))
    p = ExponentField.affine(box, 10.0, (1.0, 0.5))
    with pytest.raises(RangeError) as exc:
        theta_invert(p, ExponentField.constant(box, 1.5), 0.5)
    assert str(exc.value) == ("inverted blend endpoint has nonpositive reciprocal "
                              "(at point (1.0, 2.0))")
    assert exc.value.point == (1.0, 2.0)
    assert all(type(x) is float for x in exc.value.point)


def test_scale_exponent():
    p = ExponentField.affine(UNIT, 2.0, (1.0,))
    assert np.allclose(values(scale_exponent(p, 0.5)), values(p) * 0.5)
    with pytest.raises(DomainError):
        scale_exponent(p, 0.0)


# -- log-Hoelder estimates ------------------------------------------------


def log_holder(p, budget=2000, seed=0):
    """The log-Hoelder estimates of one field, from its own pair sample."""
    return _log_holder_reports((p,), budget, seed)[0]


def test_log_holder_constant_is_zero():
    r = log_holder(ExponentField.constant(UNIT, 3.3), budget=100)
    assert r.c0_estimate == 0.0 and r.c_infinity_estimate == 0.0


def test_log_holder_decay_model_field():
    """p(x) = 2 + 1/log(e+|x|) satisfies |p(x)-2| log(e+|x|) = 1
    exactly, so the decay estimate sits at 1 for any budget."""
    box = Box((-50.0,), (50.0,))
    p = ExponentField.log_decay(box, 2.0, 1.0)
    r = log_holder(p, budget=4000)
    assert r.p_infinity_declared and r.p_infinity == 2.0
    assert r.c_infinity_estimate <= 1.0 + 1e-9
    assert r.c_infinity_estimate == pytest.approx(1.0, abs=1e-9)


def test_log_holder_affine_stays_bounded():
    """An affine exponent is log-Hoelder continuous with local constant
    sup t(-log t) = 1/e; the sampled estimate can never exceed it."""
    p = ExponentField.affine(UNIT, 2.0, (1.0,))
    r = log_holder(p, budget=10 ** 5)
    assert r.c0_estimate <= 1.0 / math.e + 1e-12
    assert r.c0_estimate == pytest.approx(1.0 / math.e, rel=1e-6)


def test_log_holder_flags_discontinuous_field():
    """A step exponent is the genuinely non-log-Hoelder case: pairs
    straddling the jump push the estimate above 10 at a 1e5 budget."""
    p = ExponentField.piecewise(UNIT, [0.5], [1.5, 6.0])
    r = log_holder(p, budget=10 ** 5)
    assert r.c0_estimate > 10.0
    assert r.c_log >= r.c0_estimate


def test_log_holder_monotone_in_budget():
    p = ExponentField.piecewise(UNIT, [0.5], [1.5, 6.0])
    small = log_holder(p, budget=500).c0_estimate
    large = log_holder(p, budget=2000).c0_estimate
    assert small <= large



@pytest.mark.parametrize("box", [UNIT, Box((-1.0, 0.0), (2.0, 0.5))])
def test_log_holder_reports_reuse_one_read_only_pair_sample(box):
    fields = (ExponentField.affine(box, 2.0, (1.0,) * box.dim),
              ExponentField.piecewise(box, [0.5], [1.5, 6.0]) if box.dim == 1
              else ExponentField.constant(box, 3.0))
    _pair_sample.cache_clear()
    first = _log_holder_reports(fields, 300, 4)
    assert _log_holder_reports(fields, 300, 4) == first
    assert _pair_sample.cache_info()[:2] == (1, 1)  # (hits, misses)
    _pair_sample.cache_clear()
    assert _log_holder_reports(fields, 300, 4) == first
    *arrays, pairs_used = _pair_sample(box, 300, 4)
    assert pairs_used == first[0].pairs_used
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0

def reference_log_holder(p, budget, seed):
    """The per-pair loop ``_log_holder_reports`` used to run, kept as
    the reference for the sample's order and values."""
    from varleb.exponent import LogHolderReport
    box = p.box
    diam = box.diameter
    corners = np.array(np.meshgrid(*(np.array([a, b]) for a, b in zip(box.lo, box.hi)),
                                   indexing="ij")).reshape(box.dim, -1).T
    r_corners = np.sqrt(np.sum(corners ** 2, axis=1))
    far_corner = corners[int(np.argmax(r_corners))]
    if p.p_infinity is not None:
        p_inf, declared = float(p.p_infinity), True
    else:
        p_inf, declared = float(p(np.array([far_corner]))[0]), False
    anchors = [np.array(box.center)] + [0.75 * np.array(box.center) + 0.25 * c for c in corners]
    xs, ys = [], []
    for anchor in anchors:
        for k in range(1, 24):
            d = diam * 2.0 ** (-k)
            for axis in range(box.dim):
                step = np.zeros(box.dim)
                step[axis] = d
                xs.append(anchor)
                ys.append(np.clip(anchor + step, box.lo, box.hi))
    rng = np.random.default_rng(seed)
    draws = rng.uniform(size=(budget, 2 * box.dim + 1))
    x_rand = np.array(box.lo) + draws[:, : box.dim] * np.array(box.widths)
    direction = draws[:, box.dim: 2 * box.dim] - 0.5
    norms = np.maximum(np.sqrt(np.sum(direction ** 2, axis=1)), 1e-12)
    direction = direction / norms[:, None]
    d_rand = diam * np.exp(draws[:, -1] * (math.log(1e-9) - math.log(0.5)) + math.log(0.5))
    y_rand = np.clip(x_rand + direction * d_rand[:, None], box.lo, box.hi)
    xs.extend(x_rand)
    ys.extend(y_rand)
    X = np.asarray(xs)
    Y = np.asarray(ys)
    dist = np.sqrt(np.sum((X - Y) ** 2, axis=1))
    px = p(X)
    py = p(Y)
    near = (dist > 0.0) & (dist < 0.5)
    c0 = float(np.max(np.abs(px - py)[near] * (-np.log(dist[near])))) if near.any() else 0.0
    r_all = np.sqrt(np.sum(X ** 2, axis=1))
    c_inf = float(np.max(np.abs(px - p_inf) * np.log(math.e + r_all)))
    return LogHolderReport(c0, c_inf, int(near.sum()), p_inf, declared)


def sample_fields(box):
    """One field of each kind on the box, primitive and derived."""
    lo0, w0 = box.lo[0], box.widths[0]
    const = ExponentField.constant(box, 2.5)
    affine = ExponentField.affine(box, 3.0 + sum(abs(a) + abs(b) for a, b in
                                                 zip(box.lo, box.hi)), (0.3,) * box.dim)
    decay = ExponentField.log_decay(box, 2.0, 0.7)
    step = ExponentField.piecewise(box, [lo0 + 0.4 * w0], [1.5, 4.0])
    return {"constant": const, "affine": affine, "log_decay": decay, "piecewise": step,
            "theta_invert": theta_invert(const, affine, 0.3),
            "harmonic_combine": harmonic_combine((affine, decay, step))}


LH_BOXES = [UNIT, Box((-3.0,), (0.5,)), Box((2.0,), (7.5,)),
            Box((0.0, 0.0), (1.0, 1.0)), Box((-1.5, 0.25), (2.0, 4.0))]


@pytest.mark.parametrize("box", LH_BOXES, ids=lambda b: str([list(p) for p in zip(b.lo, b.hi)]))
def test_log_holder_sample_matches_reference_loop(box):
    for name, p in sample_fields(box).items():
        for budget in (1, 7, 2000):
            for seed in (0, 11):
                assert (log_holder(p, budget, seed)
                        == reference_log_holder(p, budget, seed)), (name, budget, seed)


# -- quadruples ---------------------------------------------------------------


def constant_quadruple(p_vals, q_val, r_vec, s, gamma=None):
    p_vec = tuple(ExponentField.constant(UNIT, v) for v in p_vals)
    return QuadrupleSpec(p_vec, ExponentField.constant(UNIT, q_val), r_vec, s,
                         gamma)


def test_quadruple_admissible_example():
    spec = constant_quadruple((4.0, 4.0), 2.0, (1.0, 1.0), math.inf, gamma=0.0)
    verdict = validate_quadruple(spec)
    assert verdict.admissible and verdict.proper
    assert verdict.gamma == pytest.approx(0.0, abs=1e-12)


def test_quadruple_declared_gamma_mismatch():
    spec = constant_quadruple((4.0, 4.0), 3.0, (1.0, 1.0), math.inf, gamma=0.0)
    verdict = validate_quadruple(spec)
    assert not verdict.admissible
    assert not verdict.clauses["gamma_matches_declared"]
    assert any("declared" in f for f in verdict.failures)


def test_quadruple_fractional_gamma():
    q = 1.0 / (1.0 / 2.0 - 1.0 / 4.0)
    spec = constant_quadruple((2.0,), q, (1.0,), math.inf, gamma=0.25)
    verdict = validate_quadruple(spec)
    assert verdict.admissible
    assert verdict.gamma == pytest.approx(0.25, abs=1e-12)


def test_quadruple_r_clause():
    spec = constant_quadruple((2.0,), 4.0, (2.5,), math.inf)
    verdict = validate_quadruple(spec)
    assert not verdict.admissible and not verdict.clauses["r_below_p_minus"]


def test_quadruple_s_clause():
    spec = constant_quadruple((4.0, 4.0), 2.0, (1.0, 1.0), 1.5)
    verdict = validate_quadruple(spec)
    assert not verdict.clauses["q_plus_below_s"]


def test_quadruple_gamma_constant_clause():
    p = ExponentField.affine(UNIT, 2.0, (1.0,))
    spec = QuadrupleSpec((p,), ExponentField.constant(UNIT, 4.0), (1.0,), math.inf)
    verdict = validate_quadruple(spec)
    assert not verdict.clauses["gamma_constant"]


def test_quadruple_combined_arithmetic():
    spec = constant_quadruple((4.0, 4.0), 2.0, (1.0, 2.0), math.inf)
    assert spec.m == 2
    assert spec.r == pytest.approx(1.0 / (1.0 + 0.5))
    assert np.allclose(values(spec.p_combined), 2.0)


def test_two_to_one_data_example():
    q = 1.0 / (1.0 / 2.0 - 1.0 / 4.0)   # gamma = 1/4 against p = 2
    spec = constant_quadruple((2.0,), q, (1.0,), math.inf)
    a, t = two_to_one_data(spec)
    assert a == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert np.allclose(values(t), 3.0, atol=1e-12)
    # a*t carries the nu exponent and a*t' the component exponent
    at = a * values(t)
    assert np.allclose(at, values(nu_exponent(spec.q, spec.s)), atol=1e-10)
    td = values(t) / (values(t) - 1.0)
    assert np.allclose(a * td, values(component_exponent(spec.p_vec[0], 1.0)),
                       atol=1e-10)


def test_two_to_one_requires_unary():
    spec = constant_quadruple((4.0, 4.0), 2.0, (1.0, 1.0), math.inf)
    with pytest.raises(Exception):
        two_to_one_data(spec)


def test_nu_and_component_exponent_gates():
    q = ExponentField.constant(UNIT, 2.0)
    with pytest.raises(RangeError):
        nu_exponent(q, 1.5)
    p = ExponentField.constant(UNIT, 2.0)
    with pytest.raises(RangeError):
        component_exponent(p, 2.0)


def step_quadruple(q):
    """On [0, 1]: p_vec = (constant 4, step 1.5 -> 6.0 at 1/2), r = (1, 1)."""
    p_vec = (ExponentField.constant(UNIT, 4.0), ExponentField.piecewise(UNIT, [0.5], [1.5, 6.0]))
    return QuadrupleSpec(p_vec, q, (1.0, 1.0), math.inf)


@pytest.mark.parametrize("q, worst", [
    (ExponentField.constant(UNIT, 2.0), 1),
    (ExponentField.piecewise(UNIT, [0.5], [1.2, 12.0]), 2),
])
def test_quadruple_log_holder_clause_names_the_worst_field(q, worst):
    spec = step_quadruple(q)
    verdict = validate_quadruple(spec)
    assert not verdict.proper and not verdict.clauses["log_holder"]
    c_logs = [log_holder(f).c_log for f in (*spec.p_vec, spec.q)]
    assert int(np.argmax(c_logs)) == worst
    assert f"log-Hoelder estimate {max(c_logs):.3g} exceeds threshold 10" in verdict.failures


def test_quadruple_log_holder_message_pins_the_estimate():
    verdict = validate_quadruple(step_quadruple(ExponentField.constant(UNIT, 2.0)))
    assert "log-Hoelder estimate 32.5 exceeds threshold 10" in verdict.failures


def test_quadruple_verdict_lists_every_clause_and_failure_in_order():
    p_vec = (ExponentField.constant(UNIT, 4.0), ExponentField.piecewise(UNIT, [0.5], [1.5, 6.0]))
    spec = QuadrupleSpec(p_vec, ExponentField.constant(UNIT, 2.0), (1.0, 2.0), 1.5, 1.0)
    verdict = validate_quadruple(spec)
    assert list(verdict.clauses.items()) == [
        ("r_below_p_minus", False), ("q_plus_below_s", False), ("gamma_constant", False),
        ("gamma_nonnegative", True), ("gamma_matches_declared", False), ("log_holder", False)]
    assert verdict.failures == (
        "r_j < (p_j)_- fails at components [(1, 2.0, 1.5)]",
        "q_+ = 2.0 is not below s = 1.5",
        "1/p - 1/q varies by 5.000e-01 (> tol 1.0e-09)",
        "derived gamma 0.166667 does not match the declared value 1",
        "log-Hoelder estimate 32.5 exceeds threshold 10")
    assert not verdict.admissible and not verdict.proper
    assert verdict.gamma == 0.16666666666666657


def test_quadruple_draws_one_log_holder_sample(monkeypatch):
    made = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    _pair_sample.cache_clear()
    spec = step_quadruple(ExponentField.constant(UNIT, 2.0))
    assert spec.m == 2
    validate_quadruple(spec)
    assert len(made) == 1
    validate_quadruple(spec)  # the sample of the box is cached
    assert len(made) == 1
