"""Exponent fields, reciprocal algebra, log-Hoelder estimates, quadruples."""

import gc
import math
import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varleb import (Box, DomainError, ExponentField, Grid, QuadrupleSpec,
                    RangeError, SchemaError, dual_exponent, harmonic_combine,
                    nu_exponent, component_exponent, reciprocal_affine, scale_exponent,
                    theta_blend, theta_invert, two_to_one_data, validate_quadruple)
from varleb.exponent import _log_holder_reports, _pair_sample

from _support import UNIT, closure_chain, rand_exponent

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


def test_grid_field_in_2d_is_bilinear_between_its_nodes():
    box = Box((0.0, 0.0), (1.0, 2.0))
    table = [[1.5, 2.0, 2.5], [3.0, 3.5, 4.0]]
    p = ExponentField.from_descriptor({"kind": "grid", "values": table}, box)
    assert p.values_on(Grid(box, (2, 3))).tolist() == table
    assert p(np.array([[0.5, 1.0], [0.25, 0.5]])).tolist() == [2.75, 2.125]
    assert (p.p_minus, p.p_plus) == (1.5, 4.0)
    # the table is 1.5 + 1.5 x + 0.5 y, which bilinear interpolation keeps
    assert p.values_on(Grid(box, (3, 5))).tolist() == [
        [1.5, 1.75, 2.0, 2.25, 2.5], [2.25, 2.5, 2.75, 3.0, 3.25], [3.0, 3.25, 3.5, 3.75, 4.0]]


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


def test_invert_of_a_field_against_itself_is_certified_by_the_widened_scan():
    """``1/p0 = 2/p - 1/p`` for p = 1.1 + 3.9x: the interval bound of the
    reciprocal, 2/5 - 1/1.1, is below 0, so the scan certifies it and
    widens p's own bounds by 1e-6."""
    box = Box((0.0,), (1.0,))
    p = ExponentField.affine(box, 1.1, (3.9,))
    p0 = theta_invert(p, p, 0.5)
    grid = Grid(box, (1001,))
    assert np.max(np.abs(p0.values_on(grid) - p.values_on(grid))) <= 4.5e-16
    assert p0.p_minus == pytest.approx(1.1 * (1.0 - 1e-6), rel=1e-15)
    assert p0.p_plus == pytest.approx(5.0 * (1.0 + 1e-6), rel=1e-15)


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


# -- grid fields and constant reciprocals ---------------------------------


@pytest.mark.parametrize("values_, grid", [
    ([1.7] * 1001, Grid(UNIT, (4096,))),
    (np.full((3, 3), 1.7), Grid(Box((0.0, 0.0), (1.0, 1.0)), (65, 65))),
    ([[1.7, 1.7, 1.2], [1.7, 1.7, 1.2], [1.2, 1.2, 1.1]], Grid(Box((0.0, 0.0), (1.0, 1.0)),
                                                                 (65, 65)))],
    ids=["1d-constant", "2d-constant", "2d-plateau"])
def test_grid_field_stays_inside_its_bounds_where_node_values_repeat(values_, grid):
    """Between repeated node values the interpolation weights can sum to 1
    within an ulp, which read outside the bounds at hundreds of nodes."""
    p = ExponentField.from_grid(grid.box, values_)
    got = p.values_on(grid)
    assert p.p_minus <= got.min() and got.max() <= p.p_plus
    if p.p_minus == p.p_plus:
        assert np.all(got == p.p_minus)


# the equal-bound field of each kind: value, box -> field
EQUAL_BOUND_KINDS = {
    "constant": lambda v, box: ExponentField.constant(box, v),
    "affine": lambda v, box: ExponentField.affine(box, v, (0.0,) * box.dim),
    "log_decay": lambda v, box: ExponentField.log_decay(box, v, 0.0),
    "piecewise": lambda v, box: ExponentField.piecewise(box, [0.3, 0.6], [v] * 3),
    "grid": lambda v, box: ExponentField.from_grid(box, np.full((5,) * box.dim, v)),
}
FOLD_GRIDS = [Grid(UNIT, (1025,)), Grid(Box((0.0, -1.0), (1.0, 2.0)), (33, 17))]


def _fold_cases(p, q):
    """(helper, derived field, its components, coefficients, offset) for
    every reciprocal helper on the fields p < q."""
    theta = 0.3
    spec = QuadrupleSpec((p,), q, (1.2,), 10.0)
    a, t = two_to_one_data(spec)
    return [
        ("dual_exponent", dual_exponent(p), (p,), (-1.0,), 1.0),
        ("harmonic_combine", harmonic_combine((p, q)), (p, q), (1.0, 1.0), 0.0),
        ("theta_blend", theta_blend(p, q, theta), (p, q), (1.0 - theta, theta), 0.0),
        ("theta_invert", theta_invert(p, q, theta), (p, q),
         (1.0 / (1.0 - theta), -theta / (1.0 - theta)), 0.0),
        ("scale_exponent", scale_exponent(p, 1.5), (p,), (1.0 / 1.5,), 0.0),
        ("nu_exponent", nu_exponent(p, 7.0), (p,), (1.0,), -1.0 / 7.0),
        ("component_exponent", component_exponent(q, 1.2), (q,), (-1.0,), 1.0 / 1.2),
        ("two_to_one_data", t, (q,), (a,), -a * (1.0 / 10.0)),
    ]


@pytest.mark.parametrize("grid", FOLD_GRIDS, ids=["1d", "2d"])
@pytest.mark.parametrize("kind", EQUAL_BOUND_KINDS)
def test_reciprocals_of_equal_bound_fields_fold_to_the_closure_chains_constant(kind, grid):
    """Every helper on equal-bound fields of each kind gives, bit for bit,
    the values of the closure chain on grids and on the log-Hoelder pair
    sample, with the bounds 1/r and the limit at infinity of the interval
    path."""
    make = EQUAL_BOUND_KINDS[kind]
    p, q = make(2.5, grid.box), make(4.0, grid.box)
    _, X, Y, *_ = _pair_sample(grid.box, 2000, 0)
    for name, derived, fields, coeffs, offset in _fold_cases(p, q):
        chain = closure_chain(fields, coeffs, offset)
        for g in (grid, derived.scan_grid):
            assert np.array_equal(derived.values_on(g), chain(g.coords)), name
        for pts in (X, Y):
            assert np.array_equal(derived(pts), chain(pts)), name
        r = float(offset)
        for f, c in zip(fields, coeffs):
            r += c / f.p_minus
        assert derived.p_minus == derived.p_plus == 1.0 / r, name
        assert np.all(derived.values_on(grid) == 1.0 / r), name
        if all(f.p_infinity is not None for f in fields):
            r_inf = offset + sum(c / f.p_infinity for f, c in zip(fields, coeffs))
            assert derived.p_infinity == 1.0 / r_inf, name
        else:
            assert derived.p_infinity is None, name


@pytest.mark.parametrize("box, point", [(UNIT, (0.0,)), (Box((0.0, -1.0), (1.0, 2.0)),
                                                        (0.0, -1.0))])
@pytest.mark.parametrize("kind", EQUAL_BOUND_KINDS)
def test_a_nonpositive_reciprocal_of_equal_bound_fields_is_refused_at_the_first_scan_node(
        kind, box, point):
    make = EQUAL_BOUND_KINDS[kind]
    with pytest.raises(RangeError) as exc:
        theta_invert(make(10.0, box), make(1.5, box), 0.5)
    assert str(exc.value) == (f"inverted blend endpoint has nonpositive reciprocal "
                              f"(at point {point})")
    assert exc.value.point == point


_COEFF = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))


@settings(max_examples=150, deadline=None)
@given(terms=st.lists(st.tuples(st.floats(0.5, 8.0), _COEFF), min_size=1, max_size=3),
       offset=st.floats(-2.0, 2.0, allow_subnormal=False))
def test_reciprocal_of_random_constants_equals_the_closure_chain(terms, offset):
    """A positive reciprocal folds to the chain's constant, with bounds
    1/r; a nonpositive one is refused at the first scan node."""
    fields = tuple(ExponentField.constant(UNIT, v) for v, _ in terms)
    coeffs = tuple(c for _, c in terms)
    r = offset
    for v, c in terms:
        r += c / v
    if r > 0.0:
        derived = reciprocal_affine(fields, coeffs, offset)
        assert np.array_equal(derived.values_on(SAMPLE),
                              closure_chain(fields, coeffs, offset)(SAMPLE.coords))
        assert derived.p_minus == derived.p_plus == 1.0 / r
    else:
        with pytest.raises(RangeError) as exc:
            reciprocal_affine(fields, coeffs, offset)
        assert str(exc.value) == "derived exponent has nonpositive reciprocal (at point (0.0,))"


# -- the flat form --------------------------------------------------------

FLAT_GRIDS = {1: Grid(UNIT, (257,)), 2: Grid(Box((0.0, -1.0), (1.0, 2.0)), (33, 17))}
_P = st.floats(1.3, 6.0)
_UNARY = ("dual", "scale", "nu", "component", "shifted", "t")
_BINARY = ("harmonic", "blend", "invert")


@st.composite
def _primitive(draw, dim):
    """The descriptor of an affine, log_decay, piecewise or grid exponent
    on a box of ``dim`` axes, with values in [0.55, 15]; one in four
    takes one value."""
    kind = draw(st.sampled_from(["affine", "log_decay", "piecewise", "grid"]))
    equal = draw(st.integers(0, 3)) == 0
    if kind == "affine":
        slopes = [0.0] * dim if equal else draw(st.lists(st.floats(-1.5, 1.5), min_size=dim,
                                                         max_size=dim))
        return {"kind": kind, "base": draw(_P) + 1.5 * sum(map(abs, slopes)), "slopes": slopes}
    if kind == "log_decay":
        return {"kind": kind, "p_infinity": draw(_P),
                "amplitude": 0.0 if equal else draw(st.floats(0.1, 2.0))}
    shape = (3,) if kind == "piecewise" else tuple(draw(st.lists(
        st.integers(2, 4), min_size=dim, max_size=dim)))
    values = np.full(shape, draw(_P)) if equal else np.array(draw(st.lists(
        _P, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    if kind == "piecewise":
        return {"kind": kind, "breakpoints": [0.3, 0.6], "values": values.tolist()}
    return {"kind": kind, "values": values.tolist()}


@st.composite
def _chain(draw, dim, depth, shifts_only=False):
    """A random chain of depth at most ``depth``: a primitive's descriptor,
    or (helper, parameter in [0.05, 0.9], components).  Under a shift only
    shifts and primitives, which the ``shifted_reciprocal`` kind writes."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_primitive(dim))
    name = "shifted" if shifts_only else draw(st.sampled_from(_UNARY + _BINARY))
    parts = tuple(draw(_chain(dim, depth - 1, name == "shifted"))
                  for _ in range(2 if name in _BINARY else 1))
    return name, draw(st.floats(0.05, 0.9)), parts


def _form(name, u, fields):
    """The coefficients and offset with which a helper writes 1/p, as the
    helper computes them."""
    p = fields[0]
    if name == "t":
        spec = QuadrupleSpec((p,), p, (u * p.p_minus,), 2.0 * p.p_plus)
        a = 1.0 / (1.0 / spec.r - 1.0 / spec.s - spec.gamma)
        return (a,), -a * (1.0 / spec.s)
    s = math.inf if u > 0.8 else p.p_plus / u
    return {"dual": ((-1.0,), 1.0), "scale": ((1.0 / (0.5 + 1.5 * u),), 0.0),
            "nu": ((1.0,), -1.0 / s), "component": ((-1.0,), 1.0 / (u * p.p_minus)),
            "shifted": ((1.0,), -(0.6 * u - 0.3)), "harmonic": ((1.0, 1.0), 0.0),
            "blend": ((1.0 - u, u), 0.0),
            "invert": ((1.0 / (1.0 - u), -u / (1.0 - u)), 0.0)}[name]


def _apply(name, u, fields, inner):
    """The field a helper builds on ``fields``; a shift reads the
    descriptor ``inner`` of its component."""
    p = fields[0]
    if name == "t":
        return two_to_one_data(QuadrupleSpec((p,), p, (u * p.p_minus,), 2.0 * p.p_plus))[1]
    if name == "shifted":
        return ExponentField.from_descriptor({"kind": "shifted_reciprocal", "inner": inner,
                                              "gamma": 0.6 * u - 0.3}, p.box)
    return {"dual": lambda: dual_exponent(p), "scale": lambda: scale_exponent(p, 0.5 + 1.5 * u),
            "nu": lambda: nu_exponent(p, math.inf if u > 0.8 else p.p_plus / u),
            "component": lambda: component_exponent(p, u * p.p_minus),
            "harmonic": lambda: harmonic_combine(fields),
            "blend": lambda: theta_blend(*fields, u),
            "invert": lambda: theta_invert(*fields, u)}[name]()


def _nested_reciprocal(refs, coeffs, offset, pts):
    """offset + sum c / ref(pts), summed from the left, and the sum of the
    magnitudes of its parts, the scale of its rounding."""
    recip, scale = offset, abs(offset)
    for ref, c in zip(refs, coeffs):
        recip, scale = recip + c / ref(pts), scale + abs(c / ref(pts))
    return recip, scale


def _check_chain(chain, box):
    """The field of ``chain``, its nested reference (`closure_chain` applied
    at every level), the reference's condition number and the descriptor,
    if a descriptor writes it.  A helper that refuses is replaced by its
    first component, once its refusal is checked against the reference.

    The condition number of a level is the magnitude of the parts of its
    reciprocal over the reciprocal, times one plus its components' worst:
    near-cancelling reciprocals (the dual of an exponent near 1, a blend
    inverted near its refusal) lose digits in the nested and the flat sum
    alike, and the two then agree to 1e-13 only relative to that loss."""
    if isinstance(chain, dict):
        p = ExponentField.from_descriptor(chain, box)
        return p, p, lambda pts: 0.0, chain
    name, u, parts = chain
    built = [_check_chain(part, box) for part in parts]
    fields, refs, conds, descs = zip(*built)
    coeffs, offset = _form(name, u, fields)
    scan = fields[0].scan_grid
    recip, scale = _nested_reciprocal(refs, coeffs, offset, scan.coords)
    try:
        derived = _apply(name, u, fields, descs[0])
    except RangeError as exc:
        if exc.point is not None:
            # the point is a scan node where the nested reciprocal is, to
            # rounding, nonpositive and least
            at = np.all(scan.coords == exc.point, axis=-1)
            assert at.sum() == 1
            tol = 1e-13 * scale.max()
            assert recip[at][0] <= tol and recip[at][0] <= recip.min() + tol
        return built[0]
    assert np.all(recip > -1e-13 * scale)
    ref = closure_chain(refs, coeffs, offset)
    assert all(not p.terms and p.fn is not None for _, p in derived.terms)
    assert (derived.fn is None) == bool(derived.terms)

    def cond(pts):
        recip, scale = _nested_reciprocal(refs, coeffs, offset, pts)
        return scale / np.abs(recip) * (1.0 + reduce(np.maximum, [c(pts) for c in conds]))

    _, X, Y, *_ = _pair_sample(box, 2000, 0)
    exact = all(not f.terms for f in fields)
    for pts, got in [(g.coords, derived.values_on(g)) for g in (FLAT_GRIDS[box.dim], scan)] + [
            (pts, derived(pts)) for pts in (X, Y)]:
        want = ref(pts)
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, cond(pts) / 10.0)
                          * np.abs(want))
    on_scan = derived.values_on(scan)
    assert derived.p_minus <= on_scan.min() and on_scan.max() <= derived.p_plus
    return derived, ref, cond, {"kind": "shifted_reciprocal", "inner": descs[0],
                                "gamma": 0.6 * u - 0.3} if name == "shifted" else None


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), data=st.data())
def test_a_derived_exponent_is_one_flat_form_over_primitives_that_agrees_with_the_nested_chain(
        dim, data):
    """Random chains of depth at most 3 over every reciprocal helper, the
    ``shifted_reciprocal`` kind and the ``t`` of `two_to_one_data`: at
    every level the terms are primitives, the values on a grid, the scan
    grid and the pair sample agree with the nested closure chains within
    1e-13 relative, and bit for bit where every component is a primitive
    (a depth-1 form, or one over folded constants), the bounds hold every
    scan value, and a refusal names a scan node where the nested
    reciprocal is nonpositive and least, to rounding."""
    _check_chain(data.draw(_chain(dim, 3)), FLAT_GRIDS[dim].box)


def test_a_primitive_reached_by_two_paths_is_evaluated_once_per_grid():
    """``p1`` enters theta_blend(theta_invert(p, p1, θ), p1, θ) twice, as
    two terms, and its evaluator runs once for the grid."""
    p, p1 = ExponentField.affine(UNIT, 3.0, (1.0,)), ExponentField.affine(UNIT, 2.0, (0.5,))
    derived = theta_blend(theta_invert(p, p1, 0.4), p1, 0.4)
    calls = []
    fn = p1.fn
    object.__setattr__(p1, "fn", lambda pts: calls.append(1) or fn(pts))
    derived.values_on(SAMPLE)
    assert len(calls) == 1
    assert [q for _, q in derived.terms] == [p, p1, p1]


def test_a_deep_shifted_reciprocal_chain_holds_one_term():
    """150 shifts of 1/p by gamma: one term over the inner primitive, with
    the offset -150 gamma."""
    desc, gamma = {"kind": "affine", "base": 2.0, "slopes": [1.0]}, 1e-3
    for _ in range(150):
        desc = {"kind": "shifted_reciprocal", "inner": desc, "gamma": gamma}
    p = ExponentField.from_descriptor(desc, UNIT)
    assert len(p.terms) == 1 and not p.terms[0][1].terms
    x = SAMPLE.coords[..., 0]
    np.testing.assert_allclose(values(p), 1.0 / (1.0 / (2.0 + x) - 150 * gamma), rtol=1e-13)


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


@pytest.mark.parametrize("lo, hi", [((0.0,), (1e160,)), ((-1e160, 0.0), (0.0, 1e160))],
                         ids=["1D", "2D"])
def test_log_decay_reads_the_radius_where_its_square_passes_the_float_range(lo, hi):
    """p(x) = 2 + 1/log(e + |x|) on a box whose nodes past the origin
    have squares beyond 1e308: every node reads its ``hypot`` radius, not
    inf, so p stays above 2 (about 2.0027), and p_- is p at the farthest
    corner."""
    box = Box(lo, hi)
    p = ExponentField.log_decay(box, 2.0, 1.0)
    grid = Grid(box, (5,) * box.dim)
    radius = np.hypot.reduce(grid.coords, axis=-1)
    np.testing.assert_allclose(p.values_on(grid), 2.0 + 1.0 / np.log(math.e + radius),
                               rtol=1e-15, atol=0.0)
    far = math.hypot(*(max(abs(a), abs(b)) for a, b in zip(lo, hi)))
    assert p.p_plus == 3.0
    assert p.p_minus == pytest.approx(2.0 + 1.0 / math.log(math.e + far), rel=1e-15)
    assert 2.0027 < p.p_minus < 2.0028


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
