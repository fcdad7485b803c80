"""Seeded workloads of varleb CLI jobs, and the checks on their reports.

A workload is a list of rounds.  Every round holds the same job kinds in
the same order, with parameters drawn from ``random.Random(seed)``, so
the share of failed jobs is the same in every run whatever the seed and
the number of rounds.  A job is a dict:

``command``      the CLI command (``varleb <command> run``)
``config``       the JSON config varleb receives
``check``        the name of the check applied to its report
``base``         for a twin job, the index of the job it is a multiple of
``factor``       the factor of that multiple
``expect_fail``  the check fails today because of a known fault

Checks compare each report with computations from ``reference`` (numpy,
no varleb) or with properties the method must have; never with stored
reports.  A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
import random

import numpy as np

import reference as ref

ONE = {"kind": "sine", "frequency": 0.0, "phase": math.pi / 2, "amplitude": 1.0}
UNIT1 = [[0.0, 1.0]]
UNIT2 = [[0.0, 1.0], [0.0, 1.0]]

# relative tolerances of the checks; the solver runs at rel_tol 1e-10
CLOSED_FORM_TOL = 1e-8
NORM_TWIN_TOL = 1e-9      # ||c f|| = |c| ||f||
CONSTANT_TWIN_TOL = 1e-8  # [10^k w] = [w]
MODULAR_TOL = 1e-12
ROUNDOFF = 1e-12


def _off_node(rng, lo, hi, cells):
    """A point in (lo, hi) a third of a step away from every node, so a
    power weight centred there stays finite and positive."""
    h = (hi - lo) / cells
    k = rng.randint(int(0.2 * cells), int(0.8 * cells))
    return lo + (k + 0.37) * h


def _center(rng, box):
    return [rng.uniform(a + 0.2 * (b - a), b - 0.2 * (b - a)) for a, b in box]


def _weight(rng, box, cells, kind):
    if kind == "gaussian":
        return {"kind": "gaussian", "center": _center(rng, box),
                "width": rng.uniform(0.3, 1.0)}
    return {"kind": "power", "exponent": rng.uniform(-0.3, 0.35),
            "center": [_off_node(rng, a, b, cells) for a, b in box]}


def _p_exponent(rng, dim, constant):
    """An exponent in the class P (p_- > 1) on the unit box."""
    if constant:
        return {"kind": "constant", "value": rng.uniform(1.5, 3.0)}
    return {"kind": "affine", "base": rng.uniform(1.6, 2.4),
            "slopes": [rng.uniform(-0.25, 0.25) for _ in range(dim)]}


def _bump_or_gaussian(rng, box, kind=None):
    if (kind or rng.choice(["gaussian", "bump"])) == "gaussian":
        return {"kind": "gaussian", "center": _center(rng, box),
                "width": rng.uniform(0.05, 0.3)}
    return {"kind": "bump", "center": _center(rng, box), "radius": rng.uniform(0.1, 0.4)}


# ---------------------------------------------------------------------------
# cube-scan: weight constants over dyadic cube families


def cube_scan_round(rng):
    """Eight jobs; every cost-setting choice (command, grid, depth,
    exponent kind, weight kind) is fixed per slot, only values are drawn."""
    def weight_constant(box, cells, depth, constant, weight):
        dim = len(box)
        return {"box": box, "resolution": cells, "cube_depth": depth,
                "exponent": _p_exponent(rng, dim, constant),
                "weight": _weight(rng, box, cells, weight)}

    wc1c = weight_constant(UNIT1, 4096, 6, True, "power")
    wc1a = weight_constant(UNIT1, 4096, 6, False, "gaussian")
    wc2c = weight_constant(UNIT2, 256, 4, True, "gaussian")
    wc2a = weight_constant(UNIT2, 256, 4, False, "power")
    twin = dict(wc1c, weight={"kind": "product", "terms": [
        wc1c["weight"], dict(ONE, amplitude=10.0 ** rng.choice([-8, -5, -2, 3, 6, 8]))]})

    p1, p2 = rng.uniform(2.5, 4.5), rng.uniform(2.5, 4.5)
    gamma = rng.uniform(0.0, 0.2)
    q = 1.0 / (1.0 / p1 + 1.0 / p2 - gamma)
    ml = {"box": UNIT1, "resolution": 4096, "cube_depth": 6,
          "quadruple": {"p_vec": [{"kind": "constant", "value": p1},
                                  {"kind": "constant", "value": p2}],
                        "q": {"kind": "constant", "value": q},
                        "r_vec": [rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)],
                        "s": rng.choice(["inf", q * rng.uniform(1.5, 3.0)])},
          "weights": [_weight(rng, UNIT1, 4096, "gaussian"),
                      _weight(rng, UNIT1, 4096, "power")]}

    def two_to_one(p, weight):
        p_minus = ref.exponent_bounds(p, UNIT1)[0]
        return {"box": UNIT1, "resolution": 4096, "cube_depth": 6,
                "quadruple": {"p_vec": [p],
                              "q": {"kind": "shifted_reciprocal", "inner": p,
                                    "gamma": rng.uniform(0.0, 0.15)},
                              "r_vec": [rng.uniform(1.0, 0.9 * p_minus)], "s": "inf"},
                "weight": _weight(rng, UNIT1, 4096, weight)}

    t21c = two_to_one({"kind": "constant", "value": rng.uniform(2.2, 3.0)}, "gaussian")
    t21a = two_to_one({"kind": "affine", "base": rng.uniform(2.2, 3.0),
                       "slopes": [rng.uniform(-0.5, 0.5)]}, "power")
    return [
        {"command": "weight-constant", "config": wc1c, "check": "weight_constant"},
        {"command": "weight-constant", "config": wc1a, "check": "weight_constant"},
        {"command": "weight-constant", "config": wc2c, "check": "weight_constant"},
        {"command": "weight-constant", "config": wc2a, "check": "weight_constant"},
        {"command": "multilinear-constant", "config": ml, "check": "multilinear_constant"},
        {"command": "two-to-one", "config": t21c, "check": "two_to_one"},
        {"command": "two-to-one", "config": t21a, "check": "two_to_one"},
        {"command": "weight-constant", "config": twin, "check": "weight_constant",
         "base": 0, "factor": 1.0},
    ]


def _s_inv(s):
    return 0.0 if s == "inf" else 1.0 / s


def _is_constant(desc):
    return desc["kind"] == "constant"


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_weight_constant(job, res, reports):
    cfg = job["config"]
    out = []
    c = res["constant"]
    p_minus, p_plus = ref.exponent_bounds(cfg["exponent"], cfg["box"])
    holder = 1.0 / (1.0 / p_minus - 1.0 / p_plus + 1.0)
    if not c >= holder * (1.0 - ROUNDOFF):
        out.append(f"constant {c} below the Hoelder bound {holder}")
    if _is_constant(cfg["exponent"]):
        grid = ref.grid_of(cfg)
        w = ref.function_values(cfg["weight"], grid)
        p = cfg["exponent"]["value"]
        want = ref.cube_constant(grid, cfg["cube_depth"],
                                 [(w, p), (1.0 / w, p / (p - 1.0))], -1.0)
        if _rel(c, want) > CLOSED_FORM_TOL:
            out.append(f"constant {c} vs per-cube closed form {want}")
    return out


def _two_index_factors(grid, quad, weights):
    """(values, exponent) factors and the measure power of the two-index
    constant, for constant exponents."""
    inv_s = _s_inv(quad["s"])
    ps = [d["value"] for d in quad["p_vec"]]
    q = quad["q"]["value"] if _is_constant(quad["q"]) else None
    if q is None:  # shifted reciprocal of a constant
        q = 1.0 / (1.0 / quad["q"]["inner"]["value"] - quad["q"]["gamma"])
    gamma = sum(1.0 / p for p in ps) - 1.0 / q
    inv_r = sum(1.0 / r for r in quad["r_vec"])
    nu = np.prod(weights, axis=0)
    factors = [(nu, 1.0 / (1.0 / q - inv_s))]
    factors += [(1.0 / w, 1.0 / (1.0 / r - 1.0 / p))
                for w, p, r in zip(weights, ps, quad["r_vec"])]
    return factors, gamma - (inv_r - inv_s)


def check_multilinear_constant(job, res, reports):
    cfg = job["config"]
    out = []
    if not res["admissible"]:
        out.append("admissible quadruple reported inadmissible")
    grid = ref.grid_of(cfg)
    weights = [ref.function_values(d, grid) for d in cfg["weights"]]
    factors, power = _two_index_factors(grid, cfg["quadruple"], weights)
    want = ref.cube_constant(grid, cfg["cube_depth"], factors, power)
    if _rel(res["constant"], want) > CLOSED_FORM_TOL:
        out.append(f"constant {res['constant']} vs per-cube closed form {want}")
    return out


def check_two_to_one(job, res, reports):
    cfg = job["config"]
    out = []
    if not res["passed"] or not res["rel_error"] <= res["tol"]:
        out.append(f"two-to-one identity off by {res['rel_error']}")
    quad = cfg["quadruple"]
    if _is_constant(quad["p_vec"][0]):
        grid = ref.grid_of(cfg)
        w = ref.function_values(cfg["weight"], grid)
        factors, power = _two_index_factors(grid, quad, [w])
        want = ref.cube_constant(grid, cfg["cube_depth"], factors, power)
        if _rel(res["lhs_constant"], want) > CLOSED_FORM_TOL:
            out.append(f"lhs constant {res['lhs_constant']} vs per-cube closed form {want}")
    return out


# ---------------------------------------------------------------------------
# maximal-sweep: FFT ball sums over radius ladders


def maximal_sweep_round(rng):
    """Four jobs with fixed grids, radius counts, exponent kinds, function
    kinds and weighting; only values are drawn."""
    jobs = []
    for box, cells, radii, constant, function, weighted in (
            (UNIT1, 4096, 64, True, "gaussian", False),
            (UNIT1, 16384, 64, True, "bump", True),
            (UNIT2, 128, 64, False, "gaussian", True),
            (UNIT2, 256, 32, True, "bump", False)):
        cfg = {"box": box, "resolution": cells, "radii_count": radii,
               "qtilde": rng.uniform(0.5, 1.4),
               "exponent": _p_exponent(rng, len(box), constant),
               "function": _bump_or_gaussian(rng, box, function)}
        if weighted:
            cfg["weight"] = {"kind": "gaussian", "center": _center(rng, box),
                             "width": rng.uniform(0.5, 1.5)}
        jobs.append({"command": "maximal", "config": cfg, "check": "maximal"})
    return jobs


def check_maximal(job, res, reports):
    cfg = job["config"]
    out = []
    grid = ref.grid_of(cfg)
    f = ref.function_values(cfg["function"], grid)
    sup = float(np.max(np.abs(f)))
    if not res["dominance_min"] >= -ROUNDOFF * sup:
        out.append(f"M f falls below |f| by {-res['dominance_min']}")
    if not res["ratio"] >= 1.0:
        out.append(f"norm ratio {res['ratio']} below 1")
    if not _is_constant(cfg["exponent"]):
        return out
    p = cfg["exponent"]["value"]
    w = ref.function_values(cfg["weight"], grid) if "weight" in cfg else 1.0
    want_in = ref.closed_form_norm(f * w, p, grid.qw)
    if _rel(res["norm_input"], want_in) > CLOSED_FORM_TOL:
        out.append(f"norm_input {res['norm_input']} vs closed form {want_in}")
    if grid.dim == 1:
        radii = ref.geometric_radii(grid, cfg["radii_count"])
        mf = ref.maximal_1d(f, grid.qw, grid.steps[0], cfg["qtilde"], radii)
        want = ref.closed_form_norm(mf * w, p, grid.qw)
        if _rel(res["norm_maximal"], want) > CLOSED_FORM_TOL:
            out.append(f"norm_maximal {res['norm_maximal']} vs prefix-sum reference {want}")
    return out


# ---------------------------------------------------------------------------
# compactness: rk-classify, extrapolate, interp-verify


def compactness_round(rng):
    """Six jobs with fixed grids, family sizes, trial counts and operators;
    only values are drawn.  Parameters keep each verdict the theory
    predicts: translates run off the vanishing ball, mollifications
    collapse below the grid step, modulations stay resolvable."""
    p_tr = rng.uniform(1.5, 3.0)
    width = rng.uniform(0.18, 0.25)
    count = 8
    first, last = rng.uniform(1.0, 1.2), rng.uniform(9.5, 9.8)
    translate = {"box": [[0.0, 10.0]], "resolution": 4096,
                 "exponent": {"kind": "constant", "value": p_tr}, "weight": ONE,
                 "qtilde": 1.0,
                 "family": {"kind": "translate", "count": count,
                            "step": (last - first) / (count - 1),
                            "base": {"kind": "gaussian", "center": [first], "width": width}}}

    mollify = {"box": [[-2.0, 2.0]], "resolution": 2048,
               "exponent": {"kind": "constant", "value": rng.uniform(1.5, 3.0)},
               "weight": ONE, "qtilde": 1.0,
               "family": {"kind": "mollify", "count": 7,
                          "sigma": rng.uniform(0.1, 0.2), "ratio": 0.01,
                          "base": {"kind": "gaussian", "center": [0.0],
                                   "width": rng.uniform(0.4, 0.6)}}}

    modulate = {"box": UNIT1, "resolution": 4096,
                "exponent": {"kind": "constant", "value": rng.uniform(1.5, 3.0)},
                "weight": ONE, "qtilde": 1.0,
                "family": {"kind": "modulate", "count": 7,
                           "base_frequency": rng.uniform(2.0, 4.0),
                           "growth": rng.uniform(1.5, 2.0),
                           "base": {"kind": "gaussian", "center": [0.5],
                                    "width": rng.uniform(0.12, 0.2)}}}

    ps = [rng.uniform(3.0, 5.0), rng.uniform(3.0, 5.0)]
    target = {"p_vec": [{"kind": "constant", "value": p} for p in ps],
              "q": {"kind": "constant", "value": 1.0 / sum(1.0 / p for p in ps)},
              "r_vec": [rng.uniform(1.0, 1.4), rng.uniform(1.0, 1.4)], "s": "inf"}
    ps1 = [p * (1.0 + rng.uniform(-0.05, 0.05)) for p in ps]
    endpoint1 = dict(target, p_vec=[{"kind": "constant", "value": p} for p in ps1],
                     q={"kind": "constant", "value": 1.0 / sum(1.0 / p for p in ps1)})
    extrapolate = {"box": [[-2.0, 2.0]], "resolution": 1024,
                   "target": target, "endpoint1": endpoint1,
                   "weights": [ONE, ONE], "weights1": [ONE, ONE],
                   "thetas": [0.1, 0.25, 0.4, 0.55, 0.7],
                   "operator": {"kind": "product", "arity": 2},
                   "family": dict(mollify["family"], count=5)}

    def endpoint(p, q, weights=(ONE, ONE), v=ONE):
        return {"p_vec": [{"kind": "constant", "value": p}] * 2,
                "q": {"kind": "constant", "value": q},
                "weights": list(weights), "v": v}

    alpha = rng.uniform(0.2, 0.8)
    p0 = rng.uniform(2.5, 4.0)
    p1 = p0 * rng.uniform(1.0, 1.2)
    fractional = {"box": UNIT1, "resolution": 128, "theta": rng.uniform(0.2, 0.8),
                  "trials": 12, "seed": rng.randint(0, 2 ** 31),
                  "operator": {"kind": "fractional_kernel", "arity": 2, "alpha": alpha},
                  "endpoint0": endpoint(p0, 1.0 / (2.0 / p0 - alpha / 2.0)),
                  "endpoint1": endpoint(p1, 1.0 / (2.0 / p1 - alpha / 2.0))}

    w1 = {"kind": "gaussian", "center": _center(rng, UNIT1), "width": rng.uniform(0.5, 1.5)}
    w2 = {"kind": "gaussian", "center": _center(rng, UNIT1), "width": rng.uniform(0.5, 1.5)}
    nu = {"kind": "product", "terms": [w1, w2]}
    pa, pb = rng.uniform(3.0, 5.0), rng.uniform(2.0, 3.0)
    product = {"box": UNIT1, "resolution": 256, "theta": rng.uniform(0.2, 0.8),
               "trials": 25, "seed": rng.randint(0, 2 ** 31),
               "operator": {"kind": "product", "arity": 2},
               "endpoint0": dict(endpoint(pa, pa / 2.0, (w1, w2), nu), bound=1.0),
               "endpoint1": dict(endpoint(pb, pb / 2.0, (w1, w2), nu), bound=1.0),
               "mixed": {"qtilde": rng.uniform(0.5, 0.9), "offset_count": 8}}
    return [
        {"command": "rk-classify", "config": translate, "check": "translate"},
        {"command": "rk-classify", "config": mollify, "check": "mollify"},
        {"command": "rk-classify", "config": modulate, "check": "modulate"},
        {"command": "extrapolate", "config": extrapolate, "check": "extrapolate"},
        {"command": "interp-verify", "config": fractional, "check": "interp"},
        {"command": "interp-verify", "config": product, "check": "interp_product"},
    ]


def _verdict(res, want):
    return [] if res["verdict"] == want else [f"verdict {res['verdict']}, theory says {want}"]


def check_translate(job, res, reports):
    cfg = job["config"]
    out = _verdict(res, "consistent-noncompact")
    grid = ref.grid_of(cfg)
    base = ref.function_values(cfg["family"]["base"], grid)
    want = ref.closed_form_norm(base, cfg["exponent"]["value"], grid.qw)
    if _rel(res["uniform_bound"], want) > CLOSED_FORM_TOL:
        out.append(f"uniform bound {res['uniform_bound']} vs base norm {want}")
    return out


def check_mollify(job, res, reports):
    return _verdict(res, "consistent-compact")


def check_modulate(job, res, reports):
    return _verdict(res, "consistent-noncompact")


def check_extrapolate(job, res, reports):
    out = []
    if len(res["entries"]) != len(job["config"]["thetas"]):
        out.append("missing theta entries")
    for e in res["entries"]:
        if not (e["built"] and e["admissible"] and e["roundtrip_ok"]):
            out.append(f"theta {e['theta']}: built {e['built']}, admissible "
                       f"{e['admissible']}, round trip {e['roundtrip_ok']}")
        if not abs(e["constant0"] - 1.0) <= 1e-9:
            out.append(f"theta {e['theta']}: unit-weight constant0 {e['constant0']}")
    return out


def check_interp(job, res, reports):
    out = [] if res["passed"] else [f"interpolation bound violated, worst {res['worst_ratio']}"]
    if "mixed" in res and not res["mixed"]["passed"]:
        out.append(f"mixed bound violated, worst {res['mixed']['worst_ratio']}")
    return out


def check_interp_product(job, res, reports):
    out = check_interp(job, res, reports)
    for cert in res["certificates"]:
        if not cert["max_ratio"] <= 1.0 + ROUNDOFF:
            out.append(f"product endpoint ratio {cert['max_ratio']} above the Hoelder bound 1")
    return out


# ---------------------------------------------------------------------------
# norm-batch: many short norm and modular jobs, plus homogeneity twins


def _norm_exponent(rng, kind, box):
    if kind == "constant":
        return {"kind": "constant", "value": rng.uniform(1.2, 4.0)}
    if kind == "affine":
        return {"kind": "affine", "base": rng.uniform(1.8, 3.0),
                "slopes": [rng.uniform(-0.4, 0.4) for _ in box]}
    if kind == "log_decay":
        return {"kind": "log_decay", "p_infinity": rng.uniform(1.5, 3.0),
                "amplitude": rng.uniform(-0.5, 1.0)}
    a, b = box[0]
    cuts = sorted(rng.uniform(a, b) for _ in range(rng.randint(1, 3)))
    return {"kind": "piecewise", "breakpoints": cuts,
            "values": [rng.uniform(1.2, 4.0) for _ in range(len(cuts) + 1)]}


def _sine(rng, box, amplitude=None):
    return {"kind": "sine", "frequency": [rng.uniform(0.5, 6.0) for _ in box],
            "phase": rng.uniform(0.0, 6.0),
            "amplitude": rng.uniform(0.5, 2.0) if amplitude is None else amplitude}


def _norm_function(rng, box):
    choice = rng.randrange(3)
    if choice == 0:
        return _bump_or_gaussian(rng, box)
    if choice == 1:
        return _sine(rng, box)
    return {"kind": "sum", "terms": [_bump_or_gaussian(rng, box), _sine(rng, box, 0.3)]}


def _norm_config(rng, box, cells, kind, weighted):
    cfg = {"box": box, "resolution": cells, "exponent": _norm_exponent(rng, kind, box),
           "function": _norm_function(rng, box)}
    if weighted:
        cfg["weight"] = {"kind": "power", "exponent": rng.uniform(0.1, 0.8), "floor": 0.01,
                         "center": _center(rng, box)}
    return cfg


NORM_SLOTS = (
    # command, box, cells, exponent kind, weighted
    ("norm", [[-0.5, 1.5]], 16384, "constant", True),
    ("norm", [[-0.5, 1.5]], 8192, "affine", False),
    ("norm", [[-0.5, 1.5]], 4096, "log_decay", True),
    ("norm", [[-0.5, 1.5]], 16384, "piecewise", False),
    ("norm", UNIT2, 256, "affine", True),
    ("norm", UNIT2, 256, "log_decay", False),
    ("modular", [[-0.5, 1.5]], 16384, "piecewise", False),
    ("modular", UNIT2, 256, "constant", False),
)


def norm_batch_round(rng):
    """Eight norm and modular jobs with fixed grids, exponent kinds and
    weighting, then three homogeneity twin pairs ``f``, ``c f``."""
    jobs = [{"command": command, "config": _norm_config(rng, box, cells, kind, weighted),
             "check": command} for command, box, cells, kind, weighted in NORM_SLOTS]
    bases = []
    for cells, kind in ((16384, "constant"), (8192, "affine")):
        cfg = _norm_config(rng, [[-0.5, 1.5]], cells, kind, False)
        cfg["function"] = {"kind": "gaussian", "center": _center(rng, cfg["box"]),
                           "width": rng.uniform(0.1, 0.5)}
        bases.append(cfg)
    # The 1e-300 twin is pinned: norm() answers 0.0 for any input whose
    # largest value lies below its zero floor (1e-250), whatever the seed.
    bases.append({"box": UNIT1, "resolution": 4096,
                  "exponent": {"kind": "constant", "value": 2.0},
                  "function": {"kind": "gaussian", "center": [0.5], "width": 0.2}})
    for cfg, c in zip(bases, (1e-200, 1e300, 1e-300)):
        scaled = dict(cfg, function=dict(cfg["function"], amplitude=c))
        jobs.append({"command": "norm", "config": cfg, "check": "norm"})
        jobs.append({"command": "norm", "config": scaled, "check": "norm",
                     "base": len(jobs) - 1, "factor": c, "expect_fail": c < 1e-250})
    return jobs


def _norm_data(cfg):
    grid = ref.grid_of(cfg)
    a = np.abs(ref.function_values(cfg["function"], grid))
    if "weight" in cfg:
        a = a * ref.function_values(cfg["weight"], grid)
    return grid, a, ref.exponent_values(cfg["exponent"], grid)


def _log_rho(a, p, qw, lam):
    return math.inf if lam <= 0.0 else ref.log_modular(a, p, qw, lam)


def check_norm(job, res, reports):
    cfg = job["config"]
    grid, a, p = _norm_data(cfg)
    out = []
    lo, hi = res["bracket"]
    if not (_log_rho(a, p, grid.qw, lo) >= -ROUNDOFF and _log_rho(a, p, grid.qw, hi) <= ROUNDOFF):
        out.append(f"bracket [{lo}, {hi}] does not straddle modular 1")
    if not lo <= res["norm"] <= hi:
        out.append(f"norm {res['norm']} outside its bracket")
    if _is_constant(cfg["exponent"]):
        want = ref.closed_form_norm(a, cfg["exponent"]["value"], grid.qw)
        if _rel(res["norm"], want) > CLOSED_FORM_TOL:
            out.append(f"norm {res['norm']} vs closed form {want}")
    return out


def check_modular(job, res, reports):
    grid, a, p = _norm_data(job["config"])
    want = ref.modular(a, p, grid.qw)
    return [] if _rel(res["modular"], want) <= MODULAR_TOL else [
        f"modular {res['modular']} vs trapezoid sum {want}"]


def check_twin(job, res, reports):
    """``||c f|| = |c| ||f||`` (and the weight-constant scale invariance,
    with factor 1 on the constant)."""
    key, tol = ("norm", NORM_TWIN_TOL) if "norm" in res else ("constant", CONSTANT_TWIN_TOL)
    base = reports[job["base"]]
    if base is None:
        return ["base job has no report"]
    want = abs(job["factor"]) * base[key]
    return [] if _rel(res[key], want) <= tol else [
        f"{key} {res[key]} vs factor {job['factor']} times twin {base[key]}"]


CHECKS = {
    "weight_constant": check_weight_constant,
    "multilinear_constant": check_multilinear_constant,
    "two_to_one": check_two_to_one,
    "maximal": check_maximal,
    "translate": check_translate,
    "mollify": check_mollify,
    "modulate": check_modulate,
    "extrapolate": check_extrapolate,
    "interp": check_interp,
    "interp_product": check_interp_product,
    "norm": check_norm,
    "modular": check_modular,
}

WORKLOADS = {
    "cube-scan": cube_scan_round,
    "maximal-sweep": maximal_sweep_round,
    "compactness": compactness_round,
    "norm-batch": norm_batch_round,
}


def make_jobs(workload, seed, rounds):
    """``rounds`` rounds of a workload; twin indices made absolute."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for _ in range(rounds):
        start = len(jobs)
        for job in WORKLOADS[workload](rng):
            if "base" in job:
                job["base"] += start
            jobs.append(job)
    return jobs


def check_job(job, result, reports):
    """Problems found in one job's report (``result`` is its ``results``)."""
    problems = CHECKS[job["check"]](job, result, reports)
    if "base" in job:
        problems += check_twin(job, result, reports)
    return problems
