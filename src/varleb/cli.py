"""Command line front end.

Every command reads a strict JSON config (unknown keys are rejected so
typos cannot silently change an experiment), runs one computation, and
emits a JSON report with the config echoed back and enough provenance
to rerun it:

    varleb norm run --config norm.json --out report.json
    varleb norm replay --report report.json

Exit codes: 0 on success, 2 when a mathematical check fails (a bound is
violated, a gating hypothesis does not hold, or a replay diverges), and
1 for config, schema, and convergence problems.

Reports serialize with sorted keys, so two runs of the same config are
byte-identical apart from the wall_time_s entry.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
import warnings

import numpy as np

from . import __version__
from .errors import (HypothesisFailureError, OverflowToInfinityError,
                     SchemaError, VarlebError, VersionMismatchWarning,
                     check_keys, read_list, read_number, read_numbers)
from .exponent import ExponentField, QuadrupleSpec, validate_quadruple
from .field import (Box, DyadicCubeSet, Grid, WeightField, realize_function)
from .interp import (EndpointSpace, OperatorSpec, run_extrapolation_workflow,
                     verify_interpolation_bound,
                     verify_mixed_interpolation_bound)
from .maximal import RadiusSweep, maximal_function
from .norms import modular, weighted_norm
from .rk import (classify, dilate_family, modulate_family, mollify_family,
                 translate_family)
from .weights import ap_constant, multilinear_constant, two_to_one_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2


# ---------------------------------------------------------------------------
# config helpers


def _grid_from(cfg: dict, where: str) -> Grid:
    box = Box.from_pairs(cfg["box"])
    res = cfg.get("resolution", 4096 if box.dim == 1 else 256)
    cells = res if isinstance(res, (list, tuple)) else [res] * box.dim
    # n cells -> n + 1 nodes
    return Grid(box, tuple(read_number(n, "resolution", where, integer=True) + 1
                           for n in cells))


def _num(block: dict, key: str, where: str, default=None, integer: bool = False):
    """``block[key]``, or ``default`` when the key is absent, as a number."""
    return read_number(block.get(key, default), key, where, integer)


def _exponent_from(desc: dict, box: Box) -> ExponentField:
    if not isinstance(desc, dict):
        raise SchemaError("exponent descriptor must be a JSON object")
    merged = dict(desc)
    merged.setdefault("box", box.as_pairs())
    return ExponentField.from_descriptor(merged)


def _weight_from(desc: dict, grid: Grid) -> WeightField:
    f = realize_function(desc, grid)
    return WeightField(grid, f.values)


def _s_value(raw, where: str) -> float:
    if raw in ("inf", "Infinity", None):
        return math.inf
    return read_number(raw, "s", where)


def _quadruple_from(block: dict, box: Box, where: str) -> QuadrupleSpec:
    check_keys(block, {"p_vec", "q", "r_vec", "s"}, {"gamma"}, where)
    p_vec = tuple(_exponent_from(d, box) for d in read_list(block["p_vec"], "p_vec", where))
    q = _exponent_from(block["q"], box)
    r_vec = tuple(read_numbers(block["r_vec"], "r_vec", where))
    gamma = block.get("gamma")
    return QuadrupleSpec(p_vec, q, r_vec, _s_value(block["s"], where),
                         None if gamma is None else read_number(gamma, "gamma", where))


def _operator_from(block: dict) -> OperatorSpec:
    check_keys(block, {"kind", "arity"}, {"alpha", "radius"}, "operator")
    return OperatorSpec(block["kind"], _num(block, "arity", "operator", integer=True),
                        alpha=_num(block, "alpha", "operator", 0.0),
                        radius=_num(block, "radius", "operator", 0.0))


_FAMILY_PARAMS = {
    "translate": ({"step"}, set()),
    "modulate": (set(), {"base_frequency", "growth"}),
    "dilate": (set(), {"ratio"}),
    "mollify": ({"sigma"}, {"ratio"}),
}


def _family_from(block: dict, grid: Grid):
    kind = block.get("kind") if isinstance(block, dict) else None
    if not isinstance(kind, str) or kind not in _FAMILY_PARAMS:
        raise SchemaError(f"family needs a 'kind' among {sorted(_FAMILY_PARAMS)}")
    required, optional = _FAMILY_PARAMS[kind]
    where = f"family '{kind}'"
    check_keys(block, {"kind", "base", "count"} | required, optional, where)
    base = realize_function(block["base"], grid)
    count = _num(block, "count", where, integer=True)
    if kind == "translate":
        return translate_family(base, count, _num(block, "step", where))
    if kind == "modulate":
        return modulate_family(base, count, _num(block, "base_frequency", where, 1.0),
                               growth=_num(block, "growth", where, 2.0))
    if kind == "dilate":
        return dilate_family(base, count, _num(block, "ratio", where, 0.5))
    return mollify_family(base, count, _num(block, "sigma", where),
                          ratio=_num(block, "ratio", where, 0.1))


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if hasattr(obj, "label") and callable(obj.label):
            return obj.label()
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.floating, float)):
        # standard JSON has no inf or NaN; _s_value reads "inf" back
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (tuple, list)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


# ---------------------------------------------------------------------------
# command runners; each takes the config and its name for messages and
# returns (results, warnings, exit_code)


def _run_norm(cfg, where):
    check_keys(cfg, {"box", "exponent", "function"},
               {"resolution", "weight", "rel_tol"}, where)
    grid = _grid_from(cfg, where)
    p = _exponent_from(cfg["exponent"], grid.box)
    f = realize_function(cfg["function"], grid)
    w = _weight_from(cfg["weight"], grid) if "weight" in cfg else None
    res = weighted_norm(f, p, w, rel_tol=_num(cfg, "rel_tol", where, 1e-10))
    return ({"norm": res.value, "iterations": res.iterations,
             "bracket": list(res.bracket), "modular_at_value": res.modular_at_value},
            [], EXIT_OK)


def _run_modular(cfg, where):
    check_keys(cfg, {"box", "exponent", "function"}, {"resolution"}, where)
    grid = _grid_from(cfg, where)
    p = _exponent_from(cfg["exponent"], grid.box)
    f = realize_function(cfg["function"], grid)
    return ({"modular": modular(f, p)}, [], EXIT_OK)


def _run_weight_constant(cfg, where):
    check_keys(cfg, {"box", "exponent", "weight"},
               {"resolution", "cube_depth", "rel_tol"}, where)
    grid = _grid_from(cfg, where)
    p = _exponent_from(cfg["exponent"], grid.box)
    w = _weight_from(cfg["weight"], grid)
    cubes = DyadicCubeSet(grid.box, _num(cfg, "cube_depth", where, 4, integer=True))
    rep = ap_constant(w, p, cubes, _num(cfg, "rel_tol", where, 1e-10), allow_overflow=True)
    return ({"constant": rep.constant, "overflow": rep.overflow,
             "argmax_cube": rep.argmax_cube.label() if rep.argmax_cube else None,
             "cube_count": rep.cube_count}, [], EXIT_OK)


def _run_multilinear_constant(cfg, where):
    check_keys(cfg, {"box", "quadruple", "weights"},
               {"resolution", "cube_depth", "rel_tol"}, where)
    grid = _grid_from(cfg, where)
    spec = _quadruple_from(cfg["quadruple"], grid.box, "quadruple")
    weights = read_list(cfg["weights"], "weights", where)
    if len(weights) != spec.m:
        raise SchemaError("one weight per input exponent is required")
    w_vec = tuple(_weight_from(d, grid) for d in weights)
    verdict = validate_quadruple(spec)
    cubes = DyadicCubeSet(grid.box, _num(cfg, "cube_depth", where, 4, integer=True))
    rep = multilinear_constant(w_vec, spec, cubes, _num(cfg, "rel_tol", where, 1e-10),
                               allow_overflow=True)
    return ({"constant": rep.constant, "overflow": rep.overflow,
             "argmax_cube": rep.argmax_cube.label() if rep.argmax_cube else None,
             "cube_count": rep.cube_count, "admissible": verdict.admissible,
             "proper": verdict.proper, "gamma": verdict.gamma,
             "clauses": _jsonable(verdict.clauses)}, [], EXIT_OK)


def _run_two_to_one(cfg, where):
    check_keys(cfg, {"box", "quadruple", "weight"},
               {"resolution", "cube_depth", "rel_tol", "tol"}, where)
    grid = _grid_from(cfg, where)
    spec = _quadruple_from(cfg["quadruple"], grid.box, "quadruple")
    w = _weight_from(cfg["weight"], grid)
    cubes = DyadicCubeSet(grid.box, _num(cfg, "cube_depth", where, 4, integer=True))
    rep = two_to_one_check(w, spec, cubes, _num(cfg, "rel_tol", where, 1e-10))
    tol = _num(cfg, "tol", where, 1e-6)
    code = EXIT_OK if rep.rel_error <= tol else EXIT_VIOLATION
    return ({"lhs_constant": rep.lhs_constant, "rhs_constant": rep.rhs_constant,
             "a": rep.a, "rel_error": rep.rel_error,
             "max_cube_rel_error": rep.max_cube_rel_error, "tol": tol,
             "passed": code == EXIT_OK}, [], code)


def _run_maximal(cfg, where):
    check_keys(cfg, {"box", "exponent", "function", "qtilde"},
               {"resolution", "weight", "radii_count", "rel_tol"}, where)
    grid = _grid_from(cfg, where)
    p = _exponent_from(cfg["exponent"], grid.box)
    f = realize_function(cfg["function"], grid)
    w = _weight_from(cfg["weight"], grid) if "weight" in cfg else None
    qt = _num(cfg, "qtilde", where)
    sweep = RadiusSweep.geometric(grid, _num(cfg, "radii_count", where, 64, integer=True))
    Mf = maximal_function(f, qt, sweep)
    rel_tol = _num(cfg, "rel_tol", where, 1e-10)
    nf = weighted_norm(f, p, w, rel_tol=rel_tol).value
    nM = weighted_norm(Mf, p, w, rel_tol=rel_tol).value
    dom = float(np.min(Mf.values - np.abs(f.values)))
    return ({"norm_input": nf, "norm_maximal": nM,
             "ratio": nM / nf if nf > 0 else math.inf,
             "dominance_min": dom, "radii_count": len(sweep.radii)}, [], EXIT_OK)


def _run_rk_classify(cfg, where):
    check_keys(cfg, {"box", "exponent", "weight", "qtilde", "family"},
               {"resolution", "cube_depth", "rel_tol", "threshold_factor"}, where)
    grid = _grid_from(cfg, where)
    p = _exponent_from(cfg["exponent"], grid.box)
    w = _weight_from(cfg["weight"], grid)
    family = _family_from(cfg["family"], grid)
    cubes = DyadicCubeSet(grid.box, _num(cfg, "cube_depth", where, 3, integer=True))
    rep = classify(family, p, w, _num(cfg, "qtilde", where), cubes=cubes,
                   threshold_factor=_num(cfg, "threshold_factor", where, 1e-2),
                   rel_tol=_num(cfg, "rel_tol", where, 1e-10))
    return ({"verdict": rep.verdict, "net_sizes": list(rep.net_sizes),
             "eps_ladder": list(rep.eps_ladder), "plateau": rep.plateau,
             "growth": rep.growth, "family_size": len(family),
             "uniform_bound": rep.uniform.sup,
             "gate_constant": rep.gate.constant,
             "equicontinuity": {"passed": rep.equicontinuity.passed,
                                "radii": list(rep.equicontinuity.radii),
                                "profile": list(rep.equicontinuity.profile),
                                "threshold": rep.equicontinuity.threshold},
             "vanishing": {"passed": rep.vanishing.passed,
                           "radii": list(rep.vanishing.radii),
                           "profile": list(rep.vanishing.profile),
                           "threshold": rep.vanishing.threshold}}, [], EXIT_OK)


def _endpoint_from(block: dict, grid: Grid, where: str) -> EndpointSpace:
    check_keys(block, {"p_vec", "q", "weights", "v"}, {"bound"}, where)
    p_vec = tuple(_exponent_from(d, grid.box) for d in read_list(block["p_vec"], "p_vec", where))
    weights = read_list(block["weights"], "weights", where)
    if len(weights) != len(p_vec):
        raise SchemaError(f"one weight per input exponent is required in {where}")
    w_vec = tuple(_weight_from(d, grid) for d in weights)
    v = _weight_from(block["v"], grid)
    bound = _num(block, "bound", where) if "bound" in block else None
    return EndpointSpace(p_vec, _exponent_from(block["q"], grid.box), w_vec, v, bound)


def _run_interp_verify(cfg, where):
    check_keys(cfg, {"box", "operator", "endpoint0", "endpoint1", "theta"},
               {"resolution", "trials", "seed", "safety", "slack", "rel_tol", "mixed"}, where)
    grid = _grid_from(cfg, where)
    op = _operator_from(cfg["operator"])
    s0 = _endpoint_from(cfg["endpoint0"], grid, "endpoint0")
    s1 = _endpoint_from(cfg["endpoint1"], grid, "endpoint1")
    theta = _num(cfg, "theta", where)
    kwargs = dict(trials=_num(cfg, "trials", where, 100, integer=True),
                  seed=_num(cfg, "seed", where, 0, integer=True),
                  safety=_num(cfg, "safety", where, 1.05),
                  slack=_num(cfg, "slack", where, 1e-6),
                  rel_tol=_num(cfg, "rel_tol", where, 1e-10))
    rep = verify_interpolation_bound(op, s0, s1, theta, **kwargs)
    results = {"passed": rep.passed, "worst_ratio": rep.worst_ratio,
               "violations": _jsonable(rep.violations),
               "certificates": _jsonable(rep.certificates), "trials": rep.trials}
    code = EXIT_OK if rep.passed else EXIT_VIOLATION
    if "mixed" in cfg:
        mixed = cfg["mixed"]
        check_keys(mixed, {"qtilde"}, {"offset_count"}, "mixed block")
        mrep = verify_mixed_interpolation_bound(
            op, s0, s1, theta, _num(mixed, "qtilde", "mixed block"),
            offset_count=_num(mixed, "offset_count", "mixed block", 8, integer=True),
            **kwargs)
        results["mixed"] = {"passed": mrep.passed, "worst_ratio": mrep.worst_ratio,
                            "qtilde": mrep.qtilde,
                            "certificates": _jsonable(mrep.certificates)}
        if not mrep.passed:
            code = EXIT_VIOLATION
    return (results, [], code)


def _run_extrapolate(cfg, where):
    check_keys(cfg, {"box", "target", "weights", "endpoint1", "weights1",
                     "thetas", "operator", "family"},
               {"resolution", "cube_depth", "qtilde", "rel_tol", "roundtrip_tol"}, where)
    grid = _grid_from(cfg, where)
    target = _quadruple_from(cfg["target"], grid.box, "target")
    spec1 = _quadruple_from(cfg["endpoint1"], grid.box, "endpoint1")
    w_vec = tuple(_weight_from(d, grid) for d in read_list(cfg["weights"], "weights", where))
    w1_vec = tuple(_weight_from(d, grid) for d in read_list(cfg["weights1"], "weights1", where))
    op = _operator_from(cfg["operator"])
    family = _family_from(cfg["family"], grid)
    inputs = tuple((f,) * op.arity for f in family.members)
    cubes = DyadicCubeSet(grid.box, _num(cfg, "cube_depth", where, 3, integer=True))
    rep = run_extrapolation_workflow(
        op, inputs, target, w_vec, spec1, w1_vec,
        tuple(read_numbers(cfg["thetas"], "thetas", where)),
        qtilde=_num(cfg, "qtilde", where) if "qtilde" in cfg else None,
        cubes=cubes, roundtrip_tol=_num(cfg, "roundtrip_tol", where, 1e-10),
        rel_tol=_num(cfg, "rel_tol", where, 1e-10))
    entries = [{"theta": e.theta, "built": e.built, "admissible": e.admissible,
                "proper": e.proper, "roundtrip_ok": e.roundtrip_ok,
                "constant0": e.constant0, "constant0_overflow": e.constant0_overflow,
                "endpoint_max_ratio": e.endpoint_max_ratio, "error": e.error}
               for e in rep.entries]
    bad = [e for e in rep.entries if e.built and not e.roundtrip_ok]
    code = EXIT_VIOLATION if bad else EXIT_OK
    return ({"qtilde": rep.qtilde, "verdict": rep.verdict,
             "net_sizes": list(rep.rk.net_sizes), "entries": entries}, [], code)


_RUNNERS = {
    "norm": _run_norm,
    "modular": _run_modular,
    "weight-constant": _run_weight_constant,
    "multilinear-constant": _run_multilinear_constant,
    "two-to-one": _run_two_to_one,
    "maximal": _run_maximal,
    "rk-classify": _run_rk_classify,
    "interp-verify": _run_interp_verify,
    "extrapolate": _run_extrapolate,
}

# flags that override config keys when given
_OVERRIDES = (("seed", "seed"), ("resolution", "resolution"),
              ("cube_depth", "cube_depth"), ("tol", "rel_tol"))


# ---------------------------------------------------------------------------
# report plumbing


def _provenance(seed, started: float) -> dict:
    return {"tool": "varleb", "version": __version__, "seed": seed,
            "wall_time_s": round(time.monotonic() - started, 3)}


def _dumps(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False)


def _emit(report: dict, out_path, quiet: bool) -> None:
    text = _dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        if not quiet:
            print(f"report written to {out_path}")
    elif not quiet:
        print(text)


def _execute(command: str, cfg: dict, out_path, quiet: bool) -> int:
    started = time.monotonic()
    try:
        results, warns, code = _RUNNERS[command](cfg, f"{command} config")
    except (HypothesisFailureError, OverflowToInfinityError) as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (VarlebError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = {"command": command, "config": cfg, "results": results,
              "warnings": warns,
              "provenance": _provenance(cfg.get("seed"), started)}
    _emit(report, out_path, quiet)
    return code


def _replay(command: str, report_path: str, quiet: bool) -> int:
    try:
        with open(report_path) as fh:
            old = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if old.get("command") != command:
        print(f"error: report was produced by '{old.get('command')}', "
              f"not '{command}'", file=sys.stderr)
        return EXIT_CONFIG
    warns = []
    old_version = old.get("provenance", {}).get("version")
    if old_version != __version__:
        msg = f"report version {old_version} differs from {__version__}"
        warnings.warn(msg, VersionMismatchWarning)
        warns.append(msg)
    cfg = old.get("config", {})
    started = time.monotonic()
    try:
        results, run_warns, code = _RUNNERS[command](cfg, f"{command} config")
    except (HypothesisFailureError, OverflowToInfinityError) as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (VarlebError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    new_json = json.dumps(_jsonable(results), sort_keys=True)
    old_json = json.dumps(_jsonable(old.get("results")), sort_keys=True)
    match = new_json == old_json
    mismatch = [] if match else [_replay_diff(json.loads(old_json), json.loads(new_json))]
    report = {"command": command, "config": cfg, "results": results,
              "warnings": warns + run_warns + mismatch,
              "replay_match": match,
              "provenance": _provenance(cfg.get("seed"), started)}
    if not quiet:
        print(_dumps(report))
    if not match:
        print(mismatch[0], file=sys.stderr)
        return EXIT_VIOLATION
    return code


def _replay_diff(old, new) -> str:
    """Say where two JSON result trees differ: how many leaves, the
    first few paths, the keys on one side only, and the largest relative
    difference over numeric leaves."""
    leaves, one_sided = [], []

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            one_sided.extend(f"{path}.{k} ({'stored' if k in a else 'replayed'} only)"
                             for k in sorted(set(a) ^ set(b)))
            for k in sorted(set(a) & set(b)):
                walk(a[k], b[k], f"{path}.{k}")
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif type(a) is not type(b) or a != b:
            leaves.append((path, a, b))

    walk(old, new, "results")
    msg = f"replay mismatch: {len(leaves)} differing leaves"
    if leaves:
        more = ", ..." if len(leaves) > 3 else ""
        msg += " (" + ", ".join(path for path, _, _ in leaves[:3]) + more + ")"
    if one_sided:
        msg += "; keys on one side only: " + ", ".join(one_sided)
    rel = [abs(a - b) / max(abs(a), abs(b)) for _, a, b in leaves
           if a != b and all(type(v) in (int, float) for v in (a, b))]
    if rel:
        msg += f"; largest relative difference {max(rel):.3g}"
    return msg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varleb",
        description="variable-exponent norms, weight constants, and diagnostics")
    parser.add_argument("command", choices=_RUNNERS, metavar="command",
                        help="one of " + ", ".join(_RUNNERS))
    modes = parser.add_subparsers(dest="mode", required=True, prog="varleb <command>")
    runp = modes.add_parser("run")
    runp.add_argument("--config", required=True, help="JSON config path")
    runp.add_argument("--out", help="write the report here instead of stdout")
    runp.add_argument("--seed", type=int)
    runp.add_argument("--resolution", type=int)
    runp.add_argument("--cube-depth", dest="cube_depth", type=int)
    runp.add_argument("--tol", type=float, help="override the norm solver rel_tol")
    runp.add_argument("--quiet", action="store_true")
    rep = modes.add_parser("replay")
    rep.add_argument("--report", required=True, help="previously written report")
    rep.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    if args.mode == "replay":
        return _replay(args.command, args.report, args.quiet)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG
    for flag, key in _OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = value
    return _execute(args.command, cfg, args.out, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
