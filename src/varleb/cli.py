"""Command line front end.

Every command reads a strict JSON config (unknown keys are rejected so
typos cannot silently change an experiment), runs one computation, and
emits a JSON report with the config echoed back and enough provenance
to rerun it:

    varleb norm run --config norm.json --out report.json
    varleb norm replay --report report.json

Exit codes, each given by the one ``try`` in ``main``, with no traceback:
0 on success; 2 when a mathematical check fails (a bound is violated, a
gating hypothesis does not hold, "hypothesis failure: ...", or a replay
diverges); 1 with "error: ..." for config, schema and convergence
problems, a file that cannot be read or written, a config or report
nested past the recursion limit and a size beyond memory.

Usage errors exit 2 before any file is read: an unknown command or mode,
a flag of the other mode (``--config`` with ``replay``), or a missing
``--config`` or ``--report``.

Reports are written by ``_render`` in one walk of the report tree: keys
sorted, two spaces of indent per level, ASCII only with other characters
escaped, and a non-finite number as the string "inf", "-inf" or "nan".
Two runs of the same config are byte-identical apart from the
wall_time_s entry.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import time
import warnings

import numpy as np

from . import __version__
from .errors import (REQUIRED, DomainError, HypothesisFailureError, OverflowToInfinityError,
                     SchemaError, VarlebError, VersionMismatchWarning, block, descriptor,
                     each_axis, integer, list_of, number, per_axis, read_fields, read_kind)
from .exponent import ExponentField, QuadrupleSpec, validate_quadruple
from .field import (Box, DyadicCubeSet, Grid, WeightField, realize_function)
from .interp import (BallAverageProduct, EndpointSpace, FractionalKernel, Product,
                     run_extrapolation_workflow, verify_interpolation_bounds)
from .maximal import RadiusSweep, maximal_function
from .norms import modular, norm_ratios, weighted_norm, weighted_table
from .rk import (classify, dilate_family, modulate_family, mollify_family,
                 translate_family)
from .weights import ap_constant, multilinear_constant, two_to_one_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2


# ---------------------------------------------------------------------------
# config tables and the helpers that build objects from what they read


def _s_value(value, key, where) -> float:
    """The reader of a quadruple's s: a number, or inf as "inf" or null."""
    return math.inf if value in ("Infinity", None) else number(value, key, where)


_EXPONENT = descriptor("an exponent")
_FUNCTION = descriptor("a function")
# resolution counts cells per axis; its default depends on the dimension
_GRID = {"box": (Box.from_pairs, REQUIRED), "resolution": (per_axis(integer), None)}
_QUADRUPLE = block({"p_vec": (list_of(_EXPONENT), REQUIRED), "q": (_EXPONENT, REQUIRED),
                    "r_vec": (list_of(number), REQUIRED), "s": (_s_value, REQUIRED),
                    "gamma": (number, None)})
_OPERATOR = descriptor("an operator")
_ENDPOINT = block({"p_vec": (list_of(_EXPONENT), REQUIRED), "q": (_EXPONENT, REQUIRED),
                   "weights": (list_of(_FUNCTION), REQUIRED), "v": (_FUNCTION, REQUIRED),
                   "bound": (number, None)})
_MIXED = block({"qtilde": (number, REQUIRED), "offset_count": (integer, 8)})
_ARITY = {"arity": (integer, REQUIRED)}
# kind -> (builder, its keys besides "kind")
_OPERATORS = {
    "product": (Product, _ARITY),
    "ball_average_product": (BallAverageProduct, {**_ARITY, "radius": (number, REQUIRED)}),
    "fractional_kernel": (FractionalKernel, {**_ARITY, "alpha": (number, REQUIRED)}),
}
_MEMBERS = {"base": (_FUNCTION, REQUIRED), "count": (integer, REQUIRED)}
# kind -> (builder on the grid, its keys besides "kind")
_FAMILIES = {
    "translate": (lambda grid, base, count, step:
                  translate_family(realize_function(base, grid), count, step),
                  {**_MEMBERS, "step": (number, REQUIRED)}),
    "modulate": (lambda grid, base, count, base_frequency, growth:
                 modulate_family(realize_function(base, grid), count, base_frequency, growth),
                 {**_MEMBERS, "base_frequency": (number, 1.0), "growth": (number, 2.0)}),
    "dilate": (lambda grid, base, count, ratio:
               dilate_family(realize_function(base, grid), count, ratio),
               {**_MEMBERS, "ratio": (number, 0.5)}),
    "mollify": (lambda grid, base, count, sigma, ratio:
                mollify_family(realize_function(base, grid), count, sigma, ratio),
                {**_MEMBERS, "sigma": (number, REQUIRED), "ratio": (number, 0.1)}),
}


def _grid_from(c: dict) -> Grid:
    box, cells = c["box"], c["resolution"]
    if cells is None:
        cells = 4096 if box.dim == 1 else 256
    # n cells -> n + 1 nodes
    return Grid(box, tuple(n + 1 for n in each_axis(cells, box.dim, "resolution")))


def _weight_from(desc: dict, grid: Grid, key: str) -> WeightField:
    """The weight of the descriptor at config key ``key``, whose faults,
    such as a value that is not positive and finite, name the key."""
    try:
        return WeightField(grid, realize_function(desc, grid).values)
    except DomainError as exc:
        raise DomainError(f"config key '{key}': {exc}") from None


def _weights_from(descs: list, grid: Grid, key: str) -> tuple[WeightField, ...]:
    return tuple(_weight_from(d, grid, f"{key}[{j}]") for j, d in enumerate(descs))


def _quadruple_from(q: dict, box: Box) -> QuadrupleSpec:
    return QuadrupleSpec(tuple(ExponentField.from_descriptor(d, box) for d in q["p_vec"]),
                         ExponentField.from_descriptor(q["q"], box), tuple(q["r_vec"]), q["s"],
                         q["gamma"])


# ---------------------------------------------------------------------------
# command runners; each is registered with its config table, takes the
# config as read by it and the grid of its box and resolution, and returns
# (results, exit_code), which _run wraps in the whole report

_RUNNERS: dict = {}


def _command(name: str, **table):
    def register(run):
        _RUNNERS[name] = (run, {**_GRID, **table})
        return run
    return register


@_command("norm", exponent=(_EXPONENT, REQUIRED), function=(_FUNCTION, REQUIRED),
          weight=(_FUNCTION, None), rel_tol=(number, 1e-10))
def _run_norm(c, grid):
    p = ExponentField.from_descriptor(c["exponent"], grid.box)
    f = realize_function(c["function"], grid)
    w = _weight_from(c["weight"], grid, "weight") if c["weight"] is not None else None
    res = weighted_norm(f, p, w, rel_tol=c["rel_tol"])
    return ({"norm": res.value, "iterations": res.iterations,
             "bracket": list(res.bracket), "modular_at_value": math.exp(res.log_modular)},
            EXIT_OK)


@_command("modular", exponent=(_EXPONENT, REQUIRED), function=(_FUNCTION, REQUIRED))
def _run_modular(c, grid):
    p = ExponentField.from_descriptor(c["exponent"], grid.box)
    f = realize_function(c["function"], grid)
    return {"modular": modular(f, p)}, EXIT_OK


def _constant_results(rep) -> dict:
    """The results shared by the weight-constant commands."""
    return {"constant": rep.constant, "overflow": rep.overflow,
            "argmax_cube": rep.argmax_cube.label(), "cube_count": rep.cube_count}


@_command("weight-constant", exponent=(_EXPONENT, REQUIRED), weight=(_FUNCTION, REQUIRED),
          cube_depth=(integer, 4), rel_tol=(number, 1e-10))
def _run_weight_constant(c, grid):
    p = ExponentField.from_descriptor(c["exponent"], grid.box)
    w = _weight_from(c["weight"], grid, "weight")
    cubes = DyadicCubeSet(grid.box, c["cube_depth"])
    rep = ap_constant(w, p, cubes, c["rel_tol"])
    return _constant_results(rep), EXIT_OK


@_command("multilinear-constant", quadruple=(_QUADRUPLE, REQUIRED),
          weights=(list_of(_FUNCTION), REQUIRED), cube_depth=(integer, 4),
          rel_tol=(number, 1e-10))
def _run_multilinear_constant(c, grid):
    spec = _quadruple_from(c["quadruple"], grid.box)
    w_vec = _weights_from(c["weights"], grid, "weights")
    verdict = validate_quadruple(spec)
    cubes = DyadicCubeSet(grid.box, c["cube_depth"])
    rep = multilinear_constant(w_vec, spec, cubes, c["rel_tol"])
    return ({**_constant_results(rep), "admissible": verdict.admissible,
             "proper": verdict.proper, "gamma": verdict.gamma,
             "clauses": verdict.clauses}, EXIT_OK)


@_command("two-to-one", quadruple=(_QUADRUPLE, REQUIRED), weight=(_FUNCTION, REQUIRED),
          cube_depth=(integer, 4), rel_tol=(number, 1e-10), tol=(number, 1e-6))
def _run_two_to_one(c, grid):
    spec = _quadruple_from(c["quadruple"], grid.box)
    w = _weight_from(c["weight"], grid, "weight")
    cubes = DyadicCubeSet(grid.box, c["cube_depth"])
    rep = two_to_one_check(w, spec, cubes, c["rel_tol"])
    code = EXIT_OK if rep.rel_error <= c["tol"] else EXIT_VIOLATION
    return ({"lhs_constant": rep.lhs_constant, "rhs_constant": rep.rhs_constant,
             "a": rep.a, "rel_error": rep.rel_error,
             "max_cube_rel_error": rep.max_cube_rel_error, "tol": c["tol"],
             "passed": code == EXIT_OK}, code)


@_command("maximal", exponent=(_EXPONENT, REQUIRED), function=(_FUNCTION, REQUIRED),
          qtilde=(number, REQUIRED), weight=(_FUNCTION, None), radii_count=(integer, 64),
          rel_tol=(number, 1e-10))
def _run_maximal(c, grid):
    p = ExponentField.from_descriptor(c["exponent"], grid.box)
    f = realize_function(c["function"], grid)
    w = _weight_from(c["weight"], grid, "weight") if c["weight"] is not None else None
    sweep = RadiusSweep.geometric(grid, c["radii_count"])
    Mf = maximal_function(f, c["qtilde"], sweep)
    nf = weighted_table(f.values, grid, p, w).solve(rel_tol=c["rel_tol"])
    if not math.isfinite(nf.log_value[0]):
        raise DomainError(f"maximal config key 'function' has weighted norm "
                          f"{float(nf.value[0])!r} on the grid; the ratio needs a nonzero one")
    nM, ratio = norm_ratios(Mf.values, grid, p, w, nf.log_value, c["rel_tol"])
    dom = float(np.min(Mf.values - np.abs(f.values)))
    return ({"norm_input": nf.value[0], "norm_maximal": nM.value[0], "ratio": ratio[0],
             "dominance_min": dom, "radii_count": len(sweep.radii)}, EXIT_OK)


@_command("rk-classify", exponent=(_EXPONENT, REQUIRED), weight=(_FUNCTION, REQUIRED),
          qtilde=(number, REQUIRED), family=(descriptor("a family"), REQUIRED),
          cube_depth=(integer, 3), rel_tol=(number, 1e-10), threshold_factor=(number, 1e-2))
def _run_rk_classify(c, grid):
    p = ExponentField.from_descriptor(c["exponent"], grid.box)
    w = _weight_from(c["weight"], grid, "weight")
    family = read_kind(c["family"], _FAMILIES, "family", grid)
    cubes = DyadicCubeSet(grid.box, c["cube_depth"])
    rep = classify(family, p, w, c["qtilde"], cubes=cubes,
                   threshold_factor=c["threshold_factor"], rel_tol=c["rel_tol"])
    return ({"verdict": rep.verdict, "net_sizes": list(rep.net_sizes),
             "eps_ladder": list(rep.eps_ladder), "plateau": rep.plateau,
             "growth": rep.growth, "family_size": len(family),
             "uniform_bound": rep.uniform.sup,
             "gate_constant": rep.gate.constant,
             "equicontinuity": rep.equicontinuity,
             "vanishing": rep.vanishing}, EXIT_OK)


def _endpoint_from(c: dict, key: str, grid: Grid) -> EndpointSpace:
    e = c[key]
    p_vec = tuple(ExponentField.from_descriptor(d, grid.box) for d in e["p_vec"])
    w_vec = _weights_from(e["weights"], grid, f"{key}.weights")
    v = _weight_from(e["v"], grid, f"{key}.v")
    return EndpointSpace(p_vec, ExponentField.from_descriptor(e["q"], grid.box), w_vec, v,
                         e["bound"])


@_command("interp-verify", operator=(_OPERATOR, REQUIRED), endpoint0=(_ENDPOINT, REQUIRED),
          endpoint1=(_ENDPOINT, REQUIRED), theta=(number, REQUIRED), trials=(integer, 100),
          seed=(integer, 0), safety=(number, 1.05), slack=(number, 1e-6),
          rel_tol=(number, 1e-10), mixed=(_MIXED, None))
def _run_interp_verify(c, grid):
    op = read_kind(c["operator"], _OPERATORS, "operator")
    s0, s1 = _endpoint_from(c, "endpoint0", grid), _endpoint_from(c, "endpoint1", grid)
    kwargs = {key: c[key] for key in ("trials", "seed", "safety", "slack", "rel_tol")}
    rep, *mixed = verify_interpolation_bounds(op, s0, s1, c["theta"], **(c["mixed"] or {}),
                                              **kwargs)
    results = {"passed": rep.passed, "worst_ratio": rep.worst_ratio,
               "violations": rep.violations, "certificates": rep.certificates,
               "trials": rep.trials}
    code = EXIT_OK if rep.passed else EXIT_VIOLATION
    for mrep in mixed:  # the report of the mixed block, when there is one
        results["mixed"] = {"passed": mrep.passed, "worst_ratio": mrep.worst_ratio,
                            "qtilde": mrep.qtilde, "certificates": mrep.certificates}
        if not mrep.passed:
            code = EXIT_VIOLATION
    return results, code


@_command("extrapolate", target=(_QUADRUPLE, REQUIRED), weights=(list_of(_FUNCTION), REQUIRED),
          endpoint1=(_QUADRUPLE, REQUIRED), weights1=(list_of(_FUNCTION), REQUIRED),
          thetas=(list_of(number), REQUIRED), operator=(_OPERATOR, REQUIRED),
          family=(descriptor("a family"), REQUIRED), cube_depth=(integer, 3),
          qtilde=(number, None), rel_tol=(number, 1e-10), roundtrip_tol=(number, 1e-10))
def _run_extrapolate(c, grid):
    target = _quadruple_from(c["target"], grid.box)
    spec1 = _quadruple_from(c["endpoint1"], grid.box)
    w_vec = _weights_from(c["weights"], grid, "weights")
    w1_vec = _weights_from(c["weights1"], grid, "weights1")
    op = read_kind(c["operator"], _OPERATORS, "operator")
    family = read_kind(c["family"], _FAMILIES, "family", grid)
    # the family in each of the target's slots, a view; the workflow refuses a wrong arity first
    inputs = np.broadcast_to(family.values[:, None], (len(family), target.m, *grid.shape))
    cubes = DyadicCubeSet(grid.box, c["cube_depth"])
    rep = run_extrapolation_workflow(
        op, inputs, grid, target, w_vec, spec1, w1_vec, tuple(c["thetas"]), qtilde=c["qtilde"],
        cubes=cubes, roundtrip_tol=c["roundtrip_tol"], rel_tol=c["rel_tol"])
    bad = [e for e in rep.entries if e.built and not e.roundtrip_ok]
    code = EXIT_VIOLATION if bad else EXIT_OK
    return ({"qtilde": rep.qtilde, "verdict": rep.verdict,
             "net_sizes": list(rep.rk.net_sizes), "entries": rep.entries}, code)


# flags that override config keys when given
_OVERRIDES = (("seed", "seed"), ("resolution", "resolution"),
              ("cube_depth", "cube_depth"), ("tol", "rel_tol"))


# ---------------------------------------------------------------------------
# report plumbing


def _provenance(seed, started: float) -> dict:
    return {"tool": "varleb", "version": __version__, "seed": seed,
            "wall_time_s": round(time.monotonic() - started, 3)}


_quote = json.encoder.encode_basestring_ascii


def _render(obj, pad: str = "\n") -> str:
    """The JSON text of a report tree, in one walk: dataclasses as objects
    of their fields, numpy scalars as numbers, arrays and tuples as
    lists, keys as ``str(key)`` sorted, two spaces of indent per level,
    ASCII only. Standard JSON has no inf or NaN, so a non-finite float is
    the string "inf", "-inf" or "nan", which errors.number reads back.
    The commonest nodes, floats, strings, dicts and lists, are tested
    first."""
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return float.__repr__(x) if math.isfinite(x) else f'"{x}"'
    if isinstance(obj, str):
        return _quote(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # keys that share a str keep the value given last
        obj = {str(k): v for k, v in obj.items()}
        return "{" + inner + ("," + inner).join(
            [f"{_quote(k)}: {_render(obj[k], inner)}" for k in sorted(obj)]) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in obj]) + pad + "]"
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), pad)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _render({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(report: dict, out_path, quiet: bool) -> None:
    """Print the report, or write it to ``out_path``, raising an OSError
    that names the path when the file cannot be written.

    An existing file is written over in place and then cut to the
    report's length, which on ext4 costs a fraction of truncating it to
    zero first. The cut is skipped where the target is not a regular file,
    such as /dev/null or a pipe, on which ftruncate fails."""
    text = _render(report)
    if not out_path:
        if not quiet:
            print(text)
        return
    data = (text + "\n").encode()
    try:
        fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)
    except OSError as exc:
        raise OSError(f"cannot write report: {out_path}: {exc.strerror or exc}") from None
    if not quiet:
        print(f"report written to {out_path}")


def _read_json(path, what: str):
    """The JSON value in the file at ``path``, raising a SchemaError that
    calls the file ``what`` when it cannot be read."""
    # bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError like JSONDecodeError
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from None


def _run(command: str, cfg) -> tuple[dict, int]:
    """Run a command on a config read by its table: the report and its
    exit code."""
    started = time.monotonic()
    run, table = _RUNNERS[command]
    c = read_fields(cfg, table, f"{command} config")
    results, code = run(c, _grid_from(c))
    return ({"command": command, "config": cfg, "results": results, "warnings": [],
             "provenance": _provenance(cfg.get("seed"), started)}, code)


def _replay(command: str, old: dict, quiet: bool) -> int:
    """Rerun the config of the report ``old``; the exit code of the run,
    or 2 where its results differ from the stored ones."""
    if not isinstance(old.get("provenance", {}), dict):
        raise SchemaError("report key 'provenance' must be a JSON object")
    if old.get("command") != command:
        raise SchemaError(f"report was produced by '{old.get('command')}', not '{command}'")
    warns = []
    old_version = old.get("provenance", {}).get("version")
    if old_version != __version__:
        msg = f"report version {old_version} differs from {__version__}"
        warnings.warn(msg, VersionMismatchWarning)
        warns.append(msg)
    report, code = _run(command, old.get("config", {}))
    # a stored report may hold a bare Infinity, which _render writes as "inf"
    new, stored = _render(report["results"]), _render(old.get("results"))
    match = new == stored
    mismatch = [] if match else [_replay_diff(json.loads(stored), json.loads(new))]
    report.update(warnings=warns + mismatch, replay_match=match)
    if not quiet:
        print(_render(report))
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


# the flags of each mode, its required one first
_MODE_FLAGS = {"run": ("config", "out", "seed", "resolution", "cube_depth", "tol"),
               "replay": ("report",)}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process at the first ``main``
    call; ``parse_args`` leaves it as it was, so every call reuses it."""
    parser = argparse.ArgumentParser(
        prog="varleb",
        description="variable-exponent norms, weight constants, and diagnostics")
    parser.add_argument("command", choices=_RUNNERS, metavar="command",
                        help="one of " + ", ".join(_RUNNERS))
    parser.add_argument("mode", choices=_MODE_FLAGS, help="run a config or replay a report")
    parser.add_argument("--config", help="run: JSON config path")
    parser.add_argument("--out", help="run: write the report here instead of stdout")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--resolution", type=int)
    parser.add_argument("--cube-depth", dest="cube_depth", type=int)
    parser.add_argument("--tol", type=float, help="run: override the norm solver rel_tol")
    parser.add_argument("--report", help="replay: previously written report")
    parser.add_argument("--quiet", action="store_true")
    return parser


def _parse(argv) -> argparse.Namespace:
    """The arguments; like a usage error, a flag of the other mode or a
    missing required flag exits 2 with the fault named."""
    parser = _parser()
    args = parser.parse_args(argv)
    for mode, flags in _MODE_FLAGS.items():
        for flag in flags:
            if mode != args.mode and getattr(args, flag) is not None:
                parser.error(f"argument --{flag.replace('_', '-')}: not allowed with mode "
                             f"'{args.mode}'")
    required = _MODE_FLAGS[args.mode][0]
    if getattr(args, required) is None:
        parser.error(f"the following arguments are required: --{required}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    what = _MODE_FLAGS[args.mode][0]  # the file read: "config" or "report"
    try:
        data = _read_json(getattr(args, what), what)
        if not isinstance(data, dict):
            raise SchemaError(f"{what} must be a JSON object")
        if args.mode == "replay":
            return _replay(args.command, data, args.quiet)
        for flag, key in _OVERRIDES:
            value = getattr(args, flag)
            if value is not None:
                data[key] = value
        report, code = _run(args.command, data)
        _emit(report, args.out, args.quiet)
        return code
    except (HypothesisFailureError, OverflowToInfinityError) as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    # a float that overflows on its way to an integer raises OverflowError
    # where NaN raises ValueError
    except (VarlebError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # json.loads, a descriptor reader or _render run out of stack
    except RecursionError:
        print(f"error: {what} is nested too deeply", file=sys.stderr)
        return EXIT_CONFIG
    # a size beyond memory, such as a resolution of 10**15; numpy names it
    except MemoryError as exc:
        print(f"error: cannot allocate: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
