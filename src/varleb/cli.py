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
                     SchemaError, VarlebError, VersionMismatchWarning, block, check_keys,
                     descriptor, integer, list_of, number, per_axis, read_keys, read_kind)
from .exponent import ExponentField, QuadrupleSpec, validate_quadruple
from .field import Box, DyadicCubeSet, Grid, WeightField, realize_function
from .interp import (BallAverageProduct, EndpointSpace, FractionalKernel, Product,
                     run_extrapolation_workflow, verify_interpolation_bounds)
from .maximal import RadiusSweep, maximal_function
from .norms import modular, norm_ratios, weighted_norm, weighted_table
from .rk import classify, dilate_family, modulate_family, mollify_family, translate_family
from .weights import ap_constant, multilinear_constant, two_to_one_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2


# ---------------------------------------------------------------------------
# config tables: each key's reader builds the object it names on the grid


def _s_value(value, key, where, *_) -> float:
    """The reader of a quadruple's s: a number, or inf as "inf" or null."""
    return math.inf if value in ("Infinity", None) else number(value, key, where)


def _weight(in_block: bool, many: bool = False):
    """Reader of a weight, or with ``many`` of a list of weights, whose faults,
    such as a value that is not positive and finite, name its config key:
    ``key``, or ``where.key`` in a block, with the index of a list entry."""
    def at(path: str, desc: dict, grid: Grid) -> WeightField:
        try:
            return WeightField(grid, realize_function(desc, grid).values)
        except DomainError as exc:
            raise DomainError(f"config key '{path}': {exc}") from None

    def read(value, key, where, grid):
        path = f"{where}.{key}" if in_block else key
        if not many:
            return at(path, _OBJECT(value, key, where), grid)
        return tuple(at(f"{path}[{j}]", desc, grid)
                     for j, desc in enumerate(list_of(_OBJECT)(value, key, where)))
    return read


_OBJECT = descriptor("a function", lambda desc, *_: desc)  # checked, left unbuilt
# realize_function is looked up at each call, as bench/layers.py rebinds it
_FUNCTION = descriptor("a function", lambda desc, grid: realize_function(desc, grid))
_EXPONENT = descriptor("an exponent",
                       lambda desc, grid: ExponentField.from_descriptor(desc, grid.box))
_WEIGHT, _WEIGHTS = _weight(False), _weight(False, many=True)
# resolution counts cells per axis and is read on the box; _run gives its default
_CELLS = per_axis(functools.partial(integer, low=1))
_GRID = {"box": (Box.from_pairs, REQUIRED), "resolution": (_CELLS, None)}
_CUBES = (lambda value, key, where, grid:
               DyadicCubeSet(grid.box, integer(value, key, where, low=0)))
_SWEEP = (lambda value, key, where, grid:
          RadiusSweep.geometric(grid, integer(value, key, where)))
_QUADRUPLE = block({"p_vec": (list_of(_EXPONENT), REQUIRED), "q": (_EXPONENT, REQUIRED),
                    "r_vec": (list_of(number), REQUIRED), "s": (_s_value, REQUIRED),
                    "gamma": (number, None)},
                   lambda p_vec, q, r_vec, s, gamma:
                   QuadrupleSpec(tuple(p_vec), q, tuple(r_vec), s, gamma))
_ENDPOINT = block({"p_vec": (list_of(_EXPONENT), REQUIRED), "q": (_EXPONENT, REQUIRED),
                   "weights": (_weight(True, many=True), REQUIRED), "v": (_weight(True), REQUIRED),
                   "bound": (number, None)},
                  lambda p_vec, q, weights, v, bound:
                  EndpointSpace(tuple(p_vec), q, weights, v, bound))
_MIXED = block({"qtilde": (number, REQUIRED), "offset_count": (integer, 8)})
_ARITY = {"arity": (integer, REQUIRED)}
# kind -> (builder, its keys besides "kind")
_OPERATORS = {
    "product": (Product, _ARITY),
    "ball_average_product": (BallAverageProduct, {**_ARITY, "radius": (number, REQUIRED)}),
    "fractional_kernel": (FractionalKernel, {**_ARITY, "alpha": (number, REQUIRED)}),
}
_OPERATOR = descriptor("an operator", lambda desc, grid: read_kind(desc, _OPERATORS, "operator"))
_MEMBERS = {"base": (_FUNCTION, REQUIRED), "count": (integer, REQUIRED)}
# kind -> (builder on the grid, its keys besides "kind")
_FAMILIES = {
    "translate": (lambda grid, base, count, step: translate_family(base, count, step),
                  {**_MEMBERS, "step": (number, REQUIRED)}),
    "modulate": (lambda grid, base, count, base_frequency, growth:
                 modulate_family(base, count, base_frequency, growth),
                 {**_MEMBERS, "base_frequency": (number, 1.0), "growth": (number, 2.0)}),
    "dilate": (lambda grid, base, count, ratio: dilate_family(base, count, ratio),
               {**_MEMBERS, "ratio": (number, 0.5)}),
    "mollify": (lambda grid, base, count, sigma, ratio: mollify_family(base, count, sigma, ratio),
                {**_MEMBERS, "sigma": (number, REQUIRED), "ratio": (number, 0.1)}),
}
_FAMILY = descriptor("a family", lambda desc, grid: read_kind(desc, _FAMILIES, "family", grid))


# ---------------------------------------------------------------------------
# command runners; each is registered with its config table, takes the
# config as built by it on the grid of its box and resolution, and returns
# (results, exit_code), which _run wraps in the whole report

_RUNNERS: dict = {}


def _command(name: str, **table):
    def register(run):
        _RUNNERS[name] = (run, {**_GRID, **table}, table)
        return run
    return register


@_command("norm", exponent=(_EXPONENT, REQUIRED), function=(_FUNCTION, REQUIRED),
          weight=(_WEIGHT, None), rel_tol=(number, 1e-10))
def _run_norm(c, grid):
    res = weighted_norm(c["function"], c["exponent"], c["weight"], rel_tol=c["rel_tol"])
    return ({"norm": res.value, "iterations": res.iterations,
             "bracket": list(res.bracket), "modular_at_value": math.exp(res.log_modular)},
            EXIT_OK)


@_command("modular", exponent=(_EXPONENT, REQUIRED), function=(_FUNCTION, REQUIRED))
def _run_modular(c, grid):
    return {"modular": modular(c["function"], c["exponent"])}, EXIT_OK


def _constant_results(rep) -> dict:
    """The results shared by the weight-constant commands."""
    return {"constant": rep.constant, "overflow": rep.overflow,
            "argmax_cube": rep.argmax_cube.label(), "cube_count": rep.cube_count}


@_command("weight-constant", exponent=(_EXPONENT, REQUIRED), weight=(_WEIGHT, REQUIRED),
          cube_depth=(_CUBES, 4), rel_tol=(number, 1e-10))
def _run_weight_constant(c, grid):
    rep = ap_constant(c["weight"], c["exponent"], c["cube_depth"], c["rel_tol"])
    return _constant_results(rep), EXIT_OK


@_command("multilinear-constant", quadruple=(_QUADRUPLE, REQUIRED),
          weights=(_WEIGHTS, REQUIRED), cube_depth=(_CUBES, 4), rel_tol=(number, 1e-10))
def _run_multilinear_constant(c, grid):
    verdict = validate_quadruple(c["quadruple"])
    rep = multilinear_constant(c["weights"], c["quadruple"], c["cube_depth"], c["rel_tol"])
    return ({**_constant_results(rep), "admissible": verdict.admissible,
             "proper": verdict.proper, "gamma": verdict.gamma,
             "clauses": verdict.clauses}, EXIT_OK)


@_command("two-to-one", quadruple=(_QUADRUPLE, REQUIRED), weight=(_WEIGHT, REQUIRED),
          cube_depth=(_CUBES, 4), rel_tol=(number, 1e-10), tol=(number, 1e-6))
def _run_two_to_one(c, grid):
    rep = two_to_one_check(c["weight"], c["quadruple"], c["cube_depth"], c["rel_tol"])
    code = EXIT_OK if rep.rel_error <= c["tol"] else EXIT_VIOLATION
    return ({"lhs_constant": rep.lhs_constant, "rhs_constant": rep.rhs_constant,
             "a": rep.a, "rel_error": rep.rel_error,
             "max_cube_rel_error": rep.max_cube_rel_error, "tol": c["tol"],
             "passed": code == EXIT_OK}, code)


@_command("maximal", exponent=(_EXPONENT, REQUIRED), function=(_FUNCTION, REQUIRED),
          qtilde=(number, REQUIRED), weight=(_WEIGHT, None), radii_count=(_SWEEP, 64),
          rel_tol=(number, 1e-10))
def _run_maximal(c, grid):
    p, f, w, sweep = c["exponent"], c["function"], c["weight"], c["radii_count"]
    Mf = maximal_function(f, c["qtilde"], sweep)
    nf = weighted_table(f.values, grid, p, w).solve(rel_tol=c["rel_tol"])
    if not math.isfinite(nf.log_value[0]):
        raise DomainError(f"maximal config key 'function' has weighted norm "
                          f"{float(nf.value[0])!r} on the grid; the ratio needs a nonzero one")
    nM, ratio = norm_ratios(Mf.values, grid, p, w, nf.log_value, c["rel_tol"])
    dom = float(np.min(Mf.values - np.abs(f.values)))
    return ({"norm_input": nf.value[0], "norm_maximal": nM.value[0], "ratio": ratio[0],
             "dominance_min": dom, "radii_count": len(sweep.radii)}, EXIT_OK)


@_command("rk-classify", exponent=(_EXPONENT, REQUIRED), weight=(_WEIGHT, REQUIRED),
          qtilde=(number, REQUIRED), family=(_FAMILY, REQUIRED), cube_depth=(_CUBES, 3),
          rel_tol=(number, 1e-10), threshold_factor=(number, 1e-2))
def _run_rk_classify(c, grid):
    rep = classify(c["family"], c["exponent"], c["weight"], c["qtilde"], cubes=c["cube_depth"],
                   threshold_factor=c["threshold_factor"], rel_tol=c["rel_tol"])
    return ({"verdict": rep.verdict, "net_sizes": list(rep.net_sizes),
             "eps_ladder": list(rep.eps_ladder), "plateau": rep.plateau,
             "growth": rep.growth, "family_size": len(c["family"]),
             "uniform_bound": rep.uniform.sup,
             "gate_constant": rep.gate.constant,
             "equicontinuity": rep.equicontinuity,
             "vanishing": rep.vanishing}, EXIT_OK)


@_command("interp-verify", operator=(_OPERATOR, REQUIRED), endpoint0=(_ENDPOINT, REQUIRED),
          endpoint1=(_ENDPOINT, REQUIRED), theta=(number, REQUIRED), trials=(integer, 100),
          seed=(integer, 0), safety=(number, 1.05), slack=(number, 1e-6),
          rel_tol=(number, 1e-10), mixed=(_MIXED, None))
def _run_interp_verify(c, grid):
    kwargs = {key: c[key] for key in ("trials", "seed", "safety", "slack", "rel_tol")}
    rep, *mixed = verify_interpolation_bounds(c["operator"], c["endpoint0"], c["endpoint1"],
                                              c["theta"], **(c["mixed"] or {}), **kwargs)
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


@_command("extrapolate", target=(_QUADRUPLE, REQUIRED), weights=(_WEIGHTS, REQUIRED),
          endpoint1=(_QUADRUPLE, REQUIRED), weights1=(_WEIGHTS, REQUIRED),
          thetas=(list_of(number), REQUIRED), operator=(_OPERATOR, REQUIRED),
          family=(_FAMILY, REQUIRED), cube_depth=(_CUBES, 3),
          qtilde=(number, None), rel_tol=(number, 1e-10), roundtrip_tol=(number, 1e-10))
def _run_extrapolate(c, grid):
    target, family = c["target"], c["family"]
    # the family in each of the target's slots, a view; the workflow refuses a wrong arity first
    inputs = np.broadcast_to(family.values[:, None], (len(family), target.m, *grid.shape))
    rep = run_extrapolation_workflow(
        c["operator"], inputs, grid, target, c["weights"], c["endpoint1"], c["weights1"],
        tuple(c["thetas"]), qtilde=c["qtilde"], cubes=c["cube_depth"],
        roundtrip_tol=c["roundtrip_tol"], rel_tol=c["rel_tol"])
    bad = [e for e in rep.entries if e.built and not e.roundtrip_ok]
    code = EXIT_VIOLATION if bad else EXIT_OK
    return ({"qtilde": rep.qtilde, "verdict": rep.verdict,
             "net_sizes": list(rep.rk.net_sizes), "entries": rep.entries}, code)


# the flags of run that override a config key: flag -> (config key, type, help)
_OVERRIDES = {"seed": ("seed", int, None), "resolution": ("resolution", int, None),
              "cube_depth": ("cube_depth", int, None),
              "tol": ("rel_tol", float, "run: override the norm solver rel_tol")}


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
    exit code. Every key is checked before any is read; box, then
    resolution on it, are read into the grid, and the other keys are built
    on the grid."""
    started = time.monotonic()
    run, keys, table = _RUNNERS[command]
    where = f"{command} config"
    check_keys(cfg, keys, where)
    box = Box.from_pairs(cfg["box"], "box", where)
    cells = _CELLS(cfg.get("resolution", 4096 if box.dim == 1 else 256), "resolution", where, box)
    grid = Grid(box, tuple(n + 1 for n in cells))  # n cells -> n + 1 nodes
    results, code = run(read_keys(cfg, table, where, grid), grid)
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


_ABSENT = object()  # the value of a key on the side that does not hold it


def _differing_leaves(a, b, path: str):
    """Yield each leaf where the JSON trees ``a`` (stored) and ``b``
    (replayed) differ as (path, a's value, b's value): at an object its
    keys on one side only first, `_ABSENT` on the other, then its shared
    keys, each in sorted order; lists of one length go index by index."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) ^ set(b)):
            yield f"{path}.{k}", a.get(k, _ABSENT), b.get(k, _ABSENT)
        for k in sorted(set(a) & set(b)):
            yield from _differing_leaves(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differing_leaves(x, y, f"{path}[{i}]")
    elif type(a) is not type(b) or a != b:
        yield path, a, b


def _replay_diff(old, new) -> str:
    """Say where two JSON result trees differ: how many leaves, the
    first few paths, the keys on one side only, and the largest relative
    difference over numeric leaves."""
    diffs = list(_differing_leaves(old, new, "results"))
    one_sided = [f"{path} ({'replayed' if a is _ABSENT else 'stored'} only)"
                 for path, a, b in diffs if a is _ABSENT or b is _ABSENT]
    leaves = [(path, a, b) for path, a, b in diffs if a is not _ABSENT and b is not _ABSENT]
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
_MODE_FLAGS = {"run": ("config", "out", *_OVERRIDES), "replay": ("report",)}


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
    for flag, (_, kind, text) in _OVERRIDES.items():
        parser.add_argument("--" + flag.replace("_", "-"), type=kind, help=text)
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
        for flag, (key, *_) in _OVERRIDES.items():
            value = getattr(args, flag)
            if value is not None:
                if key not in _RUNNERS[args.command][1]:
                    raise SchemaError(f"flag --{flag.replace('_', '-')} does not apply to "
                                      f"command '{args.command}'")
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
