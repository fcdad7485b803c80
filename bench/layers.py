"""Per-layer spans and work counts, wrapped around varleb from outside.

Each traced public function is replaced, in every varleb module that
bound it, by a wrapper that records calls and self time (its duration
minus the time spent in traced functions it called) under a layer name,
plus work counts read from its arguments or result.  Nothing in varleb
changes; ``install`` only rebinds names, so it must run after
``import varleb`` and before the jobs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _lux_flat(stats, args, kwargs, result):
    stats["iterations"] += result.iterations
    stats["nodes"] += args[0].size
    lo, hi = result.bracket
    if hi > 0.0:
        stats["max_rel_bracket"] = max(stats["max_rel_bracket"], (hi - lo) / hi)


def _constant(stats, args, kwargs, result):
    stats["cubes"] += result.cube_count


def _ball_sums(stats, args, kwargs, result):
    stats["nodes"] += args[0].size


def _maximal_function(stats, args, kwargs, result):
    sweep = args[2] if len(args) > 2 else kwargs["sweep"]
    stats["radii"] += len(sweep.radii)


def _distance_matrix(stats, args, kwargs, result):
    n = result.shape[0]
    stats["pairs"] += n * (n - 1) // 2


# (module, function, layer, counter); several functions may share a layer
TRACED = (
    ("varleb.norms", "lux_flat", "norms.lux_flat", _lux_flat),
    ("varleb.norms", "mixed_norm", "norms.mixed_norm", None),
    ("varleb.weights", "ap_constant", "weights.constant", _constant),
    ("varleb.weights", "multilinear_constant", "weights.constant", _constant),
    ("varleb.field", "box_slices", "field.box_slices", None),
    ("varleb.field", "realize_function", "field.realize_function", None),
    ("varleb.maximal", "ball_sums", "maximal.ball_sums", _ball_sums),
    ("varleb.maximal", "maximal_function", "maximal.maximal_function", _maximal_function),
    ("varleb.maximal", "oscillation_average", "maximal.oscillation_average", None),
    ("varleb.rk", "classify", "rk.classify", None),
    ("varleb.rk", "family_distance_matrix", "rk.family_distance_matrix", _distance_matrix),
    ("varleb.interp", "apply_operator", "interp.apply_operator", None),
    ("varleb.interp", "verify_interpolation_bound", "interp.verify", None),
    ("varleb.interp", "verify_mixed_interpolation_bound", "interp.verify", None),
    ("varleb.interp", "run_extrapolation_workflow", "interp.extrapolate", None),
    ("varleb.exponent", "validate_quadruple", "exponent.validate_quadruple", None),
    ("varleb.cli", "main", "cli.main", None),
)

# (layer, statistic, unit) printed by the traced run, in this order
METRICS = (
    ("norms.lux_flat", "calls", "count"),
    ("norms.lux_flat", "self_s", "s"),
    ("norms.lux_flat", "iterations", "count"),
    ("norms.lux_flat", "iterations_per_solve", "count"),
    ("norms.lux_flat", "nodes", "count"),
    ("norms.lux_flat", "max_rel_bracket", "ratio"),
    ("norms.mixed_norm", "calls", "count"),
    ("weights.constant", "calls", "count"),
    ("weights.constant", "self_s", "s"),
    ("weights", "cubes", "count"),
    ("field.box_slices", "calls", "count"),
    ("maximal.ball_sums", "calls", "count"),
    ("maximal.ball_sums", "nodes", "count"),
    ("maximal.ball_sums", "self_s", "s"),
    ("maximal.maximal_function", "radii", "count"),
    ("maximal.oscillation_average", "calls", "count"),
    ("maximal.oscillation_average", "self_s", "s"),
    ("rk.classify", "self_s", "s"),
    ("rk.family_distance_matrix", "pairs", "count"),
    ("rk.family_distance_matrix", "self_s", "s"),
    ("interp.apply_operator", "calls", "count"),
    ("interp.apply_operator", "self_s", "s"),
    ("interp.verify", "self_s", "s"),
    ("interp.extrapolate", "self_s", "s"),
    ("cli.main", "self_s", "s"),
    ("field.realize_function", "calls", "count"),
    ("field.realize_function", "self_s", "s"),
    ("exponent.values_on", "calls", "count"),
    ("exponent.validate_quadruple", "calls", "count"),
)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._children = []  # traced time of the callees of each open span

    def wrap(self, layer, fn, counter):
        stats = self.stats[layer]
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - inner
            if counter is not None:
                counter(stats, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every traced function wherever varleb imported it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "varleb" or name.startswith("varleb.")]
        for module_name, attr, layer, counter in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(layer, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
        field_cls = sys.modules["varleb.exponent"].ExponentField
        field_cls.values_on = self.wrap("exponent.values_on", field_cls.values_on, None)

    def metrics(self):
        lux = self.stats["norms.lux_flat"]
        lux["iterations_per_solve"] = lux["iterations"] / lux["calls"] if lux["calls"] else 0.0
        self.stats["weights"]["cubes"] = self.stats["weights.constant"]["cubes"]
        out = {}
        for layer, stat, unit in METRICS:
            value = self.stats[layer][stat]
            if unit == "count" and stat != "iterations_per_solve":
                value = int(value)
            out[f"{layer}.{stat}"] = {"value": value, "unit": unit}
        return out
