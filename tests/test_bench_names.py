"""The benchmark tracer wraps varleb functions by name and reads their
results; every name it wraps must still resolve, or a traced benchmark
run fails at install, and what it reads must match the reports."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import varleb
from varleb.exponent import ExponentField

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, name) for module, name, _, _ in layers.TRACED]


@pytest.mark.parametrize("module, name", _traced())
def test_every_traced_name_resolves_in_varleb(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_the_traced_exponent_method_resolves():
    assert callable(getattr(ExponentField, "values_on", None))


# Run in a child process, as `Tracer.install` rebinds names in every loaded
# varleb module: argv is the tracer's file, a work directory and the configs
# by command.  It prints the metrics and the results of each report.
_TRACED_RUN = """
import importlib.util, json, os, sys
import varleb.cli
spec = importlib.util.spec_from_file_location("bench_layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
tracer = layers.Tracer()
tracer.install()
results = {}
for command, cfg in json.loads(sys.argv[3]).items():
    cfg_path, out = (os.path.join(sys.argv[2], command + ext) for ext in (".json", ".out"))
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert sys.modules["varleb.cli"].main(
        [command, "run", "--config", cfg_path, "--out", out, "--quiet"]) == 0
    with open(out) as fh:
        results[command] = json.load(fh)["results"]
print(json.dumps({"metrics": tracer.metrics(), "results": results}))
"""


def test_the_tracer_reads_the_norm_solve_and_the_cube_count_of_the_reports(tmp_path):
    """One ``norm`` job and one ``weight-constant`` job, traced: the
    metrics are JSON, and the solve's evaluation count and relative
    bracket width and the cube count are those of the reports; the cube
    scan solves without `lux_flat`, which the ``norm`` job calls once."""
    gauss = {"kind": "gaussian", "center": [0.4], "width": 0.3}
    configs = {
        "norm": {"box": [[0.0, 1.0]], "resolution": 257, "rel_tol": 1e-2, "function": gauss,
                 "exponent": {"kind": "affine", "base": 1.5, "slopes": [1.0]}},
        "weight-constant": {"box": [[0.0, 1.0]], "resolution": 129, "cube_depth": 3,
                            "exponent": {"kind": "constant", "value": 2.5}, "weight": gauss},
    }
    src = str(pathlib.Path(varleb.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(LAYERS), str(tmp_path), json.dumps(configs)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    metrics = {name: m["value"] for name, m in got["metrics"].items()}
    norm, constant = got["results"]["norm"], got["results"]["weight-constant"]
    lo, hi = norm["bracket"]
    assert metrics["norms.lux_flat.calls"] == 1
    assert metrics["norms.lux_flat.iterations"] == norm["iterations"] > 0
    assert metrics["norms.lux_flat.max_rel_bracket"] == (hi - lo) / hi > 0.0
    assert metrics["weights.cubes"] == constant["cube_count"] > 0
