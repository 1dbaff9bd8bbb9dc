"""The benchmark tracer's patch targets exist in the package.

`perfbench/spans.py` wraps functions and methods by name; a rename or
deletion in the package would otherwise surface only when the benchmark
runs with `--trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

from thermolab import anosov, cli, fields, flow, jacobi

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    for modname, attr in load_spans().FUNCTIONS:
        module = importlib.import_module(f"thermolab.{modname}")
        assert hasattr(module, attr), f"thermolab.{modname}.{attr}"
    for attr in ("COMMANDS", "dumps", "write_report"):
        assert hasattr(cli, attr), f"thermolab.cli.{attr}"
    # the tracer replaces these through the class __dict__
    for cls, attr in ((fields.SMScalarField, "eval"),
                      (flow.ThermostatSpec, "rhs"),
                      (anosov.GridTransportOperator, "apply"),
                      (jacobi.JacobiCoefficients, "__init__")):
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
