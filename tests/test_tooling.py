"""The benchmark tracer's patch targets exist in the package, and its
result hooks read real results; README's feature lists name what exists.

`perfbench/spans.py` wraps functions and methods by name and reads
attributes of their results; a rename or deletion in the package would
otherwise surface only when the benchmark runs with `--trace 1`.
README names the `lab` subcommands and the probes that only the library
reaches; a subcommand or probe added or deleted without README would
otherwise go unnoticed.  No module of the package imports scipy, not even
inside a function: `lab` runs on numpy alone, and a scipy import would put
scipy's import time and memory on every run that reaches it.  Every default
of a public function is both left and varied by some call: an option that
every caller sets alike is a constant, and a default that no call leaves
is a required argument.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

from thermolab import anosov, cli, fields, flow, jacobi
from thermolab.fields import SMPoint, SMScalarField
from thermolab.geometry import euclidean_disk, flat_torus
from thermolab.identities import torus_quadrature
from thermolab.xray import PairField, PolarNodeGrid, ray_fan

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "thermolab"


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


def test_tracer_result_hooks_read_real_results():
    spans = load_spans()
    spec = flow.geodesic_spec(euclidean_disk())
    p0 = SMPoint(0.1, 0.2, 0.3)
    fan = ray_fan(4, 4)
    # each hook's traced call on a tiny input, and the counter it moves
    cases = {
        "flow.integrate_orbit": ((spec, p0, (0.0, 1.0)), "flow.steps"),
        "jacobi.integrate_jacobi": ((spec, p0, (0.0, 1.0)), "jacobi.steps"),
        "jacobi.solve_riccati_finite": ((spec, p0, 1.0), "jacobi.steps"),
        "identities.liouville_integrate": (
            (torus_quadrature(flat_torus(), 4),
             {"1": SMScalarField.constant(1.0)}),
            "identities.quad_nodes"),
        "xray.assemble_discrete_operator": (
            (spec, PolarNodeGrid(4, 4), fan), "xray.rays_assembled"),
        "xray.transform_pair": (
            (spec, PairField.from_expressions(phi="1"), fan[0]),
            "xray.rays_kept"),
    }
    assert set(cases) == set(spans.ON_RESULT)
    for name, (args, counter) in cases.items():
        modname, attr = name.split(".")
        func = getattr(importlib.import_module(f"thermolab.{modname}"), attr)
        tracer = spans.Tracer()
        spans.ON_RESULT[name](tracer, args, {}, func(*args))
        assert tracer.counts[counter] > 0, name


def test_readme_lists_match_the_package():
    text = README.read_text()
    # the `Subcommands:` sentence names exactly the CLI's subcommands
    sentence = re.search(r"Subcommands:(.*?)\.\s", text, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(cli.COMMANDS)
    # every library-only probe resolves, and its test file exercises it
    section = text.split("## Library-only probes", 1)[1].split("\n## ")[0]
    probes = re.findall(r"^- `(\w+)\.(\w+)`: `(tests/\w+\.py)`$", section,
                        re.M)
    assert probes
    for modname, attr, test_file in probes:
        module = importlib.import_module(f"thermolab.{modname}")
        assert hasattr(module, attr), f"thermolab.{modname}.{attr}"
        assert re.search(rf"\b{attr}\b", (ROOT / test_file).read_text()), \
            f"{test_file} does not exercise {modname}.{attr}"
    # and the list is complete: it is every public function that `lab`
    # cannot reach
    assert sorted(f"{m}.{f}" for m, f, _ in probes) == unreached_functions()


def unreached_functions():
    """The public module-level functions of the package that no code path
    from outside them reaches, by an AST name scan: a function is
    unreached when every reference to it lies in the body of an unreached
    function (private ones included).  A reference is a bare name, or an
    attribute of a module bound by `from . import module`, not a name that
    the function or class binds itself; a module-level import is not one,
    the uses it serves are.  Module-level statements and class bodies are
    reached."""
    defined, refs = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module is None for alias in node.names}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = path.stem
            where = node.name if isinstance(node, ast.FunctionDef) else None
            # names a function or class binds itself are its own
            local = {sub.id if isinstance(sub, ast.Name) else sub.arg
                     for sub in ast.walk(node)
                     if isinstance(sub, ast.arg) or isinstance(sub, ast.Name)
                     and isinstance(sub.ctx, ast.Store)} \
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id not in local:
                    refs.setdefault(sub.id, set()).add(where)
                elif isinstance(sub, ast.Attribute) and \
                        isinstance(sub.value, ast.Name) and \
                        sub.value.id in modules:
                    refs.setdefault(sub.attr, set()).add(where)
    unreached = set(defined)
    while True:
        reached = {name for name in unreached
                   if refs.get(name, set()) - unreached - {name}}
        if not reached:
            break
        unreached -= reached
    return sorted(f"{defined[name]}.{name}" for name in unreached
                  if not name.startswith("_"))


def unvaried_defaults():
    """The defaulted parameters of the package's public module-level
    functions that the calls in `src/` and `tests/` do not vary, by an AST
    scan.  A call is a call of the function's name, bare or as an
    attribute; each call gives each defaulted parameter the source text of
    its argument, or the default's own text when it leaves the parameter,
    as every call with *args or **kwargs counts as doing.  A parameter is
    flagged unless its texts include the default's and at least one
    other: a default that no call leaves is a required argument, and one
    that every call leaves alike is a constant."""
    defaults = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name.startswith("_"):
                continue
            a = node.args
            positional = [arg.arg for arg in a.posonlyargs + a.args]
            named = dict(zip(positional[len(positional) - len(a.defaults):],
                             map(ast.unparse, a.defaults)))
            named.update((arg.arg, ast.unparse(d))
                         for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None)
            if named:
                defaults[node.name] = (f"{path.stem}.{node.name}",
                                       positional, named)
    texts = {(name, p): set() for name, (_, _, named) in defaults.items()
             for p in named}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(
            (ROOT / "tests").glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name not in defaults:
                continue
            _, positional, named = defaults[name]
            given = {} if any(
                isinstance(arg, ast.Starred) for arg in call.args) or any(
                kw.arg is None for kw in call.keywords) else {
                **dict(zip(positional, map(ast.unparse, call.args))),
                **{kw.arg: ast.unparse(kw.value) for kw in call.keywords}}
            for p, default in named.items():
                texts[name, p].add(given.get(p, default))
    return sorted(f"{defaults[name][0]}({p})" for (name, p), seen
                  in texts.items()
                  if not (defaults[name][2][p] in seen and len(seen) > 1))


def test_every_default_is_varied():
    assert unvaried_defaults() == []


def test_package_imports_no_scipy():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), \
                f"{path.name}:{node.lineno} imports scipy"
