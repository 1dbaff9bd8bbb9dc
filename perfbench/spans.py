"""Spans and counters recorded from outside the thermolab package.

The tracer wraps public functions in every ``thermolab`` module namespace
that binds them (``integrate_orbit`` is imported by name into ``flow``,
``xray``, ``jacobi``, ``identities`` and ``cli``), plus a few methods on
their classes.  Each wrapped call is a span with a name, a start, an end
and the span that caused it.  A span's self time is its duration minus
the durations of its direct children.

Layer-boundary calls keep their spans in memory and are written out at
the end.  Per-evaluation calls (field evaluations, RHS calls, operator
applies) run hundreds of thousands of times, so they only add to their
name's totals; they still count as children of the span that made them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of the functions traced as layer-boundary spans
FUNCTIONS = (
    ("flow", "integrate_orbit"),
    ("jacobi", "solve_riccati_finite"),
    ("jacobi", "integrate_jacobi"),
    ("expr", "parse_expression"),
    ("geometry", "build_surface_model"),
    ("geometry", "validate_structure_relations"),
    ("geometry", "derived_curvatures"),
    ("geometry", "thermostat_generator"),
    ("identities", "check_pestov_pointwise"),
    ("identities", "check_integral_identity_closed"),
    ("identities", "liouville_integrate"),
    ("xray", "transform_pair"),
    ("xray", "assemble_discrete_operator"),
    ("xray", "analyze_kernel"),
    ("xray", "reconstruct_pair"),
    ("anosov", "cohomological_residual"),
    ("anosov", "theoremD_criterion"),
    ("cli", "load_config"),
)


def _orbit_steps(tracer, args, kwargs, result):
    tracer.counts["flow.steps"] += len(result.sol.ts) - 1


def _jacobi_steps(tracer, args, kwargs, result):
    tracer.counts["jacobi.steps"] += len(result.sol.ts) - 1


def _riccati_steps(tracer, args, kwargs, result):
    tracer.counts["jacobi.steps"] += sum(len(sol.ts) - 1
                                         for _, _, sol in result.segments)


def _quad_nodes(tracer, args, kwargs, result):
    tracer.counts["identities.quad_nodes"] += args[0].n_nodes


def _assembled_rays(tracer, args, kwargs, result):
    rays = kwargs["rays"] if "rays" in kwargs else args[2]
    tracer.counts["xray.rays_assembled"] += len(rays)
    tracer.counts["xray.rays_kept"] += len(result.rays)


def _transformed_ray(tracer, args, kwargs, result):
    tracer.counts["xray.rays_kept"] += 1


# work counters taken from a traced call's arguments and result
ON_RESULT = {
    "flow.integrate_orbit": _orbit_steps,
    "jacobi.integrate_jacobi": _jacobi_steps,
    "jacobi.solve_riccati_finite": _riccati_steps,
    "identities.liouville_integrate": _quad_nodes,
    "xray.assemble_discrete_operator": _assembled_rays,
    "xray.transform_pair": _transformed_ray,
}


class Tracer:
    """Installs the wrappers, collects spans, restores the package."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []         # [name, start, child seconds, span index]
        self._undo = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name, keep):
        index = -1
        if keep:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][1:3] = [start, end]

    def _wrap(self, name, func, keep=True, reentrant=True):
        on_result = ON_RESULT.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not reentrant and any(f[0] == name for f in self._stack):
                return func(*args, **kwargs)
            frame = self._enter(name, keep)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(frame)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def _rebind(self, original, wrapper):
        """Point every thermolab namespace binding of original at wrapper."""
        for modname, module in list(sys.modules.items()):
            if modname != "thermolab" and not modname.startswith("thermolab."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def install(self):
        from thermolab import anosov, cli, fields, flow, jacobi
        for modname, attr in FUNCTIONS:
            module = importlib.import_module(f"thermolab.{modname}")
            original = getattr(module, attr)
            self._rebind(original,
                         self._wrap(f"{modname}.{attr}", original))

        for sub, command in list(cli.COMMANDS.items()):
            wrapper = self._wrap(f"cli.{sub}", command)
            self._set(cli.COMMANDS, sub, wrapper)
            self._rebind(command, wrapper)
        for attr in ("dumps", "write_report"):
            self._rebind(getattr(cli, attr),
                         self._wrap("cli.report", getattr(cli, attr),
                                    reentrant=False))

        self._set(jacobi.JacobiCoefficients, "__init__", self._wrap(
            "jacobi.JacobiCoefficients",
            jacobi.JacobiCoefficients.__init__))
        self._set(anosov.GridTransportOperator, "apply", self._wrap(
            "anosov.GridTransportOperator.apply",
            anosov.GridTransportOperator.apply, keep=False))
        self._set(fields.SMScalarField, "eval",
                  self._wrap_eval(fields.SMScalarField.eval))
        self._set(flow.ThermostatSpec, "rhs",
                  self._wrap_rhs(flow.ThermostatSpec.rhs))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def _wrap_eval(self, func):
        """Split field evaluations into scalar and vector calls by size."""
        enter, leave, counts = self._enter, self._exit, self.counts

        @functools.wraps(func)
        def traced(field, x, y, theta):
            points = max(getattr(x, "size", 1), getattr(y, "size", 1),
                         getattr(theta, "size", 1))
            if points > 1:
                counts["fields.eval_vector.points"] += points
                frame = enter("fields.eval_vector", False)
            else:
                frame = enter("fields.eval_scalar", False)
            try:
                return func(field, x, y, theta)
            finally:
                leave(frame)
        return traced

    def _wrap_rhs(self, func):
        """Count RHS builds and time every call of the built closure."""
        enter, leave, counts = self._enter, self._exit, self.counts

        @functools.wraps(func)
        def traced(spec):
            counts["flow.rhs_builds"] += 1
            f = func(spec)

            def rhs(t, s):
                frame = enter("flow.rhs", False)
                try:
                    return f(t, s)
                finally:
                    leave(frame)
            return rhs
        return traced

    # -- results ----------------------------------------------------------

    def dump(self, path):
        """Write the kept spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
