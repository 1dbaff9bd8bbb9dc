"""Run one thermolab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ray_fan --seed 1 --seconds 30 --trace 0

The workload runs in this one process as a closed loop with one client and
one job at a time.  Each job is a ``lab`` subcommand called in-process
through ``thermolab.cli.main`` on a config file generated from the seed.
Passes over the job list repeat for about ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over several fresh interpreters of the time to
  ``import thermolab.cli``, which every ``lab`` invocation pays;
* ``run_s``: median wall time of one pass over the job list (model
  construction, solving and report writing);
* ``peak_rss_mb``: peak resident set size of this process.

``--trace 1`` runs a traced, an untraced and a traced pass, and reports
the per-layer metrics of the last one.  Both traced passes must give the
same work counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a job that exits
non-zero or fails its output check counts as failed.  A fuller record with
provenance (versions, core count, git SHA, seed), per-job times and
diagnostics is written under ``.bench_out/``.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import CHECKS, WORKLOADS, diagnostics, jobs

# one BLAS/OpenMP thread, for this process and the set-up probes; set here,
# before main() first imports thermolab and with it numpy
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import thermolab.cli; "
                "print(time.perf_counter() - t)")
# the modules ``lab`` subcommands import on first use
LAZY_MODULES = ("thermolab.anosov", "thermolab.identities",
                "thermolab.jacobi", "thermolab.xray")
# work counts that must repeat exactly between two traced passes
DETERMINISTIC_COUNTS = ("flow.rhs_evals", "flow.steps",
                        "jacobi.solve_riccati_finite.calls", "anosov.matvecs",
                        "xray.rays_attempted")
SUBCOMMANDS = ("validate", "flow", "jacobi", "riccati", "pestov", "identity",
               "xray", "invert", "anosov", "cohomology")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(samples=SETUP_SAMPLES):
    """Median seconds for a fresh interpreter to import thermolab.cli.

    One unmeasured import first writes the bytecode caches.
    """
    times = []
    for i in range(samples + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def provenance(seed):
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "git_sha": git_sha(), "seed": seed,
            "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
            "os_threads": os_threads()}


def os_threads():
    """Threads of this process once numpy is loaded (1 when BLAS is pinned)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = git / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


class JobList:
    """The generated configs of one workload and seed, run as passes."""

    def __init__(self, workload, seed):
        self.dir = OUT / f"{workload}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.jobs = []
        for i, (sub, cfg) in enumerate(jobs(workload, seed)):
            path = self.dir / f"{i}-{sub}.config.json"
            path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
            self.jobs.append((sub, cfg, path))
        self.attempted = 0
        self.failures = []       # one entry per failed job
        self.problems = []       # failed checks of the run as a whole
        self.diagnostics = {}

    def run_pass(self):
        """Run every job once; returns (pass seconds, per-job seconds)."""
        from thermolab import cli
        job_s = {}
        for i, (sub, cfg, path) in enumerate(self.jobs):
            out = self.dir / "reports"
            argv = [sub, "--config", str(path), "--out", str(out)]
            report_path = out / f"{sub}.json"
            report_path.unlink(missing_ok=True)
            self.attempted += 1
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except Exception:  # a crash fails the job, not the benchmark
                self.failures.append(f"{sub}: {traceback.format_exc()}")
                continue
            finally:
                job_s[f"{i}-{sub}"] = time.perf_counter() - start
            if code != 0:
                self.failures.append(f"{sub}: exit {code}")
                continue
            report = json.loads(report_path.read_text())
            reason = CHECKS[sub](cfg, report)
            if reason is not None:
                self.failures.append(f"{sub}: {reason}")
            self.diagnostics.update(diagnostics(sub, report))
        return sum(job_s.values()), job_s


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, job_list, record):
    setup_s, setup_samples = measure_setup()
    passes, run_s = [], []
    start = time.perf_counter()
    # stop once another pass would likely end more than half a pass late
    while not passes or (time.perf_counter() - start
                         + statistics.median(run_s) / 2 < args.seconds):
        passes.append(job_list.run_pass())
        run_s.append(passes[-1][0])
    record.update(setup_samples_s=setup_samples, pass_run_s=run_s,
                  pass_job_s=[p[1] for p in passes])
    return {"setup_s": (setup_s, "s"),
            "run_s": (statistics.median(run_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def layer_metrics(tracer, run_s, untraced_s):
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    m = {}

    def timed(name, with_calls=False):
        m[f"{name}.self_s"] = (self_s[name], "s")
        if with_calls:
            m[f"{name}.calls"] = (calls[name], "count")

    timed("flow.integrate_orbit", True)
    m["flow.integrate_orbit.total_s"] = (
        tracer.total_s["flow.integrate_orbit"], "s")
    m["flow.steps"] = (counts["flow.steps"], "count")
    m["flow.rhs_evals"] = (calls["flow.rhs"], "count")
    m["flow.rhs_builds"] = (counts["flow.rhs_builds"], "count")
    m["flow.rhs_us"] = (1e6 * tracer.total_s["flow.rhs"]
                        / max(calls["flow.rhs"], 1), "us")
    timed("jacobi.solve_riccati_finite", True)
    timed("jacobi.integrate_jacobi", True)
    m["jacobi.steps"] = (counts["jacobi.steps"], "count")
    timed("jacobi.JacobiCoefficients")
    timed("fields.eval_scalar", True)
    timed("fields.eval_vector", True)
    m["fields.eval_vector.points"] = (counts["fields.eval_vector.points"],
                                      "count")
    timed("expr.parse_expression", True)
    for name in ("build_surface_model", "validate_structure_relations",
                 "derived_curvatures"):
        timed(f"geometry.{name}")
    m["geometry.thermostat_generator.calls"] = (
        calls["geometry.thermostat_generator"], "count")
    timed("identities.check_pestov_pointwise")
    timed("identities.check_integral_identity_closed")
    m["identities.quad_nodes"] = (counts["identities.quad_nodes"], "count")
    timed("xray.transform_pair", True)
    for name in ("assemble_discrete_operator", "analyze_kernel",
                 "reconstruct_pair"):
        timed(f"xray.{name}")
    attempted = counts["xray.rays_assembled"] + calls["xray.transform_pair"]
    m["xray.rays_attempted"] = (attempted, "count")
    m["xray.ray_yield"] = (counts["xray.rays_kept"] / attempted
                           if attempted else 0.0, "frac")
    timed("anosov.cohomological_residual")
    timed("anosov.theoremD_criterion")
    m["anosov.matvecs"] = (calls["anosov.GridTransportOperator.apply"],
                           "count")
    covered = 0.0
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_s"] = (tracer.total_s[f"cli.{sub}"], "s")
        covered += tracer.total_s[f"cli.{sub}"]
    for name in ("report", "load_config"):
        m[f"cli.{name}_s"] = (tracer.total_s[f"cli.{name}"], "s")
        covered += tracer.total_s[f"cli.{name}"]
    m["trace.run_s"] = (run_s, "s")
    m["trace.uncovered_s"] = (run_s - covered, "s")
    m["trace.overhead_frac"] = (run_s / untraced_s - 1.0, "frac")
    return m


def per_layer(args, job_list, record):
    """Traced pass, untraced pass, traced pass; report the last one.

    The first pass also warms the process up, so the untraced pass it is
    compared with runs warm too.
    """
    tracers, traced_s = [], []

    def traced_pass():
        tracer = Tracer()
        tracer.install()
        try:
            run_s, _ = job_list.run_pass()
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        traced_s.append(run_s)

    traced_pass()
    untraced_s, _ = job_list.run_pass()
    traced_pass()
    first, last = (layer_metrics(t, s, untraced_s)
                   for t, s in zip(tracers, traced_s))
    mismatched = [name for name in DETERMINISTIC_COUNTS
                  if first[name][0] != last[name][0]]
    if mismatched:
        job_list.problems.append(
            "work counts differ between two traced passes: "
            + ", ".join(f"{n} {first[n][0]} vs {last[n][0]}"
                        for n in mismatched))
    spans = OUT / f"{args.workload}-{args.seed}.spans.jsonl"
    tracers[-1].dump(spans)
    record.update(untraced_run_s=untraced_s, traced_run_s=traced_s,
                  spans=str(spans.relative_to(ROOT)))
    return last


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "thermolab" / "cli.py").is_file():
        print(f"thermolab sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    for name in ("thermolab.cli",) + LAZY_MODULES:
        importlib.import_module(name)

    job_list = JobList(args.workload, args.seed)
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(args.seed)}
    if args.trace:
        metrics = per_layer(args, job_list, record)
    else:
        metrics = end_to_end(args, job_list, record)
    failed = len(job_list.failures)
    result = {"correct": not (failed or job_list.problems),
              "attempted": job_list.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record.update(result=result, failures=job_list.failures,
                  problems=job_list.problems,
                  fail_frac=failed / job_list.attempted,
                  diagnostics=job_list.diagnostics)
    path = OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_frac = {failed / job_list.attempted:.6g} "
          f"frac ({failed} of {job_list.attempted} jobs)")
    for reason in job_list.failures + job_list.problems:
        print(f"failed: {reason}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print("diagnostics: " + json.dumps(job_list.diagnostics, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
