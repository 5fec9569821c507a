#!/usr/bin/env python3
"""Benchmark of the dickesim pipeline: source model, witness bounds,
setting plans, sampling and protocols, run through the CLI in process.

Run from the repository root:

    python3 bench/run.py --workload experiment --seed 1 --seconds 35 --trace 0
    python3 bench/run.py                     # every workload in turn

Each workload is a closed loop with one client: its jobs run back to back
in this process, each through ``dickesim.cli.main`` with its own output
directory.  A pass runs every job once; passes repeat while the next
one fits in ``--seconds`` (at least three), and each job counts at its
median over the passes.  A fixed reference kernel (``reference.py``) is
timed between the jobs; ``wall_rel``, the headline metric, sums the job
times each divided by the reference time around it, which cancels the
host's slow spells.  Every report is checked.  ``--trace 1`` runs one
plain pass and one with spans around the package's public functions
(see ``tracing.py``), and checks that both write byte-identical reports.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric by name and unit, and the provenance.  Result and span
files go to ``bench/.runs/``.  Without ``src/dickesim`` next to this
directory the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode in the checkout

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / "bench" / ".runs"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# dependency order, so each module's time excludes what it imports
IMPORT_ORDER = ("states", "dicke_states", "witness", "fock", "lms", "sampling",
                "protocols", "references", "cli")
SETUP_SAMPLES = 5
MIN_PASSES = 3
REFERENCE_UNITS = 3  # reference-kernel runs before each job and after the last
TIMED_COMMANDS = ("calibrate", "simulate", "sample", "bound", "protocols", "qss")

SETUP_SCRIPT = """
import importlib, json, sys, time
times = {}
start = time.perf_counter()
for name in sys.argv[1:]:
    begin = time.perf_counter()
    importlib.import_module("dickesim." + name)
    times[name] = time.perf_counter() - begin
times["total"] = time.perf_counter() - start
print(json.dumps(times))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    return args


def prepare_environment():
    """Pin BLAS to one thread before numpy loads (the CLI's --threads flag
    cannot once numpy is imported), and write no bytecode, so src/ stays
    untouched and every set-up compiles the package's sources alike."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"


# ---------------------------------------------------------------------------
# Set-up and provenance


def setup_sample():
    """Import times, total and per module, in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, *IMPORT_ORDER],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing dickesim failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              env=env, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def provenance(seed):
    import numpy

    info = {
        "git_sha": git_sha(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }
    try:
        import scipy
    except ImportError:
        pass
    else:
        info["scipy"] = scipy.__version__
    return info


# ---------------------------------------------------------------------------
# Jobs and passes


def program_caches():
    """The package's functools caches; a CLI user starts each job with
    them empty, so every job here does too."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("dickesim.") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def execute(job, out_dir, config_path, seed):
    if job.command == "calibrate":
        return workloads.run_calibrate(job.config, out_dir)
    from dickesim import cli

    argv = [job.command, "--config", str(config_path), "--seed", str(seed), "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def call(job, out_dir, config_path, seed, tracer):
    try:
        if tracer is not None:
            return tracer.run_job(job.name, execute, job, out_dir, config_path, seed)
        return execute(job, out_dir, config_path, seed)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing job is counted, and the run goes on
        traceback.print_exc()
        return 1


def check(job, out_dir):
    try:
        report = json.loads((out_dir / f"{job.command}.json").read_text())
        return job.check(report) if job.check else []
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot check the report: {exc!r}"]


def run_pass(jobs, pass_dir, seed, caches, between, tracer=None):
    """Run every job once; ``between`` runs before each job, untimed."""
    import reference  # imports numpy, so only after prepare_environment()

    pass_dir.mkdir(parents=True)
    began = time.perf_counter()
    times = []
    reference_times = []
    jobs_failed = checks_failed = 0
    for job in jobs:
        between()
        reference_times.append([reference.unit() for _ in range(REFERENCE_UNITS)])
        out_dir = pass_dir / job.name
        config_path = pass_dir / f"{job.name}.config.json"
        config_path.write_text(json.dumps(job.config))
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        start = time.perf_counter()
        code = call(job, out_dir, config_path, seed, tracer)
        times.append(time.perf_counter() - start)
        failures = [f"exit code {code}"] if code != 0 else check(job, out_dir)
        jobs_failed += code != 0
        checks_failed += bool(failures)
        for failure in failures:
            print(f"check failed: {job.name}: {failure}", file=sys.stderr)
    reference_times.append([reference.unit() for _ in range(REFERENCE_UNITS)])
    return {"times": times, "wall": sum(times), "elapsed": time.perf_counter() - began,
            "reference": reference_times, "jobs": len(jobs),
            "jobs_failed": jobs_failed, "checks_failed": checks_failed}


def tree(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# One workload


def run_workload(args):
    jobs = workloads.WORKLOADS[args.workload]()
    # set-up is sampled at the start and then between jobs, so that its
    # samples do not all fall in one slow spell of the machine
    setup_samples = [setup_sample()]

    def sample_setup():
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample())

    sys.path.insert(0, str(SRC))
    for name in IMPORT_ORDER:
        module = importlib.import_module(f"dickesim.{name}")
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"dickesim was imported from {module.__file__}, not {SRC}")
    caches = program_caches()

    work = RUNS / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    passes = []
    traced = None
    deadline = time.perf_counter() + args.seconds

    def another_pass():
        # a traced run needs one untraced pass, as reference and baseline;
        # otherwise passes repeat while the next, as long as the shortest
        # so far, ends before the deadline
        if not passes or args.trace:
            return not passes
        return (len(passes) < MIN_PASSES
                or time.perf_counter() + min(p["elapsed"] for p in passes) <= deadline)

    try:
        while another_pass():
            pass_dir = work / f"pass{len(passes)}"
            passes.append(run_pass(jobs, pass_dir, args.seed, caches, sample_setup))
            if len(passes) > 1:
                shutil.rmtree(pass_dir)
        reference_dir = work / "pass0"
        report_bytes = sum(len(data) for data in tree(reference_dir).values())
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(jobs, work / "traced", args.seed, caches, sample_setup, tracer)
            finally:
                tracer.uninstall()
            mismatched = sorted(
                job.name for job in jobs
                if tree(reference_dir / job.name) != tree(work / "traced" / job.name)
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    while len(setup_samples) < SETUP_SAMPLES:
        sample_setup()
    setup = {key: statistics.median(s[key] for s in setup_samples) for key in setup_samples[0]}

    # each job counts at its median over the passes, which also drops a
    # slow first pass.  For wall_rel each job time is first divided by the
    # median of the reference units timed right before and right after
    # it, which meet the same slow spell of the host, if any
    median = [statistics.median(p["times"][k] for p in passes) for k in range(len(jobs))]
    relative = [statistics.median(p["times"][k] / statistics.median(p["reference"][k]
                                                                    + p["reference"][k + 1])
                                  for p in passes) for k in range(len(jobs))]
    wall_s = sum(median)
    reference_s = statistics.median(t for p in passes for u in p["reference"] for t in u)
    end_to_end = {
        "setup_s": (setup["total"], "s"),
        "wall_rel": (sum(relative), "x"),
        "wall_s": (wall_s, "s"),
        "reference_s": (reference_s, "s"),
        **{f"{c}_s": (sum(t for t, job in zip(median, jobs) if job.command == c), "s")
           for c in TIMED_COMMANDS},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "checks_failed": (sum(p["checks_failed"] for p in passes), "count"),
        "jobs_failed": (sum(p["jobs_failed"] for p in passes), "count"),
        "jobs": (sum(p["jobs"] for p in passes), "count"),
    }
    all_passes = passes + ([traced] if traced else [])
    attempted = sum(p["jobs"] for p in all_passes)
    failed = sum(p["jobs_failed"] for p in all_passes)
    correct = not any(p["checks_failed"] for p in all_passes)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}")
    print_metrics(end_to_end)
    result = {"workload": args.workload, "provenance": provenance(args.seed),
              "pass_times": [p["times"] for p in passes],
              "reference_times": [p["reference"] for p in passes],
              "end_to_end": as_json(end_to_end)}
    if args.trace:
        layers = tracer.metrics()
        layers.update({f"setup.import.{m}_s": (setup[m], "s") for m in IMPORT_ORDER})
        layers.update({f"job.{c}_s": end_to_end[f"{c}_s"] for c in TIMED_COMMANDS})
        layers.update({k: end_to_end[k] for k in ("wall_s", "reference_s")})
        layers["cli.report_bytes"] = (report_bytes, "bytes")
        layers["trace.overhead_s"] = (traced["wall"] - wall_s, "s")
        print("per layer (traced pass):")
        print_metrics(layers)
        absent = tracer.absent_metrics()
        print(f"absent (reported as 0): {absent}")
        print(f"traced reports identical: {not mismatched} {mismatched or ''}")
        correct = correct and not mismatched
        span_file = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
        span_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         **tracer.dump()}))
        print(f"spans: {span_file.relative_to(ROOT)}")
        result.update(per_layer=as_json(layers), absent=absent, traced_mismatches=mismatched)
        metrics = layers
    else:
        metrics = {k: end_to_end[k] for k in ("setup_s", "wall_rel", "peak_rss_mb")}
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    result_file = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": as_json(metrics)}))
    return 0


def as_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")


def run_all(args):
    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = code or subprocess.run(argv).returncode
    return code


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dickesim" / "cli.py").is_file():
        print(f"error: {SRC / 'dickesim'} not found; run from a dickesim checkout",
              file=sys.stderr)
        return 2
    prepare_environment()
    RUNS.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
