"""Spans around dickesim's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every ``dickesim``
module namespace that holds the same object, so names bound with
``from .states import fidelity`` and the CLI handlers' lazy imports go
through the wrapper too; ``Tracer.uninstall`` puts the originals back.
A function a later version of the package no longer has is skipped and
its metrics are reported as absent (value 0), so deleting code never
breaks the benchmark.

Each call records a span: name, start, end, parent span and job.  Spans
stay in memory until the run ends.  Counts are read from the public
return values after the span closes; the time that takes is excluded
from every span's self time and shows only in ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

TRACED = {
    "fock": ("propagate", "apply_loss", "postselect", "threshold_counts",
             "simulate_experiment", "calibrate"),
    "witness": ("biseparable_bound", "witness_operator", "witness_value",
                "collective_spin_sq", "correlator_scan"),
    "lms": ("decompose", "plan_settings", "fidelity_from_counts", "check_plan_covers"),
    "sampling": ("run_plan", "sample", "outcome_probabilities"),
    "states": ("expectation", "outcome_distribution", "apply_local", "partial_trace",
               "fidelity", "save_state"),
    "protocols": ("maximal_singlet_fraction", "telecloning_report", "odt_report",
                  "werner", "qss_run"),
    "dicke_states": ("dicke", "navigate"),
    "cli": ("main", "validate", "write_report", "emit_plotdata"),
}

CALL_COUNTS = (
    "fock.threshold_counts", "witness.biseparable_bound", "sampling.sample",
    "states.expectation", "states.outcome_distribution",
    "protocols.maximal_singlet_fraction", "states.partial_trace", "dicke_states.dicke",
)

DISTINCT_TOL = 1e-9


def _one_photon_per_mode(occ) -> bool:
    return all(occ[2 * j] + occ[2 * j + 1] == 1 for j in range(len(occ) // 2))


def _count_apply_loss(counts, args, kwargs, mixture):
    branches = mixture.components
    counts["fock.apply_loss.branches"] += len(branches)
    counts["fock.apply_loss.amplitudes"] += sum(ket.support_size for _, ket in branches)
    counts["fock.apply_loss.useful"] += sum(
        any(_one_photon_per_mode(occ) for occ, _ in ket.items()) for _, ket in branches
    )


def _count_propagate(counts, args, kwargs, ket):
    counts["fock.propagate.support"] += ket.support_size


def _count_calibrate(counts, args, kwargs, records):
    counts["fock.calibrate.points"] += len(records)


def _count_bound(counts, args, kwargs, estimate):
    values = sorted(estimate.per_bipartition.values())
    distinct = 1 + sum(b - a > DISTINCT_TOL for a, b in zip(values, values[1:])) if values else 0
    counts["witness.bound.bipartitions"] += len(values)
    counts["witness.bound.distinct_values"] += distinct
    counts["witness.bound.restarts_total"] += estimate.restarts * len(values)
    counts["witness.bound.converged"] += int(bool(estimate.converged))


def _count_plan(counts, args, kwargs, plan):
    counts["lms.plan.settings"] += plan.num_settings


def _count_decompose(counts, args, kwargs, decomposition):
    target = args[0] if args else kwargs["target"]
    counts["lms.decompose.strings"] += 4**target.num_qubits
    counts["lms.decompose.terms"] += len(decomposition)


def _count_run_plan(counts, args, kwargs, histograms):
    counts["sampling.run_plan.settings"] += len(histograms)
    counts["sampling.run_plan.events"] += sum(int(h.total) for h in histograms)


def _count_qss(counts, args, kwargs, result):
    counts["protocols.qss_run.rounds"] += result.rounds
    counts["protocols.qss_run.sifted"] += result.sifted_bits


# traced function -> (counter, the metrics its counts feed)
COUNTERS = {
    "fock.apply_loss": (_count_apply_loss, (
        "fock.apply_loss.branches", "fock.apply_loss.amplitudes", "fock.sixfold_useful_ratio")),
    "fock.propagate": (_count_propagate, ("fock.propagate.support",)),
    "fock.calibrate": (_count_calibrate, ("fock.calibrate.points",)),
    "witness.biseparable_bound": (_count_bound, (
        "witness.bound.bipartitions", "witness.bound.distinct_values",
        "witness.bound.useful_ratio", "witness.bound.restarts_total",
        "witness.bound.converged")),
    "lms.plan_settings": (_count_plan, ("lms.plan.settings",)),
    "lms.decompose": (_count_decompose, (
        "lms.decompose.strings", "lms.decompose.terms", "lms.decompose.useful_ratio")),
    "sampling.run_plan": (_count_run_plan, (
        "sampling.run_plan.settings", "sampling.run_plan.events")),
    "protocols.qss_run": (_count_qss, (
        "protocols.qss_run.rounds", "protocols.qss_run.sift_ratio")),
}

# ratio metric -> (numerator count, denominator count)
RATIOS = {
    "fock.sixfold_useful_ratio": ("fock.apply_loss.useful", "fock.apply_loss.branches"),
    "witness.bound.useful_ratio": ("witness.bound.distinct_values", "witness.bound.bipartitions"),
    "lms.decompose.useful_ratio": ("lms.decompose.terms", "lms.decompose.strings"),
    "protocols.qss_run.sift_ratio": ("protocols.qss_run.sifted", "protocols.qss_run.rounds"),
}

# span fields: id, parent id, job, name, start, end, close (end plus counting)
ID, PARENT, JOB, NAME, START, END, CLOSE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = set()  # traced functions the package no longer has
        self.broken = set()  # traced functions whose return value changed shape
        self._stack = []
        self._job = None
        self._restore = []

    def _wrap(self, name, fn, counter=None):
        spans, stack, counts, broken = self.spans, self._stack, self.counts, self.broken

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:  # a check of the benchmark's own, not a job
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else None, self._job, name, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = span[CLOSE] = time.perf_counter()
                stack.pop()
            if counter is not None and name not in broken:
                try:
                    counter(counts, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    broken.add(name)
                span[CLOSE] = time.perf_counter()
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "dickesim" or n.startswith("dickesim.")) and m is not None]
        for module_name, functions in TRACED.items():
            home = sys.modules.get(f"dickesim.{module_name}")
            for function in functions:
                name = f"{module_name}.{function}"
                original = getattr(home, function, None)
                if not callable(original):
                    self.absent.add(name)
                    continue
                counter = COUNTERS.get(name, (None,))[0]
                wrapper = self._wrap(name, original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def run_job(self, job_name, fn, *args):
        """Run one job under a root span named ``job``."""
        self._job = job_name
        try:
            return self._wrap("job", fn)(*args)
        finally:
            self._job = None

    def self_times(self):
        """Per-span self time: the span's duration minus its children's
        intervals, counting included, so counting lands in no span."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[CLOSE] - s[START]
        return own

    def metrics(self):
        """{metric: (value, unit)} for every per-layer metric."""
        seconds = Counter()
        calls = Counter()
        for span, own in zip(self.spans, self.self_times()):
            seconds[span[NAME]] += own
            calls[span[NAME]] += 1
        out = {}
        for module_name, functions in TRACED.items():
            for function in functions:
                name = f"{module_name}.{function}"
                out[f"{name}_s"] = (seconds[name], "s")
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = (calls[name], "count")
        for _, produced in COUNTERS.values():
            for metric in produced:
                if metric in RATIOS:
                    numerator, denominator = RATIOS[metric]
                    base = self.counts[denominator]
                    out[metric] = (self.counts[numerator] / base if base else 0.0, "ratio")
                else:
                    out[metric] = (self.counts[metric], "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def absent_metrics(self):
        """Metrics that read 0 because their function or counter is gone."""
        names = []
        for name in sorted(self.absent):
            names.append(f"{name}_s")
            if name in CALL_COUNTS:
                names.append(f"{name}.calls")
        for name, (_, produced) in COUNTERS.items():
            if name in self.absent or name in self.broken:
                names.extend(produced)
        return names

    def dump(self):
        return {
            "fields": ["id", "parent", "job", "name", "start_s", "end_s", "self_s"],
            "spans": [[s[ID], s[PARENT], s[JOB], s[NAME], s[START], s[END], own]
                      for s, own in zip(self.spans, self.self_times())],
        }
