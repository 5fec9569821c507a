"""Deterministic coincidence-count sampling.

Counts emulate the experiment's count-level data: multinomial draws from
a state's outcome distribution.  Randomness comes from numpy's PCG64
generator seeded through SeedSequence((seed, setting_index)), so
identical inputs give byte-identical counts on any platform.

A plan's counts are one (S, 2^N) int64 matrix, row k for setting k in
plan order (``count_matrix``, the only draw); ``lms.fidelity_from_matrix``
reads it as it is, and ``run_plan`` wraps its rows as
``CoincidenceHistogram``s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import MeasurementSetting, _is_integer, outcome_distributions


def stream_generator(seed: int, stream_index: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, stream) pair."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((int(seed), int(stream_index))))
    )


@dataclass(frozen=True)
class CoincidenceHistogram:
    setting: MeasurementSetting
    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.min() < 0:
            raise ValueError("counts must be a nonnegative vector")
        if int(counts.sum()) != self.total:
            raise ValueError("total does not match the counts")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class ExperimentPlan:
    settings: tuple
    events_per_setting: int
    seed: int = 0

    def __post_init__(self):
        settings = tuple(self.settings)
        if not settings:
            raise ValueError("plan needs at least one setting")
        if not _is_integer(self.events_per_setting) or self.events_per_setting < 1:
            raise ValueError(
                f"events per setting must be a positive integer, got {self.events_per_setting!r}"
            )
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "settings", settings)


def count_matrix(state, plan: ExperimentPlan) -> np.ndarray:
    """(S, 2^N) int64 outcome counts of every plan setting, row k for
    ``plan.settings[k]``.

    The outcome distributions of all settings come from one call of
    ``states.outcome_distributions``, and row k is one multinomial draw of
    ``plan.events_per_setting`` events from its own stream
    ``stream_generator(plan.seed, k)``.  This is the package's only draw.
    """
    probs = outcome_distributions(state, plan.settings)
    n_events = int(plan.events_per_setting)
    counts = np.empty(probs.shape, dtype=np.int64)
    for k, row in enumerate(probs):
        counts[k] = stream_generator(plan.seed, k).multinomial(n_events, row)
    return counts


def run_plan(state, plan: ExperimentPlan) -> list[CoincidenceHistogram]:
    """One histogram per plan setting: the rows of ``count_matrix``."""
    total = int(plan.events_per_setting)
    return [
        CoincidenceHistogram(setting, row, total)
        for setting, row in zip(plan.settings, count_matrix(state, plan))
    ]


def histograms_to_table(histograms) -> dict:
    """Outcome counts per setting label, the input of ``lms.fidelity_from_counts``.

    Raises ValueError when two histograms share a label: the table could
    keep only one of them, and an estimator would read it twice.
    """
    table = {}
    for hist in histograms:
        label = hist.setting.label()
        if label in table:
            raise ValueError(f"two histograms share the setting label {label!r}")
        table[label] = hist.counts
    return table
