import numpy as np
import pytest

from dickesim.dicke_states import dicke
from dickesim.sampling import (
    CoincidenceHistogram,
    ExperimentPlan,
    count_matrix,
    histograms_to_table,
    run_plan,
    stream_generator,
)
from dickesim.states import MeasurementSetting, outcome_distribution
from test_states import per_setting_distribution, random_density, random_settings


def zbasis(n):
    return MeasurementSetting.uniform("z", n)


def test_stream_generator_is_reproducible_and_independent():
    a = stream_generator(7, 0).integers(0, 1000, size=5)
    b = stream_generator(7, 0).integers(0, 1000, size=5)
    c = stream_generator(7, 1).integers(0, 1000, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_count_matrix_matches_distribution():
    counts = count_matrix(dicke(4, 2), ExperimentPlan((zbasis(4),), 200000, seed=5))
    assert counts.shape == (1, 16)
    assert counts.sum() == 200000
    freqs = counts[0] / 200000
    probs = outcome_distribution(dicke(4, 2), zbasis(4))
    # multinomial: three sigma per bin
    sigma = np.sqrt(probs * (1 - probs) / 200000)
    assert np.all(np.abs(freqs - probs) <= 3 * sigma + 1e-9)


def test_count_matrix_is_deterministic_per_seed_and_stream():
    plan = ExperimentPlan((zbasis(4),) * 4, events_per_setting=1000, seed=9)
    a = count_matrix(dicke(4, 2), plan)
    b = count_matrix(dicke(4, 2), plan)
    assert np.array_equal(a, b)
    # one setting four times: row k is stream k's draw, so the rows differ
    assert not np.array_equal(a[2], a[3])
    # a stream's draw does not depend on the plan's other settings
    c = count_matrix(dicke(4, 2), ExperimentPlan(
        (MeasurementSetting("xxxx"),) * 2 + (zbasis(4),), events_per_setting=1000, seed=9))
    assert np.array_equal(a[2], c[2])


def test_histogram_counts_are_read_only():
    hist = run_plan(dicke(4, 2), ExperimentPlan((zbasis(4),), events_per_setting=100, seed=0))[0]
    with pytest.raises(ValueError):
        hist.counts[0] = 5


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan((zbasis(4),), events_per_setting=0, seed=0)


@pytest.mark.parametrize("events, seed, message", [
    (2.5, 0, "events per setting must be a positive integer"),
    (True, 0, "events per setting must be a positive integer"),
    (50, 1.7, "seed must be an integer"),
    (50, True, "seed must be an integer"),
])
def test_plan_refuses_non_integer_counts(events, seed, message):
    with pytest.raises(ValueError, match=message):
        ExperimentPlan((zbasis(4),), events_per_setting=events, seed=seed)


def test_plan_refuses_a_negative_seed():
    # refused where it enters, not at the first draw
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        ExperimentPlan((zbasis(4),), events_per_setting=10, seed=-1)


def test_run_plan_streams_are_distinct_and_reproducible():
    plan = ExperimentPlan((zbasis(4), zbasis(4)), events_per_setting=2000, seed=11)
    first = run_plan(dicke(4, 2), plan)
    second = run_plan(dicke(4, 2), plan)
    assert len(first) == 2
    for h1, h2 in zip(first, second):
        assert np.array_equal(h1.counts, h2.counts)
    # same setting, different stream index: different draws
    assert not np.array_equal(first[0].counts, first[1].counts)


@pytest.mark.parametrize("source", ["dicke_5_2", "density_4"])
def test_run_plan_draws_row_k_of_the_oracle_from_stream_k(source):
    rng = np.random.default_rng(8)
    state = dicke(5, 2) if source == "dicke_5_2" else random_density(4, rng)
    settings = random_settings(12, state.num_qubits, "mixed", rng)
    hists = run_plan(state, ExperimentPlan(tuple(settings), events_per_setting=5000, seed=13))
    assert [hist.setting for hist in hists] == settings
    for k, (setting, hist) in enumerate(zip(settings, hists)):
        expected = stream_generator(13, k).multinomial(5000, per_setting_distribution(state, setting))
        assert hist.total == 5000
        assert np.array_equal(hist.counts, expected)


def test_histograms_to_table_totals():
    plan = ExperimentPlan((zbasis(4),), events_per_setting=400, seed=2)
    hists = run_plan(dicke(4, 2), plan)
    table = histograms_to_table(hists)
    assert set(table) == {zbasis(4).label()}
    assert table[zbasis(4).label()].sum() == 400


def test_histograms_to_table_rejects_a_repeated_label():
    # one table entry per label: a second histogram of the same setting would
    # replace the first, and an estimator would read the survivor twice
    plan = ExperimentPlan((zbasis(4), MeasurementSetting("xxxx"), zbasis(4)),
                          events_per_setting=10, seed=0)
    hists = run_plan(dicke(4, 2), plan)
    with pytest.raises(ValueError, match="z,z,z,z"):
        histograms_to_table(hists)
    assert set(histograms_to_table(hists[:2])) == {"z,z,z,z", "x,x,x,x"}
