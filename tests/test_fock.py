import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dickesim.dicke_states import dicke
from dickesim.fock import (
    FockKet,
    LossConfig,
    NoSixfoldEventsError,
    SpdcConfig,
    calibrate,
    order_weight,
    pack_occupation,
    pick_calibration,
    propagate,
    simulate_experiment,
    spdc_state,
    splitter_network,
    threshold_counts,
    unpack_occupation,
)
from dickesim.states import MeasurementSetting, fidelity


def test_occupation_packing_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        occ = tuple(int(v) for v in rng.integers(0, 7, size=12))
        assert unpack_occupation(pack_occupation(occ)) == occ


def test_spdc_config_validation():
    with pytest.raises(ValueError):
        SpdcConfig(lam=1.0)
    with pytest.raises(ValueError):
        SpdcConfig(lam=-0.1)


def test_lossless_third_order_probability_and_fidelity():
    result = simulate_experiment(SpdcConfig(lam=0.6, max_order=3), LossConfig())
    assert_allclose(result.p_exact, 5.0 / 324.0, atol=1e-12)
    assert_allclose(result.fidelity_vs_d63, 1.0, atol=1e-12)
    assert_allclose(fidelity(result.rho_sim, dicke(6, 3)), 1.0, atol=1e-10)


def test_lossless_result_independent_of_pump_strength():
    # without loss the post-selected state is pure; lambda only scales rates
    a = simulate_experiment(SpdcConfig(lam=0.3, max_order=3), LossConfig())
    b = simulate_experiment(SpdcConfig(lam=0.7, max_order=3), LossConfig())
    assert_allclose(a.p_exact, b.p_exact, atol=1e-12)
    assert_allclose(a.fidelity_vs_d63, b.fidelity_vs_d63, atol=1e-12)


def test_lossless_fourth_order_keeps_unit_fidelity():
    result = simulate_experiment(SpdcConfig(lam=0.6, max_order=4), LossConfig())
    assert_allclose(result.fidelity_vs_d63, 1.0, atol=1e-12)
    # threshold detectors cannot distinguish multiple photons in one mode,
    # so the click rate exceeds the exact per-pulse sixfold probability
    assert result.p_event > result.p_exact_per_pulse > 0.0


def test_higher_order_emission_degrades_lossy_fidelity():
    lossy = LossConfig(eta_h=0.3, eta_v=0.3)
    low = simulate_experiment(SpdcConfig(lam=0.45, max_order=4), lossy)
    high = simulate_experiment(SpdcConfig(lam=0.85, max_order=4), lossy)
    assert high.fidelity_vs_d63 < low.fidelity_vs_d63 < 1.0


def test_no_sixfold_events_raises():
    with pytest.raises(NoSixfoldEventsError):
        simulate_experiment(SpdcConfig(lam=0.5, max_order=2), LossConfig())
    with pytest.raises(NoSixfoldEventsError):
        simulate_experiment(
            SpdcConfig(lam=0.2, max_order=3), LossConfig(eta_h=1e-9, eta_v=1e-9)
        )


def test_threshold_counts_distribution_is_normalized():
    # the raw emission occupies two spatial modes only; sixfold events
    # appear once the state is distributed over the splitter network
    psi = spdc_state(SpdcConfig(lam=0.5, max_order=3))
    _, p_raw = threshold_counts(psi, MeasurementSetting.uniform("z", 6))
    assert p_raw == 0.0
    spread = propagate(psi, splitter_network())
    probs, p_event = threshold_counts(spread, MeasurementSetting.uniform("z", 6))
    assert probs.shape == (64,)
    assert_allclose(probs.sum(), 1.0, atol=1e-10)
    assert p_event > 0.0


def test_simulation_report_keys(noisy_simulation):
    report = noisy_simulation.report()
    for key in (
        "p_event",
        "p_exact",
        "p_exact_per_pulse",
        "fidelity_vs_D63",
        "lambda",
        "max_order",
        "eta_H",
        "eta_V",
    ):
        assert key in report


def test_operating_point_matches_calibration_file(
    noisy_simulation, calibration_record
):
    assert_allclose(
        noisy_simulation.fidelity_vs_d63,
        calibration_record["fidelity"],
        atol=1e-9,
    )
    assert_allclose(
        noisy_simulation.p_event, calibration_record["p_event"], rtol=1e-9
    )
    assert 0.56 <= noisy_simulation.fidelity_vs_d63 <= 0.66


def test_calibrate_grid_and_pick():
    lambdas = [0.55, 0.65, 0.75, 0.85]
    records = calibrate(lambdas, [0.30], max_order=4)
    assert len(records) == 4
    for rec in records:
        for key in ("lambda", "eta_H", "eta_V", "max_order", "fidelity",
                    "p_exact", "p_exact_per_pulse", "p_event"):
            assert key in rec
    fids = [rec["fidelity"] for rec in records]
    # stronger pumping admits more higher-order noise at fixed loss
    assert all(a > b for a, b in zip(fids, fids[1:]))
    picked = pick_calibration(records, target_fidelity=0.61)
    assert abs(picked["fidelity"] - 0.61) == min(
        abs(f - 0.61) for f in fids
    )


def _loss_branches(psi, loss):
    """Every Kraus branch of independent binomial loss on every mode.

    Returns {lost photons per mode: {surviving occupation: amplitude}};
    the branches are unnormalized, so their squared norms are the branch
    weights.
    """
    branches = {}
    for occ, amp in psi.items():
        options = []
        for n, eta in zip(occ, loss.flat()):
            kraus = [
                (lost, math.sqrt(math.comb(n, lost) * eta ** (n - lost) * (1.0 - eta) ** lost))
                for lost in range(n + 1)
            ]
            options.append([(lost, f) for lost, f in kraus if f != 0.0])
        for choice in itertools.product(*options):
            factor = amp * math.prod(f for _, f in choice)
            lost = tuple(k for k, _ in choice)
            branch = branches.setdefault(lost, {})
            survivor = tuple(n - k for n, k in zip(occ, lost))
            branch[survivor] = branch.get(survivor, 0.0) + factor
    return branches


def _one_per_mode_index(occ):
    """Qubit basis index of one photon in every spatial mode (H = 0,
    mode 0 the most significant bit), or None."""
    index = 0
    for j in range(6):
        if occ[2 * j] + occ[2 * j + 1] != 1:
            return None
        index = 2 * index + occ[2 * j + 1]
    return index


def _mixture_oracle(spdc, loss):
    """The full loss-branch mixture, post-selected branch by branch.

    Returns the normalized post-selected state, its probability per
    pulse and the z-basis threshold event probability, the last one as
    the weighted sum of threshold_counts over the branches.
    """
    psi = propagate(spdc_state(spdc), splitter_network())
    z_basis = MeasurementSetting.uniform("z", 6)
    rho = np.zeros((64, 64), dtype=complex)
    p_event = 0.0
    for branch in _loss_branches(psi, loss).values():
        vec = np.zeros(64, dtype=complex)
        for occ, amp in branch.items():
            index = _one_per_mode_index(occ)
            if index is not None:
                vec[index] = amp
        rho += np.outer(vec, vec.conj())
        weight = sum(abs(a) ** 2 for a in branch.values())
        ket = FockKet(branch, photon_cap=psi.photon_cap, normalize=True)
        p_event += weight * threshold_counts(ket, z_basis)[1]
    p_raw = float(np.trace(rho).real)
    return rho / p_raw, p_raw, p_event


@pytest.mark.parametrize(
    "lam, max_order, eta_h, eta_v",
    [
        (0.85, 3, 0.3, 0.3),
        (0.6, 3, 0.3, 0.7),
        (0.5, 3, 1e-3, 0.999),
        (0.7, 3, 1.0, 1.0),
        (0.7, 4, 1.0, 1.0),
        (0.85, 4, 1.0, 0.3),
    ],
)
def test_simulation_matches_loss_branch_oracle(lam, max_order, eta_h, eta_v):
    spdc = SpdcConfig(lam=lam, max_order=max_order)
    loss = LossConfig(eta_h=eta_h, eta_v=eta_v)
    result = simulate_experiment(spdc, loss)
    rho, p_raw, p_event = _mixture_oracle(spdc, loss)
    assert_allclose(result.rho_sim.matrix, rho, rtol=0, atol=1e-12)
    assert_allclose(result.p_exact_per_pulse, p_raw, rtol=1e-9, atol=0)
    assert_allclose(result.p_exact, p_raw / order_weight(spdc, 3), rtol=1e-9, atol=0)
    assert_allclose(result.p_event, p_event, rtol=1e-9, atol=0)
