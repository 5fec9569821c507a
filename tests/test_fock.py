import functools
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from math import comb, factorial

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dickesim
from dickesim.dicke_states import dicke
from dickesim.fock import (
    ARM_AMPLITUDES,
    N_SPATIAL,
    LossConfig,
    NoSixfoldEventsError,
    SpdcConfig,
    _sixfold_stats,
    calibrate,
    order_weight,
    pick_calibration,
    simulate_experiment,
)
from dickesim.states import fidelity

CALIBRATION_PATH = os.path.join(os.path.dirname(__file__), "..", "data", "calibration.json")

# ---------------------------------------------------------------------------
# Oracle: a general bosonic substitution engine over the twelve optical
# modes (six arms times two polarizations, flat index 2*j + p with p = 0
# for H).  A ket is an array of packed occupations, 4 bits per mode, with
# an array of amplitudes; it shares no code with the closed forms it checks.

N_MODES = 12
MODE_BITS = 4
MODE_MASK = (1 << MODE_BITS) - 1
PRUNE_TOL = 1e-14
SQRT_FACT = np.sqrt([float(math.factorial(n)) for n in range(MODE_MASK + 1)])
SHIFTS = MODE_BITS * np.arange(N_MODES)


def _pack(occ):
    return sum(int(count) << (MODE_BITS * mode) for mode, count in enumerate(occ))


def _unpack(key):
    return tuple((key >> (MODE_BITS * mode)) & MODE_MASK for mode in range(N_MODES))


def _occupations(keys):
    """(len(keys), 12) table of the occupations packed in ``keys``."""
    return (keys[:, None] >> SHIFTS) & MODE_MASK


def _power_expansion(targets, count):
    """Expand (sum_t c_t b_t^dag)^count into packed monomials with their
    multinomial weights; the bosonic sqrt(n!) factors are left out."""
    deltas, coeffs = [], []
    for multiset in itertools.combinations_with_replacement(range(len(targets)), count):
        mult = {}
        for i in multiset:
            mult[i] = mult.get(i, 0) + 1
        coeff = complex(math.factorial(count))
        delta = 0
        for i, k in mult.items():
            mode, c = targets[i]
            coeff *= c**k / math.factorial(k)
            delta |= k << (MODE_BITS * mode)
        deltas.append(delta)
        coeffs.append(coeff)
    return np.array(deltas, dtype=np.int64), np.array(coeffs)


def _merge(rest, out, amps):
    """Sum the amplitudes of rows that agree on both packed occupations."""
    pairs, inverse = np.unique(np.stack([rest, out], axis=1), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    summed = np.bincount(inverse, amps.real, len(pairs)) + 1j * np.bincount(
        inverse, amps.imag, len(pairs)
    )
    return pairs[:, 0], pairs[:, 1], summed


def _substitute(keys, amps, subs):
    """Rewrite each creation operator b_m^dag as sum_t c_t b_t^dag, with
    ``subs[m]`` the list of (target mode t, coefficient c_t).

    Each row holds the occupations not yet rewritten (``rest``) beside the
    rewritten ones (``out``); one input mode is rewritten at a time, for
    every row at once, and rows that then agree on both are merged.
    """
    amps = amps / np.prod(SQRT_FACT[_occupations(keys)], axis=1)
    rest, out = keys, np.zeros_like(keys)
    for mode in range(N_MODES):
        counts = (rest >> (MODE_BITS * mode)) & MODE_MASK
        if not counts.any():
            continue
        rest = rest & ~(MODE_MASK << (MODE_BITS * mode))
        idle = counts == 0
        parts = [(rest[idle], out[idle], amps[idle])]
        targets = [(t, c) for t, c in subs[mode] if abs(c) > 1e-15]
        for count in np.unique(counts[~idle]):
            sel = counts == count
            deltas, coeffs = _power_expansion(targets, int(count))
            parts.append((
                np.repeat(rest[sel], len(deltas)),
                (out[sel, None] + deltas).reshape(-1),
                (amps[sel, None] * coeffs).reshape(-1),
            ))
        rest, out, amps = _merge(*(np.concatenate(column) for column in zip(*parts)))
    amps = amps * np.prod(SQRT_FACT[_occupations(out)], axis=1)
    kept = np.abs(amps) > PRUNE_TOL
    return out[kept], amps[kept]


@functools.lru_cache(maxsize=None)
def _propagated(lam, max_order):
    """sum_n lam^n |n_H, n_V> in input mode 0, normalized and scattered
    through the even splitter, polarization kept.  Only input mode 0 is
    pumped, so only the splitter's first column, every entry 1/sqrt(6),
    enters."""
    norm = math.sqrt(sum(lam ** (2 * n) for n in range(max_order + 1)))
    keys = np.array([_pack((n, n)) for n in range(max_order + 1)], dtype=np.int64)
    amps = np.array([lam**n / norm for n in range(max_order + 1)], dtype=complex)
    column = np.full(6, 1.0 / math.sqrt(6.0))
    subs = {p: [(2 * i + p, column[i]) for i in range(6)] for p in (0, 1)}
    keys, amps = _substitute(keys, amps, subs)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-9
    return keys, amps


def _loss_branches(psi, loss):
    """Every Kraus branch of independent binomial loss on every mode.

    Returns {lost photons per mode: {surviving occupation: amplitude}};
    the branches are unnormalized, so their squared norms are the branch
    weights.
    """
    etas = (loss.eta_h, loss.eta_v) * 6
    branches = {}
    for key, amp in psi.items():
        occ = _unpack(key)
        options = []
        for n, eta in zip(occ, etas):
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
    pulse and the z-basis threshold event probability.  The z rotation
    is the identity, so a branch occupation gives a valid event when
    exactly one polarization of every arm holds photons.
    """
    keys, amps = _propagated(spdc.lam, spdc.max_order)
    psi = dict(zip(keys.tolist(), amps.tolist()))
    rho = np.zeros((64, 64), dtype=complex)
    p_event = 0.0
    for branch in _loss_branches(psi, loss).values():
        vec = np.zeros(64, dtype=complex)
        for occ, amp in branch.items():
            index = _one_per_mode_index(occ)
            if index is not None:
                vec[index] = amp
            if all((occ[2 * j] > 0) != (occ[2 * j + 1] > 0) for j in range(6)):
                p_event += abs(amp) ** 2
        rho += np.outer(vec, vec.conj())
    p_raw = float(np.trace(rho).real)
    return rho / p_raw, p_raw, p_event


def _check_against_mixture_oracle(spdc, loss):
    result = simulate_experiment(spdc, loss)
    rho, p_raw, p_event = _mixture_oracle(spdc, loss)
    assert_allclose(result.rho_sim.matrix, rho, rtol=0, atol=1e-12)
    assert_allclose(result.p_exact_per_pulse, p_raw, rtol=1e-9, atol=0)
    assert_allclose(result.p_exact, p_raw / order_weight(spdc, 3), rtol=1e-9, atol=0)
    assert_allclose(result.p_event, p_event, rtol=1e-9, atol=0)


def _ordered_sum(values):
    """Left-to-right float sum, as ``sum`` adds floats before Python 3.12
    (which compensates)."""
    total = 0.0
    for value in values:
        total = total + value
    return total


def _one_point_stats(spdc, loss):
    """The sixfold statistics of one loss point, computed for it alone:
    the scalar Dicke weights and the seven-row event series, as the stack
    of ``_sixfold_stats`` computes them point by point.  Returns the
    weights and the statistics, or None for them where post-selection
    keeps less than 1e-30."""
    order = spdc.max_order
    weights = [order_weight(spdc, n) * factorial(n) ** 2 for n in range(order + 1)]
    c = np.abs(ARM_AMPLITUDES) ** 2
    one_per_arm = float(np.prod(c))
    miss_h, miss_v = 1.0 - loss.eta_h, 1.0 - loss.eta_v
    dicke_weights = []
    for w in range(N_SPATIAL + 1):
        lost = _ordered_sum(
            weights[n] * miss_h ** (n - N_SPATIAL + w) * miss_v ** (n - w)
            / (factorial(n - N_SPATIAL + w) * factorial(n - w))
            for n in range(max(w, N_SPATIAL - w), order + 1)
        )
        dicke_weights.append(
            one_per_arm * comb(N_SPATIAL, w) * loss.eta_h ** (N_SPATIAL - w) * loss.eta_v**w * lost
        )
    p_raw = _ordered_sum(dicke_weights)
    if p_raw < 1e-30:
        return dicke_weights, None
    photons = np.arange(order + 1)
    inv_fact = 1.0 / np.array([factorial(k) for k in photons], dtype=float)
    grow = c[0] ** photons * inv_fact
    dark_h, dark_v = miss_h**photons, miss_v**photons
    series = np.stack([(1.0 - dark_h) * grow, dark_v * grow, dark_h * grow, (1.0 - dark_v) * grow])
    lag = photons[None, :] - photons[:, None]
    toeplitz = np.where(lag >= 0, series[:, lag], 0.0)
    rows = np.zeros((2, N_SPATIAL + 1, order + 1))
    rows[:, :, 0] = 1.0
    m = np.arange(N_SPATIAL + 1)[:, None]
    for step in range(N_SPATIAL):
        rows = np.where(m > step, rows @ toeplitz[:2], rows @ toeplitz[2:])
    binomials = np.array([comb(N_SPATIAL, k) for k in range(N_SPATIAL + 1)], dtype=float)
    diagonal = binomials @ (rows[0] * rows[1])
    p_event = float(_ordered_sum(weights[n] * diagonal[n] for n in photons))
    return dicke_weights, {
        "fidelity": dicke_weights[3] / p_raw,
        "p_exact": p_raw / order_weight(spdc, 3),
        "p_exact_per_pulse": p_raw,
        "p_event": p_event,
    }


def _slice_loop_stats(spdc, loss):
    """The sixfold statistics with the event series multiplied out arm by
    arm, as a two-variable table updated by one slice-add per (h, v) term,
    and the pair weights taken from ``order_weight``."""
    order = spdc.max_order
    weights = [order_weight(spdc, n) * math.factorial(n) ** 2 for n in range(order + 1)]
    c = np.abs(np.full(6, 1.0 / math.sqrt(6))) ** 2
    one_per_arm = float(np.prod(c))
    miss_h, miss_v = 1.0 - loss.eta_h, 1.0 - loss.eta_v
    dicke_weights = []
    for w in range(7):
        lost = _ordered_sum(
            weights[n] * miss_h ** (n - 6 + w) * miss_v ** (n - w)
            / (math.factorial(n - 6 + w) * math.factorial(n - w))
            for n in range(max(w, 6 - w), order + 1)
        )
        dicke_weights.append(
            one_per_arm * math.comb(6, w) * loss.eta_h ** (6 - w) * loss.eta_v**w * lost
        )
    p_raw = _ordered_sum(dicke_weights)
    if p_raw < 1e-30:
        raise NoSixfoldEventsError("post-selection kept zero probability")
    photons = np.arange(order + 1)
    h, v = photons[:, None], photons[None, :]
    one_click = (1.0 - miss_h**h) * miss_v**v + miss_h**h * (1.0 - miss_v**v)
    inv_fact = 1.0 / np.array([math.factorial(k) for k in photons], dtype=float)
    series = np.zeros((order + 1, order + 1))
    series[0, 0] = 1.0
    for c_j in c:
        arm = c_j ** (h + v) * one_click * np.outer(inv_fact, inv_fact)
        grown = np.zeros_like(series)
        for i, j in np.ndindex(arm.shape):
            grown[i:, j:] += arm[i, j] * series[: order + 1 - i, : order + 1 - j]
        series = grown
    p_event = float(sum(weights[n] * series[n, n] for n in photons))
    return dicke_weights, {
        "fidelity": dicke_weights[3] / p_raw,
        "p_exact": p_raw / order_weight(spdc, 3),
        "p_exact_per_pulse": p_raw,
        "p_event": p_event,
    }


# ---------------------------------------------------------------------------


def test_spdc_config_validation():
    with pytest.raises(ValueError):
        SpdcConfig(lam=1.0)
    with pytest.raises(ValueError):
        SpdcConfig(lam=-0.1)


@pytest.mark.parametrize("max_order", [True, 4.5, 4.0])
def test_spdc_config_refuses_a_non_integer_max_order(max_order):
    with pytest.raises(ValueError, match="max_order must be an integer"):
        SpdcConfig(0.5, max_order)


def test_calibrate_refuses_a_non_integer_max_order():
    with pytest.raises(ValueError, match="max_order must be an integer"):
        calibrate([0.5], [0.3], max_order=3.7)


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


@pytest.mark.parametrize("max_order", [3, 5, 7])
def test_calibrate_records_equal_the_simulation_at_each_point(max_order):
    # calibrate skips the density, but every number it records is the
    # simulation's, bit for bit; the eta 0 points keep no sixfold events
    # and are left out
    lambdas, etas = [0.3, 0.65, 0.9], [0.0, 0.25, 1.0]
    records = calibrate(lambdas, etas, max_order=max_order)
    assert len(records) == len(lambdas) * (len(etas) - 1)
    for record in records:
        spdc = SpdcConfig(lam=record["lambda"], max_order=max_order)
        result = simulate_experiment(spdc, LossConfig(eta_h=record["eta_H"], eta_v=record["eta_V"]))
        assert record == {
            "lambda": spdc.lam,
            "eta_H": result.loss.eta_h,
            "eta_V": result.loss.eta_v,
            "max_order": max_order,
            "fidelity": result.fidelity_vs_d63,
            "p_exact": result.p_exact,
            "p_exact_per_pulse": result.p_exact_per_pulse,
            "p_event": result.p_event,
        }


@pytest.mark.parametrize("max_order", range(1, 8))
def test_event_series_matches_the_arm_by_arm_product(max_order):
    # p_event sums the same nonnegative terms in another order; the Dicke
    # weights and the other statistics come from unchanged arithmetic
    losses = [
        (1.0, 1.0), (0.3, 0.3), (1e-3, 0.999), (0.999, 1e-3), (0.3, 1.0),
        (1.0, 0.3), (1e-300, 1.0), (1.0, 1e-300), (1e-300, 0.999),
    ]
    kept = 0
    for lam, (eta_h, eta_v) in itertools.product([0.2, 0.65, 0.99], losses):
        spdc, loss = SpdcConfig(lam=lam, max_order=max_order), LossConfig(eta_h=eta_h, eta_v=eta_v)
        try:
            expected_weights, expected = _slice_loop_stats(spdc, loss)
        except NoSixfoldEventsError:
            with pytest.raises(NoSixfoldEventsError):
                simulate_experiment(spdc, loss)
            continue
        kept += 1
        result = simulate_experiment(spdc, loss)
        assert_allclose(result.p_event, expected["p_event"], rtol=1e-13, atol=0)
        assert (result.fidelity_vs_d63, result.p_exact, result.p_exact_per_pulse) == (
            expected["fidelity"], expected["p_exact"], expected["p_exact_per_pulse"]
        )
        assert _sixfold_stats(spdc, [eta_h], [eta_v])[0][0].tolist() == expected_weights
    # from three pairs on, some lossy points keep sixfold events
    assert kept == 0 if max_order < 3 else kept > 0


# the seven pump strengths of the calibration grid, and every kind of loss
# point: lossless, eta 0, eta 1e-300, eta_H != eta_V and seeded random ones
CALIBRATION_LAMBDAS = [0.45, 0.55, 0.65, 0.75, 0.80, 0.85, 0.90]
STACK_LAMBDAS = [0.0, 0.2, *CALIBRATION_LAMBDAS, 0.99]
STACK_LOSSES = [
    (1.0, 1.0), (0.0, 0.0), (1e-300, 1e-300), (0.3, 0.3), (0.62, 0.62), (0.3, 0.6),
    (0.6, 0.3), (1e-3, 0.999), (0.999, 1e-3), (0.0, 1.0), (1.0, 0.0), (1e-300, 1.0),
    (1.0, 1e-300), (0.0, 0.5), *map(tuple, np.random.default_rng(32).random((6, 2)).tolist()),
]


@pytest.mark.parametrize("max_order", range(1, 8))
def test_stack_matches_the_one_point_oracle(max_order):
    # every point of one stacked call is the one-point computation to the
    # bit; a point without sixfold events raises in simulate and is left
    # out by calibrate, and no point warns
    eta_h, eta_v = (list(etas) for etas in zip(*STACK_LOSSES))
    symmetric = [h for h, v in STACK_LOSSES if h == v]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in STACK_LAMBDAS:
            spdc = SpdcConfig(lam=lam, max_order=max_order)
            weights, stats = _sixfold_stats(spdc, eta_h, eta_v)
            assert weights.shape == (len(STACK_LOSSES), N_SPATIAL + 1)
            kept = []
            for point, (h, v) in enumerate(STACK_LOSSES):
                loss = LossConfig(eta_h=h, eta_v=v)
                expected_weights, expected = _one_point_stats(spdc, loss)
                assert weights[point].tolist() == expected_weights
                assert stats[point] == expected
                if expected is None:
                    with pytest.raises(NoSixfoldEventsError):
                        simulate_experiment(spdc, loss)
                    continue
                if h == v:
                    kept.append(h)
                result = simulate_experiment(spdc, loss)
                assert (
                    result.fidelity_vs_d63, result.p_exact, result.p_exact_per_pulse, result.p_event
                ) == (
                    expected["fidelity"], expected["p_exact"], expected["p_exact_per_pulse"],
                    expected["p_event"],
                )
            records = calibrate([lam], symmetric, max_order=max_order)
            assert [record["eta_H"] for record in records] == kept
    # from three pairs on, some points keep sixfold events
    assert bool(kept) == (max_order >= 3)


def _outer_product_mixture(dicke_weights, p_raw):
    """sum_w P_w |D(6, w)><D(6, w)| / p_raw as a sum of outer products."""
    rho = np.zeros((64, 64))
    for w, p_w in enumerate(dicke_weights):
        d = dicke(6, w).amplitudes.real
        rho += p_w * np.outer(d, d)
    return rho / p_raw


@pytest.mark.parametrize("max_order", [3, 4, 7])
def test_rho_sim_blocks_equal_the_sum_of_outer_products(max_order):
    for lam, (eta_h, eta_v) in itertools.product([0.2, 0.65, 0.85, 0.99], STACK_LOSSES):
        spdc = SpdcConfig(lam=lam, max_order=max_order)
        loss = LossConfig(eta_h=eta_h, eta_v=eta_v)
        dicke_weights, stats = _one_point_stats(spdc, loss)
        if stats is None:
            continue
        matrix = simulate_experiment(spdc, loss).rho_sim.matrix
        expected = _outer_product_mixture(dicke_weights, stats["p_exact_per_pulse"])
        assert matrix.tobytes() == expected.astype(complex).tobytes()


def test_calibrate_reproduces_calibration_file():
    with open(CALIBRATION_PATH) as fh:
        stored = json.load(fh)
    lambdas = list(dict.fromkeys(rec["lambda"] for rec in stored["grid"]))
    etas = list(dict.fromkeys(rec["eta_H"] for rec in stored["grid"]))
    assert (len(lambdas), len(etas)) == (7, 6)
    assert lambdas == CALIBRATION_LAMBDAS
    grid = calibrate(lambdas, etas, max_order=4)
    assert len(grid) == len(stored["grid"])
    for record, expected in zip(grid, stored["grid"]):
        assert record.keys() == expected.keys()
        # not exact: the event series goes through BLAS products, whose last
        # bits can differ on another CPU
        for key, value in expected.items():
            assert_allclose(record[key], value, rtol=1e-12, atol=0, err_msg=key)
    picked = pick_calibration(grid, stored["target_fidelity"])
    assert (picked["lambda"], picked["eta_H"]) == (
        stored["picked"]["lambda"], stored["picked"]["eta_H"]
    )


def _assert_same_json(got, expected, where="$"):
    """Types, keys and lengths exactly, floats to a relative 1e-12."""
    assert type(got) is type(expected), where
    if isinstance(expected, dict):
        assert got.keys() == expected.keys(), where
        for key in expected:
            _assert_same_json(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), where
        for k, (a, b) in enumerate(zip(got, expected)):
            _assert_same_json(a, b, f"{where}[{k}]")
    elif isinstance(expected, float):
        assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0), (where, got, expected)
    else:
        assert got == expected, where


def test_calibration_demo_reproduces_calibration_file(tmp_path):
    # the demo that writes data/calibration.json, run as a script into a
    # scratch file; not exact, as BLAS products may round differently by CPU
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(dickesim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "calibration.json"
    result = subprocess.run(
        [sys.executable, os.path.join(root, "demos", "calibrate_source.py"), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    with open(out) as fh, open(CALIBRATION_PATH) as ref:
        _assert_same_json(json.load(fh), json.load(ref))


def _permute_qubits(matrix, order):
    """Density matrix whose qubit k is qubit order[k] of ``matrix``."""
    axes = list(order) + [6 + k for k in order]
    return matrix.reshape((2,) * 12).transpose(axes).reshape(64, 64)


def test_splitter_state_is_permutation_invariant():
    result = simulate_experiment(
        SpdcConfig(lam=0.85, max_order=4), LossConfig(eta_h=0.3, eta_v=0.6)
    )
    rho = result.rho_sim.matrix
    assert result.fidelity_vs_d63 < 0.99
    for order in ([3, 1, 2, 0, 4, 5], [1, 2, 3, 4, 5, 0]):
        assert_allclose(_permute_qubits(rho, order), rho, rtol=0, atol=1e-12)


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
    _check_against_mixture_oracle(
        SpdcConfig(lam=lam, max_order=max_order), LossConfig(eta_h=eta_h, eta_v=eta_v)
    )
