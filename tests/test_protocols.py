import itertools
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dickesim.dicke_states import dicke, ghz, w_state
from dickesim.protocols import (
    PSI_PLUS,
    maximal_singlet_fraction,
    odt_report,
    pair_channel,
    psi_plus_fraction,
    qss_run,
    telecloning_report,
    teleport_fidelity_max,
    werner,
)
from dickesim.fock import LossConfig, SpdcConfig, simulate_experiment
from dickesim.states import (
    _POPCOUNT,
    PAULI,
    MeasurementSetting,
    QubitDensity,
    QubitPureState,
    apply_local,
    expectations,
    fidelity,
    outcome_distribution,
    partial_trace,
)
from dickesim.witness import dephased

PSI_MINUS = QubitPureState(2, np.array([0, 1, -1, 0]) / math.sqrt(2), label="psi_minus")


def dicke_pair(n):
    """Two-qubit marginal of the half-excited Dicke state D(n, n/2)."""
    return partial_trace(dicke(n, n // 2), (0, 1))


# Hill-Wootters magic basis (PRL 78, 5022 (1997)), one column per vector:
# (|00> + |11>)/sqrt2, i(|00> - |11>)/sqrt2, i(|01> + |10>)/sqrt2, (|01> - |10>)/sqrt2
MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]) / math.sqrt(2)


def magic_basis_singlet_fraction(rho):
    """Oracle: the singlet overlap maximized over local unitaries, exactly.

    Every maximally entangled two-qubit state is real in the magic basis up
    to a global phase, so the maximum is the top eigenvalue of
    Re(M^dagger rho M).  The top eigenvector, mapped back through M, must
    attain it: its one-qubit marginal is I/2 (a local-unitary image of the
    singlet) and its overlap with rho is the eigenvalue."""
    values, vectors = np.linalg.eigh((MAGIC.conj().T @ rho @ MAGIC).real)
    psi = MAGIC @ vectors[:, -1]
    qubits = psi.reshape(2, 2)
    assert np.abs(qubits @ qubits.conj().T - np.eye(2) / 2.0).max() <= 1e-12
    assert abs(np.vdot(psi, rho @ psi).real - values[-1]) <= 1e-12
    return values[-1]


def _random_full_rank(rng, num_qubits=2):
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _bell_diagonal(t):
    # (I + sum_i t_i sigma_i sigma_i) / 4, so T = diag(t) and det T = t1 t2 t3
    return (np.eye(4) + sum(ti * np.kron(PAULI[a], PAULI[a]) for ti, a in zip(t, "XYZ"))) / 4.0


def graded_patterns(state, keep):
    """Oracle: grade every H/V pattern of the measured qubits one at a
    time, from the kept pair's amplitudes (pure) or its density block
    (mixed).  Returns ([(label, prob, fidelity)], p_success,
    mean_heralded_fidelity, channel_consistency)."""
    n = state.num_qubits
    measured = [q for q in range(n) if q not in keep]
    patterns = []
    p_success = heralded = consistency = 0.0
    for bits in itertools.product((0, 1), repeat=n - 2):
        base = sum(bit << (n - 1 - q) for q, bit in zip(measured, bits))
        idx = [
            base | (a << (n - 1 - keep[0])) | (b << (n - 1 - keep[1]))
            for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]
        if isinstance(state, QubitPureState):
            block = state.amplitudes[idx]
            prob = float(np.real(block.conj() @ block))
            overlap = (
                abs(np.vdot(PSI_PLUS.amplitudes, block / math.sqrt(prob))) ** 2
                if prob > 1e-12 else 0.0
            )
        else:
            block = state.matrix[np.ix_(idx, idx)]
            prob = float(np.trace(block).real)
            overlap = (
                float(np.real(PSI_PLUS.amplitudes.conj() @ block @ PSI_PLUS.amplitudes)) / prob
                if prob > 1e-12 else 0.0
            )
        overlap = min(max(overlap, 0.0), 1.0)
        patterns.append(("".join("HV"[b] for b in bits), prob, overlap))
        consistency += prob * overlap
        if 2 * sum(bits) == n - 2:
            p_success += prob
            heralded += prob * overlap
    return patterns, p_success, heralded / p_success if p_success else 0.0, consistency


def test_pair_state_psi_plus_fractions():
    assert_allclose(psi_plus_fraction(dicke_pair(6)), 0.6, atol=1e-12)
    assert_allclose(psi_plus_fraction(dicke_pair(4)), 2.0 / 3.0, atol=1e-12)


def test_pair_channel_matches_pair_state():
    rho = pair_channel(dicke(6, 3), 0, 1)
    assert_allclose(rho.matrix, dicke_pair(6).matrix, atol=1e-12)
    # symmetry: any pair of a symmetric state gives the same channel
    other = pair_channel(dicke(6, 3), 2, 5)
    assert_allclose(other.matrix, rho.matrix, atol=1e-12)
    with pytest.raises(ValueError):
        pair_channel(dicke(6, 3), 3, 3)


def test_teleport_fidelity_conversion():
    assert_allclose(teleport_fidelity_max(1.0), 1.0, atol=1e-12)
    assert_allclose(teleport_fidelity_max(0.25), 0.5, atol=1e-12)
    assert_allclose(teleport_fidelity_max(0.6), 11.0 / 15.0, atol=1e-12)


def test_singlet_fraction_of_singlet_is_one():
    amps = PSI_MINUS.amplitudes
    rho = QubitDensity(2, np.outer(amps, amps.conj()))
    result = maximal_singlet_fraction(rho)
    assert_allclose(result.value, 1.0, atol=1e-8)


def test_singlet_fraction_of_maximally_mixed():
    rho = QubitDensity(2, np.eye(4) / 4.0)
    result = maximal_singlet_fraction(rho)
    assert_allclose(result.value, 0.25, atol=1e-8)


def test_singlet_fraction_of_product_state():
    # best local rotation aligns a product state with half the singlet
    rho = QubitDensity(2, np.diag([1.0, 0.0, 0.0, 0.0]))
    result = maximal_singlet_fraction(rho)
    assert_allclose(result.value, 0.5, atol=1e-7)


def test_singlet_fraction_of_shared_pairs():
    result = maximal_singlet_fraction(dicke_pair(6))
    assert_allclose(result.value, 0.6, atol=1e-7)
    result4 = maximal_singlet_fraction(dicke_pair(4))
    assert_allclose(result4.value, 2.0 / 3.0, atol=1e-7)


def test_singlet_fraction_is_local_unitary_invariant():
    rng = np.random.default_rng(9)

    def haar_unitary():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    base = dicke_pair(6)
    rotated = apply_local(base, [haar_unitary(), haar_unitary()])
    a = maximal_singlet_fraction(base).value
    b = maximal_singlet_fraction(rotated).value
    assert_allclose(a, b, atol=1e-6)


def test_singlet_fraction_matches_local_rotation_search():
    rng = np.random.default_rng(2024)
    cases = {
        "d63 pair": dicke_pair(6).matrix,
        "d42 pair": dicke_pair(4).matrix,
        "product, det T = 0": np.diag([1.0, 0.0, 0.0, 0.0]),
        "bell diagonal, det T > 0": _bell_diagonal((0.3, 0.2, 0.1)),
        "bell diagonal, det T < 0": _bell_diagonal((-0.5, -0.4, -0.3)),
        "werner pair": werner(2, 0.7).matrix,
    }
    for k in range(5):
        cases[f"random full rank {k}"] = _random_full_rank(rng)
    for rank in range(1, 5):
        for k in range(8):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = g @ g.conj().T
            cases[f"random rank {rank}.{k}"] = rho / np.trace(rho).real
    for name, rho in cases.items():
        expected = magic_basis_singlet_fraction(rho)
        got = maximal_singlet_fraction(QubitDensity(2, rho)).value
        assert abs(got - expected) <= 1e-12, (name, got, expected)


def test_telecloning_report_six_qubit_ideal():
    report = telecloning_report(dicke(6, 3))
    assert report.num_qubits == 6
    assert report.symmetric
    assert len(report.pair_fidelity) == 15
    for value in report.pair_fidelity.values():
        assert_allclose(value, 11.0 / 15.0, atol=1e-6)
    assert_allclose(report.ideal_threshold, 11.0 / 15.0, atol=1e-12)
    assert_allclose(report.classical_threshold, 2.0 / 3.0, atol=1e-12)
    assert report.all_above_classical


def test_telecloning_report_four_qubit_beats_threshold():
    report = telecloning_report(dicke(4, 2))
    assert len(report.pair_fidelity) == 6
    for value in report.pair_fidelity.values():
        assert_allclose(value, 7.0 / 9.0, atol=1e-6)
    assert report.all_above_classical


@pytest.mark.parametrize(
    "n, ideal", [(4, 7.0 / 9.0), (6, 11.0 / 15.0), (8, 5.0 / 7.0)], ids=["4", "6", "8"]
)
def test_telecloning_ideal_threshold_is_the_half_excited_pair_value(n, ideal):
    # F_max = (2 f + 1) / 3 with singlet fraction f = N / (2 (N - 1))
    report = telecloning_report(dicke(n, n // 2))
    assert report.symmetric
    assert_allclose(report.ideal_threshold, ideal, rtol=1e-15)
    for value in report.pair_fidelity.values():
        assert_allclose(value, report.ideal_threshold, rtol=0, atol=1e-12)


def per_pair_telecloning_report(state):
    """Oracle: the telecloning report one pair at a time, each marginal a
    validated ``pair_channel`` and each singlet fraction from its own
    correlator read, ``svd`` and ``det``.  Returns (pair_fidelity,
    symmetric)."""
    marginals = {
        pair: pair_channel(state, *pair)
        for pair in itertools.combinations(range(state.num_qubits), 2)
    }
    fidelities = {}
    for pair, rho in marginals.items():
        t = expectations(rho, [a + b for a in "XYZ" for b in "XYZ"]).reshape(3, 3)
        s1, s2, s3 = np.linalg.svd(t, compute_uv=False)
        value = (1.0 + s1 + s2 - np.sign(np.linalg.det(t)) * s3) / 4.0
        fidelities[pair] = teleport_fidelity_max(float(min(max(value, 0.25), 1.0)))
    first = next(iter(marginals.values()))
    symmetric = all(
        np.abs(rho.matrix - first.matrix).max() <= 1e-12 for rho in marginals.values()
    )
    return fidelities, symmetric


def _telecloning_oracle_states():
    rng = np.random.default_rng(2028)
    for n in range(4, 9):
        yield f"dicke_{n}_{n // 2}", dicke(n, n // 2)
        yield f"dicke_{n}_1", dicke(n, 1)
        yield f"ghz_{n}", ghz(n)
        yield f"w_{n}", w_state(n)
    for n in range(4, 7):
        for k in range(3):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            yield f"random pure {n}.{k}", QubitPureState(n, amps / np.linalg.norm(amps))
            yield f"random density {n}.{k}", QubitDensity(n, _random_full_rank(rng, n))
    yield "lossy eta_H != eta_V", simulate_experiment(
        SpdcConfig(lam=0.85, max_order=4), LossConfig(eta_h=0.3, eta_v=0.22)
    ).rho_sim


def test_telecloning_report_matches_the_per_pair_oracle_bit_for_bit():
    for name, state in _telecloning_oracle_states():
        fidelities, symmetric = per_pair_telecloning_report(state)
        report = telecloning_report(state)
        assert list(report.pair_fidelity) == list(fidelities), name
        assert report.pair_fidelity == fidelities, name
        assert report.symmetric == symmetric, name


def test_odt_ideal_six_qubits():
    result = odt_report(dicke(6, 3))
    assert result.keep == (0, 1)
    assert len(result.patterns) == 16
    assert_allclose(result.p_success, 0.6, atol=1e-12)
    assert_allclose(result.mean_heralded_fidelity, 1.0, atol=1e-12)
    assert_allclose(result.channel_consistency, 0.6, atol=1e-12)


def test_odt_ideal_four_qubits():
    result = odt_report(dicke(4, 2))
    assert len(result.patterns) == 4
    assert_allclose(result.p_success, 2.0 / 3.0, atol=1e-12)
    assert_allclose(result.mean_heralded_fidelity, 1.0, atol=1e-12)


def test_odt_consistency_equals_direct_pair_fraction():
    for state in (dicke(6, 3), dephased(dicke(6, 3))):
        result = odt_report(state)
        direct = psi_plus_fraction(pair_channel(state, 0, 1))
        assert_allclose(result.channel_consistency, direct, atol=1e-10)


def test_odt_dephased_heralds_classical_mixture():
    result = odt_report(dephased(dicke(6, 3)))
    assert_allclose(result.p_success, 0.6, atol=1e-12)
    assert_allclose(result.mean_heralded_fidelity, 0.5, atol=1e-12)


def test_odt_impossible_patterns_get_zero_fidelity():
    # four V detections would need four excitations; only three exist
    result = odt_report(dicke(6, 3))
    all_v = [p for p in result.patterns if p.outcomes == "VVVV"]
    assert len(all_v) == 1
    assert_allclose(all_v[0].prob, 0.0, atol=1e-12)
    assert all_v[0].fidelity == 0.0


def test_odt_other_kept_pairs():
    result = odt_report(dicke(6, 3), keep=(2, 4))
    assert result.keep == (2, 4)
    assert_allclose(result.p_success, 0.6, atol=1e-12)
    assert_allclose(result.mean_heralded_fidelity, 1.0, atol=1e-12)


@pytest.mark.parametrize("keep", [(0, True), (0, 1.5)])
def test_odt_refuses_non_integer_kept_qubits(keep):
    with pytest.raises(ValueError, match=re.escape(f"kept pair {keep} must hold integer")):
        odt_report(dicke(6, 3), keep)


def test_odt_matches_per_pattern_oracle():
    lossy = simulate_experiment(
        SpdcConfig(lam=0.85, max_order=4), LossConfig(eta_h=0.3, eta_v=0.22)
    ).rho_sim
    cases = {
        "d63": dicke(6, 3),
        "d84": dicke(8, 4),
        "dephased d63": dephased(dicke(6, 3)),
        "lossy eta_H != eta_V": lossy,
        "random complex": QubitDensity(6, _random_full_rank(np.random.default_rng(17), 6)),
    }
    for name, state in cases.items():
        for keep in ((0, 1), (2, 4), (3, 0)):
            patterns, p_success, heralded, consistency = graded_patterns(state, keep)
            result = odt_report(state, keep)
            assert [p.outcomes for p in result.patterns] == [p[0] for p in patterns]
            got = [(p.prob, p.fidelity) for p in result.patterns]
            assert_allclose(got, [p[1:] for p in patterns], atol=1e-12, err_msg=f"{name} {keep}")
            assert_allclose(
                (result.p_success, result.mean_heralded_fidelity, result.channel_consistency),
                (p_success, heralded, consistency), atol=1e-12, err_msg=f"{name} {keep}",
            )


@pytest.mark.parametrize("rounds", [100.5, 100.0, True])
def test_qss_refuses_non_integer_rounds(rounds):
    with pytest.raises(ValueError, match="rounds must be a positive integer"):
        qss_run(dicke(4, 2), rounds)


@pytest.mark.parametrize("seed", [True, 1.5, -1])
def test_qss_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
        qss_run(dicke(4, 2), 1000, seed=seed)


def test_qss_noiseless_run_has_no_errors():
    run = qss_run(dicke(6, 3), 10000, seed=0)
    assert run.rounds == 10000
    assert run.errors == 0
    assert run.qber == 0.0
    assert_allclose(run.expected_sift_rate, 2.0**-5, atol=1e-12)
    p = run.expected_sift_rate
    sigma = math.sqrt(p * (1 - p) / run.rounds)
    assert abs(run.sift_rate - p) <= 3 * sigma
    # rounds survive sifting only when every party chose the same
    # equatorial basis, so exactly two basis labels can appear
    assert set(run.per_basis) <= {"x", "y"}


def test_qss_odd_reference_parity_has_no_errors():
    # <Y^6> = -1 on GHZ6: its y-basis rounds carry odd parity
    run = qss_run(ghz(6), 20000, seed=3)
    assert run.per_basis["y"]["kept"] > 0
    assert run.errors == 0


@pytest.mark.parametrize("state", [dicke(6, 3), ghz(6), werner(6, 0.5, base=dicke(6, 3))],
                         ids=["dicke_6_3", "ghz_6", "werner"])
def test_qss_reads_both_bases_in_one_call_with_each_axis_bits(state, monkeypatch):
    from dickesim import protocols

    single = []
    for axis in "xy":
        probs = outcome_distribution(state, MeasurementSetting.uniform(axis, 6))
        single.append(float(probs[_POPCOUNT[:64] % 2 == 1].sum()))
    assert protocols._odd_parity_masses(state, "xy") == single
    read = protocols.outcome_distributions
    calls = []

    def counted(state, settings):
        calls.append(len(settings))
        return read(state, settings)

    monkeypatch.setattr(protocols, "outcome_distributions", counted)
    qss_run(state, 1000, seed=0)
    assert calls == [2]


def test_qss_draws_each_basis_errors_from_its_own_parity():
    # on a phased GHZ state <X^5> = cos 0.3 and <Y^5> = -sin 0.3, so the two
    # bases err at different rates: the kept rounds, the x share of them,
    # then the x errors and the y errors, in that order
    n = 5
    amps = np.zeros(2**n, dtype=complex)
    amps[0], amps[-1] = math.sqrt(0.5), math.sqrt(0.5) * np.exp(0.3j)
    state = QubitPureState(n, amps)
    p_err = []
    for axis in "xy":
        probs = outcome_distribution(state, MeasurementSetting.uniform(axis, n))
        odd = float(probs[_POPCOUNT[: 2**n] % 2 == 1].sum())
        p_err.append(min(odd, 1.0 - odd))
    assert_allclose(p_err, [(1 - math.cos(0.3)) / 2, (1 - math.sin(0.3)) / 2], rtol=1e-12)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    sifted = int(rng.binomial(100000, 2.0 ** (1 - n)))
    kept_x = int(rng.binomial(sifted, 0.5))
    kept = {"x": kept_x, "y": sifted - kept_x}
    want = {axis: {"kept": kept[axis], "errors": int(rng.binomial(kept[axis], p))}
            for axis, p in zip("xy", p_err)}
    assert qss_run(state, 100000, seed=7).per_basis == want


def test_qss_werner_noise_raises_qber():
    noisy = werner(6, 0.5, base=dicke(6, 3))
    run = qss_run(noisy, 40000, seed=1)
    expected = (1.0 - 0.5) / 2.0
    sigma = math.sqrt(expected * (1 - expected) / run.sifted_bits)
    assert abs(run.qber - expected) <= 3 * sigma


def test_werner_limits():
    base = dicke(6, 3)
    pure = werner(6, 1.0, base=base)
    assert_allclose(fidelity(pure, base), 1.0, atol=1e-12)
    flat = werner(6, 0.0, base=base)
    assert_allclose(flat.matrix, np.eye(64) / 64.0, atol=1e-12)
    default_base = werner(4, 1.0)
    assert_allclose(fidelity(default_base, ghz(4)), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        werner(4, 1.5)
