import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dickesim.dicke_states import (
    NavigationStep,
    dicke,
    ghz,
    navigate,
    recursion_residual,
    w_state,
)
from dickesim.states import apply_local, fidelity
from dickesim.witness import rotated_ghz_target


def test_half_excited_six_qubit_amplitudes():
    psi = dicke(6, 3)
    amps = psi.amplitudes
    hot = np.flatnonzero(np.abs(amps) > 1e-14)
    assert len(hot) == 20
    assert_allclose(amps[hot], np.full(20, 1.0 / math.sqrt(20)), atol=1e-12)
    # support sits exactly on the three-excitation bitstrings
    for idx in hot:
        assert bin(idx).count("1") == 3


def test_dicke_edge_cases():
    assert_allclose(dicke(3, 0).amplitudes[0], 1.0, atol=1e-12)
    full = dicke(3, 3)
    assert_allclose(full.amplitudes[-1], 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        dicke(4, 5)
    with pytest.raises(ValueError):
        dicke(0, 0)
    # the register size is checked before 2^40 amplitudes are allocated
    with pytest.raises(ValueError, match="num_qubits"):
        dicke(40, 20)


def test_dicke_amplitudes_match_the_combinations_oracle():
    # oracle: one amplitude per choice of the excited qubits, bit for bit
    for n in range(1, 11):
        for m in range(n + 1):
            amps = np.zeros(2**n, dtype=complex)
            for positions in itertools.combinations(range(n), m):
                amps[sum(1 << (n - 1 - q) for q in positions)] = 1.0 / math.sqrt(math.comb(n, m))
            assert dicke(n, m).amplitudes.tobytes() == amps.tobytes(), (n, m)


def test_w_state_is_single_excitation_dicke():
    assert_allclose(
        w_state(5).amplitudes, dicke(5, 1).amplitudes, atol=1e-12
    )


def test_ghz_amplitudes():
    psi = ghz(4)
    amps = psi.amplitudes
    assert_allclose(amps[0], 1 / math.sqrt(2), atol=1e-12)
    assert_allclose(amps[-1], 1 / math.sqrt(2), atol=1e-12)
    assert_allclose(np.linalg.norm(amps[1:-1]), 0.0, atol=1e-12)


def test_recursion_residual_vanishes_up_to_eight_qubits():
    for n in range(2, 9):
        for k in range(1, n):
            assert recursion_residual(n, k) <= 1e-12
    with pytest.raises(ValueError):
        recursion_residual(4, 0)  # nothing to split off at the extremes
    with pytest.raises(ValueError):
        recursion_residual(4, 4)


def test_navigate_polarization_outcomes():
    # step indices refer to the original six-qubit register
    d63 = dicke(6, 3)
    state, prob = navigate(d63, [NavigationStep(0, "H")])
    assert_allclose(prob, 0.5, atol=1e-12)
    assert_allclose(fidelity(state, dicke(5, 3)), 1.0, atol=1e-12)

    state, prob = navigate(
        d63, [NavigationStep(0, "H"), NavigationStep(1, "V")]
    )
    assert_allclose(prob, 0.3, atol=1e-12)
    assert_allclose(fidelity(state, dicke(4, 2)), 1.0, atol=1e-12)

    state, prob = navigate(
        d63, [NavigationStep(0, "H"), NavigationStep(1, "H")]
    )
    assert_allclose(prob, 0.2, atol=1e-12)
    assert_allclose(fidelity(state, dicke(4, 3)), 1.0, atol=1e-12)
    # two H detections leave the bit-flipped four-qubit W state
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    flipped_w = apply_local(w_state(4), [flip] * 4)
    assert_allclose(fidelity(state, flipped_w), 1.0, atol=1e-12)


def test_navigate_rejects_revisited_qubits():
    with pytest.raises(ValueError):
        navigate(dicke(6, 3), [NavigationStep(0, "H"), NavigationStep(0, "V")])


def test_navigate_refuses_non_integer_qubits():
    # int() would truncate 0.7 to qubit 0 and True to qubit 1
    for steps in [[(0.7, "H"), (True, "V")], [(0.7, "H")], [(1, "H"), (2.0, "V")]]:
        with pytest.raises(ValueError, match="qubit indices must be integers"):
            navigate(dicke(4, 2), steps)
    _, prob = navigate(dicke(4, 2), [(np.int64(0), "H"), (1, "V")])
    assert prob == navigate(dicke(4, 2), [(0, "H"), (1, "V")])[1]


def test_navigate_diagonal_outcomes_reach_rotated_ghz():
    d63 = dicke(6, 3)
    state, prob = navigate(
        d63, [NavigationStep(0, "+"), NavigationStep(1, "-")]
    )
    assert_allclose(prob, 0.1, atol=1e-12)
    assert_allclose(fidelity(state, rotated_ghz_target(4)), 1.0, atol=1e-12)
