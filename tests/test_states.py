import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dickesim import states
from dickesim.dicke_states import NavigationStep, dicke, ghz, navigate, recursion_residual, w_state
from dickesim.fock import LossConfig, SpdcConfig, simulate_experiment
from dickesim.protocols import pair_channel, werner
from dickesim.witness import dephased, rotated_ghz_target
from dickesim.states import (
    ImpossibleOutcomeError,
    MeasurementSetting,
    QubitDensity,
    QubitPureState,
    apply_local,
    expectation,
    expectations,
    fidelity,
    load_state,
    BLOCK_BYTES,
    outcome_distribution,
    outcome_distributions,
    partial_trace,
    project,
    save_state,
)

KET_H = np.array([1.0, 0.0])
KET_V = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / math.sqrt(2)

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(letters):
    out = np.array([[1.0 + 0j]])
    for c in letters:
        out = np.kron(out, PAULI[c])
    return out


def test_pure_state_validates_shape_and_norm():
    psi = QubitPureState(1, [0.6, 0.8])
    assert_allclose(np.linalg.norm(psi.amplitudes), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        QubitPureState(2, [1.0, 0.0])  # wrong length for two qubits
    with pytest.raises(ValueError):
        QubitPureState(1, [3.0, 4.0])  # not normalized
    with pytest.raises(ValueError):
        QubitPureState(1, [0.0, 0.0])


def test_density_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        QubitDensity(1, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(ValueError):
        QubitDensity(1, np.eye(2))  # trace 2
    bad = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        QubitDensity(1, bad)  # negative eigenvalue


def test_qubit_zero_is_most_significant_bit():
    # |HV> lives at index 0b01; qubit 0 carries the leading bit
    psi = QubitPureState(2, [0.0, 1.0, 0.0, 0.0])
    assert_allclose(expectation(psi, "ZI"), 1.0, atol=1e-12)
    assert_allclose(expectation(psi, "IZ"), -1.0, atol=1e-12)


def random_pure(num_qubits, rng):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return QubitPureState(num_qubits, amps / np.linalg.norm(amps))


def random_density(num_qubits, rng):
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return QubitDensity(num_qubits, rho / np.trace(rho).real)


def assert_frozen_form(state, array):
    """The form the validating constructors give: an int qubit count and a
    complex, C-contiguous, read-only array."""
    assert type(state.num_qubits) is int and array.dtype == complex
    assert array.flags.c_contiguous and not array.flags.writeable


def assert_passes_the_full_validator(state):
    """A density built without the checks passes every check of the public
    constructor, and has the form that constructor gives."""
    n = state.num_qubits
    assert_frozen_form(state, state.matrix)
    assert state.matrix.shape == (2**n, 2**n)
    validated = QubitDensity(n, state.matrix, label=state.label)
    assert validated.matrix.tobytes() == state.matrix.tobytes()


def assert_pure_passes_the_full_validator(state):
    """The pure-state twin of ``assert_passes_the_full_validator``."""
    n = state.num_qubits
    assert_frozen_form(state, state.amplitudes)
    assert state.amplitudes.shape == (2**n,)
    validated = QubitPureState(n, state.amplitudes, label=state.label)
    assert validated.amplitudes.tobytes() == state.amplitudes.tobytes()


def assert_valid(state):
    if isinstance(state, QubitPureState):
        assert_pure_passes_the_full_validator(state)
    else:
        assert_passes_the_full_validator(state)


@pytest.mark.parametrize("max_order", [3, 4, 7])
@pytest.mark.parametrize("lam", [0.2, 0.65, 0.85, 0.99])
def test_rho_sim_passes_the_full_validator(lam, max_order):
    for eta_h, eta_v in [(1.0, 1.0), (0.3, 0.3), (0.3, 0.6), (0.9, 0.05), (1e-3, 0.999)]:
        spdc, loss = SpdcConfig(lam=lam, max_order=max_order), LossConfig(eta_h=eta_h, eta_v=eta_v)
        assert_passes_the_full_validator(simulate_experiment(spdc, loss).rho_sim)


def noisy_inputs(num_qubits):
    """Dicke, GHZ and W states on ``num_qubits`` qubits, the rotated GHZ
    target, a seeded random pure state, its density and a seeded random
    full-rank density."""
    rng = np.random.default_rng(80 + num_qubits)
    psi = random_pure(num_qubits, rng)
    return [
        *(dicke(num_qubits, k) for k in range(num_qubits + 1)),
        ghz(num_qubits),
        w_state(num_qubits),
        rotated_ghz_target(num_qubits),
        psi,
        QubitDensity(num_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj())),
        random_density(num_qubits, rng),
    ]


@pytest.mark.parametrize("num_qubits", range(1, 9))
def test_werner_and_dephased_pass_the_full_validator(num_qubits):
    for state in noisy_inputs(num_qubits):
        for visibility in (0.0, 0.37, 1.0):
            assert_passes_the_full_validator(werner(num_qubits, visibility, base=state))
        assert_passes_the_full_validator(dephased(state))


@pytest.mark.parametrize("num_qubits", range(1, 9))
def test_derived_states_pass_the_full_validator(num_qubits):
    # the builders, density(), partial traces, pair channels, local
    # unitaries, projections and navigation, on every noisy input
    n = num_qubits
    rng = np.random.default_rng(90 + n)
    keeps = {(0,), (n - 1,), tuple(range(n - 1, -1, -1))}
    if n >= 3:
        keeps |= {(n - 1, 0), (1, n - 1, 0)}
    for state in noisy_inputs(n):
        assert_valid(state)
        if isinstance(state, QubitPureState):
            assert_passes_the_full_validator(state.density())
        for keep in keeps:
            assert_passes_the_full_validator(partial_trace(state, keep))
        if n >= 2:
            assert_passes_the_full_validator(pair_channel(state, n - 1, 0))
        assert_valid(apply_local(state, [random_unitary(rng) for _ in range(n)]))
        if n == 1:
            continue
        for qubit in (0, n - 1):
            for ket in PROJECTION_KETS.values():
                try:
                    assert_valid(project(state, qubit, ket)[0])
                except ImpossibleOutcomeError:
                    pass
        for steps in ([(n - 1, "+"), (0, "-")][: n - 1], [(0, "H"), (1, "V")][: n - 1]):
            try:
                assert_valid(navigate(state, steps)[0])
            except ImpossibleOutcomeError:
                pass


def test_no_library_path_runs_a_validator(monkeypatch):
    # what the library builds from checked inputs goes through the trusted
    # constructor; with every validating constructor made to raise, the
    # derived states and the planned settings are still built
    from dickesim import lms

    n = 5
    rng = np.random.default_rng(95)
    inputs = [random_pure(n, rng), random_density(n, rng), _lossy_rho_sim()]
    unitaries = [random_unitary(rng) for _ in range(6)]

    def refuse(*args, **kwargs):
        raise AssertionError("a validating constructor ran")

    monkeypatch.setattr(QubitPureState, "__init__", refuse)
    monkeypatch.setattr(QubitDensity, "__init__", refuse)
    monkeypatch.setattr(MeasurementSetting, "__post_init__", refuse)
    built = [dicke(6, 3), ghz(4), w_state(5), rotated_ghz_target(4)]
    for state in inputs + built:
        m = state.num_qubits
        partial_trace(state, (m - 1, 0))
        pair_channel(state, 0, 1)
        project(state, 1, KET_PLUS)
        navigate(state, [(2, "+"), (0, "-")])
        apply_local(state, unitaries[:m])
        werner(m, 0.5, base=state)
        dephased(state)
        if isinstance(state, QubitPureState):
            state.density()
    simulate_experiment(SpdcConfig(lam=0.85, max_order=4), LossConfig(eta_h=0.3, eta_v=0.22))
    for target, strategy in [(dicke(6, 3), "greedy"), (w_state(4), "greedy"),
                             (dicke(6, 3), "symmetric"), (ghz(6), "ghz_special")]:
        lms.plan_settings(lms.decompose(target), strategy)


def test_sizes_must_be_integers(tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"num_qubits": true, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}')
    with pytest.raises(ValueError, match="num_qubits"):
        load_state(path)
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="num_qubits"):
            QubitPureState(bad, [1.0, 0.0])
        with pytest.raises(ValueError, match="num_qubits"):
            QubitDensity(bad, np.eye(2) / 2)
    for call in (lambda: dicke(6.7, 3), lambda: dicke(True, 1), lambda: ghz(4.9),
                 lambda: ghz(True), lambda: w_state(3.0)):
        with pytest.raises(ValueError, match="num_qubits"):
            call()
    for bad in (2.9, 3.0, True, "3"):
        with pytest.raises(ValueError, match="excitations"):
            dicke(6, bad)
    for sizes in ((6.7, 3), (6, 3.2), (6, True)):
        with pytest.raises(ValueError, match="integers"):
            recursion_residual(*sizes)
    # numpy integers are integers
    assert dicke(np.int64(6), np.int8(3)).label == "dicke_6_3"
    assert type(ghz(np.int32(4)).num_qubits) is int
    assert type(QubitDensity(np.int64(1), np.eye(2) / 2).num_qubits) is int


def test_werner_refuses_a_base_of_another_size():
    with pytest.raises(ValueError, match="3 qubits, not 4"):
        werner(4, 0.5, base=ghz(3))
    with pytest.raises(ValueError, match="num_qubits"):
        werner(4.0, 0.5, base=ghz(4))


def test_expectation_matches_dense_operator():
    psi = random_pure(3, np.random.default_rng(7))
    # complex off-diagonal entries make tr(rho P) and tr(rho P^T) differ in
    # sign on strings with an odd number of Y letters
    rho = random_density(3, np.random.default_rng(11))
    for letters in ["XYZ", "ZZI", "IXI", "YYY", "YXI", "IIY"]:
        op = kron_chain(letters)
        direct = np.vdot(psi.amplitudes, op @ psi.amplitudes).real
        assert_allclose(expectation(psi, letters), direct, atol=1e-12)
        direct = np.trace(rho.matrix @ op).real
        assert_allclose(expectation(rho, letters), direct, atol=1e-12)


def test_expectation_checks_pauli_string():
    psi = QubitPureState(2, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        expectation(psi, "XY Z")
    with pytest.raises(ValueError):
        expectation(psi, "XYZ")  # wrong length


def pauli_matrix(letters: str) -> np.ndarray:
    """Dense Kronecker product of the Pauli letters."""
    out = np.eye(1, dtype=complex)
    for ch in letters:
        out = np.kron(out, PAULI[ch])
    return out


def observable(setting, qubit):
    """n . sigma for the setting's axis on ``qubit``."""
    nx, ny, nz = setting.bloch_vector(qubit)
    return nx * PAULI["X"] + ny * PAULI["Y"] + nz * PAULI["Z"]


def all_strings(num_qubits):
    return ["".join(p) for p in itertools.product("IXYZ", repeat=num_qubits)]


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
def test_expectations_match_dense_trace_on_every_string(num_qubits):
    rng = np.random.default_rng(100 + num_qubits)
    strings = all_strings(num_qubits)
    for state in (random_pure(num_qubits, rng), random_density(num_qubits, rng)):
        rho = state.density().matrix if isinstance(state, QubitPureState) else state.matrix
        direct = [np.trace(rho @ pauli_matrix(letters)).real for letters in strings]
        values = expectations(state, strings)
        assert values.shape == (4**num_qubits,)
        assert_allclose(values, direct, rtol=0, atol=1e-12)
        # bit for bit the one-string call
        assert values.tolist() == [expectation(state, letters) for letters in strings]


def test_expectations_over_several_blocks_equal_the_per_string_values():
    # at N=10 one string's complex terms take 16 KiB, so a block holds 16
    num_qubits = 10
    rows = BLOCK_BYTES // (16 * 2**num_qubits)
    rng = np.random.default_rng(21)
    strings = ["".join(rng.choice(list("IXYZ"), num_qubits)) for _ in range(3 * rows + 5)]
    for state in (random_pure(num_qubits, rng), dicke(10, 5).density()):
        values = expectations(state, strings)
        assert values.tolist() == [expectation(state, letters) for letters in strings]


def test_expectations_of_no_strings_is_empty():
    values = expectations(dicke(4, 2), [])
    assert values.shape == (0,)


@pytest.mark.parametrize("bad", ["XQZ", "XYZZ", "XY"])
def test_expectations_name_the_bad_string(bad):
    with pytest.raises(ValueError, match=f"Pauli string {bad!r} "):
        expectations(dicke(3, 1), ["ZZZ", "XYI", bad, "III"])


@pytest.mark.parametrize("bad", ["\u0131ZZ", "\u00dfZ"])
def test_expectations_reject_non_ascii_letters(bad):
    # str.upper reads the dotless i as I and the sharp s as SS
    message = f"Pauli string {bad!r} has invalid letters {[bad[0]]!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        expectations(dicke(3, 1), [bad])


def per_letter_masks(letters: str, n: int):
    """Oracle: the (flip, sign, #Y) masks of one string, letter by letter."""
    flip = 0
    sign = 0
    n_y = 0
    for k, letter in enumerate(letters):
        bit = 1 << (n - 1 - k)
        if letter in "XY":
            flip |= bit
        if letter in "YZ":
            sign |= bit
        if letter == "Y":
            n_y += 1
    return flip, sign, n_y


def per_letter_pauli_action(strings, n: int):
    """Oracle for ``states._pauli_action`` built on ``per_letter_masks``."""
    masks = np.array([per_letter_masks(letters, n) for letters in strings], dtype=np.int64)
    flip, sign, n_y = masks.reshape(-1, 3).T
    idx = np.arange(2**n)
    return (states._I_POWERS[n_y, None] * states._PARITY_SIGNS[idx & sign[:, None]],
            idx ^ flip[:, None])


_PAULI_ACTION_RNG = np.random.default_rng(30)
PAULI_ACTION_CASES = [pytest.param(n, all_strings(n), id=f"every_{n}") for n in range(1, 6)] + [
    pytest.param(n, ["".join(_PAULI_ACTION_RNG.choice(list("IXYZ"), n)) for _ in range(300)],
                 id=f"random_{n}")
    for n in (8, 10)
]


@pytest.mark.parametrize("n, strings", PAULI_ACTION_CASES)
def test_pauli_action_matches_the_per_letter_oracle(monkeypatch, n, strings):
    phase, cols = states._pauli_action(strings, n)
    want_phase, want_cols = per_letter_pauli_action(strings, n)
    assert phase.tobytes() == want_phase.tobytes()
    assert cols.tobytes() == want_cols.tobytes()
    rng = np.random.default_rng(40 + n)
    pairs = [(state, expectations(state, strings))
             for state in (random_pure(n, rng), random_density(n, rng))]
    monkeypatch.setattr(states, "_pauli_action", per_letter_pauli_action)
    for state, values in pairs:
        assert values.tobytes() == expectations(state, strings).tobytes()


def test_fidelity_pure_and_mixed_agree():
    rng = np.random.default_rng(3)
    a = random_pure(2, rng)
    b = random_pure(2, rng)
    overlap = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    assert_allclose(fidelity(a, b), overlap, atol=1e-12)
    rho = QubitDensity(2, np.outer(a.amplitudes, a.amplitudes.conj()))
    assert_allclose(fidelity(rho, b), overlap, atol=1e-12)
    assert_allclose(fidelity(a, a), 1.0, atol=1e-12)


def test_partial_trace_of_product_state():
    psi = QubitPureState(2, np.kron(KET_PLUS, KET_V))
    reduced = partial_trace(psi, keep=(0,))
    assert_allclose(reduced.matrix, np.outer(KET_PLUS, KET_PLUS), atol=1e-12)
    reduced = partial_trace(psi, keep=(1,))
    assert_allclose(reduced.matrix, np.outer(KET_V, KET_V), atol=1e-12)


def test_partial_trace_refuses_non_integer_indices():
    # int() would truncate (0.9, 1.2) to (0, 1), and a bool is no index
    for keep in [(0.9, 1.2), (True,), (0, 1.0)]:
        with pytest.raises(ValueError, match="integer qubit indices"):
            partial_trace(dicke(4, 2), keep)
    by_numpy = partial_trace(dicke(4, 2), (np.int64(1), np.int32(0)))
    assert by_numpy.matrix.tobytes() == partial_trace(dicke(4, 2), (1, 0)).matrix.tobytes()


def einsum_partial_trace(rho, keep):
    """Oracle: the kept qubits' reduced matrix by one einsum over the
    density tensor ``rho``, tracing each other qubit's row and column axes
    together."""
    n = rho.num_qubits
    tensor = rho.matrix.reshape([2] * (2 * n))
    row, col = list(range(n)), list(range(n, 2 * n))
    for q in range(n):
        if q not in keep:
            col[q] = row[q]
    out = np.einsum(tensor, row + col, [row[q] for q in keep] + [col[q] for q in keep])
    return out.reshape(2 ** len(keep), -1)


PARTIAL_TRACE_STATES = (
    [dicke(n, k) for n in (2, 3, 5, 6, 8) for k in sorted({0, 1, n // 2})]
    + [ghz(n) for n in (2, 4, 7, 8)]
    + [w_state(n) for n in (3, 6, 8)]
    + [random_pure(n, np.random.default_rng(100 + n)) for n in (2, 5, 8)]
)


@pytest.mark.parametrize(
    "state", PARTIAL_TRACE_STATES, ids=lambda s: s.label or f"random_{s.num_qubits}"
)
def test_pure_partial_trace_matches_density_oracle(state):
    n = state.num_qubits
    keeps = [(0,), (n - 1,), (0, 1), (1, 0), (n - 1, 0)]
    if n >= 3:
        keeps += [(0, 1, 2), (n - 1, 1, 0), (1, n - 1, 0)]
    rho = state.density()
    for keep in keeps:
        got = partial_trace(state, keep)
        assert got.num_qubits == len(keep)
        assert_allclose(got.matrix, einsum_partial_trace(rho, keep), rtol=0, atol=1e-15)


def _lossy_rho_sim():
    return simulate_experiment(
        SpdcConfig(lam=0.85, max_order=4), LossConfig(eta_h=0.3, eta_v=0.22)
    ).rho_sim


DENSITY_PARTIAL_TRACE_STATES = {
    **{
        f"random_{n}": lambda n=n: random_density(n, np.random.default_rng(200 + n))
        for n in range(2, 7)
    },
    "lossy rho_sim": _lossy_rho_sim,
    "werner": lambda: werner(5, 0.6, base=w_state(5)),
}


@pytest.mark.parametrize("name", DENSITY_PARTIAL_TRACE_STATES)
def test_density_partial_trace_matches_einsum_oracle_for_every_keep_order(name):
    rho = DENSITY_PARTIAL_TRACE_STATES[name]()
    n = rho.num_qubits
    for k in range(1, n + 1):
        for keep in itertools.permutations(range(n), k):
            got = partial_trace(rho, keep)
            assert got.num_qubits == k
            assert_allclose(
                got.matrix, einsum_partial_trace(rho, keep), rtol=0, atol=1e-15,
                err_msg=f"{name} keep={keep}",
            )


def test_project_returns_outcome_probability():
    psi = QubitPureState(2, np.kron(KET_PLUS, KET_H))
    post, prob = project(psi, 0, KET_H)
    assert_allclose(prob, 0.5, atol=1e-12)
    assert post.num_qubits == 1
    assert_allclose(abs(post.amplitudes[0]), 1.0, atol=1e-12)


def test_project_impossible_outcome_raises():
    psi = QubitPureState(2, np.kron(KET_H, KET_H))
    with pytest.raises(ImpossibleOutcomeError):
        project(psi, 0, KET_V)
    # at least one qubit must remain after the projection
    with pytest.raises(ValueError):
        project(QubitPureState(1, KET_H), 0, KET_H)


@pytest.mark.parametrize("qubit", [1.0, True, "1", None, 4, -1])
def test_project_refuses_a_qubit_that_is_not_an_index(qubit):
    with pytest.raises(ValueError, match=f"qubit {qubit!r} must be an integer index"):
        project(dicke(4, 2), qubit, KET_H)


def test_project_accepts_a_numpy_integer_qubit():
    state = dicke(4, 2)
    post, prob = project(state, np.int64(1), KET_H)
    expected, expected_prob = project(state, 1, KET_H)
    assert prob == expected_prob
    assert np.array_equal(post.amplitudes, expected.amplitudes)


PROJECTION_KETS = {
    "H": KET_H,
    "V": KET_V,
    "+": KET_PLUS,
    "-": np.array([1.0, -1.0]) / math.sqrt(2),
    "complex": np.array([0.6, 0.8j * np.exp(0.3j)]),
}


def two_branch_project(state, qubit, ket):
    """Oracle: (array, probability) of ``project`` with a pure branch and a
    density branch."""
    n = state.num_qubits
    ket = np.asarray(ket, dtype=complex)
    if isinstance(state, QubitPureState):
        new = np.tensordot(ket.conj(), state.amplitudes.reshape([2] * n), axes=[[0], [qubit]])
        p = float(np.vdot(new, new).real)
        return new.reshape(-1) / math.sqrt(p), p
    half = np.tensordot(ket.conj(), state.matrix.reshape([2] * (2 * n)), axes=[[0], [qubit]])
    mat = np.tensordot(half, ket, axes=[[n - 1 + qubit], [0]]).reshape(2 ** (n - 1), -1)
    p = float(np.trace(mat).real)
    return mat / p, p


def dense_project(rho, qubit, ket):
    """Oracle: (<k| (x) I) rho (|k> (x) I) / p and p, with dense matrices."""
    n = rho.num_qubits
    bra = np.kron(np.kron(np.eye(2**qubit), np.conj(ket)[None, :]), np.eye(2 ** (n - qubit - 1)))
    new = bra @ rho.matrix @ bra.conj().T
    p = np.trace(new).real
    return new / p, p


def state_array(state):
    return state.amplitudes if isinstance(state, QubitPureState) else state.matrix


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("n", range(2, 8))
def test_project_matches_the_two_branch_oracle(n, kind):
    rng = np.random.default_rng(50 + n)
    state = random_pure(n, rng) if kind == "pure" else random_density(n, rng)
    for qubit in range(n):
        for name, ket in PROJECTION_KETS.items():
            post, p = project(state, qubit, ket)
            want, want_p = two_branch_project(state, qubit, ket)
            assert type(post) is type(state) and post.num_qubits == n - 1
            assert state_array(post).tobytes() == want.tobytes(), (qubit, name)
            assert p == want_p


@pytest.mark.parametrize("n", range(2, 7))
def test_project_on_a_density_matches_the_dense_oracle_and_the_pure_path(n):
    rng = np.random.default_rng(60 + n)
    rho, psi = random_density(n, rng), random_pure(n, rng)
    for qubit in range(n):
        for name, ket in PROJECTION_KETS.items():
            post, p = project(rho, qubit, ket)
            want, want_p = dense_project(rho, qubit, ket)
            assert_allclose(post.matrix, want, rtol=0, atol=1e-13, err_msg=f"{qubit} {name}")
            assert_allclose(p, want_p, rtol=1e-13)
            post, p = project(psi.density(), qubit, ket)
            pure_post, pure_p = project(psi, qubit, ket)
            assert_allclose(post.matrix, pure_post.density().matrix, rtol=0, atol=1e-13)
            assert_allclose(p, pure_p, rtol=1e-13)


def test_navigating_the_lossy_source_state_matches_the_dense_oracle():
    # the paper derives its five- and four-photon states by detecting photons
    # of the measured, mixed six-photon state
    rho = _lossy_rho_sim()
    state, prob = navigate(rho, [NavigationStep(0, "H"), NavigationStep(1, "V")])
    after_h, p_h = dense_project(rho, 0, KET_H)
    want, p_v = dense_project(QubitDensity(5, after_h), 0, KET_V)
    assert isinstance(state, QubitDensity) and state.num_qubits == 4
    assert_allclose(state.matrix, want, rtol=0, atol=1e-13)
    assert_allclose(prob, p_h * p_v, rtol=1e-12)


def test_setting_constructors_round_trip():
    setting = MeasurementSetting("zzxy")
    assert setting.num_qubits == 4
    again = MeasurementSetting.from_label(setting.label())
    assert again == setting and hash(again) == hash(setting)
    assert again.label() == setting.label() == "z,z,x,y"
    uniform = MeasurementSetting.uniform("x", 3)
    assert uniform == MeasurementSetting("xxx")
    tilted = MeasurementSetting.direction(math.pi / 2, 0.0, 2)
    assert_allclose(
        outcome_distribution(QubitPureState(2, [1, 0, 0, 0]), tilted),
        outcome_distribution(QubitPureState(2, [1, 0, 0, 0]), MeasurementSetting("xx")),
        atol=1e-12,
    )
    # an axis is a Pauli letter or ('n', theta, phi), nothing else
    for axis in ("w", ("xy", 0.3), ("m", 0.1, 0.2), ("n", 0.1)):
        with pytest.raises(ValueError):
            MeasurementSetting((axis,))
    with pytest.raises(ValueError):
        MeasurementSetting.from_label("xy:0.3")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_setting_rejects_non_finite_angles(bad):
    # a NaN angle gave an all-NaN distribution and inf a bare math domain
    # error; both are refused where the axis is read, naming it
    for axis in (("n", bad, 0.0), ("n", 0.3, bad)):
        with pytest.raises(ValueError, match="non-finite angle"):
            MeasurementSetting((axis, "z"))
    with pytest.raises(ValueError, match="non-finite angle"):
        MeasurementSetting.from_label(f"n:{bad!r}:0.0,z")
    with pytest.raises(ValueError, match="non-finite angle"):
        MeasurementSetting.from_label(f"z,n:0.3:{bad!r}")


def test_general_direction_label_round_trips_and_matches_eigenprojectors():
    setting = MeasurementSetting((("n", 0.3, 1.1), "x", ("n", math.pi / 2 - 0.4, 0.0)))
    again = MeasurementSetting.from_label(setting.label())
    assert again == setting
    assert again.label() == setting.label()
    # Pauli entries keep their one-letter labels; directions write every bit
    assert setting.label().split(",")[1:] == ["x", f"n:{math.pi / 2 - 0.4!r}:0.0"]
    assert_allclose(
        setting.bloch_vector(0),
        [math.sin(0.3) * math.cos(1.1), math.sin(0.3) * math.sin(1.1), math.cos(0.3)],
        atol=1e-15,
    )

    rho = partial_trace(random_pure(4, np.random.default_rng(5)), keep=(0, 1, 3))
    probs = outcome_distribution(rho, setting)
    # outcome bit 0 on a qubit selects the +1 eigenprojector of its observable
    projectors = [
        [(np.eye(2) + sign * observable(setting, q)) / 2.0 for sign in (1.0, -1.0)]
        for q in range(3)
    ]
    expected = []
    for outcome in range(8):
        bits = [(outcome >> (2 - q)) & 1 for q in range(3)]
        op = np.kron(np.kron(projectors[0][bits[0]], projectors[1][bits[1]]), projectors[2][bits[2]])
        expected.append(np.trace(rho.matrix @ op).real)
    assert_allclose(probs, expected, atol=1e-12)

    uniform = MeasurementSetting.direction(0.7, -2.0, 3)
    assert uniform.axes == (("n", 0.7, -2.0),) * 3


def test_outcome_distribution_normalized_and_correct():
    psi = QubitPureState(2, np.kron(KET_PLUS, KET_H))
    probs = outcome_distribution(psi, MeasurementSetting("xz"))
    assert_allclose(probs.sum(), 1.0, atol=1e-12)
    # qubit 0 is along +x, so only outcomes with first bit 0 survive
    assert_allclose(probs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def rotated_state_distribution(state, setting):
    """The outcome distribution read off the diagonal of the fully rotated state."""
    rotated = apply_local(state, [setting.rotation(q) for q in range(state.num_qubits)])
    if isinstance(rotated, QubitPureState):
        probs = np.abs(rotated.amplitudes) ** 2
    else:
        probs = rotated.matrix.diagonal().real
    return probs / probs.sum()


def test_outcome_distribution_matches_rotated_state_oracle():
    rng = np.random.default_rng(17)
    kinds = ["x", "y", "z", ("n", math.pi / 2, 0.3), ("n", math.pi / 2 - 2.1, 0.0),
             ("n", math.pi / 2 + 1.2, math.pi / 2), ("n", 0.7, 1.9)]
    for n in range(1, 8):
        for _ in range(3):
            # mixed per-qubit axes, each kind repeated across qubits now and then
            setting = MeasurementSetting([kinds[k] for k in rng.integers(len(kinds), size=n)])
            for state in (random_pure(n, rng), random_density(n, rng)):
                assert_allclose(
                    outcome_distribution(state, setting),
                    rotated_state_distribution(state, setting),
                    rtol=0, atol=1e-12,
                )


def test_outcome_distribution_on_ten_qubits_stays_below_the_matrix_size():
    # no rotated copy is built: |+>^10 is read in the Dicke basis, and a
    # state outside the symmetric subspace by a contraction that halves the
    # tensor per qubit (the memory test below)
    rho = QubitPureState(10, np.full(2**10, 2.0**-5)).density()
    setting = MeasurementSetting.direction(0.4, 0.3, 10)
    tracemalloc.start()
    try:
        probs = outcome_distribution(rho, setting)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rho.matrix.nbytes
    # |+>^10 along a tilted axis: each qubit independently
    plus = 0.5 * (1.0 + math.sin(0.4) * math.cos(0.3))
    single = np.array([plus, 1.0 - plus])
    expected = single
    for _ in range(9):
        expected = np.kron(expected, single)
    assert_allclose(probs, expected, atol=1e-12)


def per_setting_distribution(state, setting):
    """One setting's outcome distribution by a contraction of its own, qubit
    by qubit: the reference that every row of ``outcome_distributions``
    matches bit for bit."""
    n = state.num_qubits
    by_axis = {}
    for q, axis in enumerate(setting.axes):
        if axis not in by_axis:
            by_axis[axis] = setting.rotation(q)
    rotations = [by_axis[axis] for axis in setting.axes]
    if isinstance(state, QubitPureState):
        amps = state.amplitudes
        for q, rot in enumerate(rotations):
            # out[a, b, r] = R[b, 0] in[a, 0, r] + R[b, 1] in[a, 1, r]
            pairs = amps.reshape(2**q, 1, 2, 2 ** (n - q - 1))
            amps = rot[:, 0, None] * pairs[:, :, 0] + rot[:, 1, None] * pairs[:, :, 1]
        probs = np.abs(amps.reshape(-1)) ** 2
    else:
        tensor = state.matrix
        for q, rot in enumerate(rotations):
            rest = 2 ** (n - q - 1)
            block = rot[:, :, None] * rot.conj()[:, None, :]
            tensor = np.einsum("bij,aixjy->abxy", block, tensor.reshape(2**q, 2, rest, 2, rest))
        probs = tensor.reshape(-1).real
    assert probs.min() >= -1e-9 and abs(probs.sum() - 1.0) <= 1e-9
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


AXIS_KINDS = {
    "pauli": ["x", "y", "z"],
    "bloch": [("n", 0.7, 1.9), ("n", math.pi / 2, 0.3), ("n", math.pi / 2 + 1.2, math.pi / 2),
              ("n", 2.9, -1.1)],
}
AXIS_KINDS["mixed"] = AXIS_KINDS["pauli"] + AXIS_KINDS["bloch"]


def random_settings(count, num_qubits, kind, rng):
    """``count`` settings with per-qubit axes drawn from AXIS_KINDS[kind];
    under "uniform", one random Bloch direction for every qubit."""
    if kind == "uniform":
        return [MeasurementSetting.direction(*rng.uniform(0.0, math.pi, size=2), num_qubits)
                for _ in range(count)]
    axes = AXIS_KINDS[kind]
    return [MeasurementSetting([axes[k] for k in rng.integers(len(axes), size=num_qubits)])
            for _ in range(count)]


def stack_state(name):
    if name == "dicke_6_3":
        return dicke(6, 3)
    if name == "ghz_8":
        return ghz(8)
    return random_density(6, np.random.default_rng(23))


def takes_the_dicke_basis(state, setting):
    """Whether ``outcome_distributions`` reads this row in the Dicke basis:
    every qubit along one axis, on a state of the symmetric subspace."""
    return len(set(setting.axes)) == 1 and states._class_entries(state) is not None


@pytest.mark.parametrize("kind", ["pauli", "bloch", "mixed", "uniform"])
@pytest.mark.parametrize("name", ["dicke_6_3", "ghz_8", "density_6"])
def test_outcome_distributions_rows_match_the_per_setting_oracle(name, kind):
    # a general row is the oracle's bits; a Dicke-basis row (a uniform
    # setting, random Pauli ones included, on dicke_6_3 or ghz_8) is its
    # one-row call's bits and within 1e-13 of the oracle
    state = stack_state(name)
    n = state.num_qubits
    rng = np.random.default_rng(len(name) + len(kind))
    for count in (1, 2, 3, 8, 9, 105):
        settings = random_settings(count, n, kind, rng)
        stack = outcome_distributions(state, settings)
        assert stack.shape == (count, 2**n)
        for row, setting in zip(stack, settings):
            if takes_the_dicke_basis(state, setting):
                assert np.array_equal(row, outcome_distribution(state, setting))
                assert_allclose(row, per_setting_distribution(state, setting), rtol=0, atol=1e-13)
            else:
                assert np.array_equal(row, per_setting_distribution(state, setting))


def dense_distribution(state, setting):
    """One setting's outcome distribution from the dense 2^N x 2^N product
    K = R_0 (x) ... (x) R_{N-1} of its rotations: |K psi|^2, or the
    diagonal of K rho K^dagger."""
    kron = np.ones((1, 1))
    for q in range(state.num_qubits):
        kron = np.kron(kron, setting.rotation(q))
    if isinstance(state, QubitPureState):
        return np.abs(kron @ state.amplitudes) ** 2
    return (kron @ state.matrix @ kron.conj().T).diagonal().real


@pytest.mark.parametrize("kind", ["pauli", "bloch", "mixed", "uniform"])
@pytest.mark.parametrize("name", ["dicke_6_3", "ghz_8", "density_6", "pure_7"])
def test_outcome_distributions_general_rows_match_the_dense_oracle(name, kind):
    # an oracle that shares no code with the contraction: every row outside
    # the Dicke basis against the Kronecker-built rotation of the whole
    # state; the complex pure state also sees the phases that real
    # amplitudes are blind to
    if name == "pure_7":
        state = random_pure(7, np.random.default_rng(29))
    else:
        state = stack_state(name)
    settings = random_settings(24, state.num_qubits, kind, np.random.default_rng(len(kind)))
    general = [s for s in settings if not takes_the_dicke_basis(state, s)]
    if kind == "uniform" and name in ("dicke_6_3", "ghz_8"):
        assert not general  # every row takes the Dicke basis
    else:
        assert general
    for row, setting in zip(outcome_distributions(state, general), general):
        assert_allclose(row, dense_distribution(state, setting), rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", ["dicke_6_3", "ghz_8", "density_6"])
def test_a_stack_row_equals_the_one_setting_call_at_every_stack_size(name):
    # a block holds 256 pure rows at six qubits, 64 at eight and 8 density
    # rows at six, so these sizes end the stack within and across blocks
    state = stack_state(name)
    settings = random_settings(140, state.num_qubits, "mixed", np.random.default_rng(3))
    single = [outcome_distribution(state, setting) for setting in settings]
    for count in list(range(1, 34)) + [63, 64, 65, 105, 128, 129, 140]:
        stack = outcome_distributions(state, settings[:count])
        for k in range(count):
            assert np.array_equal(stack[k], single[k]), (count, k)


def test_outcome_distributions_checks_every_setting():
    state = dicke(4, 2)
    assert outcome_distributions(state, []).shape == (0, 16)
    with pytest.raises(ValueError, match="different number of qubits"):
        outcome_distributions(state, [MeasurementSetting("zzzz"), MeasurementSetting("zzz")])


def traced_peak(fn):
    """(fn(), peak bytes that tracemalloc saw during the call)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_outcome_distributions_memory_on_a_ten_qubit_density():
    # a block is the rows whose first intermediate, half the matrix, fits in
    # BLOCK_BYTES: at ten qubits that is 8 MB, so one row.  A row peaks at
    # 1.5 times that (its first two intermediates); four rows at once would
    # take 48 MB.  |+>^9 |-> is outside the symmetric subspace, so its
    # uniform rows take the contraction
    amps = np.full(2**10, 2.0**-5)
    amps[1::2] *= -1.0
    rho = QubitPureState(10, amps).density()
    settings = [MeasurementSetting.direction(0.4, 0.3 + k, 10) for k in range(4)]
    row_bytes = rho.matrix.nbytes // 2
    assert row_bytes > BLOCK_BYTES
    probs, peak = traced_peak(lambda: outcome_distributions(rho, settings))
    assert peak < 1.6 * row_bytes
    for row, setting in zip(probs, settings):
        assert np.array_equal(row, per_setting_distribution(rho, setting))
    # |+>^10 is symmetric: the Dicke basis compares the matrix with its class
    # entries a block of rows at a time, and builds nothing of size 4^N
    plus = QubitPureState(10, np.full(2**10, 2.0**-5)).density()
    probs, peak = traced_peak(lambda: outcome_distributions(plus, settings))
    assert peak < 2 * BLOCK_BYTES
    for row, setting in zip(probs, settings):
        assert_allclose(row, per_setting_distribution(plus, setting), rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# Uniform settings on symmetric states: the Dicke basis against the contraction


def contraction(state, settings):
    """The general rows of ``outcome_distributions``: ``_pure_block`` or
    ``_density_block`` on every setting, then the sanity check, clip and
    renormalisation.  The oracle of the Dicke-basis rows."""
    rotations = np.array([[s.rotation(q) for q in range(state.num_qubits)] for s in settings])
    if isinstance(state, QubitPureState):
        probs = states._pure_block(state.amplitudes, rotations)
    else:
        probs = states._density_block(state.matrix, rotations)
    assert probs.min() >= -1e-9 and np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


def uniform_settings(n, rng, count=3):
    """``count`` random uniform directions, the poles, the equator (x, y and
    two random azimuths) and the GHZ design (z and N equatorial directions
    k pi / N)."""
    randoms = [
        MeasurementSetting.direction(math.acos(u), phi, n)
        for u, phi in zip(rng.uniform(-1.0, 1.0, count), rng.uniform(-math.pi, math.pi, count))
    ]
    poles = [MeasurementSetting.direction(theta, phi, n)
             for theta, phi in ((0.0, 0.3), (math.pi, 1.1))]
    equator = [MeasurementSetting.uniform(axis, n) for axis in "xy"] + [
        MeasurementSetting.direction(math.pi / 2, phi, n)
        for phi in rng.uniform(-math.pi, math.pi, 2)
    ]
    design = [MeasurementSetting.uniform("z", n)] + [
        MeasurementSetting.direction(math.pi / 2, k * math.pi / n, n) for k in range(n)
    ]
    return randoms + poles + equator + design


def assert_dicke_rows_match_the_contraction(state, settings):
    assert states._class_entries(state) is not None, "state is not exactly symmetric"
    assert_allclose(outcome_distributions(state, settings), contraction(state, settings),
                    rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", range(1, 11))
def test_dicke_rows_match_the_contraction_on_every_label(n):
    rng = np.random.default_rng(40 + n)
    labels = [dicke(n, m) for m in range(n + 1)] + [ghz(n), w_state(n)]
    settings = uniform_settings(n, rng)
    for state in labels:
        assert_dicke_rows_match_the_contraction(state, settings)
    # the density contraction costs 4^N per row: every label on every
    # setting up to six qubits, on four settings up to eight, then the
    # half-filled Dicke, GHZ and W states on four settings
    densities = labels if n <= 8 else [dicke(n, n // 2), ghz(n), w_state(n)]
    for state in densities:
        assert_dicke_rows_match_the_contraction(
            state.density(), settings if n <= 6 else settings[:2] + settings[-2:]
        )


@pytest.mark.parametrize("max_order", [3, 4])
def test_dicke_rows_match_the_contraction_on_the_source_and_navigated_states(max_order):
    rng = np.random.default_rng(max_order)
    for loss in (LossConfig(eta_h=1.0, eta_v=1.0), LossConfig(eta_h=0.3, eta_v=0.22)):
        rho = simulate_experiment(SpdcConfig(lam=0.85, max_order=max_order), loss).rho_sim
        # with loss, max_order 4 mixes three Dicke states; the others are D(6, 3)
        rank = np.linalg.matrix_rank(rho.matrix, tol=1e-12)
        assert rank == (3 if max_order == 4 and loss.eta_h < 1.0 else 1)
        assert_dicke_rows_match_the_contraction(rho, uniform_settings(6, rng))
        for steps in (["H"], ["H", "V"], ["V", "V"]):
            navigated, _ = navigate(rho, [NavigationStep(q, o) for q, o in enumerate(steps)])
            assert_dicke_rows_match_the_contraction(
                navigated, uniform_settings(navigated.num_qubits, rng, count=1)
            )
    for steps in (["H", "V"], ["V"], ["H", "H", "V"]):
        for state in (dicke(6, 3), dicke(6, 3).density()):
            navigated, _ = navigate(state, [NavigationStep(q, o) for q, o in enumerate(steps)])
            assert_dicke_rows_match_the_contraction(
                navigated, uniform_settings(navigated.num_qubits, rng)
            )
            assert_dicke_rows_match_the_contraction(
                navigated.density() if isinstance(navigated, QubitPureState) else navigated,
                uniform_settings(navigated.num_qubits, rng, count=1),
            )


@pytest.mark.parametrize("n", range(1, 11))
def test_dicke_rows_give_the_closed_forms(n):
    classes = states._POPCOUNT[: 2**n]
    for m in range(n + 1):
        # D(N, m) along z: exactly 0 off popcount m, 1 / C(N, m) on it
        for state in (dicke(n, m), dicke(n, m).density()):
            probs = outcome_distribution(state, MeasurementSetting.uniform("z", n))
            assert (probs[classes != m] == 0.0).all()
            assert_allclose(probs[classes == m], 1.0 / math.comb(n, m), rtol=1e-13)
    # a spin-coherent state read along its own direction: every qubit +1
    rng = np.random.default_rng(n)
    for theta, phi in zip(rng.uniform(0.0, math.pi, 4), rng.uniform(-math.pi, math.pi, 4)):
        single = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
        # one amplitude per class, so that the state is symmetric bit for bit
        per_class = single[0] ** (n - np.arange(n + 1)) * single[1] ** np.arange(n + 1)
        state = QubitPureState(n, per_class[classes])
        for read in (state, state.density()):
            assert states._class_entries(read) is not None
            probs = outcome_distribution(read, MeasurementSetting.direction(theta, phi, n))
            assert_allclose(probs[0], 1.0, rtol=0, atol=1e-13)


def test_an_ulp_off_symmetric_state_takes_the_contraction():
    settings = uniform_settings(6, np.random.default_rng(9))
    amps = dicke(6, 3).amplitudes.copy()
    amps[7] = np.nextafter(amps[7].real, 1.0)
    matrix = dicke(6, 3).density().matrix.copy()
    matrix[7, 11] = matrix[11, 7] = np.nextafter(matrix[7, 11].real, 1.0)
    for state in (QubitPureState(6, amps), QubitDensity(6, matrix)):
        assert states._class_entries(state) is None
        stack = outcome_distributions(state, settings)
        for row, setting in zip(stack, settings):
            assert np.array_equal(row, per_setting_distribution(state, setting))


@pytest.mark.parametrize("name", ["dicke_6_3", "ghz_10", "rho_sim"])
def test_a_mixed_stack_row_equals_its_one_row_call(name):
    # Dicke-basis blocks hold 47 rows at six qubits and 12 at ten; general
    # blocks 256 pure rows at six qubits, 16 at ten and 8 density rows at
    # six, so these stacks cross the block boundaries of both paths
    state = {"dicke_6_3": lambda: dicke(6, 3), "ghz_10": lambda: ghz(10),
             "rho_sim": _lossy_rho_sim}[name]()
    n = state.num_qubits
    rng = np.random.default_rng(11)
    uniform = random_settings(110 if n == 6 else 40, n, "uniform", rng)
    mixed = random_settings(30, n, "mixed", rng)
    settings = [s for pair in itertools.zip_longest(uniform, mixed) for s in pair if s is not None]
    single = [outcome_distribution(state, setting) for setting in settings]
    for count in (1, 2, 25, 60, len(settings)):
        stack = outcome_distributions(state, settings[:count])
        for k in range(count):
            assert np.array_equal(stack[k], single[k]), (count, k)


def test_apply_local_requires_unitaries():
    psi = QubitPureState(1, KET_H)
    flipped = apply_local(psi, [np.array([[0, 1], [1, 0]])])
    assert_allclose(flipped.amplitudes, KET_V, atol=1e-12)
    with pytest.raises(ValueError):
        apply_local(psi, [np.array([[1, 1], [0, 1]])])


def two_branch_apply_local(state, unitaries):
    """Oracle: the array of ``apply_local`` with a pure branch and a density
    branch."""
    n = state.num_qubits
    if isinstance(state, QubitPureState):
        tensor = state.amplitudes.reshape([2] * n)
        for q, u in enumerate(unitaries):
            tensor = np.moveaxis(np.tensordot(u, tensor, axes=[[1], [q]]), 0, q)
        return tensor.reshape(-1)
    tensor = state.matrix.reshape([2] * (2 * n))
    for q, u in enumerate(unitaries):
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=[[1], [q]]), 0, q)
        tensor = np.moveaxis(np.tensordot(u.conj(), tensor, axes=[[1], [n + q]]), 0, n + q)
    return tensor.reshape(2**n, 2**n)


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / abs(np.diag(r)))


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("n", range(1, 8))
def test_apply_local_matches_the_two_branch_oracle(n, kind):
    rng = np.random.default_rng(70 + n)
    state = random_pure(n, rng) if kind == "pure" else random_density(n, rng)
    unitaries = [random_unitary(rng) for _ in range(n)]
    out = apply_local(state, unitaries)
    assert type(out) is type(state) and out.num_qubits == n
    assert state_array(out).tobytes() == two_branch_apply_local(state, unitaries).tobytes()


def test_save_and_load_round_trip(tmp_path):
    psi = random_pure(3, np.random.default_rng(11))
    path = tmp_path / "state.json"
    save_state(psi, path)
    back = load_state(path)
    assert isinstance(back, QubitPureState)
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)

    rho = partial_trace(psi, keep=(0, 2))
    path2 = tmp_path / "rho.json"
    save_state(rho, path2)
    back2 = load_state(path2)
    assert isinstance(back2, QubitDensity)
    np.testing.assert_array_equal(back2.matrix, rho.matrix)


def state_to_dict(state):
    """The dict the writer serialised before it wrote templated text."""
    if isinstance(state, QubitPureState):
        out = {
            "num_qubits": state.num_qubits,
            "amplitudes": [[z.real, z.imag] for z in state.amplitudes],
        }
    else:
        out = {
            "num_qubits": state.num_qubits,
            "matrix": [[[z.real, z.imag] for z in row] for row in state.matrix],
        }
    if state.label:
        out["label"] = state.label
    return out


# floats whose shortest repr is not what a format string would guess
AWKWARD_FLOATS = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1 / 3]


def awkward_state(kind, num_qubits, rng, label):
    """A valid random state whose entries include ``AWKWARD_FLOATS``."""
    dim = 2**num_qubits
    if kind == "pure":
        amps = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) / (2 * math.sqrt(dim))
        parts = amps.view(float)
        count = min(len(AWKWARD_FLOATS), 2 * dim - 2)
        parts[:count] = AWKWARD_FLOATS[:count]
        amps[-1] = math.sqrt(1.0 - np.sum(np.abs(amps[:-1]) ** 2))
        return QubitPureState(num_qubits, amps, label=label)
    fixed = [1 / 3, 0.1 + 0.2][: dim - 1]
    rest = rng.uniform(0.5, 1.5, size=dim - len(fixed))
    diag = np.concatenate([fixed, rest / rest.sum() * (1.0 - sum(fixed))])
    # off-diagonal rows sum below the smallest diagonal entry: positive definite
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = (g + g.conj().T) * diag.min() / (4 * dim * np.abs(g).max())
    mat[np.diag_indices(dim)] = diag
    mat[0, 1], mat[1, 0] = complex(-0.0, 5e-324), complex(1e-300, -0.0)
    return QubitDensity(num_qubits, mat, label=label)


@pytest.mark.parametrize(
    "label",
    [None, "dicke_6_3", "D\u2086\u207d\u00b3\u207e 100% \"\u00e9\""],
    ids=["no-label", "ascii-label", "non-ascii-label"],
)
@pytest.mark.parametrize("num_qubits", range(1, 8))
@pytest.mark.parametrize("kind", ["pure", "density"])
def test_state_file_bytes_match_json_dump_oracle(tmp_path, kind, num_qubits, label):
    rng = np.random.default_rng([num_qubits, len(label or "")])
    state = awkward_state(kind, num_qubits, rng, label)
    oracle = tmp_path / "oracle.json"
    with open(oracle, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=1)
        fh.write("\n")
    written = tmp_path / "state.json"
    save_state(state, written)
    assert written.read_bytes() == oracle.read_bytes()
    back = load_state(written)
    values = back.amplitudes if kind == "pure" else back.matrix
    expected = state.amplitudes if kind == "pure" else state.matrix
    # bit for bit, so -0.0 and the subnormal 5e-324 survive too
    assert values.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert back.label == label


def _pair_lines(depth, count):
    """Indent-1 JSON of ``count`` ``[re, im]`` pairs nested ``depth`` deep,
    with one ``%r`` slot per number."""
    pad = " " * depth
    return ",\n".join([f"{pad}[\n{pad} %r,\n{pad} %r\n{pad}]"] * count)


def template_save_state(state, path):
    """The writer that formats every number of the file through one
    ``%r`` template."""
    if isinstance(state, QubitPureState):
        key, values = "amplitudes", state.amplitudes
        template = _pair_lines(2, state.dim)
    else:
        key, values = "matrix", state.matrix
        row = f"  [\n{_pair_lines(3, state.dim)}\n  ]"
        template = ",\n".join([row] * state.dim)
    numbers = tuple(np.stack([values.real, values.imag], -1).ravel().tolist())
    text = f'{{\n "num_qubits": {state.num_qubits},\n "{key}": [\n{template % numbers}\n ]'
    if state.label:
        text += f',\n "label": {json.dumps(state.label)}'
    with open(path, "w") as fh:
        fh.write(text + "\n}\n")


def signed_zero_states():
    """States whose entries repeat and hold +0.0 and -0.0 in both parts."""
    zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    amps = np.array((zeros + [0.5, -0.5, 0.5j, complex(-0.0, -0.5)]) * 2) / math.sqrt(2)
    pure = QubitPureState(4, amps, label="signed zeros")
    diag = np.full(4, 0.25, dtype=complex)
    mixed = np.diag(diag)
    mixed[0, 1:] = zeros[1:]
    mixed[1:, 0] = zeros[1:]
    mixed[2, 3], mixed[3, 2] = complex(0.1, -0.0), complex(0.1, 0.0)
    mixed[3, 3] = complex(0.25, -0.0)
    return [pure, QubitDensity(2, mixed)]


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: signed_zero_states()[0], id="pure-signed-zeros"),
        pytest.param(lambda: signed_zero_states()[1], id="density-signed-zeros"),
        pytest.param(lambda: random_density(5, np.random.default_rng(33)), id="random-density"),
        pytest.param(lambda: random_pure(6, np.random.default_rng(34)), id="random-pure"),
        pytest.param(
            lambda: simulate_experiment(SpdcConfig(0.85, 4), LossConfig(0.3, 0.6)).rho_sim,
            id="rho_sim",
        ),
        pytest.param(lambda: dicke(6, 3), id="labelled-dicke"),
        pytest.param(lambda: werner(3, 0.5, w_state(3)), id="labelled-werner"),
    ],
)
def test_state_file_bytes_match_the_template_writer(tmp_path, make):
    state = make()
    oracle, written = tmp_path / "oracle.json", tmp_path / "state.json"
    template_save_state(state, oracle)
    save_state(state, written)
    assert written.read_bytes() == oracle.read_bytes()
    back = load_state(written)
    assert back.label == state.label
    assert state_array(back).view(np.uint64).tolist() == state_array(state).view(np.uint64).tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_states_reject_non_finite_entries(tmp_path, bad):
    with pytest.raises(ValueError, match="finite"):
        QubitPureState(1, [bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        QubitPureState(1, [complex(0.0, bad), 1.0])
    with pytest.raises(ValueError, match="finite"):
        QubitDensity(1, [[0.5, bad], [bad, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        QubitDensity(1, [[complex(0.5, bad), 0.0], [0.0, 0.5]])
    path = tmp_path / "nan.json"
    path.write_text('{"num_qubits": 1, "amplitudes": [[NaN, 0.0], [1.0, 0.0]]}')
    with pytest.raises(ValueError, match="finite"):
        load_state(path)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"num_qubits": 1}', id="no-entries"),
        pytest.param("[1.0, 0.0]", id="not-an-object"),
        pytest.param('{"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}', id="no-num-qubits"),
        pytest.param('{"num_qubits": 1, "amplitudes": [[1.0, 0.0, 0.0], [0.0, 0.0]]}', id="triple"),
        pytest.param('{"num_qubits": 1, "amplitudes": [1.0, 0.0]}', id="bare-numbers"),
        pytest.param('{"num_qubits": 1, "amplitudes": [["1.0", "0.0"], ["0.0", "0.0"]]}', id="strings"),
        pytest.param('{"num_qubits": 1, "amplitudes": [[1.0, null], [0.0, 0.0]]}', id="null"),
        pytest.param('{"num_qubits": 1, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}', id="ragged"),
        pytest.param(
            '{"num_qubits": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}',
            id="wrong-size",
        ),
        pytest.param('{"num_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]', id="truncated"),
    ],
)
def test_load_state_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_state(path)
