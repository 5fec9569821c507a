import heapq
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dickesim.dicke_states import dicke, ghz, w_state
from dickesim.lms import (
    _PHASES,
    COEFF_TOL,
    MAX_GREEDY_QUBITS,
    CoverageError,
    FidelityEstimate,
    SettingAssignment,
    SettingEstimate,
    SettingPlan,
    _counts_vector,
    _designs,
    _hadamard,
    _symmetric_weights,
    _symmetric_correlators,
    check_plan_covers,
    decompose,
    fidelity_from_counts,
    fidelity_from_matrix,
    plan_settings,
    reference_lms_table,
)
from dickesim.fock import LossConfig, SpdcConfig, simulate_experiment
from dickesim.references import REFERENCE_VALUES
from dickesim.sampling import ExperimentPlan, count_matrix, histograms_to_table, run_plan
from dickesim.states import (
    _POPCOUNT,
    BLOCK_BYTES,
    MeasurementSetting,
    QubitDensity,
    QubitPureState,
    expectation,
    outcome_distribution,
)
from test_states import observable, pauli_matrix

# greedy setting counts are deterministic; frozen after exhaustive runs
GREEDY_COUNTS = {
    "dicke_6_3": 207,
    "dicke_4_2": 21,
    "dicke_4_1": 23,
    "ghz_4": 9,
}


def reconstruct(decomp):
    """The projector rebuilt from its Pauli terms as dense matrices."""
    dim = 2**decomp.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, string in decomp.terms:
        out += coeff * pauli_matrix(string)
    return out


def exact_counts(state, plan, events=1e6):
    table = {}
    for assignment in plan.assignments:
        probs = outcome_distribution(state, assignment.setting)
        table[assignment.setting.label()] = probs * events
    return table


def test_projector_decomposition_size_and_weights():
    decomp = decompose(dicke(6, 3))
    assert len(decomp) == 544
    assert_allclose(decomp.identity_coefficient, 1.0 / 64.0, atol=1e-12)
    weights = Counter(
        sum(1 for c in s if c != "I") for s in decomp.nonidentity_strings()
    )
    assert weights == {2: 45, 4: 315, 6: 183}


def test_decomposition_reconstructs_projector():
    psi = dicke(4, 2)
    decomp = decompose(psi)
    projector = np.outer(psi.amplitudes, psi.amplitudes.conj())
    assert_allclose(reconstruct(decomp), projector, atol=1e-12)


def test_known_coefficient_value():
    # <ZZIIII> on the half-excited state is -0.2, scaled by 1/2^6
    decomp = decompose(dicke(6, 3))
    assert_allclose(decomp.coefficient("ZZIIII"), -0.2 / 64.0, atol=1e-12)


def per_string_terms(state, tol=1e-12):
    """Pauli expansion from one expectation value per string, in
    itertools.product("IXYZ") order: the reference for the transform."""
    n = state.num_qubits
    terms = []
    for letters in itertools.product("IXYZ", repeat=n):
        string = "".join(letters)
        coeff = expectation(state, string) / 2**n
        if abs(coeff) > tol:
            terms.append((coeff, string))
    return terms


def random_pure_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QubitPureState(n, amps / np.linalg.norm(amps), label=f"random_{n}")


@pytest.mark.parametrize(
    "state",
    [dicke(6, 3), ghz(4), dicke(4, 1), w_state(5)] + [random_pure_state(n, 40 + n) for n in range(1, 7)],
    ids=lambda s: s.label,
)
def test_decompose_matches_per_string_expectations(state):
    expected = per_string_terms(state)
    decomp = decompose(state)
    assert [s for _, s in decomp.terms] == [s for _, s in expected]
    assert_allclose([c for c, _ in decomp.terms], [c for c, _ in expected], rtol=0, atol=1e-15)


def per_x_mask_terms(decomp):
    """Pauli expansion with one Walsh-Hadamard transform per X-mask, in a
    Python loop over the X-masks: the reference for the stacked transform."""
    psi = decomp.target.amplitudes
    n = decomp.num_qubits
    masks = np.arange(psi.size)
    high, low = _hadamard(n // 2), _hadamard(n - n // 2)
    letters = {}
    for x in masks:
        product = (psi[masks ^ x].conj() * psi).reshape(len(high), len(low))
        transform = (high @ product @ low).reshape(-1)
        values = (_PHASES[_POPCOUNT[masks & x] % 4] * transform).real / psi.size
        for z in np.flatnonzero(np.abs(values) > COEFF_TOL):
            # qubit k's letter from its X and Z bits; product order sorts the strings
            string = "".join("IZXY"[2 * ((x >> (n - 1 - k)) & 1) + ((z >> (n - 1 - k)) & 1)]
                             for k in range(n))
            letters[string.translate(PRODUCT_ORDER)] = (float(values[z]), string)
    return tuple(letters[key] for key in sorted(letters))


# "IXYZ" sorts as "ABCD", so sorted keys give itertools.product("IXYZ") order
PRODUCT_ORDER = str.maketrans("IXYZ", "ABCD")
TERMS_ORACLE_TARGETS = (
    [random_pure_state(n, 60 + n) for n in range(1, 8)]
    + [dicke(n, n // 2) for n in range(1, 11)]
    + [ghz(n) for n in range(2, 11)]
    + [w_state(8)]
)


@pytest.mark.parametrize("state", TERMS_ORACLE_TARGETS, ids=lambda s: s.label)
def test_terms_match_the_per_x_mask_loop(state):
    decomp = decompose(state)
    assert decomp.terms == per_x_mask_terms(decomp)


def test_terms_memory_at_the_qubit_cap():
    # D(10, 5): 131,584 terms.  The transform takes the X-masks in blocks
    # whose complex temporaries fit in BLOCK_BYTES and peaks near five
    # blocks; one stack of all 1,024 X-masks takes 16 MB per temporary.
    # terms as a whole peaks while it turns keys into strings: 36.6 MB, as
    # with the per-X-mask loop
    decomp = decompose(dicke(10, 5))
    tracemalloc.start()
    try:
        for _ in decomp._x_mask_coefficients(np.arange(2**10)):
            pass
        blocks = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        terms = decomp.terms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(terms) == 131584
    assert blocks < 8 * BLOCK_BYTES
    assert peak < 150 * BLOCK_BYTES


def test_greedy_plan_rejects_large_registers():
    amps = np.zeros(2**9)
    amps[0] = 1.0
    decomp = decompose(QubitPureState(9, amps))
    with pytest.raises(ValueError, match="greedy"):
        plan_settings(decomp, strategy="greedy")


def test_decompose_reaches_ten_qubits():
    assert len(decompose(ghz(10))) == 1024
    assert len(decompose(dicke(9, 4))) == 65792


def class_coefficients(decomp):
    """Coefficient per letter-count class (#X, #Y, #Z), walked string by
    string over ``terms``: the reference for ``classes``.  None unless every
    coefficient depends only on its class and each kept class holds all
    N! / (a! b! c! (N - a - b - c)!) permutations."""
    n = decomp.num_qubits
    classes, sizes = {}, Counter()
    for coeff, string in decomp.terms:
        if string == "I" * n:
            continue
        key = (string.count("X"), string.count("Y"), string.count("Z"))
        if abs(classes.setdefault(key, coeff) - coeff) > 1e-12:
            return None
        sizes[key] += 1
    for (a, b, c), size in sizes.items():
        factorials = math.factorial(a) * math.factorial(b) * math.factorial(c)
        if size != math.factorial(n) // (factorials * math.factorial(n - a - b - c)):
            return None
    return classes


def random_symmetric_state(n, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    amps = sum(c * dicke(n, k).amplitudes for k, c in enumerate(coeffs))
    return QubitPureState(n, amps / np.linalg.norm(amps), label=f"symmetric_{n}")


def perturbed_dicke_4_2():
    amps = dicke(4, 2).amplitudes.copy()
    amps[3] += 1e-6
    return QubitPureState(4, amps / np.linalg.norm(amps), label="dicke_4_2_perturbed")


def hh_plus():
    # |H>|H>|+> keeps ZII but not its permutation IIZ
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return QubitPureState(3, np.kron(np.kron([1.0, 0.0], [1.0, 0.0]), plus), label="hh_plus")


NOT_INVARIANT = [perturbed_dicke_4_2(), hh_plus()]
CLASS_TARGETS = (
    [dicke(n, k) for n in range(1, 9) for k in range(n + 1)]
    + [ghz(n) for n in range(2, 9)]
    + [w_state(n) for n in range(2, 9)]
    + [dicke(10, 5), ghz(10)]
    + [random_symmetric_state(n, 90 + n) for n in range(2, 7)]
    # the singlet changes sign under the swap, its projector does not
    + [QubitPureState(2, np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0), label="singlet")]
    + NOT_INVARIANT
)


@pytest.mark.parametrize("state", CLASS_TARGETS, ids=lambda s: s.label)
def test_classes_match_the_string_walk(state):
    # a class is read from I..IX..XY..YZ..Z, the first of its strings in
    # product order, so its value is the walk's own to the bit
    decomp = decompose(state)
    expected = class_coefficients(decomp)
    assert decomp.classes == expected
    assert (expected is None) == any(state is s for s in NOT_INVARIANT)
    assert len(decomp) == len(decomp.terms)


def _plan_or_message(decomp, strategy=None):
    try:
        return plan_settings(decomp, strategy)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("state", CLASS_TARGETS, ids=lambda s: s.label)
def test_default_plan_is_the_symmetric_plan(state):
    # a target that is not permutation-invariant gets symmetric's refusal,
    # which names the strategy that plans it
    decomp = decompose(state)
    default = _plan_or_message(decomp)
    assert default == _plan_or_message(decomp, "symmetric")
    assert isinstance(default, str) == (decomp.classes is None)
    if decomp.classes is None:
        assert 'strategy="greedy"' in default


# ---------------------------------------------------------------------------
# Per-string oracles: the replaced greedy planner, the coverage check's
# letter test and the estimator's outcome weights, one string at a time


def support_mask(string, num_qubits):
    """Bit mask of the non-identity positions (qubit 0 = MSB)."""
    mask = 0
    for k, letter in enumerate(string):
        if letter != "I":
            mask |= 1 << (num_qubits - 1 - k)
    return mask


def setting_covers(axes, string):
    return all(letter == "I" or axes[k] == letter.lower() for k, letter in enumerate(string))


def test_support_mask_marks_nonidentity_positions():
    # qubit 0 = MSB, so position 1 maps to bit 2 of a 4-bit mask
    assert support_mask("IXZI", 4) == 0b0110
    assert support_mask("XIII", 4) == 0b1000


def outcome_weights(decomp, assignment):
    """What one setting adds to the estimate, per outcome: its covered
    strings' eigenvalues plus its weighted symmetric correlators, each
    e_m read off prod_q (1 + t s_q) for the outcome's +-1 values s_q."""
    n = decomp.num_qubits
    outcomes = np.arange(2**n)
    out = np.zeros(2**n)
    for string in assignment.covered:
        out += decomp.coefficient(string) * (-1.0) ** _POPCOUNT[outcomes & support_mask(string, n)]
    if assignment.collective_weights:
        for o in outcomes:
            poly = np.ones(1)
            for q in range(n):
                poly = np.convolve(poly, [1.0, -1.0 if o >> q & 1 else 1.0])
            out[o] += np.dot(assignment.collective_weights, poly)
    return out


def per_string_greedy_plan(decomp):
    """The replaced greedy planner, kept as an oracle: one bitmask over the
    strings per candidate, built by ORing in one string's bit at a time,
    and lazy greedy (Minoux 1978) on a heap of stale gains refreshed only
    when they reach the top, which picks the largest gain at the smallest
    candidate index."""
    n = decomp.num_qubits
    assert n <= MAX_GREEDY_QUBITS
    strings = decomp.nonidentity_strings()
    place = [3 ** (n - 1 - k) for k in range(n)]
    digit = {"X": 0, "Y": 1, "Z": 2}
    offsets = {}
    masks = [0] * 3**n
    for i, string in enumerate(strings):
        free = tuple(k for k, letter in enumerate(string) if letter == "I")
        if free not in offsets:
            offsets[free] = [
                sum(d * place[k] for d, k in zip(ds, free))
                for ds in itertools.product(range(3), repeat=len(free))
            ]
        base = sum(digit[letter] * place[k] for k, letter in enumerate(string) if letter != "I")
        for offset in offsets[free]:
            masks[base + offset] |= 1 << i
    heap = [(-mask.bit_count(), c) for c, mask in enumerate(masks) if mask]
    heapq.heapify(heap)
    uncovered = (1 << len(strings)) - 1
    assignments = []
    while uncovered:
        _, c = heapq.heappop(heap)
        taken = masks[c] & uncovered
        gain = taken.bit_count()
        if not gain:
            continue
        if heap and (-gain, c) > heap[0]:
            heapq.heappush(heap, (-gain, c))
            continue
        uncovered ^= taken
        covered = []
        while taken:
            low = taken & -taken
            covered.append(strings[low.bit_length() - 1])
            taken ^= low
        axes = tuple("xyz"[c // place[k] % 3] for k in range(n))
        assignments.append(SettingAssignment(MeasurementSetting(axes), tuple(covered)))
    return SettingPlan(method="greedy", assignments=tuple(assignments))


@pytest.mark.parametrize("n", range(1, 11))
def test_symmetric_correlators_match_the_krawtchouk_sum(n):
    # the table is built with array operations; its entries are exact
    # integers, so it is the bits of the triple sum
    table = np.array(
        [
            [sum((-1) ** j * math.comb(p, j) * math.comb(n - p, m - j) for j in range(m + 1))
             for p in range(n + 1)]
            for m in range(n + 1)
        ],
        dtype=float,
    )
    assert np.array_equal(_symmetric_correlators(n), table[:, _POPCOUNT[: 2**n]])


def per_string_fidelity(decomp, plan, counts):
    """The estimator with each setting's outcome weights summed string by
    string, in covered order."""
    n = decomp.num_qubits
    dim = 2**n
    outcomes = np.arange(dim)
    correlators = _symmetric_correlators(n)
    value = decomp.identity_coefficient
    variance = 0.0
    per_setting = []
    for assignment in plan.assignments:
        key = assignment.setting.label()
        vec = _counts_vector(counts, key, dim)
        weights = np.zeros(dim)
        for string in assignment.covered:
            mask = support_mask(string, n)
            weights += decomp.coefficient(string) * (-1.0) ** _POPCOUNT[outcomes & mask]
        if assignment.collective_weights:
            weights += np.asarray(assignment.collective_weights) @ correlators
        total = vec.sum()
        probs = vec / total
        mean = float(probs @ weights)
        spread = weights - weights[np.argmax(vec)]
        spread -= probs @ spread
        var = float(probs @ spread**2) / total
        value += mean
        variance += var
        per_setting.append(SettingEstimate(key, float(total), mean, var))
    return FidelityEstimate(float(value), math.sqrt(variance), tuple(per_setting))


def per_string_letter_check(plan):
    """The first covered string whose setting cannot evaluate it, as the
    message the coverage check raises, or None."""
    for idx, assignment in enumerate(plan.assignments):
        axes = assignment.setting.axes
        for string in assignment.covered:
            if any(isinstance(a, tuple) for a in axes) or not setting_covers(axes, string):
                return f"setting {idx} cannot evaluate {string}"
    return None


# one of its one-string settings reads IZZ on x,z,z, between x,z,x and y,x,y:
# a string with I sorts by the setting that reads it, not by its own letters
SPARSE_3 = QubitPureState(3, np.array([1, 0, 1, 1, 1, 1j, 0, -1]) / math.sqrt(6), label="sparse_3")

GREEDY_ORACLE_TARGETS = (
    [dicke(n, k) for n in range(1, 8) for k in range(n + 1)]
    + [ghz(n) for n in range(2, 8)]
    + [w_state(n) for n in range(2, 8)]
    + [random_pure_state(n, 80 + n) for n in range(2, 7)]
    # greedy's qubit cap; the random state picks all 2,187 candidates, and
    # ghz_8 is nearly all one-string settings
    + [ghz(8), w_state(8), dicke(8, 1), dicke(8, 4), random_pure_state(7, 87)]
    + [SPARSE_3]
)


@pytest.mark.parametrize("state", GREEDY_ORACLE_TARGETS, ids=lambda s: s.label)
def test_greedy_plan_matches_the_per_string_planner(state):
    decomp = decompose(state)
    assert plan_settings(decomp, strategy="greedy") == per_string_greedy_plan(decomp)


@pytest.mark.parametrize("state", [ghz(8), dicke(6, 3), dicke(8, 4), SPARSE_3], ids=lambda s: s.label)
def test_greedy_plan_ends_with_one_string_per_setting_in_candidate_order(state):
    # once no setting reads two strings, none can: each string left is read
    # alone, first by the axes with x for every I, smallest candidate first
    plan = plan_settings(decompose(state), strategy="greedy")
    start = next(k for k, a in enumerate(plan.assignments) if len(a.covered) == 1)
    tail = plan.assignments[start:]
    assert all(len(a.covered) == 1 for a in tail)
    assert [a.setting.axes for a in tail] == [
        tuple(a.covered[0].replace("I", "X").lower()) for a in tail]
    rank = {axes: c for c, axes in enumerate(itertools.product("xyz", repeat=state.num_qubits))}
    order = [rank[a.setting.axes] for a in tail]
    assert all(a < b for a, b in zip(order, order[1:]))


ESTIMATOR_ORACLE_TARGETS = [dicke(4, 2), dicke(6, 3), dicke(7, 1), w_state(5), ghz(6),
                            random_pure_state(5, 85)]


@pytest.mark.parametrize("state", ESTIMATOR_ORACLE_TARGETS, ids=lambda s: s.label)
def test_estimator_matches_the_per_string_loop(state):
    # seeded counts, so that every setting sees a spread of outcomes
    decomp = decompose(state)
    plan = plan_settings(decomp, strategy="greedy")
    rng = np.random.default_rng(state.num_qubits)
    counts = {}
    for assignment in plan.assignments:
        probs = outcome_distribution(state, assignment.setting)
        counts[assignment.setting.label()] = rng.multinomial(2000, probs / probs.sum()).astype(float)
    est = fidelity_from_counts(decomp, plan, counts)
    assert est == per_string_fidelity(decomp, plan, counts)
    assert len(est.per_setting) == plan.num_settings


def with_assignment(plan, idx, assignment):
    assignments = list(plan.assignments)
    assignments[idx] = assignment
    return SettingPlan(plan.method, tuple(assignments), plan.collective_classes)


def wrong_letter(plan, idx):
    # turn the axis under the first string's first letter to another axis
    assignment = plan.assignments[idx]
    axes = list(assignment.setting.axes)
    k = next(k for k, letter in enumerate(assignment.covered[0]) if letter != "I")
    axes[k] = {"x": "y", "y": "z", "z": "x"}[axes[k]]
    return with_assignment(plan, idx, SettingAssignment(MeasurementSetting(axes), assignment.covered))


def bloch_direction(plan, idx):
    # a Bloch direction on one qubit, even one that no string reads
    assignment = plan.assignments[idx]
    axes = list(assignment.setting.axes)
    axes[-1] = ("n", 0.3, 0.1)
    return with_assignment(plan, idx, SettingAssignment(MeasurementSetting(axes), assignment.covered))


@pytest.mark.parametrize("mutate", [wrong_letter, bloch_direction])
@pytest.mark.parametrize("idx", [0, 5, 20])
def test_check_plan_covers_names_the_first_setting_that_cannot_evaluate_its_string(mutate, idx):
    decomp = decompose(dicke(4, 2))
    plan = plan_settings(decomp, strategy="greedy")
    assert per_string_letter_check(plan) is None
    bad = mutate(plan, idx)
    message = per_string_letter_check(bad)
    assert message.startswith(f"setting {idx} cannot evaluate ")
    with pytest.raises(CoverageError) as info:
        check_plan_covers(bad, decomp)
    assert str(info.value) == message


def test_check_plan_covers_names_a_missing_string():
    decomp = decompose(dicke(4, 2))
    plan = plan_settings(decomp, strategy="greedy")
    assignment = plan.assignments[3]
    dropped = assignment.covered[0]
    short = with_assignment(plan, 3, SettingAssignment(assignment.setting, assignment.covered[1:]))
    with pytest.raises(CoverageError) as info:
        check_plan_covers(short, decomp)
    assert str(info.value) == f"plan misses 1 strings, e.g. {[dropped]}"


def test_check_plan_covers_rejects_a_string_read_twice():
    # IIXX is read elsewhere; read again on y,y,x,x, its coefficient 1/24
    # would enter the estimate twice
    state = dicke(4, 2)
    decomp = decompose(state)
    plan = plan_settings(decomp, strategy="greedy")
    labels = [a.setting.label() for a in plan.assignments]
    idx = labels.index("y,y,x,x")
    first = next(i for i, a in enumerate(plan.assignments) if "IIXX" in a.covered)
    assignment = plan.assignments[idx]
    assert "IIXX" not in assignment.covered
    twice = with_assignment(plan, idx, SettingAssignment(assignment.setting, assignment.covered + ("IIXX",)))
    assert per_string_letter_check(twice) is None
    with pytest.raises(CoverageError, match=f"settings {min(first, idx)} and {max(first, idx)} both cover IIXX"):
        check_plan_covers(twice, decomp)
    with pytest.raises(CoverageError):
        fidelity_from_counts(decomp, twice, exact_counts(state, twice))
    # the identity enters analytically, so no setting may read it either
    identity = with_assignment(plan, 0, SettingAssignment(
        plan.assignments[0].setting, plan.assignments[0].covered + ("IIII",)))
    with pytest.raises(CoverageError, match="setting 0 covers IIII, but it is not"):
        check_plan_covers(identity, decomp)


def test_check_plan_covers_rejects_strings_beside_collective_weights():
    # the collective weights read every string, so a covered one counts twice
    decomp = decompose(dicke(4, 2))
    plan = plan_settings(decomp)
    first = plan.assignments[0]
    assert first.setting.label() == "z,z,z,z"
    extra = with_assignment(plan, 0, SettingAssignment(first.setting, ("IIZZ",), first.collective_weights))
    with pytest.raises(CoverageError, match="setting 0 covers IIZZ, but the collective weights"):
        check_plan_covers(extra, decomp)


def test_check_plan_covers_rejects_a_setting_on_another_register():
    decomp = decompose(dicke(4, 2))
    plan = plan_settings(decomp, strategy="greedy")
    assignment = plan.assignments[2]
    short = with_assignment(plan, 2, SettingAssignment(MeasurementSetting("xyz"), assignment.covered))
    with pytest.raises(CoverageError, match="setting 2 measures 3 qubits, the target has 4"):
        check_plan_covers(short, decomp)


def test_greedy_plan_memory_at_the_qubit_cap():
    # the eight-qubit Dicke state: 8,319 strings over 6,561 candidates.  The
    # decomposition and plan peaked at 3.98 MB, of which the plan it returns
    # holds about 2 MB; each of the planner's tables of 4^8 entries takes at
    # most 256 KB
    tracemalloc.start()
    try:
        plan = plan_settings(decompose(dicke(8, 4)), "greedy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.num_settings == 2012
    assert peak < 1.1 * 3.98e6


def test_greedy_counts_are_frozen():
    targets = {
        "dicke_6_3": dicke(6, 3),
        "dicke_4_2": dicke(4, 2),
        "dicke_4_1": dicke(4, 1),
        "ghz_4": ghz(4),
    }
    for name, state in targets.items():
        plan = plan_settings(decompose(state), strategy="greedy")
        assert plan.num_settings == GREEDY_COUNTS[name], name


def set_scan_greedy(decomp):
    """Greedy cover by re-scanning every candidate's string set per pick:
    the reference for the planner's bitset search.  Returns (label,
    covered) per setting in pick order."""
    by_candidate = {}
    for string in decomp.nonidentity_strings():
        fixed = ["xyz" if letter == "I" else letter.lower() for letter in string]
        for axes in itertools.product(*fixed):
            by_candidate.setdefault(axes, set()).add(string)
    uncovered = set(decomp.nonidentity_strings())
    picks = []
    while uncovered:
        best_axes, best_gain = None, 0
        for axes in sorted(by_candidate):
            gain = len(by_candidate[axes] & uncovered)
            if gain > best_gain:
                best_axes, best_gain = axes, gain
        taken = sorted(by_candidate[best_axes] & uncovered)
        uncovered -= set(taken)
        picks.append((",".join(best_axes), tuple(taken)))
    return picks


@pytest.mark.parametrize(
    "state",
    [dicke(6, 3), dicke(7, 1), dicke(5, 2), w_state(5), ghz(6)]
    + [random_pure_state(n, 70 + n) for n in range(2, 6)],
    ids=lambda s: s.label,
)
def test_greedy_plan_matches_set_scan_oracle(state):
    decomp = decompose(state)
    plan = plan_settings(decomp, strategy="greedy")
    picks = [(a.setting.label(), a.covered) for a in plan.assignments]
    assert picks == set_scan_greedy(decomp)


def test_greedy_plan_partitions_all_strings():
    decomp = decompose(dicke(4, 2))
    plan = plan_settings(decomp, strategy="greedy")
    check_plan_covers(plan, decomp)
    covered = [s for a in plan.assignments for s in a.covered]
    assert sorted(covered) == sorted(decomp.nonidentity_strings())


def test_greedy_assignments_are_sound():
    # every covered string must agree letter-by-letter with its setting's axes
    decomp = decompose(dicke(4, 2))
    plan = plan_settings(decomp, strategy="greedy")
    for assignment in plan.assignments:
        axes = assignment.setting.label().split(",")
        for string in assignment.covered:
            for letter, axis in zip(string, axes):
                if letter != "I":
                    assert letter.lower() == axis


def test_greedy_plan_is_deterministic():
    decomp = decompose(dicke(4, 2))
    labels_a = [a.setting.label() for a in plan_settings(decomp, strategy="greedy").assignments]
    labels_b = [a.setting.label() for a in plan_settings(decomp, strategy="greedy").assignments]
    assert labels_a == labels_b


def test_greedy_never_exceeds_distinct_support_patterns():
    for state in (dicke(4, 2), dicke(6, 3)):
        decomp = decompose(state)
        plan = plan_settings(decomp, strategy="greedy")
        assert plan.num_settings <= len(set(decomp.nonidentity_strings()))


def test_ghz_special_plan_has_five_settings():
    decomp = decompose(ghz(4))
    plan = plan_settings(decomp, strategy="ghz_special")
    assert plan.num_settings == 5
    check_plan_covers(plan, decomp)
    labels = [a.setting.label() for a in plan.assignments]
    assert "z,z,z,z" in labels
    assert sum(1 for lab in labels if lab.startswith(f"n:{math.pi / 2!r}:")) == 4


def test_ghz_special_rejects_other_targets():
    with pytest.raises(ValueError):
        plan_settings(decompose(dicke(4, 2)), strategy="ghz_special")
    with pytest.raises(ValueError):
        plan_settings(decompose(dicke(4, 2)), strategy="magic")


@pytest.mark.parametrize("n", range(3, 9))
def test_ghz_special_weights_match_the_order_n_construction(n):
    # the z setting reads out every diagonal string, and the N equatorial
    # settings at k pi / N carry (-1)^k / (2N) on the order-N correlator only
    decomp = decompose(ghz(n))
    plan = plan_settings(decomp, strategy="ghz_special")
    z_setting, *equatorial = plan.assignments
    assert z_setting.setting.label() == ",".join("z" * n)
    outcomes = np.arange(2**n)
    diagonal = sum(
        decomp.coefficient(s) * (-1.0) ** _POPCOUNT[outcomes & support_mask(s, n)]
        for s in decomp.nonidentity_strings()
        if set(s) <= {"I", "Z"}
    )
    assert_allclose(outcome_weights(decomp, z_setting), diagonal, rtol=0, atol=1e-12)
    assert len(equatorial) == n
    for k, assignment in enumerate(equatorial):
        expected = MeasurementSetting.direction(math.pi / 2, k * math.pi / n, n)
        assert assignment.setting == expected
        assert assignment.covered == ()
        assert_allclose(
            assignment.collective_weights, [0.0] * n + [(-1.0) ** k / (2.0 * n)], rtol=0, atol=1e-12
        )


def test_check_plan_covers_flags_missing_strings():
    decomp = decompose(dicke(4, 2))
    plan = plan_settings(decompose(ghz(4)), strategy="ghz_special")
    with pytest.raises(CoverageError):
        check_plan_covers(plan, decomp)


SYMMETRIC_TARGETS = [dicke(n, k) for n in range(3, 7) for k in range(n + 1)] + [ghz(4), ghz(6)]


def symmetric_operator(plan, decomp):
    """Operator a plan's collective weights measure, built qubit by qubit.

    The m-th symmetric correlator of one setting is the t^m coefficient of
    prod_q (1 + t A_q), with A_q that qubit's observable; this rebuilds it
    from dense Kronecker products, independently of the planner's solve.
    """
    n = decomp.num_qubits
    total = decomp.identity_coefficient * np.eye(2**n, dtype=complex)
    for assignment in plan.assignments:
        orders = [np.eye(1, dtype=complex)]
        for q in range(n):
            a_q = observable(assignment.setting, q)
            grown = [np.kron(op, np.eye(2)) for op in orders] + [np.zeros((2 ** (q + 1),) * 2)]
            for m, op in enumerate(orders):
                grown[m + 1] = grown[m + 1] + np.kron(op, a_q)
            orders = grown
        for weight, op in zip(assignment.collective_weights, orders):
            total += weight * op
    return total


@pytest.mark.parametrize("state", SYMMETRIC_TARGETS, ids=lambda s: s.label)
def test_symmetric_plan_matches_dense_oracle(state):
    n = state.num_qubits
    decomp = decompose(state)
    plan = plan_settings(decomp)
    assert plan.method == "symmetric"
    check_plan_covers(plan, decomp)
    assert_allclose(symmetric_operator(plan, decomp), reconstruct(decomp), atol=1e-12)
    est = fidelity_from_counts(decomp, plan, exact_counts(state, plan))
    assert_allclose(est.value, 1.0, atol=1e-9)
    mixed = QubitDensity(n, np.eye(2**n) / 2**n)
    est = fidelity_from_counts(decomp, plan, exact_counts(mixed, plan))
    assert_allclose(est.value, 2.0**-n, atol=1e-9)


def per_order_weights(classes, settings):
    """``_symmetric_weights`` with each order's design matrix from its own
    pass of powers and products: the oracle of its shared power table."""
    n = settings[0].num_qubits
    vectors = np.array([s.bloch_vector(0) for s in settings])
    weights = np.zeros((len(settings), n + 1))
    residual = 0.0
    for m in range(1, n + 1):
        monomials = [(a, b, m - a - b) for a in range(m + 1) for b in range(m + 1 - a)]
        design = np.prod(vectors ** np.array(monomials)[:, None, :], axis=2)
        rhs = np.array([classes.get(mono, 0.0) for mono in monomials])
        solution = np.linalg.lstsq(design, rhs, rcond=None)[0]
        residual = max(residual, float(np.abs(design @ solution - rhs).max()))
        weights[:, m] = solution
    return weights, residual


@pytest.mark.parametrize("n", range(1, 11))
def test_symmetric_weights_match_the_per_order_oracle_bit_for_bit(n):
    # the same np.power calls and the same product order, read from one
    # table of powers k <= N: every design of every target, to the bit
    for state in [dicke(n, k) for k in range(n + 1)] + [ghz(n), w_state(n)]:
        classes = decompose(state).classes
        for settings in _designs(n):
            weights, residual = _symmetric_weights(classes, settings)
            expected_weights, expected_residual = per_order_weights(classes, settings)
            assert np.array_equal(weights, expected_weights), (state.label, len(settings))
            assert residual == expected_residual, (state.label, len(settings))


def test_symmetric_plan_adds_a_ring_when_the_first_design_falls_short():
    # a generic symmetric state has no azimuthal symmetry: its order-4
    # weights need more directions than the z axis plus two rings give
    coeffs = np.array([1.0, 1j]) @ np.random.default_rng(3).normal(size=(2, 5))
    amps = sum(c * dicke(4, k).amplitudes for k, c in enumerate(coeffs))
    state = QubitPureState(4, amps / np.linalg.norm(amps))
    decomp = decompose(state)
    plan = plan_settings(decomp)
    assert (plan.method, plan.num_settings) == ("symmetric", 16)
    assert_allclose(symmetric_operator(plan, decomp), reconstruct(decomp), atol=1e-12)


def test_symmetric_plan_counts():
    counts = {
        label: plan_settings(decompose(state)).num_settings
        for label, state in [("dicke_6_3", dicke(6, 3)), ("dicke_4_2", dicke(4, 2)), ("ghz_4", ghz(4))]
    }
    assert counts == {"dicke_6_3": 22, "dicke_4_2": 11, "ghz_4": 5}


@pytest.mark.parametrize("n", range(2, 9))
def test_symmetric_plan_on_ghz_is_the_ghz_special_plan(n):
    # the GHZ design heads symmetric's design list, so both strategies
    # solve the same design and only the method name differs
    decomp = decompose(ghz(n))
    symmetric = plan_settings(decomp, strategy="symmetric")
    special = plan_settings(decomp, strategy="ghz_special")
    assert symmetric.method == "symmetric"
    assert symmetric.num_settings == n + 1
    assert [a.setting.label() for a in symmetric.assignments] == [
        a.setting.label() for a in special.assignments
    ]
    assert [a.collective_weights for a in symmetric.assignments] == [
        a.collective_weights for a in special.assignments
    ]


@pytest.mark.parametrize("n", range(2, 11))
def test_uniform_plans_keep_only_weighted_settings(n):
    # a product state D(N, 0) or D(N, N) reads out every string from the z
    # setting alone; every other plan keeps the whole design it solved
    designs = [[s.label() for s in design] for design in _designs(n)]
    for state in [dicke(n, k) for k in range(n + 1)] + [ghz(n)]:
        plan = plan_settings(decompose(state), strategy="symmetric")
        assert all(any(a.collective_weights) for a in plan.assignments), state.label
        labels = [a.setting.label() for a in plan.assignments]
        if state.label in (f"dicke_{n}_0", f"dicke_{n}_{n}"):
            assert labels == [",".join("z" * n)]
        else:
            assert labels in designs, state.label


@pytest.mark.parametrize("n", range(1, 11))
def test_every_planned_setting_rebuilds_from_its_label(n):
    # reports and CSVs name settings by label, so a label must give back
    # the very setting that was measured, under every strategy that
    # accepts the target; and since the planners build their settings
    # without the checks, each must be the setting that the public
    # constructor makes of its axes, down to the type of every angle
    strategies = ("symmetric", "ghz_special") + (("greedy",) if n <= MAX_GREEDY_QUBITS else ())
    planned = 0
    for state in [dicke(n, k) for k in range(n + 1)] + [ghz(n), w_state(n)]:
        decomp = decompose(state)
        for strategy in strategies:
            try:
                plan = plan_settings(decomp, strategy=strategy)
            except ValueError:
                continue
            planned += 1
            for setting in plan.settings():
                assert MeasurementSetting.from_label(setting.label()) == setting, (
                    state.label, strategy, setting.label())
                validated = MeasurementSetting(setting.axes)
                assert validated == setting and repr(validated.axes) == repr(setting.axes)
    # greedy and symmetric accept every target, ghz_special at least GHZ_N
    assert planned >= (2 * (n + 3) if n <= MAX_GREEDY_QUBITS else n + 3) + 1


def test_symmetric_plan_refuses_other_targets():
    # |H>|H>|+> keeps ZII but not its permutation IIZ
    state = hh_plus()
    decomp = decompose(state)
    with pytest.raises(ValueError, match="permutation-invariant"):
        plan_settings(decomp, strategy="symmetric")
    # no strategy means symmetric: greedy is reached only by name
    with pytest.raises(ValueError, match='strategy="greedy"'):
        plan_settings(decomp)
    plan = plan_settings(decomp, strategy="greedy")
    assert plan.method == "greedy"
    est = fidelity_from_counts(decomp, plan, exact_counts(state, plan))
    assert_allclose(est.value, 1.0, atol=1e-9)


def test_check_plan_covers_flags_collective_weights_on_mixed_axes():
    decomp = decompose(dicke(3, 1))
    weights = (0.0, 0.0, 0.0, 1.0)
    plan = SettingPlan(
        method="symmetric",
        assignments=(SettingAssignment(MeasurementSetting("zzx"), (), weights),),
        collective_classes=tuple(decomp.classes.items()),
    )
    with pytest.raises(CoverageError, match="one direction"):
        check_plan_covers(plan, decomp)


def test_check_plan_covers_needs_a_collective_setting_for_collective_strings():
    decomp = decompose(dicke(3, 1))
    plan = SettingPlan(
        method="symmetric",
        assignments=(SettingAssignment(MeasurementSetting("zzz"), ("ZZZ",)),),
        collective_classes=tuple(decomp.classes.items()),
    )
    with pytest.raises(CoverageError, match="misses"):
        check_plan_covers(plan, decomp)


def test_check_plan_covers_memory_stays_flat_on_ten_qubits():
    # D(10, 5) has 131,584 strings in 285 classes: the symmetric plan path
    # reads the classes and never expands, copies or walks the strings
    tracemalloc.start()
    try:
        decomp = decompose(dicke(10, 5))
        plan = plan_settings(decomp, strategy="symmetric")
        check_plan_covers(plan, decomp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_check_plan_covers_rejects_a_plan_solved_for_other_coefficients():
    # D(6, 2) and D(6, 4) have the same classes with different coefficients;
    # the weights solved for one read out a fidelity near 0 on the other
    state = dicke(6, 4)
    decomp = decompose(state)
    plan = plan_settings(decompose(dicke(6, 2)))
    assert {key for key, _ in plan.collective_classes} == set(decomp.classes)
    with pytest.raises(CoverageError, match="classes"):
        check_plan_covers(plan, decomp)
    with pytest.raises(CoverageError):
        fidelity_from_counts(decomp, plan, exact_counts(state, plan))
    # a class missing on either side is a mismatch too
    own = plan_settings(decomp)
    for classes in (own.collective_classes[1:], own.collective_classes + (((1, 0, 0), 0.5),)):
        with pytest.raises(CoverageError, match="classes"):
            check_plan_covers(SettingPlan(own.method, own.assignments, classes), decomp)
    check_plan_covers(own, decomp)


def test_estimator_recovers_unit_fidelity_from_exact_counts():
    for state in (dicke(4, 2), dicke(6, 3)):
        decomp = decompose(state)
        plan = plan_settings(decomp)
        est = fidelity_from_counts(decomp, plan, exact_counts(state, plan))
        assert_allclose(est.value, 1.0, atol=1e-9)
        assert len(est.per_setting) == plan.num_settings


def test_estimator_on_ghz_special_plan_has_zero_variance():
    # all covered correlators are +-1 on the target, so no shot noise at all
    state = ghz(4)
    decomp = decompose(state)
    plan = plan_settings(decomp, strategy="ghz_special")
    est = fidelity_from_counts(decomp, plan, exact_counts(state, plan))
    assert_allclose(est.value, 1.0, atol=1e-12)
    assert est.std_error <= 1e-9


def test_estimator_variance_matches_the_moment_formula_on_a_greedy_plan():
    # the greedy D42 plan has a nonzero standard error, which E[w^2] - E[w]^2
    # per setting (clamped at zero) reproduces up to rounding
    state = dicke(4, 2)
    decomp = decompose(state)
    plan = plan_settings(decomp, strategy="greedy")
    rng = np.random.default_rng(5)
    table = {}
    expected = 0.0
    for assignment in plan.assignments:
        probs = outcome_distribution(state, assignment.setting)
        counts = rng.multinomial(5000, probs / probs.sum()).astype(float)
        table[assignment.setting.label()] = counts
        weights = outcome_weights(decomp, assignment)
        freqs = counts / counts.sum()
        expected += max(freqs @ weights**2 - (freqs @ weights) ** 2, 0.0) / counts.sum()
    est = fidelity_from_counts(decomp, plan, table)
    assert est.std_error > 1e-3
    assert_allclose(est.std_error, math.sqrt(expected), rtol=1e-12)


def test_estimator_on_maximally_mixed_state():
    decomp = decompose(dicke(4, 2))
    plan = plan_settings(decomp)
    mixed = QubitDensity(4, np.eye(16) / 16.0)
    est = fidelity_from_counts(decomp, plan, exact_counts(mixed, plan))
    assert_allclose(est.value, 1.0 / 16.0, atol=1e-9)


COUNT_MATRIX_CASES = {
    "greedy-dicke_7_1": (lambda: dicke(7, 1), lambda: dicke(7, 1), "greedy"),
    "ghz_special-ghz_8": (lambda: ghz(8), lambda: ghz(8), "ghz_special"),
    "symmetric-dicke_6_3": (lambda: dicke(6, 3), lambda: dicke(6, 3), "symmetric"),
    "lossless-simulated-dicke_6_3": (
        lambda: simulate_experiment(SpdcConfig(lam=0.65, max_order=4), LossConfig()).rho_sim,
        lambda: dicke(6, 3),
        None,
    ),
}


@pytest.mark.parametrize("case", list(COUNT_MATRIX_CASES))
def test_count_matrix_run_plan_dict_path_and_row_core_agree_bit_for_bit(case):
    source_of, target_of, strategy = COUNT_MATRIX_CASES[case]
    source, target = source_of(), target_of()
    decomp = decompose(target)
    plan = plan_settings(decomp, strategy=strategy)
    experiment = ExperimentPlan(tuple(plan.settings()), events_per_setting=100000, seed=21)
    counts = count_matrix(source, experiment)
    histograms = run_plan(source, experiment)
    assert counts.dtype == np.int64
    assert counts.shape == (plan.num_settings, 2**decomp.num_qubits)
    assert np.array_equal(counts, np.array([hist.counts for hist in histograms]))
    assert all(hist.total == 100000 for hist in histograms)
    table = histograms_to_table(histograms)
    from_matrix = fidelity_from_matrix(decomp, plan, counts)
    assert from_matrix == fidelity_from_counts(decomp, plan, table)
    assert from_matrix == per_string_fidelity(decomp, plan, table)
    assert [e.label for e in from_matrix.per_setting] == list(table)


def per_setting_count_error(plan, counts, dim):
    """The message the setting-by-setting estimator raised for a bad count
    table: the first setting in plan order, each setting checked for its
    label, its length, its values and its total in turn."""
    for assignment in plan.assignments:
        key = assignment.setting.label()
        if key not in counts:
            return f"missing counts for setting {key!r}"
        vec = np.asarray(counts[key], dtype=float).reshape(-1)
        if vec.size != dim:
            return f"setting {key!r} needs {dim} outcome counts, got {vec.size}"
        if not np.isfinite(vec).all() or vec.min() < 0:
            return f"negative or non-finite count in setting {key!r}"
        if vec.sum() <= 0:
            return f"zero total counts for setting {key!r}"
    return None


def _missing(table, key):
    del table[key]


def _short(table, key):
    table[key] = table[key][:-1]


def _set(value, at=3):
    def plant(table, key):
        table[key] = table[key].copy()
        table[key][at] = value
    return plant


def _zero(table, key):
    table[key] = np.zeros_like(table[key])


COUNT_ERRORS = {"missing": _missing, "wrong_length": _short, "negative": _set(-1.0),
                "nan": _set(np.nan), "inf": _set(np.inf), "zero_total": _zero}


@pytest.mark.parametrize("later", [None, *COUNT_ERRORS])
@pytest.mark.parametrize("first", list(COUNT_ERRORS))
def test_count_errors_name_the_first_bad_setting_as_the_per_setting_loop(first, later):
    state = dicke(4, 2)
    decomp = decompose(state)
    plan = plan_settings(decomp, strategy="greedy")
    labels = [assignment.setting.label() for assignment in plan.assignments]
    table = {key: np.asarray(row, dtype=float) for key, row in
             zip(labels, count_matrix(state, ExperimentPlan(tuple(plan.settings()), 500, 4)))}
    # the first error at setting 5, another one further on
    COUNT_ERRORS[first](table, labels[5])
    if later is not None:
        COUNT_ERRORS[later](table, labels[11])
    expected = per_setting_count_error(plan, table, 16)
    assert expected is not None and repr(labels[5]) in expected
    with pytest.raises(ValueError) as info:
        fidelity_from_counts(decomp, plan, table)
    assert str(info.value) == expected
    if first in ("missing", "wrong_length") or later in ("missing", "wrong_length"):
        return
    # the same table as a matrix in plan order: the same message
    matrix = np.array([table[key] for key in labels])
    with pytest.raises(ValueError) as info:
        fidelity_from_matrix(decomp, plan, matrix)
    assert str(info.value) == expected


def test_count_matrix_must_match_the_plan():
    decomp = decompose(dicke(4, 2))
    plan = plan_settings(decomp)
    counts = np.ones((plan.num_settings, 16), dtype=np.int64)
    assert fidelity_from_matrix(decomp, plan, counts).value == pytest.approx(1.0 / 16.0)
    for shape in ((plan.num_settings - 1, 16), (plan.num_settings, 8), (plan.num_settings * 16,)):
        with pytest.raises(ValueError, match=r"counts need shape"):
            fidelity_from_matrix(decomp, plan, np.ones(shape, dtype=np.int64))


def test_estimator_input_validation():
    decomp = decompose(dicke(4, 2))
    plan = plan_settings(decomp)
    with pytest.raises(ValueError, match="missing counts"):
        fidelity_from_counts(decomp, plan, {})
    short = {a.setting.label(): np.ones(8) for a in plan.assignments}
    with pytest.raises(ValueError, match="outcome counts"):
        fidelity_from_counts(decomp, plan, short)
    negative = exact_counts(dicke(4, 2), plan)
    negative[plan.assignments[0].setting.label()] = -np.ones(16)
    with pytest.raises(ValueError, match="negative"):
        fidelity_from_counts(decomp, plan, negative)
    key = plan.assignments[-1].setting.label()
    for bad in (np.nan, np.inf, -np.inf):
        counts = exact_counts(dicke(4, 2), plan)
        counts[key][3] = bad
        with pytest.raises(ValueError, match=f"non-finite count in setting '{key}'"):
            fidelity_from_counts(decomp, plan, counts)


def test_reference_table_values():
    assert reference_lms_table() == {
        "dicke_6_3": 21,
        "dicke_4_2": 9,
        "dicke_4_1": 7,
        "ghz_4": 5,
    }
    # one table of published counts: the lms_settings_* reference entries
    published = {e.key: e.value for e in REFERENCE_VALUES if e.key.startswith("lms_settings_")}
    table = reference_lms_table()
    assert {f"lms_settings_{label}": count for label, count in table.items()} == published
    assert all(type(count) is int for count in table.values())
