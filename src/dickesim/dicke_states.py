"""Symmetric Dicke states and navigation of the family by measurement.

``dicke(n, m)`` is the equal superposition of all n-qubit basis states
with exactly m qubits in |V> (m excitations).  Measuring single qubits in
the H/V or +/- bases walks to smaller members of the family:

* an H outcome on dicke(n, m) leaves dicke(n-1, m) with probability
  C(n-1, m) / C(n, m),
* a V outcome leaves dicke(n-1, m-1) with probability
  C(n-1, m-1) / C(n, m).
"""

from __future__ import annotations

import math
from math import comb
from typing import NamedTuple

import numpy as np

from .states import (
    ImpossibleOutcomeError,
    QubitPureState,
    State,
    _POPCOUNT,
    _check_num_qubits,
    _is_integer,
    project,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)

OUTCOME_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([SQRT_HALF, SQRT_HALF], dtype=complex),
    "-": np.array([SQRT_HALF, -SQRT_HALF], dtype=complex),
}


def dicke(num_qubits: int, excitations: int) -> QubitPureState:
    """Equal-weight symmetric state with a fixed number of |V> qubits."""
    _check_num_qubits(num_qubits)
    n = int(num_qubits)
    if not _is_integer(excitations):
        raise ValueError(f"excitations must be an integer, got {excitations!r}")
    m = int(excitations)
    if not 0 <= m <= n:
        raise ValueError(f"excitations must satisfy 0 <= m <= {n}, got {m}")
    amps = np.where(_POPCOUNT[: 2**n] == m, 1.0 / math.sqrt(comb(n, m)), 0.0).astype(complex)
    # closed-form amplitudes: C(n, m) entries of 1 / sqrt(C(n, m))
    return QubitPureState._trusted(n, amps, f"dicke_{n}_{m}")


def ghz(num_qubits: int) -> QubitPureState:
    """(|H...H> + |V...V>) / sqrt(2)."""
    _check_num_qubits(num_qubits)
    n = int(num_qubits)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = SQRT_HALF
    # closed-form amplitudes: two entries of 1 / sqrt(2)
    return QubitPureState._trusted(n, amps, f"ghz_{n}")


def w_state(num_qubits: int) -> QubitPureState:
    """Single-excitation Dicke state."""
    state = dicke(num_qubits, 1)
    # a relabel of a valid state
    return QubitPureState._trusted(state.num_qubits, state.amplitudes, f"w_{num_qubits}")


def recursion_residual(num_qubits: int, excitations: int) -> float:
    """Norm distance between dicke(n, m) and its first-qubit expansion.

    The expansion attaches |H> to dicke(n-1, m) and |V> to dicke(n-1, m-1)
    with the square-root binomial weights; the residual is zero up to
    floating point for every valid (n, m).
    """
    if not (_is_integer(num_qubits) and _is_integer(excitations)):
        raise ValueError(f"recursion needs integers, got {num_qubits!r} and {excitations!r}")
    n, m = int(num_qubits), int(excitations)
    if n < 2 or not 0 < m < n:
        raise ValueError("recursion needs n >= 2 and 0 < m < n")
    lhs = dicke(n, m).amplitudes
    rhs = np.zeros_like(lhs)
    half = 2 ** (n - 1)
    total = comb(n, m)
    rhs[:half] = math.sqrt(comb(n - 1, m) / total) * dicke(n - 1, m).amplitudes
    rhs[half:] = math.sqrt(comb(n - 1, m - 1) / total) * dicke(n - 1, m - 1).amplitudes
    return float(np.linalg.norm(lhs - rhs))


class NavigationStep(NamedTuple):
    qubit: int
    outcome: str  # one of 'H', 'V', '+', '-'


def navigate(state: State, steps) -> tuple[State, float]:
    """Measure the listed qubits in order and return (state, probability).

    Qubit indices refer to the original register; remaining qubits keep
    their relative order.  Impossible outcomes (probability < 1e-12)
    raise :class:`ImpossibleOutcomeError`.
    """
    current, prob = state, 1.0
    for current, p in _projections(state, steps):
        prob *= p
    return current, prob


def _projections(state: State, steps):
    """Check ``steps`` as ``navigate`` does, then yield (state, p) after each
    step: the state left and that step's outcome probability."""
    steps = list(steps)
    if not all(_is_integer(q) for q, _ in steps):
        raise ValueError(f"qubit indices must be integers, got {[q for q, _ in steps]}")
    steps = [NavigationStep(int(q), str(o)) for q, o in steps]
    originals = [s.qubit for s in steps]
    if len(set(originals)) != len(originals):
        raise ValueError(f"steps revisit a qubit: {originals}")
    for s in steps:
        if s.outcome not in OUTCOME_KETS:
            raise ValueError(f"outcome must be one of {''.join(OUTCOME_KETS)}, got {s.outcome!r}")
        if not 0 <= s.qubit < state.num_qubits:
            raise ValueError(f"qubit {s.qubit} out of range")
    if len(steps) >= state.num_qubits:
        raise ValueError("navigation must leave at least one qubit")

    current = state
    measured: list[int] = []
    for s in steps:
        shift = sum(1 for q in measured if q < s.qubit)
        current, p = project(current, s.qubit - shift, OUTCOME_KETS[s.outcome])
        measured.append(s.qubit)
        yield current, p
