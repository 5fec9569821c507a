"""Communication protocols driven by symmetric multiphoton states.

Covers the two-party channel obtained by tracing a multiqubit state down
to a pair, teleportation figures of merit (the maximal singlet fraction
in closed form), open-destination pair distillation by measuring the
other parties, and a parity-based secret-sharing round trip whose kept
rounds and errors are drawn as binomial counts.  The pair channel and the
heralded pairs read the same per-pattern blocks of the kept pair
(``states._pattern_blocks``): the channel is their sum, and each heralded
pair is one block.  Telecloning reads every pair channel from one stack of
these sums, whose singlet fractions come from stacked correlators, ``svd``
and ``det``; no per-pair state is built or validated.  Secret sharing
grades every round against the sampled state's own majority parity.
Everything here runs on numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dicke_states import ghz
from .states import (
    _POPCOUNT,
    MeasurementSetting,
    QubitDensity,
    QubitPureState,
    _as_density_matrix,
    _check_num_qubits,
    _density_expectations,
    _is_integer,
    _pattern_blocks,
    fidelity,
    outcome_distributions,
    partial_trace,
)

PSI_PLUS = QubitPureState(2, np.array([0, 1, 1, 0]) / math.sqrt(2), label="psi_plus")

# outcome patterns below this weight are reported with zero fidelity
ZERO_PATTERN_TOL = 1e-12
# largest entry difference between two pair marginals reported as equal
SYMMETRY_TOL = 1e-12


def pair_channel(state, first: int, second: int) -> QubitDensity:
    """Marginal of ``state`` on the ordered qubit pair (first, second)."""
    return partial_trace(state, (first, second))


def psi_plus_fraction(state) -> float:
    """Overlap with the symmetric Bell pair (HV + VH)/sqrt(2)."""
    return fidelity(state, PSI_PLUS)


def teleport_fidelity_max(singlet_fraction: float) -> float:
    """Optimal average teleportation fidelity for a channel with the
    given maximal singlet fraction: (2 f + 1) / 3."""
    return (2.0 * singlet_fraction + 1.0) / 3.0


@dataclass(frozen=True)
class MsfResult:
    value: float


# the nine two-qubit correlators T_ij = <sigma_i sigma_j>, row-major in i, j
_CORRELATORS = [a + b for a in "XYZ" for b in "XYZ"]


def _singlet_fractions(marginals: np.ndarray) -> np.ndarray:
    """(P,) maximal singlet fractions of a (P, 4, 4) stack of two-qubit
    density matrices: one stacked read of the correlators, one stacked
    ``svd`` and ``det``, and the closed form of
    ``maximal_singlet_fraction`` per row."""
    t = _density_expectations(marginals, _CORRELATORS).real.reshape(-1, 3, 3)
    s = np.linalg.svd(t, compute_uv=False)
    value = (1.0 + s[:, 0] + s[:, 1] - np.sign(np.linalg.det(t)) * s[:, 2]) / 4.0
    return np.clip(value, 0.25, 1.0)


def maximal_singlet_fraction(state, restarts=None, seed=None) -> MsfResult:
    """Largest singlet overlap reachable by local unitaries on both qubits.

    The singlet (I - XX - YY - ZZ)/4 has no local terms, so the overlap
    depends only on the correlation matrix T_ij = <sigma_i sigma_j>,
    on which local unitaries act as rotations O_A T O_B^T.  Maximizing
    over both rotations gives the closed form
    (1 + s1 + s2 - sgn(det T) s3) / 4 with s1 >= s2 >= s3 the singular
    values of T (Horodecki et al., PRA 60, 1888 (1999)).  The value needs
    no search and no randomness: ``restarts`` and ``seed`` are accepted
    and ignored.
    """
    if state.num_qubits != 2:
        raise ValueError("maximal singlet fraction is defined for two qubits")
    return MsfResult(value=float(_singlet_fractions(_as_density_matrix(state)[None])[0]))


@dataclass(frozen=True)
class TelecloningReport:
    num_qubits: int
    pair_fidelity: dict
    ideal_threshold: float
    classical_threshold: float
    symmetric: bool

    @property
    def all_above_classical(self) -> bool:
        return all(v > self.classical_threshold for v in self.pair_fidelity.values())


def telecloning_report(state) -> TelecloningReport:
    """Teleportation fidelity bound for every qubit pair used as channel.

    All C(N, 2) pair marginals are read from one (P, 4, 4) stack, each the
    sum of its pair's H/V pattern blocks (``states._pattern_blocks``), as
    ``pair_channel`` computes it; no marginal leaves the function, so none
    is validated as a ``QubitDensity``.  The singlet fractions of the whole
    stack come from one correlator read, one ``svd`` and one ``det``.
    ``symmetric`` records whether all pair marginals coincide to
    ``SYMMETRY_TOL`` (as for a permutation-symmetric input).
    ``ideal_threshold`` is the pair value of the half-excited Dicke state
    D(N, N/2), (2N - 1) / (3 (N - 1)): its pair marginals have maximal
    singlet fraction N / (2 (N - 1)).
    """
    n = state.num_qubits
    if n < 4:
        raise ValueError("telecloning needs at least four qubits")
    pairs = list(itertools.combinations(range(n), 2))
    marginals = np.stack([_pattern_blocks(state, pair).sum(axis=0) for pair in pairs])
    fidelities = teleport_fidelity_max(_singlet_fractions(marginals))
    return TelecloningReport(
        num_qubits=n,
        pair_fidelity=dict(zip(pairs, fidelities.tolist())),
        ideal_threshold=(2.0 * n - 1.0) / (3.0 * (n - 1.0)),
        classical_threshold=2.0 / 3.0,
        symmetric=bool(np.abs(marginals - marginals[0]).max() <= SYMMETRY_TOL),
    )


# ---------------------------------------------------------------------------
# Open-destination pair distillation


@dataclass(frozen=True)
class OdtPattern:
    outcomes: str
    prob: float
    fidelity: float


@dataclass(frozen=True)
class OdtResult:
    num_qubits: int
    keep: tuple
    patterns: tuple
    p_success: float
    mean_heralded_fidelity: float
    channel_consistency: float


def odt_report(state, keep: tuple[int, int] = (0, 1)) -> OdtResult:
    """Measure every qubit outside ``keep`` in the H/V basis and grade all
    outcome patterns of the heralded pair.

    Success means a balanced pattern (equal H and V counts among the
    measured qubits); for the half-excited Dicke state each one projects
    the kept pair exactly onto (HV + VH)/sqrt(2).  The probability-
    weighted fidelity over all patterns reproduces the pair marginal's
    Bell fraction, reported as channel_consistency.  Pure and mixed
    inputs share one grading path over the stack of the pair's H/V pattern
    blocks (``states._pattern_blocks``, patterns in ``itertools.product``
    order), whose sum is the marginal that ``pair_channel`` returns.
    """
    n = state.num_qubits
    if n < 3:
        raise ValueError("need at least one measured qubit besides the kept pair")
    i, j = keep
    if not (_is_integer(i) and _is_integer(j)):
        raise ValueError(f"kept pair {keep} must hold integer qubit indices")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"invalid kept pair {keep} for {n} qubits")
    blocks = _pattern_blocks(state, (i, j))
    bell = PSI_PLUS.amplitudes
    probs = np.einsum("paa->p", blocks).real
    bell_mass = np.einsum("a,pab,b->p", bell.conj(), blocks, bell).real
    live = probs > ZERO_PATTERN_TOL
    overlaps = np.zeros_like(probs)
    overlaps[live] = np.clip(bell_mass[live] / probs[live], 0.0, 1.0)
    balanced = 2 * _POPCOUNT[: probs.size] == n - 2
    p_success = float(probs[balanced].sum())
    heralded_mass = float((probs * overlaps)[balanced].sum())
    labels = ("".join(bits) for bits in itertools.product("HV", repeat=n - 2))
    return OdtResult(
        num_qubits=n,
        keep=(i, j),
        patterns=tuple(
            OdtPattern(label, float(p), float(f))
            for label, p, f in zip(labels, probs, overlaps)
        ),
        p_success=p_success,
        mean_heralded_fidelity=heralded_mass / p_success if p_success else 0.0,
        channel_consistency=float(probs @ overlaps),
    )


# ---------------------------------------------------------------------------
# Parity-based secret sharing


@dataclass(frozen=True)
class QssResult:
    rounds: int
    sifted_bits: int
    sift_rate: float
    expected_sift_rate: float
    qber: float | None  # None when no round is kept
    errors: int
    per_basis: dict


def _odd_parity_masses(state, axes: str) -> list[float]:
    """Probability, for each axis, that all parties measuring along it get
    an odd number of -1 outcomes: one ``outcome_distributions`` call."""
    n = state.num_qubits
    probs = outcome_distributions(state, [MeasurementSetting.uniform(a, n) for a in axes])
    return [float(row[_POPCOUNT[: 2**n] % 2 == 1].sum()) for row in probs]


def qss_run(state, rounds: int, seed: int = 0) -> QssResult:
    """Simulate secret-sharing rounds with per-party random x/y bases.

    Every party measures in x or y chosen uniformly; only rounds where
    all parties picked the same basis are kept (rate 2**(1-N)).  Outcomes
    map +1 to bit 0, and a kept round errs when the parity of all bits
    differs from the state's own more likely parity in that basis.

    Rounds are independent, so the counts are drawn directly: the kept
    rounds from B(rounds, 2**(1-N)), the x-basis share of them from
    B(kept, 1/2), and each basis's errors from B(basis kept, p_err) with
    p_err = min(odd, 1 - odd) the basis's wrong-parity mass.
    """
    if not _is_integer(rounds) or rounds < 1:
        raise ValueError(f"rounds must be a positive integer, got {rounds!r}")
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    n = state.num_qubits
    odd_masses = _odd_parity_masses(state, "xy")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    sifted = int(rng.binomial(rounds, 2.0 ** (1 - n)))
    kept_x = int(rng.binomial(sifted, 0.5))
    per_basis = {}
    for axis, kept, odd in zip("xy", (kept_x, sifted - kept_x), odd_masses):
        p_err = min(odd, 1.0 - odd)
        # a parity correlator of 0 or +-1 leaves the mass a few ulps off
        # 1/2 or 0, and a p of exactly 0 draws no random numbers; snap it
        # so that equal states draw equal counts
        for exact in (0.0, 0.5):
            if abs(p_err - exact) <= ZERO_PATTERN_TOL:
                p_err = exact
        per_basis[axis] = {"kept": kept, "errors": int(rng.binomial(kept, p_err))}
    errors = per_basis["x"]["errors"] + per_basis["y"]["errors"]
    return QssResult(
        rounds=rounds,
        sifted_bits=sifted,
        sift_rate=sifted / rounds,
        expected_sift_rate=2.0 ** (1 - n),
        qber=errors / sifted if sifted else None,
        errors=errors,
        per_basis=per_basis,
    )


def werner(num_qubits: int, visibility: float, base=None) -> QubitDensity:
    """Mix a pure target with white noise: p rho + (1 - p) I / dim."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    _check_num_qubits(num_qubits)
    base = ghz(num_qubits) if base is None else base
    if base.num_qubits != num_qubits:
        raise ValueError(f"base state has {base.num_qubits} qubits, not {num_qubits}")
    rho = _as_density_matrix(base)
    dim = rho.shape[0]
    mixed = visibility * rho + (1.0 - visibility) * np.eye(dim) / dim
    # a convex mixture of a valid state and I / dim
    return QubitDensity._trusted(int(num_qubits), mixed, f"werner_{visibility:g}")
