"""Dense polarization-qubit registers and measurement primitives.

Conventions used throughout the package:

* qubit 0 is the most significant bit of the computational index,
* bit 0 is |H> and bit 1 is |V>,
* sigma_z |H> = +|H>, and sigma_y |H> = i |V>.

States are small (at most ``MAX_QUBITS`` qubits) and stored densely.
A measurement setting names one axis per qubit, either a Pauli letter
'x' | 'y' | 'z' or a Bloch direction ('n', theta, phi).

Each operation has one path for both state classes: Pauli strings are
read through one byte table of letter digits, which ``lms`` reads too,
and ``project`` and ``apply_local`` contract amplitudes (N axes) and a
density matrix (N row axes, then N column axes) the same way, the class
choosing only the axes, the norm or trace, and the class returned.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 10
NORM_TOL = 1e-9
HERMITICITY_TOL = 1e-9
EIGENVALUE_TOL = 1e-8
IMPOSSIBLE_OUTCOME_TOL = 1e-12
# largest intermediate of a blocked computation over a stack (settings,
# X-masks, estimator weights), in bytes
BLOCK_BYTES = 2**18

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

AXIS_VECTORS = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}


class ImpossibleOutcomeError(ValueError):
    """Raised when a projection outcome has probability below threshold."""


def _is_integer(value) -> bool:
    """True for an ``int`` or numpy integer, False for a bool or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_num_qubits(n: int) -> None:
    if not _is_integer(n) or n < 1 or n > MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {n!r}")


class _Frozen:
    """Read-only fields, set by one freeze-and-assign for two kinds of value.

    Values that come in (``QubitPureState(...)``, ``QubitDensity(...)``,
    ``MeasurementSetting(...)``, ``load_state``) pass every check of the
    public constructor, which then assigns them through ``_assign``.
    Values that the library derives from inputs it has already checked go
    through ``_trusted`` instead, without the checks, each call site with a
    one-line reason why the value is valid by construction; the tests run
    the full validator on what every such site builds.
    """

    # the fields in the order ``_trusted`` takes them; the ones left out are None
    _FIELDS: tuple[str, ...] = ()

    @classmethod
    def _trusted(cls, *values):
        """An instance holding ``values`` as they are, taken without the
        checks and without a copy of a C-contiguous array.

        Each array among them is a new complex array that the caller no
        longer writes, of the shape the public constructor checks.
        """
        return object.__new__(cls)._assign(*values)

    def _assign(self, *values):
        for name, value in itertools.zip_longest(self._FIELDS, values):
            if isinstance(value, np.ndarray):
                # the layout of the validating copy, so that every contraction
                # downstream rounds as it does on a validated state
                value = np.ascontiguousarray(value)
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        return self


class QubitPureState(_Frozen):
    """Normalized pure state of ``num_qubits`` polarization qubits.

    The amplitude array is frozen after validation; operations return new
    states.  An optional ``label`` names well-known preparations so that
    downstream tables (settings plans, reference lookups) can key on them.

    The constructor checks the qubit count, finiteness, size and norm.
    The library builds its own pure states through ``_trusted`` without
    them: ``dicke``, ``ghz`` and ``w_state`` (closed-form unit-norm
    amplitudes, or a relabel of a valid state), ``rotated_ghz_target`` (a
    relabel), and ``project`` and ``apply_local`` on a pure state.
    """

    _FIELDS = ("num_qubits", "amplitudes", "label")

    def __init__(self, num_qubits: int, amplitudes, label: str | None = None):
        _check_num_qubits(num_qubits)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        if amps.size != 2**num_qubits:
            raise ValueError(
                f"expected {2**num_qubits} amplitudes, got {amps.size}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        self._assign(int(num_qubits), amps, label)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "QubitDensity":
        amps = self.amplitudes
        # the outer product of a normalized vector
        return QubitDensity._trusted(self.num_qubits, np.outer(amps, amps.conj()))

    def __repr__(self):
        tag = f" label={self.label!r}" if self.label else ""
        return f"<QubitPureState n={self.num_qubits}{tag}>"


class QubitDensity(_Frozen):
    """Density matrix on ``num_qubits`` qubits.

    The constructor checks finite entries, Hermiticity, unit trace, and no
    eigenvalue below ``-EIGENVALUE_TOL``.  The library builds its own
    densities through ``_trusted`` without them: ``QubitPureState.density``,
    ``partial_trace`` and ``pair_channel`` (a sum of the positive pattern
    blocks of a valid state), ``project`` (a projection divided by its
    probability), ``apply_local`` (a unitary conjugation), ``werner`` (a
    convex mixture), ``dephased`` (the diagonal of a valid state) and
    ``rho_sim`` (a mixture of Dicke blocks).
    """

    _FIELDS = ("num_qubits", "matrix", "label")

    def __init__(self, num_qubits: int, matrix, label: str | None = None):
        _check_num_qubits(num_qubits)
        mat = np.asarray(matrix, dtype=complex).copy()
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        dim = 2**num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {mat.shape}")
        if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {NORM_TOL}")
        low = np.linalg.eigvalsh(mat)[0]
        if low < -EIGENVALUE_TOL:
            raise ValueError(f"negative eigenvalue {low} below -{EIGENVALUE_TOL}")
        self._assign(int(num_qubits), mat, label)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"<QubitDensity n={self.num_qubits}>"


State = QubitPureState | QubitDensity


def _as_density_matrix(state: State) -> np.ndarray:
    if isinstance(state, QubitPureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return state.matrix


# ---------------------------------------------------------------------------
# Pauli strings


def check_pauli_string(letters: str, num_qubits: int) -> str:
    """The string upper-cased; ValueError naming it unless it is
    ``num_qubits`` letters from IXYZ, upper or lower case.

    A string with a non-ASCII character has invalid letters whatever its
    length: ``str.upper`` maps some of them into IXYZ (dotless i, U+0131,
    to 'I').
    """
    text = str(letters)
    if not text.isascii():
        bad = {c for c in text if not c.isascii() or c.upper() not in set("IXYZ")}
        raise ValueError(f"Pauli string {text!r} has invalid letters {sorted(bad)!r}")
    letters = text.upper()
    if len(letters) != num_qubits:
        raise ValueError(
            f"Pauli string {letters!r} has length {len(letters)}, not {num_qubits} qubits"
        )
    bad = set(letters) - set("IXYZ")
    if bad:
        raise ValueError(f"Pauli string {letters!r} has invalid letters {sorted(bad)!r}")
    return letters


_POPCOUNT = np.array([bin(i).count("1") for i in range(2**MAX_QUBITS)], dtype=np.int64)
# (-1)^popcount(b) for every index, and i^k for every Y count a string can
# have, each computed as the scalar (1j) ** k
_PARITY_SIGNS = (-1.0) ** _POPCOUNT
_I_POWERS = np.array([(1j) ** k for k in range(MAX_QUBITS + 1)])
# letter digit of a Pauli string's byte: X 0, Y 1, Z 2 (its axis's place in
# "xyz"), I 3, anything else 255; lower case is not a letter here
_LETTER_DIGITS = np.full(256, 255, dtype=np.uint8)
_LETTER_DIGITS[list(b"XYZI")] = range(4)


def _letter_digits(strings, n: int) -> np.ndarray:
    """(len(strings), N) letter digits of N-letter Pauli strings."""
    return _LETTER_DIGITS[np.frombuffer("".join(strings).encode(), dtype=np.uint8)].reshape(-1, n)


def _pauli_action(strings, n: int):
    """(phase, cols), each (K, 2^N), of K checked strings: string k maps
    |b> to phase[k, b] |cols[k, b]>.

    phase(b) = i^(#Y) * (-1)^popcount(b & sign), where X and Y letters set
    the bits of ``flip`` and Y and Z letters those of ``sign``.
    """
    digits = _letter_digits(strings, n)
    bits = 1 << np.arange(n - 1, -1, -1)
    flip = (digits < 2) @ bits
    sign = ((digits == 1) | (digits == 2)) @ bits
    n_y = (digits == 1).sum(axis=1)
    idx = np.arange(2**n)
    return _I_POWERS[n_y, None] * _PARITY_SIGNS[idx & sign[:, None]], idx ^ flip[:, None]


def _density_expectations(matrices: np.ndarray, strings) -> np.ndarray:
    """(P, K) complex tr(rho_p P_k) of K checked strings on a (P, 2^N, 2^N)
    stack of density matrices.

    The (P, K, 2^N) terms are summed as one (P K, 2^N) row sum, so every
    value is the same bits whatever P: summing the 3-D array over its last
    axis instead changes the last bit of most pair correlators.
    """
    dim = matrices.shape[-1]
    phase, cols = _pauli_action(strings, dim.bit_length() - 1)
    terms = matrices[:, np.arange(dim), cols] * phase
    return np.sum(terms.reshape(-1, dim), axis=1).reshape(len(matrices), len(strings))


def expectation(state: State, letters: str) -> float:
    """Real expectation value <P> = tr(rho P) of a Pauli string on a state:
    the one-string call of ``expectations``."""
    return float(expectations(state, (letters,))[0])


def expectations(state: State, strings) -> np.ndarray:
    """(K,) real expectation values tr(rho P_k) of K Pauli strings on one state.

    This is the one place that contracts Pauli products with a state;
    correlator scans and two-qubit correlation matrices are built on it.
    String k acts as P|b> = phase_k(b) |b ^ flip_k>, so a pure state gives
    sum_b conj(a[b ^ flip_k]) phase_k(b) a[b] and a density
    sum_b phase_k(b) rho[b, b ^ flip_k].  The terms of a block of strings
    form one (rows, 2^N) array summed along its rows; blocks keep each
    complex temporary within ``BLOCK_BYTES`` (at least one row).  Every
    value is computed by the same arithmetic whatever the list's length.
    Raises ValueError naming the first string that is not N letters from
    IXYZ, or whose value has an imaginary part above 1e-9.
    """
    n = state.num_qubits
    strings = [check_pauli_string(letters, n) for letters in strings]
    rows = max(1, BLOCK_BYTES // (16 * 2**n))
    values = np.empty(len(strings), dtype=complex)
    for start in range(0, len(strings), rows):
        block = slice(start, start + rows)
        if isinstance(state, QubitPureState):
            phase, cols = _pauli_action(strings[block], n)
            amps = state.amplitudes
            values[block] = np.sum(amps.conj()[cols] * phase * amps, axis=1)
        else:
            values[block] = _density_expectations(state.matrix[None], strings[block])[0]
    bad = np.flatnonzero(np.abs(values.imag) > 1e-9)
    if bad.size:
        k = bad[0]
        raise ValueError(f"expectation of {strings[k]} has imaginary part {values[k].imag}")
    return values.real.copy()


# ---------------------------------------------------------------------------
# Fidelity, partial trace, projection


def fidelity(state: State, target: QubitPureState) -> float:
    """Overlap <target| rho |target> with a pure target."""
    if state.num_qubits != target.num_qubits:
        raise ValueError("qubit count mismatch")
    t = target.amplitudes
    if isinstance(state, QubitPureState):
        return float(abs(np.vdot(t, state.amplitudes)) ** 2)
    val = (t.conj() @ state.matrix @ t).real
    return float(min(max(val, 0.0), 1.0))


def partial_trace(state: State, keep) -> QubitDensity:
    """Reduced density matrix on the kept qubits, in the order given: the
    sum of the kept qubits' H/V pattern blocks, so the 2^N x 2^N density
    matrix of a pure state is never built."""
    n = state.num_qubits
    keep = tuple(keep)
    if not all(map(_is_integer, keep)):
        raise ValueError(f"keep={keep} must hold integer qubit indices")
    keep = tuple(map(int, keep))
    if len(keep) != len(set(keep)):
        raise ValueError(f"duplicate indices in keep={keep}")
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep={keep} out of range for {n} qubits")
    # a sum of the positive pattern blocks of a valid state
    return QubitDensity._trusted(len(keep), _pattern_blocks(state, keep).sum(axis=0))


def _pattern_blocks(state: State, keep) -> np.ndarray:
    """Unnormalised (2^(N-k), 2^k, 2^k) blocks of the k kept qubits, one
    per H/V pattern of the other qubits.

    Patterns run in ``itertools.product`` order over the other qubits in
    ascending order, and each block's basis in that order over ``keep``
    as given.  The blocks sum to the marginal on ``keep``; with nothing
    kept they are the populations.
    """
    n = state.num_qubits
    order = [q for q in range(n) if q not in keep] + list(keep)
    count, d = 2 ** (n - len(keep)), 2 ** len(keep)
    if isinstance(state, QubitPureState):
        amps = state.amplitudes.reshape([2] * n).transpose(order).reshape(count, d)
        return amps[:, :, None] * amps.conj()[:, None, :]
    # every other qubit's row and column axes share a label that the output
    # keeps, so einsum reads the blocks off the matrix without copying it
    col = [n + q if q in keep else q for q in range(n)]
    blocks = np.einsum(state.matrix.reshape([2] * (2 * n)), list(range(n)) + col,
                       order + [n + q for q in keep])
    return blocks.reshape(count, d, d)


def project(state: State, qubit: int, outcome_ket) -> tuple[State, float]:
    """Project one qubit onto a single-qubit ket and drop it.

    Returns the renormalized post-measurement state on the remaining
    qubits, of the input's class, together with the outcome probability:
    <k| is contracted with the qubit's axis, and for a density |k> with
    its column axis too.  Probabilities below ``IMPOSSIBLE_OUTCOME_TOL``
    raise :class:`ImpossibleOutcomeError`.
    """
    n = state.num_qubits
    if not _is_integer(qubit) or not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit!r} must be an integer index in [0, {n})")
    if n == 1:
        raise ValueError("cannot project the last remaining qubit")
    ket = np.asarray(outcome_ket, dtype=complex).reshape(2)
    if abs(np.linalg.norm(ket) - 1.0) > NORM_TOL:
        raise ValueError("outcome ket must be normalized")
    pure = isinstance(state, QubitPureState)
    array = state.amplitudes if pure else state.matrix
    new = np.tensordot(ket.conj(), array.reshape([2] * (n * array.ndim)), axes=[[0], [qubit]])
    if not pure:
        # row qubit axis is gone; the matching column axis moved to n-1+qubit
        new = np.tensordot(new, ket, axes=[[n - 1 + qubit], [0]])
    new = new.reshape([2 ** (n - 1)] * array.ndim)
    p = float(np.vdot(new, new).real if pure else np.trace(new).real)
    if p < IMPOSSIBLE_OUTCOME_TOL:
        raise ImpossibleOutcomeError(
            f"outcome probability {p:.3e} below {IMPOSSIBLE_OUTCOME_TOL}"
        )
    # a projection of a valid state divided by its probability p >= 1e-12
    return type(state)._trusted(n - 1, new / (math.sqrt(p) if pure else p)), p


# ---------------------------------------------------------------------------
# Measurement settings


def _axis_entry(axis):
    """Normalize one per-qubit axis: 'x' | 'y' | 'z', or a Bloch direction
    ('n', theta, phi)."""
    if isinstance(axis, str):
        a = axis.lower()
        if a in AXIS_VECTORS:
            return a
        raise ValueError(f"unknown axis label {axis!r}")
    if len(axis) != 3 or str(axis[0]).lower() != "n":
        raise ValueError(f"unknown axis {axis!r}; expected 'x', 'y', 'z' or ('n', theta, phi)")
    theta, phi = float(axis[1]), float(axis[2])
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"axis {axis!r} has a non-finite angle")
    return ("n", theta, phi)


def _bloch_vector(axis) -> tuple[float, float, float]:
    """Unit vector of a normalized axis."""
    if isinstance(axis, str):
        return tuple(AXIS_VECTORS[axis].tolist())
    _, theta, phi = axis
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


def _rotation(axis) -> np.ndarray:
    """2x2 unitary whose rows are the bras of the +1 / -1 eigenvectors of a
    normalized axis."""
    nx, ny, nz = _bloch_vector(axis)
    big = math.acos(min(1.0, max(-1.0, nz)))
    phi = math.atan2(ny, nx)
    c, s = math.cos(big / 2.0), math.sin(big / 2.0)
    phase = np.exp(1j * phi)
    return np.array([[c, s * phase], [-s, c * phase]]).conj()


@dataclass(frozen=True)
class MeasurementSetting(_Frozen):
    """Per-qubit measurement axes.

    Each entry is a Pauli label ('x', 'y', 'z') or a Bloch direction
    ``('n', theta, phi)`` with polar angle theta from z and azimuth phi
    from x; a string such as ``"zzxy"`` gives one Pauli label per qubit.
    ``label()`` writes the axes exactly and ``from_label`` rebuilds them.

    The constructor, ``uniform``, ``direction`` and ``from_label`` check
    and normalize every axis.  The settings that ``lms`` plans go through
    ``_trusted`` without the checks, as a tuple of normalized axes: the
    greedy planner's own x/y/z letters, and the finite angles of the
    uniform-direction designs.
    """

    axes: tuple
    _FIELDS = ("axes",)

    def __post_init__(self):
        axes = tuple(_axis_entry(a) for a in self.axes)
        if not 1 <= len(axes) <= MAX_QUBITS:
            raise ValueError(f"setting must cover 1..{MAX_QUBITS} qubits")
        self._assign(axes)

    @property
    def num_qubits(self) -> int:
        return len(self.axes)

    @classmethod
    def uniform(cls, axis, num_qubits: int) -> "MeasurementSetting":
        return cls((axis,) * num_qubits)

    @classmethod
    def direction(cls, theta: float, phi: float, num_qubits: int) -> "MeasurementSetting":
        """Every qubit along the Bloch direction with polar angle theta, azimuth phi."""
        return cls((("n", theta, phi),) * num_qubits)

    def bloch_vector(self, qubit: int) -> np.ndarray:
        return np.array(_bloch_vector(self.axes[qubit]))

    def rotation(self, qubit: int) -> np.ndarray:
        """2x2 unitary whose rows are the bras of the +1 / -1 eigenvectors."""
        return _rotation(self.axes[qubit])

    def label(self) -> str:
        # repr keeps every bit, so from_label rebuilds the same angles
        return ",".join(
            axis if isinstance(axis, str) else f"n:{axis[1]!r}:{axis[2]!r}"
            for axis in self.axes
        )

    @classmethod
    def from_label(cls, text: str) -> "MeasurementSetting":
        return cls(tok.split(":") if ":" in tok else tok for tok in text.split(","))

    def __repr__(self):
        return f"<MeasurementSetting {self.label()}>"


def outcome_distribution(state: State, setting: MeasurementSetting) -> np.ndarray:
    """Probabilities over the 2^N outcome bitstrings of a product measurement:
    the one-row call of ``outcome_distributions``."""
    return outcome_distributions(state, (setting,))[0]


def outcome_distributions(state: State, settings) -> np.ndarray:
    """(S, 2^N) outcome probabilities of S product measurements on one state.

    Row k is the distribution of ``settings[k]``; outcome bit 0 on a qubit
    means the +1 eigenvector of that qubit's axis.  Only the diagonals p(b)
    are computed; no rotated state is built.  One rotation is built per
    distinct axis of the whole stack (three for a greedy plan).

    A row whose setting puts every qubit along one axis is read in the
    (N + 1)-dimensional Dicke basis when the state lies in the symmetric
    subspace: every amplitude equal to the one of its popcount class, or
    every density entry to the one of its pair of classes, bit for bit
    (``dicke``, ``ghz``, ``w_state``, their densities, navigated states
    and ``rho_sim`` are; a state equal only up to rounding is not).  The
    symmetry test reads the state once per call, 2^N entries or, for a
    density, 4^N entries a block of rows at a time, and each such row then
    costs O(N^3) time and memory (see ``_dicke_rows``); it is within about
    1e-15 of the contraction below, with exact zeros wherever the
    rotation has them.

    Every other row (mixed axes, or a state outside the symmetric
    subspace) contracts each qubit's eigenbras R_q[b, i] into the state
    in turn, with the qubits already measured folded into a leading
    outcome axis: a pure state costs about 2N * 2^N per row, one
    broadcast two-term multiply-add per qubit for the whole block (see
    ``_pure_block``); a density contracts qubit
    q's row and column axes with R_q[b, i] * conj(R_q[b, j]), which halves
    the tensor each time, for about 4 * 4^N per row in all.  Rows are
    taken in blocks whose first intermediate fits in ``BLOCK_BYTES`` (at
    least one row), so a density at ``MAX_QUBITS`` holds one row's half of
    the matrix at a time.

    Both paths end in one sanity check, clip and renormalisation, and
    every row is computed by the same arithmetic whatever the stack it
    is in.
    """
    n = state.num_qubits
    settings = tuple(settings)
    if any(setting.num_qubits != n for setting in settings):
        raise ValueError("setting covers a different number of qubits")
    ids = {}
    index = np.fromiter(
        (ids.setdefault(axis, len(ids)) for setting in settings for axis in setting.axes),
        dtype=np.intp, count=len(settings) * n,
    ).reshape(len(settings), n)
    rotations = np.array([_rotation(axis) for axis in ids], dtype=complex).reshape(-1, 2, 2)
    dim = 2**n
    pure = isinstance(state, QubitPureState)
    probs = np.empty((len(settings), dim))
    general = np.arange(len(settings))
    uniform = (index == index[:, :1]).all(axis=1)
    if uniform.any() and (entries := _class_entries(state)) is not None:
        dicke_rows = _dicke_rows(entries, rotations[index[uniform, 0]])
        probs[uniform] = dicke_rows[:, _POPCOUNT[:dim]]
        general = general[~uniform]
    # bytes of one row's largest intermediate: the amplitudes, or half the matrix
    row_bytes = 16 * dim if pure else 8 * dim * dim
    rows = max(1, BLOCK_BYTES // row_bytes)
    for start in range(0, len(general), rows):
        block = general[start:start + rows]
        probs[block] = (
            _pure_block(state.amplitudes, rotations[index[block]]) if pure
            else _density_block(state.matrix, rotations[index[block]])
        )
    low, sums = probs.min(initial=0.0), probs.sum(axis=1)
    if low < -NORM_TOL or (np.abs(sums - 1.0) > NORM_TOL).any():
        raise ValueError("outcome distribution failed sanity check")
    # clip in place; only a negative entry changes a row's sum (-0.0 becomes
    # 0.0, which adds the same)
    np.maximum(probs, 0.0, out=probs)
    if low < 0.0:
        sums = probs.sum(axis=1)
    probs /= sums[:, None]
    return probs


def _pure_block(amps: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """|amplitudes|^2 in the bases of an (S, N, 2, 2) block of rotations.

    Qubit q takes the (S, 2^q, 2, 2^(N-q-1)) stack to
    out[..., b, :] = R_q[b, 0] * in[..., 0, :] + R_q[b, 1] * in[..., 1, :],
    two broadcast products and one add over the whole block, into one of
    two preallocated (S, 2^N) buffers used in turn; a third holds the
    second product, so no temporary is larger than the block.  Each
    element is the same arithmetic whatever S.
    """
    count, n = rotations.shape[:2]
    buffers = np.empty((2, count, 2**n), dtype=complex)
    term = np.empty((count, 2**n), dtype=complex)
    source = amps[None]
    for q in range(n):
        shape = (count, 2**q, 2, 2 ** (n - q - 1))
        # rot[s, 0, b, i, 0] = R_q[b, i] of row s; pairs[s, a, 0, i, r] = in[s, a, i, r]
        rot = rotations[:, None, q, :, :, None]
        pairs = source.reshape(-1, 2**q, 1, 2, 2 ** (n - q - 1))
        out = buffers[q % 2].reshape(shape)
        np.multiply(rot[:, :, :, 0], pairs[:, :, :, 0], out=out)
        out += np.multiply(rot[:, :, :, 1], pairs[:, :, :, 1], out=term.reshape(shape))
        source = buffers[q % 2]
    return np.abs(source) ** 2


def _density_block(matrix: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Diagonals of a density in the bases of an (S, N, 2, 2) block of rotations."""
    count, n = rotations.shape[:2]
    tensor = matrix
    for q in range(n):
        rest = 2 ** (n - q - 1)
        rot = rotations[:, q]
        block = rot[:, :, :, None] * rot.conj()[:, :, None, :]
        tensor = np.einsum(
            "sbij,saixjy->sabxy", block, tensor.reshape(-1, 2**q, 2, rest, 2, rest)
        )
    return tensor.reshape(count, -1).real


def _class_entries(state: State) -> np.ndarray | None:
    """The state's entries on index 2^m - 1, the first of popcount m, for
    m = 0..N: (N + 1,) amplitudes a_m, or an (N + 1, N + 1) matrix r[m, m']
    for a density; None unless every amplitude equals a_popcount(b), or
    every matrix entry r[popcount(b), popcount(b')], exactly.

    Those are the states of the symmetric subspace.  A density is compared
    in blocks of rows that keep the expanded copy within ``BLOCK_BYTES``,
    stopping at the first block that differs.
    """
    n = state.num_qubits
    classes = _POPCOUNT[: 2**n]
    firsts = (1 << np.arange(n + 1)) - 1
    if isinstance(state, QubitPureState):
        amps = state.amplitudes
        entries = amps[firsts]
        return entries if (amps == entries[classes]).all() else None
    matrix = state.matrix
    entries = matrix[firsts[:, None], firsts]
    # rows 0 and 1 first: row 1 is the first whose class has other members,
    # and a Werner or dephased density already differs there
    rows = max(1, BLOCK_BYTES // (16 * classes.size))
    for start, stop in itertools.pairwise([0, *range(2, classes.size, rows), classes.size]):
        if not (matrix[start:stop] == entries[classes[start:stop, None], classes]).all():
            return None
    return entries


def _pascal(size: int) -> np.ndarray:
    """(size, 2 size - 1) binomials C(a, j) = a! / (j! (a - j)!): exact
    integers, 0 for j > a.

    j! is inf past j = size - 1, and a negative a - j wraps to that end, so
    the zeros need no mask; a row read at column -j, j < size, is 0 too.
    """
    degree = np.arange(2 * size - 1)
    factorials = np.cumprod(np.maximum(degree, 1.0))
    factorials[size:] = np.inf
    return factorials[:size, None] / (factorials * factorials[degree[:size, None] - degree])


def _dicke_gains(rows: np.ndarray, n: int) -> np.ndarray:
    """(N + 1, N + 1, S) gains[m, k, s] = G[k, m] (see ``_dicke_rows``) of
    row s of an (S, 2, 2) stack, from exact polynomial products: Pascal
    coefficients, exact integers, times powers of the entries by repeated
    multiplication, so an exact 0 entry leaves exact zeros (a z-axis G is
    the identity) and integer entries give exact integers."""
    size = n + 1
    degree = np.arange(2 * size - 1)
    excess = degree[:size] - degree[:, None]  # [j, a] -> a - j
    shift = excess[:size]  # [i, m] -> m - i, or a zero row
    # powers[p, s, r, c] = R_rc^p of row s, p < 2N + 1
    powers = np.empty((len(degree), len(rows), 2, 2), dtype=complex)
    powers[0] = 1.0
    powers[1:] = rows
    powers = np.cumprod(powers, axis=0)
    # coeffs[j, a, s, r]: coefficient j of (R_r0 + R_r1 t)^a, 0 for j > a
    coeffs = _pascal(size).T[:, :, None, None] * powers[excess, :, :, 0] * powers[:, None, :, :, 1]
    # G[m, k, s] = sum_i coeffs[i, N - k, s, 0] coeffs[m - i, k, s, 1]
    return (coeffs[:size, None, ::-1, :, 0] * coeffs[shift, :, :, 1]).sum(axis=0)


def _dicke_rows(entries: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """(S, N + 1) probability of one outcome of each popcount k, with every
    qubit measured in the basis of rotation s of an (S, 2, 2) stack, on a
    state of class entries ``entries`` (see ``_class_entries``): N + 1
    amplitudes, or an (N + 1, N + 1) matrix for a density.

    For an outcome b of popcount k, <b| R^(x)N takes the sum of the basis
    states of popcount m to G[k, m] = [t^m] (R00 + R01 t)^(N-k) (R10 + R11 t)^k,
    the Dicke-basis matrix element <D_k| R^(x)N |D_m> times
    sqrt(C(N, m) / C(N, k)).  So p(b) = |sum_m G[k, m] a_m|^2 for a pure
    state, and sum_{m, m'} G[k, m] r[m, m'] conj(G[k, m']) for a density.

    G comes from ``_dicke_gains``.  Every sum runs over the first axis of
    its terms, one term at a time in order, so a row is the same bits
    whatever S.  A row costs O(N^3) time and about (N + 1)^3 complex
    values of memory, and rows are taken in blocks within ``BLOCK_BYTES``.
    """
    size = len(entries)
    rows = max(1, BLOCK_BYTES // (16 * size**3))
    probs = np.empty((len(rotations), size))
    for start in range(0, len(rotations), rows):
        gains = _dicke_gains(rotations[start:start + rows], size - 1)
        if entries.ndim == 1:
            amps = (gains * entries[:, None, None]).sum(axis=0)
            probs[start:start + rows] = (np.abs(amps) ** 2).T
        else:
            # (G r)[m', k, s] summed over m, then against conj(G) over m'
            mixed = (entries[:, :, None, None] * gains[:, None]).sum(axis=0)
            probs[start:start + rows] = (mixed * gains.conj()).sum(axis=0).real.T
    return probs


def apply_local(state: State, unitaries) -> State:
    """Apply one 2x2 unitary per qubit: U|psi>, or U rho U^dagger for a
    density, as one contraction loop over the qubits."""
    n = state.num_qubits
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    if len(us) != n:
        raise ValueError(f"need {n} unitaries, got {len(us)}")
    for u in us:
        if u.shape != (2, 2) or np.abs(u @ u.conj().T - np.eye(2)).max() > 1e-9:
            raise ValueError("entries must be 2x2 unitaries")
    array = state.amplitudes if isinstance(state, QubitPureState) else state.matrix
    tensor = array.reshape([2] * (n * array.ndim))
    for q, u in enumerate(us):
        # a density takes u on its row axis q, then conj(u) on its column axis n + q
        for axis, op in ((q, u), (n + q, u.conj()))[: array.ndim]:
            tensor = np.moveaxis(np.tensordot(op, tensor, axes=[[1], [axis]]), 0, axis)
    # a valid state conjugated by the unitaries checked above
    return type(state)._trusted(n, tensor.reshape(array.shape))


# ---------------------------------------------------------------------------
# JSON serialization


def save_state(state: State, path) -> None:
    """Write ``state`` as indent-1 JSON with a trailing newline.

    Layout: ``num_qubits``; then ``amplitudes``, a list of ``[re, im]``
    pairs, for a pure state, or ``matrix``, rows of ``[re, im]`` pairs,
    for a density; then ``label`` if the state has a non-empty one.  The
    bytes are those of ``json.dump(..., indent=1)``: every number is
    written by ``float.__repr__``, so ``load_state`` gets back the exact
    same array, and the label is escaped to ASCII by ``json.dumps``.

    Each distinct entry is formatted once, as its whole ``[re, im]``
    cell, and the cells are joined: ``rho_sim`` has 8 distinct entries
    among 4,096.  Entries are told apart by their 16 bytes, not compared
    as numbers, so -0.0 keeps its sign.
    """
    pure = isinstance(state, QubitPureState)
    key, values = ("amplitudes", state.amplitudes) if pure else ("matrix", state.matrix)
    pad = " " * (2 if pure else 3)
    cell = f"{pad}[\n{pad} %r,\n{pad} %r\n{pad}]"
    entries = np.ascontiguousarray(values).reshape(-1).view(np.dtype((np.void, 16)))
    distinct, inverse = np.unique(entries, return_inverse=True)
    # one format call for all the cells; NUL appears in no cell
    numbers = tuple(distinct.view(float).tolist())
    texts = np.array(("\0".join([cell] * len(distinct)) % numbers).split("\0"), dtype=object)
    cells = texts[inverse.reshape(values.shape)].tolist()
    sep = ",\n"
    body = sep.join(cells if pure else [f"  [\n{sep.join(row)}\n  ]" for row in cells])
    text = f'{{\n "num_qubits": {state.num_qubits},\n "{key}": [\n{body}\n ]'
    if state.label:
        text += f',\n "label": {json.dumps(state.label)}'
    with open(path, "w") as fh:
        fh.write(text + "\n}\n")


def _complex_array(pairs, ndim: int) -> np.ndarray:
    """``[re, im]`` pairs nested ``ndim`` deep as one complex array, exactly."""
    values = np.array(pairs)
    if values.dtype.kind not in "biuf" or values.ndim != ndim + 1 or values.shape[-1] != 2:
        raise ValueError(f"state file entries must be [re, im] pairs of numbers, {ndim} deep")
    return np.ascontiguousarray(values, dtype=float).view(complex)[..., 0]


def load_state(path) -> State:
    """Read a file written by ``save_state``; its arrays round-trip exactly.

    Raises ValueError for a file that is not a state in that layout or
    whose state fails validation.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a state file holds one JSON object")
    n = data.get("num_qubits")
    label = data.get("label")
    if "amplitudes" in data:
        return QubitPureState(n, _complex_array(data["amplitudes"], 1), label=label)
    if "matrix" in data:
        return QubitDensity(n, _complex_array(data["matrix"], 2), label=label)
    raise ValueError("a state file needs 'amplitudes' or 'matrix'")
