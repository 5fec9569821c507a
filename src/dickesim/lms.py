"""Projector decompositions and local measurement setting plans.

A target projector |psi><psi| expands as sum_P c_P P over Pauli strings
with c_P = <psi|P|psi> / 2^N, for up to ``states.MAX_QUBITS`` qubits.  A
permutation-invariant target is read class by class, one coefficient per
letter-count class (#X, #Y, #Z); only ``greedy`` needs all 4^N strings,
which come from a Walsh-Hadamard transform of every X-mask, a block of
X-masks at a time as one stacked matrix product.  Two ways of reading
the strings out:

* exact matching (``greedy``, up to ``MAX_GREEDY_QUBITS`` qubits): a
  string is evaluated from one product measurement whose axes equal its
  non-identity letters, and grouping strings into few settings is a set
  cover solved greedily on one exact array of the 3^N candidates' gains,
  lowered after each pick by a subset sum over the support masks read.
  Every full-support string pins its own setting, so this needs at least
  as many settings as there are such strings (183 for the six-qubit Dicke
  state);
* uniform directions (``symmetric`` and ``ghz_special``): every qubit is
  measured along the same direction n_k, and the symmetric m-body
  correlators e_m of the outcomes carry weights w_km solved so that
  sum_k w_km n_x^a n_y^b n_z^c equals the coefficient of the class
  (a, b, c).  This works for permutation-invariant targets (G. Toth et
  al., PRL 105, 250403 (2010)).  ``symmetric`` solves the first design
  of one ordered list that spans the target: the GHZ design (N + 1
  settings), then ring designs whose size grows quadratically in N;
  ``ghz_special`` is the GHZ design alone.  With no strategy the plan is
  ``symmetric``, which refuses a target that is not permutation-invariant;
  ``greedy`` is reached only by name.

Letters are read as digits through the byte table of ``states``, as
written: a lower-case letter is no letter there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .references import REFERENCE_VALUES
from .states import (
    _PARITY_SIGNS,
    _POPCOUNT,
    BLOCK_BYTES,
    MeasurementSetting,
    QubitPureState,
    _dicke_gains,
    _letter_digits,
)

COEFF_TOL = 1e-12
_PHASES = np.array([1, 1j, -1, -1j])
# the greedy cover keeps 4^N-entry tables of the strings and one gain for
# each of the 3^N candidate settings; the cap is set by the plan size, not
# the search: the eight-qubit Dicke state takes 2,012 settings and the
# nine-qubit one 7,477, too many to sample in bounded time
MAX_GREEDY_QUBITS = 8
# largest weight residual a uniform-direction plan may leave before it is refused
SYMMETRIC_RESIDUAL_TOL = 1e-10
# the strategies plan_settings takes besides None
STRATEGIES = ("greedy", "symmetric", "ghz_special")


@dataclass(frozen=True)
class PauliDecomposition:
    """Real Pauli expansion of the projector onto ``target``, built on first
    use: ``terms`` string by string, ``classes`` one per letter-count class."""

    target: QubitPureState

    @property
    def num_qubits(self) -> int:
        return self.target.num_qubits

    def __len__(self) -> int:
        if self.classes is None:
            return len(self.terms)
        n = self.num_qubits
        return 1 + sum(math.comb(n, a) * math.comb(n - a, b) * math.comb(n - a - b, c)
                       for a, b, c in self.classes)

    @property
    def identity_coefficient(self) -> float:
        return 2.0**-self.num_qubits

    def coefficient(self, string: str) -> float:
        return self._by_string.get(string, 0.0)

    @functools.cached_property
    def _by_string(self) -> dict:
        return {s: c for c, s in self.terms}

    def nonidentity_strings(self) -> list[str]:
        identity = "I" * self.num_qubits
        return [s for _, s in self.terms if s != identity]

    @functools.cached_property
    def terms(self) -> tuple:
        """((coefficient, string), ...) above ``COEFF_TOL``, in itertools.product("IXYZ")
        order; the identity term (coefficient 2^-N) is always present."""
        n = self.num_qubits
        masks = np.arange(2**n)
        # base-4 digit of each qubit in product order: I 0, X 1, Y 2, Z 3
        spread = sum(((masks >> q) & 1) << (2 * q) for q in range(n))
        keys, coeffs = [], []
        for xs, values in self._x_mask_coefficients(masks):
            rows, zs = np.nonzero(np.abs(values) > COEFF_TOL)
            keys.append(2 * spread[zs] + spread[zs ^ xs[rows]])
            coeffs.append(values[rows, zs])
        keys, coeffs = np.concatenate(keys), np.concatenate(coeffs)
        order = np.argsort(keys)
        digits = (keys[order, None] >> (2 * np.arange(n - 1, -1, -1))) & 3
        strings = np.frombuffer(b"IXYZ", dtype=np.uint8)[digits].view(f"S{n}").ravel()
        return tuple(zip(coeffs[order].tolist(), strings.astype(str).tolist()))

    def _x_mask_coefficients(self, masks: np.ndarray):
        """Yield (xs, values) over blocks of the X-masks ``masks``: row k of
        values holds the coefficients of the 2^N strings with X-mask xs[k],
        indexed by Z-mask z.  <X^x Z^z> is the Walsh-Hadamard transform
        (H_high (x) H_low) of conj(psi_{j ^ x}) psi_j, and a Y letter is i X Z;
        a block is transformed as one stacked high @ product @ low, and holds
        as many X-masks as keep each complex temporary within ``BLOCK_BYTES``."""
        psi = self.target.amplitudes
        indices = np.arange(psi.size)
        n = self.num_qubits
        high, low = _hadamard(n // 2), _hadamard(n - n // 2)
        rows = max(1, BLOCK_BYTES // (16 * psi.size))
        for start in range(0, len(masks), rows):
            xs = masks[start:start + rows]
            product = np.conjugate(psi[indices ^ xs[:, None]])
            product *= psi
            transform = (high @ product.reshape(-1, len(high), len(low)) @ low).reshape(len(xs), -1)
            transform *= _PHASES[_POPCOUNT[indices & xs[:, None]] % 4]
            yield xs, transform.real / psi.size

    @functools.cached_property
    def classes(self) -> dict | None:
        """{(#X, #Y, #Z): coefficient} of the non-identity classes above
        ``COEFF_TOL``, each read from its string I..IX..XY..YZ..Z; None
        unless the N - 1 neighbour swaps change the amplitudes by a global
        phase at most, which leaves every coefficient permutation-invariant."""
        n = self.num_qubits
        psi = self.target.amplitudes
        for q in range(n - 1):
            swapped = psi.reshape((2,) * n).swapaxes(q, q + 1).reshape(-1)
            if np.abs(swapped - np.vdot(psi, swapped) * psi).max() > COEFF_TOL:
                return None
        # a X and s - a Y letters, then c Z letters: the X-mask has s ones
        # above the last c bits, the Z-mask the last s - a + c
        reads = [((a, s - a, c), ((1 << s) - 1) << c, (1 << (s - a + c)) - 1)
                 for c in range(n + 1) for s in range(n + 1 - c) if s + c for a in range(s + 1)]
        wanted = {}
        for _, x, z in reads:
            wanted.setdefault(x, []).append(z)
        value = {}
        for xs, values in self._x_mask_coefficients(np.array(list(wanted))):
            for x, row in zip(xs.tolist(), values):
                for z in wanted[x]:
                    value[x, z] = row[z]
        return {key: value[x, z] for key, x, z in reads if abs(value[x, z]) > COEFF_TOL}


@functools.cache
def _hadamard(bits: int) -> np.ndarray:
    """Sylvester Hadamard matrix, entry (z, j) = (-1)^popcount(z & j); one
    read-only copy per size."""
    idx = np.arange(2**bits)
    out = _PARITY_SIGNS[idx[:, None] & idx]
    out.flags.writeable = False
    return out


def decompose(target: QubitPureState) -> PauliDecomposition:
    """Pauli expansion of |target><target|, up to ``states.MAX_QUBITS`` qubits;
    ``terms`` (4^N strings, for ``greedy``) and ``classes`` (for the
    uniform-direction plans) are built the first time they are read."""
    return PauliDecomposition(target)


# ---------------------------------------------------------------------------
# Setting plans


@dataclass(frozen=True)
class SettingAssignment:
    """One measurement setting plus the strings it evaluates.

    ``covered`` strings are read out through per-string eigenvalue
    averages (identity positions marginalized).  A non-empty
    ``collective_weights`` (w_0, ..., w_N) adds sum_m w_m e_m to this
    setting's estimator, with e_m the m-th symmetric correlator of the
    outcomes (the sum over all m-qubit subsets of the product of their
    +-1 outcomes); only settings with one direction for every qubit carry
    them.  This is how the symmetric and GHZ plans evaluate the letter-count
    classes in the plan's ``collective_classes``.
    """

    setting: MeasurementSetting
    covered: tuple
    collective_weights: tuple = ()


@dataclass(frozen=True)
class SettingPlan:
    method: str
    assignments: tuple
    # ((#X, #Y, #Z), coefficient) pairs that the collective weights were solved for
    collective_classes: tuple = ()

    @property
    def num_settings(self) -> int:
        return len(self.assignments)

    def settings(self) -> list[MeasurementSetting]:
        return [a.setting for a in self.assignments]


class CoverageError(ValueError):
    """A plan does not evaluate every string of a decomposition."""


def check_plan_covers(plan: SettingPlan, decomp: PauliDecomposition) -> None:
    """Raise ``CoverageError`` unless the plan reads every non-identity
    string of ``decomp`` exactly once, from settings that can evaluate it.

    A string's letters must match its setting's axes wherever it is not the
    identity, and a setting with a Bloch direction ('n', theta, phi) covers
    no string.  Collective weights must be solved for the target's classes,
    on a setting with one direction for every qubit; they read every string,
    so a plan that carries them covers none.
    """
    n = decomp.num_qubits
    covered = [string for assignment in plan.assignments for string in assignment.covered]
    if any(assignment.collective_weights for assignment in plan.assignments):
        # collective weights are only right for the class table they were solved for
        solved, target = dict(plan.collective_classes), decomp.classes
        if target is None:
            raise CoverageError("plan reads letter-count classes of a target that has none")
        missing = sorted(key for key in solved.keys() | target.keys()
                         if abs(solved.get(key, 0.0) - target.get(key, 0.0)) > COEFF_TOL)
        what = "classes (#X, #Y, #Z) at the target's coefficients"
        expected, extra = set(), "the collective weights read every string"
    else:
        expected = set(decomp.nonidentity_strings())
        missing = sorted(expected.difference(covered))
        what, extra = "strings", "it is not a non-identity string of the target"
    if missing:
        raise CoverageError(f"plan misses {len(missing)} {what}, e.g. {missing[:3]}")
    if len(covered) != len(expected):
        # a string read twice, or one that is not a term left to read
        first = {}
        for idx, assignment in enumerate(plan.assignments):
            for string in assignment.covered:
                if string in first:
                    raise CoverageError(f"settings {first[string]} and {idx} both cover {string}")
                if string not in expected:
                    raise CoverageError(f"setting {idx} covers {string}, but {extra}")
                first[string] = idx
    for idx, assignment in enumerate(plan.assignments):
        if assignment.setting.num_qubits != n:
            raise CoverageError(f"setting {idx} measures {assignment.setting.num_qubits} "
                                f"qubits, the target has {n}")
        if assignment.collective_weights and (
            len(set(assignment.setting.axes)) != 1
            or len(assignment.collective_weights) != n + 1
        ):
            raise CoverageError(
                f"setting {idx} needs one direction for every qubit and "
                f"{n + 1} collective weights"
            )
    # letter digits of every covered string against its setting's axes; a
    # Bloch direction matches no letter
    axes = _letter_digits(
        ["".join(axis.upper() if isinstance(axis, str) else "N" for axis in assignment.setting.axes)
         for assignment in plan.assignments],
        n,
    )
    owner = np.repeat(np.arange(len(plan.assignments)), [len(a.covered) for a in plan.assignments])
    digits = _letter_digits(covered, n)
    bad = np.flatnonzero(
        (axes > 3).any(axis=1)[owner] | ((digits != 3) & (digits != axes[owner])).any(axis=1)
    )
    if bad.size:
        raise CoverageError(f"setting {owner[bad[0]]} cannot evaluate {covered[bad[0]]}")


@functools.cache
def _cover_tables(n: int) -> tuple:
    """Read-only tables of the greedy cover on N qubits.  Keys are base 4,
    one field per qubit (qubit 0 on top; X 0, Y 1, Z 2, I 3), and bit j of
    a mask is field j.  ``candidates[c]`` is the key of the axes at position
    c of itertools.product("xyz", repeat=N); ``fill[b]`` has I in every
    field outside mask b; ``agree[x]`` is the mask of the fields of x that
    are 0, so ``agree[k ^ k2]`` marks where keys k and k2 have the same
    letter; ``subsets[m, b]`` is 1 where mask b lies inside mask m.  Each
    table grows by one field at a time, the new one on top."""
    candidates, fill = np.zeros(1, np.intp), np.zeros(1, np.int32)
    agree, subsets = np.zeros(1, np.uint8), np.ones((1, 1), np.float32)
    for j in range(n):
        candidates = (np.arange(3)[:, None] << 2 * j | candidates).ravel()
        fill = (np.array([3 << 2 * j, 0], np.int32)[:, None] + fill).ravel()
        agree = (np.array([1 << j, 0, 0, 0], np.uint8)[:, None] | agree).ravel()
        subsets = np.kron(np.array([[1, 0], [1, 1]], np.float32), subsets)
    for table in (candidates, fill, agree, subsets):
        table.flags.writeable = False
    return candidates, fill, agree, subsets


def _greedy_plan(decomp: PauliDecomposition) -> SettingPlan:
    n = decomp.num_qubits
    if n > MAX_GREEDY_QUBITS:
        raise ValueError(f"greedy supports at most {MAX_GREEDY_QUBITS} qubits, got {n}")
    strings = decomp.nonidentity_strings()
    keys = np.zeros(len(strings), dtype=np.int32)
    for column in _letter_digits(strings, n).T:
        keys = 4 * keys + column
    # the id of every string not yet read, by key; -1 for none
    unread = np.full(4**n, -1, dtype=np.int32)
    unread[keys] = np.arange(len(strings), dtype=np.int32)
    # a candidate reads the strings with its letter or I on every qubit: adding
    # each qubit's I slice into its three axis slices counts them all at once
    table = (unread >= 0).astype(np.int32).reshape((4,) * n)
    for k in range(n):
        slices = np.moveaxis(table, k, 0)
        slices[:3] += slices[3]
    gains = table[(slice(3),) * n].astype(np.float32).ravel()
    candidates, fill, agree, subsets = _cover_tables(n)
    place = [3 ** (n - 1 - k) for k in range(n)]
    assignments = []
    while True:
        # the largest gain at the smallest candidate index
        c = int(np.argmax(gains))
        gain = gains[c]
        if gain < 2:
            break
        # the strings left that c reads: its key with I outside each support
        reads = candidates[c] | fill
        ids = unread[reads]
        unread[reads] = -1
        # another candidate loses every string read here whose support lies
        # inside the qubits where the two agree
        lost = subsets @ (ids >= 0).astype(np.float32)
        gains -= lost[agree[candidates ^ candidates[c]].astype(np.intp)]
        covered = tuple(strings[i] for i in np.sort(ids[ids >= 0]).tolist())
        if len(covered) != gain:
            raise AssertionError(f"greedy pick {c} read {len(covered)} strings, not {gain:.0f}")
        # the planner's own x/y/z digits
        setting = MeasurementSetting._trusted(tuple("xyz"[c // place[k] % 3] for k in range(n)))
        assignments.append(SettingAssignment(setting, covered))
    # every gain is at most 1: each string left is read alone, first by the
    # candidate with x for every I, and no two share it, so the rest of the
    # plan is those candidates in index order (the order of their keys)
    left = np.flatnonzero(unread >= 0)
    first = left ^ 3 * (left & left >> 1 & int("1" * n, 4))
    for i in unread[left[np.argsort(first)]].tolist():
        # the letters of a checked string, x for every I
        setting = MeasurementSetting._trusted(tuple(strings[i].replace("I", "X").lower()))
        assignments.append(SettingAssignment(setting, (strings[i],)))
    return SettingPlan(method="greedy", assignments=tuple(assignments))


def _ring_settings(n: int, rings: int) -> list[MeasurementSetting]:
    """The z axis plus ``rings`` rings of N + 1 equally spaced azimuths.

    Ring j sits at polar angle j pi / (2 rings), so the last ring is the
    equator, and is turned by j pi / (N + 1), half an azimuth step per
    ring, so that neighbouring rings interleave.  The equator and the
    stagger were picked for the estimator's standard error and the
    weight solve's condition number on the Dicke targets.
    """
    # the z letter, and directions whose finite float angles are computed here
    settings = [MeasurementSetting._trusted(("z",) * n)]
    for j in range(1, rings + 1):
        theta = j * math.pi / (2 * rings)
        for k in range(n + 1):
            phi = (2 * k + j) * math.pi / (n + 1)
            settings.append(MeasurementSetting._trusted((("n", theta, phi),) * n))
    return settings


def _designs(n: int):
    """The uniform-direction designs ``symmetric`` tries, in order: the GHZ
    design (the z axis plus N equatorial directions at k pi / N), then the
    z axis plus ceil(N/2) rings, then one more ring."""
    # the z letter, and directions whose finite float angles are computed here
    yield [MeasurementSetting._trusted(("z",) * n)] + [
        MeasurementSetting._trusted((("n", math.pi / 2, k * math.pi / n),) * n) for k in range(n)
    ]
    first = math.ceil(n / 2)
    yield _ring_settings(n, first)
    yield _ring_settings(n, first + 1)


def _symmetric_weights(classes: dict, settings: list) -> tuple[np.ndarray, float]:
    """Least-squares weights w_km and the largest residual over all orders.

    For each order m, sum_k w_km n_x^a n_y^b n_z^c must equal the class
    coefficient for every a + b + c = m (zero for classes not kept).
    """
    n = settings[0].num_qubits
    vectors = np.array([s.bloch_vector(0) for s in settings])
    # powers[k, s, j] = component j of setting s to the power k <= N, once
    powers = vectors ** np.arange(n + 1)[:, None, None]
    weights = np.zeros((len(settings), n + 1))
    residual = 0.0
    for m in range(1, n + 1):
        monomials = [(a, b, m - a - b) for a in range(m + 1) for b in range(m + 1 - a)]
        a, b, c = np.array(monomials).T
        # (monomials, settings): n_x^a n_y^b n_z^c, multiplied in that order
        design = powers[a, :, 0] * powers[b, :, 1] * powers[c, :, 2]
        rhs = np.array([classes.get(mono, 0.0) for mono in monomials])
        solution = np.linalg.lstsq(design, rhs, rcond=None)[0]
        residual = max(residual, float(np.abs(design @ solution - rhs).max()))
        weights[:, m] = solution
    return weights, residual


def _uniform_plan(decomp: PauliDecomposition, method: str, designs) -> SettingPlan:
    """Weights for the first design (a list of uniform-direction settings)
    whose residual is within ``SYMMETRIC_RESIDUAL_TOL``."""
    classes = decomp.classes
    if classes is None:
        raise ValueError(
            f"{method} needs a permutation-invariant target: each coefficient "
            "must depend only on the counts of X, Y and Z, and every permutation "
            'of a kept string must be kept; plan any other with strategy="greedy"'
        )
    for settings in designs:
        weights, residual = _symmetric_weights(classes, settings)
        if residual <= SYMMETRIC_RESIDUAL_TOL:
            break
    else:
        raise ValueError(
            f"{method} settings do not span the target: weight residual {residual:.2e}"
        )
    # a setting whose weights are all within COEFF_TOL of zero adds nothing
    # to the estimate (an equatorial setting's n_z = cos(pi/2) is 6e-17, not 0)
    assignments = tuple(
        SettingAssignment(setting, (), collective_weights=tuple(float(w) for w in row))
        for setting, row in zip(settings, weights)
        if np.abs(row).max() > COEFF_TOL
    )
    return SettingPlan(method, assignments, collective_classes=tuple(classes.items()))


def plan_settings(decomp: PauliDecomposition, strategy: str | None = None) -> SettingPlan:
    """Group a decomposition's strings into measurement settings.

    With no strategy the plan is ``symmetric``; ``greedy`` is reached only
    by name.
    ``symmetric``: every qubit along one direction per setting, with
    per-order weights on the symmetric correlators solved by least
    squares on the first of ``_designs`` whose weight residual is within
    ``SYMMETRIC_RESIDUAL_TOL``.  GHZ targets take the GHZ design (five
    settings at N = 4, as published), the six-qubit Dicke state 22 (21
    published).  Settings whose weights all solve to within ``COEFF_TOL``
    of zero are dropped, so the product states D(N, 0) and D(N, N) plan
    the z setting alone.
    Raises ValueError for a decomposition that is not permutation-invariant
    or that no design spans.
    ``ghz_special``: the same list cut to the GHZ design.  Besides GHZ
    targets it spans only D(2, 1), D(N, 0) and D(N, N) among the Dicke
    states, and it refuses others by the same residual test.
    ``greedy``: exact matching; repeatedly pick the axis assignment
    evaluating the most uncovered strings (ties broken toward the
    lexicographically smallest axis string), assigning each string to
    exactly one setting.  The six-qubit Dicke state takes 207.  The search
    keeps one exact gain per candidate (3^N of them), counted at the start
    by N slice-adds over a table of the strings' base-4 keys.  A pick reads
    its strings from a table of unread ones at its 2^N sub-patterns, and
    lowers every candidate's gain by the number read whose support lies
    where the two agree: one subset-sum product over the support masks,
    looked up at the agreement mask.  Once no gain exceeds 1, every string
    left is read alone, first by its candidate with x for every identity,
    and those candidates end the plan in index order.  No table holds more
    than 4^N entries, at most ``BLOCK_BYTES`` up to the cap.  Raises
    ValueError above ``MAX_GREEDY_QUBITS`` qubits, where plans grow too
    large to sample (the eight-qubit Dicke state takes 2,012 settings).
    """
    strategy = "symmetric" if strategy is None else strategy
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "greedy":
        return _greedy_plan(decomp)
    designs = _designs(decomp.num_qubits)
    if strategy == "ghz_special":
        designs = [next(designs)]
    return _uniform_plan(decomp, strategy, designs)


# ---------------------------------------------------------------------------
# Estimation from counts


@dataclass(frozen=True)
class SettingEstimate:
    label: str
    total_counts: float
    contribution: float
    variance: float


@dataclass(frozen=True)
class FidelityEstimate:
    value: float
    std_error: float
    per_setting: tuple = field(repr=False, default=())


def _counts_vector(counts, key: str, dim: int) -> np.ndarray:
    """Setting ``key``'s outcome counts from a label-keyed dict, as floats;
    raises for a missing label or a wrong length."""
    try:
        raw = counts[key]
    except KeyError:
        raise ValueError(f"missing counts for setting {key!r}") from None
    vec = np.asarray(raw, dtype=float).reshape(-1)
    if vec.size != dim:
        raise ValueError(f"setting {key!r} needs {dim} outcome counts, got {vec.size}")
    return vec


def _count_totals(plan: SettingPlan, counts: np.ndarray) -> np.ndarray:
    """Row totals of a count matrix in plan order, checked all at once.

    Raises ValueError naming the first setting, in plan order, with a
    negative or non-finite count, or with zero counts in all.
    """
    totals = counts.sum(axis=1)
    invalid = ~np.isfinite(counts).all(axis=1) | (counts < 0).any(axis=1)
    bad = np.flatnonzero(invalid | (totals <= 0))
    if bad.size:
        k = int(bad[0])
        key = plan.assignments[k].setting.label()
        if invalid[k]:
            raise ValueError(f"negative or non-finite count in setting {key!r}")
        raise ValueError(f"zero total counts for setting {key!r}")
    return totals


def _symmetric_correlators(n: int) -> np.ndarray:
    """e_m of every outcome, as an (N + 1) x 2^N table.

    e_m sums the product of the +-1 outcomes over all m-qubit subsets; for
    an outcome with p bits set (p outcomes -1) it is the Krawtchouk value,
    the coefficient of t^m in (1 + t)^(N - p) (1 - t)^p: the Dicke-basis
    gain of the row pair [[1, 1], [1, -1]], every term an exact integer.
    """
    gains = _dicke_gains(np.array([[[1.0, 1.0], [1.0, -1.0]]]), n)[:, :, 0].real
    return gains[:, _POPCOUNT[: 2**n]]


def _covered_weights(decomp: PauliDecomposition, plan: SettingPlan) -> np.ndarray:
    """(S, 2^N) outcome weights of the plan's settings, row k for setting k:
    sum_P c_P (-1)^popcount(outcome & support(P)) over its covered strings
    P, plus sum_m w_m e_m for its collective weights.

    A setting's strings are summed by one ``np.add.reduce`` over their
    rows, in covered order, so the only temporary is that setting's
    (strings, 2^N) block.  The collective parts of all settings are one
    stacked vector-matrix product, row by row the same as a loop of
    ``w @ correlators``.
    """
    n = decomp.num_qubits
    weights = np.zeros((plan.num_settings, 2**n))
    strings = [string for assignment in plan.assignments for string in assignment.covered]
    if strings:
        supports = (_letter_digits(strings, n) != 3) @ (1 << np.arange(n - 1, -1, -1))
        coeffs = np.array([decomp.coefficient(string) for string in strings])[:, None]
        # row z of the Hadamard matrix is (-1)^popcount(z & outcome), exactly +-1
        hadamard = _hadamard(n)
        start = 0
        for k, assignment in enumerate(plan.assignments):
            if assignment.covered:
                rows = slice(start, start + len(assignment.covered))
                weights[k] = np.add.reduce(coeffs[rows] * hadamard[supports[rows]], axis=0)
                start = rows.stop
    collective = [k for k, assignment in enumerate(plan.assignments)
                  if assignment.collective_weights]
    if collective:
        solved = np.array([plan.assignments[k].collective_weights for k in collective])
        weights[collective] += np.matmul(solved[:, None, :], _symmetric_correlators(n))[:, 0]
    return weights


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for every row k, as one stacked ``matmul`` that computes
    each row exactly as a 1-D ``a[k] @ b[k]`` does."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def fidelity_from_matrix(
    decomp: PauliDecomposition, plan: SettingPlan, counts
) -> FidelityEstimate:
    """Estimate fidelity = sum_P c_P <P> from an (S, 2^N) count matrix.

    Row k of ``counts`` holds the 2^N outcome counts of plan setting k
    (bit 0 of an outcome = +1 eigenvector, qubit 0 = MSB), as
    ``sampling.count_matrix`` draws them.  The identity term enters
    analytically.  Settings are treated as independent multinomial
    samples; the returned standard error adds their plug-in variances.
    Every setting's mean and variance is one row of a few stacked array
    operations, bit for bit what a loop over the settings computes.
    """
    check_plan_covers(plan, decomp)
    counts = np.asarray(counts)
    shape = (plan.num_settings, 2**decomp.num_qubits)
    if counts.shape != shape:
        raise ValueError(f"counts need shape {shape}, got {counts.shape}")
    return _estimate(decomp, plan, counts)


def fidelity_from_counts(
    decomp: PauliDecomposition, plan: SettingPlan, counts
) -> FidelityEstimate:
    """``fidelity_from_matrix`` on counts keyed by setting label.

    ``counts`` maps each plan setting's label() to its 2^N outcome counts.
    The dict becomes the count matrix in plan order; a setting whose label
    is missing or whose counts have the wrong length raises once the
    settings before it have passed the count checks, so the error names
    the first bad setting in plan order.
    """
    check_plan_covers(plan, decomp)
    dim = 2**decomp.num_qubits
    rows = []
    for assignment in plan.assignments:
        try:
            rows.append(_counts_vector(counts, assignment.setting.label(), dim))
        except (TypeError, ValueError):
            _count_totals(plan, np.reshape(rows, (len(rows), dim)))
            raise
    return _estimate(decomp, plan, np.reshape(rows, (len(rows), dim)))


def _estimate(
    decomp: PauliDecomposition, plan: SettingPlan, counts: np.ndarray
) -> FidelityEstimate:
    """The estimate from a count matrix of the right shape, the core of
    ``fidelity_from_matrix`` and ``fidelity_from_counts``."""
    totals = _count_totals(plan, counts)
    weights = _covered_weights(decomp, plan)
    probs = counts / totals[:, None]
    means = _row_dots(probs, weights)
    # two-pass variance, centred first on one counted outcome's weight:
    # a setting whose counted outcomes share one weight has exactly zero;
    # the weights are not read again, so they are centred in place
    spread = weights
    spread -= np.take_along_axis(weights, np.argmax(counts, axis=1)[:, None], axis=1)
    spread -= _row_dots(probs, spread)[:, None]
    variances = _row_dots(probs, np.square(spread, out=spread)) / totals
    value = decomp.identity_coefficient
    variance = 0.0
    per_setting = []
    for assignment, total, mean, var in zip(
        plan.assignments, totals.tolist(), means.tolist(), variances.tolist()
    ):
        value += mean
        variance += var
        per_setting.append(SettingEstimate(assignment.setting.label(), float(total), mean, var))
    return FidelityEstimate(
        value=float(value),
        std_error=math.sqrt(variance),
        per_setting=tuple(per_setting),
    )


def reference_lms_table() -> dict:
    """Published setting counts, read from the ``lms_settings_*`` entries
    of ``references.REFERENCE_VALUES``."""
    prefix = "lms_settings_"
    return {e.key.removeprefix(prefix): int(e.value)
            for e in REFERENCE_VALUES if e.key.startswith(prefix)}
