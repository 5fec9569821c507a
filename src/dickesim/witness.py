"""Collective-spin witnesses, biseparable bounds, and correlator scans.

The witness family is W(alpha) = Jx^2 + Jy^2 + alpha * Jz^2 with
J_i = (1/2) sum_k sigma_i^(k); its value is read from three collective
settings, every qubit along x, y or z.  Genuine multipartite entanglement is
signalled when a measured witness value exceeds the maximum attainable
by states that are product across some bipartition; those maxima are
found by a one-dimensional maximum over one qubit's polar angle when a side
holds one qubit, and by an alternating top-eigenvector (see-saw) search
otherwise.

W(alpha) depends only on the collective spin, so the bound over a
bipartition A|B depends only on k = min(|A|, |B|): one search per size
class k = 1 .. N // 2 replaces one per bipartition.  Each side's space
splits into spin-j blocks (j_A = k/2, k/2 - 1, ...; j_B = (N-k)/2, ...)
that W leaves invariant, and a product optimum sits in a single block
pair, so each search runs on spin-j matrices of dimension
(2 j_A + 1)(2 j_B + 1) rather than on the 2^N operator and stays exact
(G. Toth et al., New J. Phys. 11, 083002 (2009)).  A block pair whose top
eigenvalue cannot beat the best value found so far is skipped, and that
top has a closed form: on the coupled block, W = J^2 + (alpha - 1) Jz^2
commutes with J^2, so its eigenvalues are J (J + 1) + (alpha - 1) m^2,
largest at J = j_A + j_B with m = J for alpha >= 1 and |m| = J mod 1
otherwise.

The search draws no random numbers: side A is searched over spin-coherent
states at polar angles in [0, pi/2], which suffice because W commutes with
rotations about z and with the pi rotation about x (G. Toth, JOSA B 24,
275 (2007)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dicke_states import ghz
from .states import (
    _POPCOUNT,
    PAULI,
    MeasurementSetting,
    QubitDensity,
    QubitPureState,
    State,
    _is_integer,
    _pattern_blocks,
    apply_local,
    expectations,
    fidelity,
    outcome_distributions,
)

# a see-saw restart stops once an iteration raises its value by less than
# SEESAW_TOL, or after MAX_ITER iterations
MAX_ITER = 500
SEESAW_TOL = 1e-10
# the see-saw of every sector pair of the |A| >= 2 classes starts from
# POLAR_STARTS spin-coherent states at polar angles spaced evenly over
# [0, pi/2]; tests/test_witness.py certifies the values it reaches up to
# N = 10 with an independent upper bound
POLAR_STARTS = 10
# the |A| = 1 class evaluates its top eigenvalue on GRID_POINTS polar angles
# spaced evenly over [0, pi/2] (pi/64 apart), then refines each grid local
# maximum until a step moves the angle by at most THETA_TOL radians (or its
# slope is below rounding, see _polar_maxima), or after MAX_ITER steps
GRID_POINTS = 33
THETA_TOL = 1e-9
# measurement planes of correlator_scan: sigma_z with sigma_x or sigma_y
PLANES = ("xz", "yz")
# the largest |alpha| the witness functions accept, the largest magnitude
# their tests cover; far beyond it W(alpha) overflows and eigh fails to converge
MAX_ALPHA = 1e12


def _check_alpha(alpha) -> float:
    """``alpha`` as a float; ValueError unless finite with |alpha| <= ``MAX_ALPHA``."""
    alpha = float(alpha)
    if not abs(alpha) <= MAX_ALPHA:
        raise ValueError(f"alpha must be finite with |alpha| <= {MAX_ALPHA:g}, got {alpha!r}")
    return alpha


def _embed(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for k in range(n):
        out = np.kron(out, op if k == qubit else np.eye(2))
    return out


@lru_cache(maxsize=32)
def collective_spin_operator(num_qubits: int, axis: str) -> np.ndarray:
    axis = axis.lower()
    if axis not in "xyz":
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    sigma = PAULI[axis.upper()]
    total = sum(_embed(sigma, q, num_qubits) for q in range(num_qubits))
    out = 0.5 * total
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def witness_operator(num_qubits: int, alpha: float) -> np.ndarray:
    """Dense W(alpha); real symmetric since Jy^2 has real entries."""
    alpha = _check_alpha(alpha)
    jx = collective_spin_operator(num_qubits, "x")
    jy = collective_spin_operator(num_qubits, "y")
    jz = collective_spin_operator(num_qubits, "z")
    w = jx @ jx + jy @ jy + alpha * (jz @ jz)
    if np.abs(w.imag).max() > 1e-12:
        raise AssertionError("witness operator should be real")
    w = np.ascontiguousarray(w.real)
    w.flags.writeable = False
    return w


def collective_spin_sq(state: State, axis: str) -> float:
    """<J_axis^2> from the one setting with every qubit along ``axis``.

    J_axis has eigenvalue N/2 - popcount(b) on outcome b of that setting,
    so <J_axis^2> = sum_b p(b) (N/2 - popcount(b))^2.  On a state of the
    symmetric subspace (Dicke states, GHZ, W, their densities, ``rho_sim``)
    ``outcome_distributions`` reads the setting in the (N + 1)-dimensional
    Dicke basis, in O(N^3) instead of a contraction of the whole state.
    That path has a fixed cost of about 35 us per call, so a one-axis call
    on a state of up to 7 qubits runs 1.2-1.5x slower than the contraction
    would; ``witness_value`` reads all three axes in one call and pays it
    once.
    """
    return _spin_squares(state, axis)[0]


def _spin_squares(state: State, axes: str) -> list[float]:
    """``collective_spin_sq`` of each axis, from one ``outcome_distributions``
    call; each row is the bits of its one-row call."""
    n = state.num_qubits
    probs = outcome_distributions(state, [MeasurementSetting.uniform(a, n) for a in axes])
    return [float(row @ (n / 2.0 - _POPCOUNT[: 2**n]) ** 2) for row in probs]


@dataclass(frozen=True)
class _SpinMoments:
    """<J_x^2>, <J_y^2> and <J_z^2> of one state, from one read of the three
    collective settings."""

    jx_sq: float
    jy_sq: float
    jz_sq: float

    @classmethod
    def read(cls, state: State) -> "_SpinMoments":
        return cls(*_spin_squares(state, "xyz"))

    def witness(self, alpha):
        """<W(alpha)> = (<J_x^2> + <J_y^2>) + alpha <J_z^2>, in that order,
        for one alpha or elementwise for an array of them."""
        return self.jx_sq + self.jy_sq + alpha * self.jz_sq


def witness_value(state: State, alpha: float) -> float:
    """<W(alpha)> on a state from the three collective settings x, y and z,
    without building the 2^N operator."""
    return float(_SpinMoments.read(state).witness(_check_alpha(alpha)))


# ---------------------------------------------------------------------------
# Biseparable bound: one-dimensional maximum for |A| = 1, see-saw otherwise


@dataclass(frozen=True)
class SeeSawOptions:
    """Accepted for compatibility and not read: the search draws no random
    numbers, and its start set is the fixed ``POLAR_STARTS``."""

    restarts: int = 50
    seed: int = 0


@dataclass(frozen=True)
class SizeClassSearch:
    """Search outcome for the bipartitions whose smaller side has ``size``
    qubits.  For ``size`` >= 2, ``iterations`` and ``converged`` belong to
    the see-saw restart that set ``value``; for ``size`` == 1 they are the
    refinement steps of the grid maximum that set it, and whether it met
    its tolerance (a last step of at most ``THETA_TOL``, or a slope that
    rounding cannot resolve; see ``_polar_maxima``)."""

    size: int
    bipartitions: int
    value: float
    iterations: int
    converged: bool
    sectors_searched: int
    sectors_skipped: int


@dataclass(frozen=True)
class BoundEstimate:
    value: float
    classes: tuple[SizeClassSearch, ...]


def _seesaw(w4, psi_a):
    """Alternating see-saw from each row of psi_a (R, d_a) at once.

    Each half-step replaces one side by the top eigenvector of the witness
    contracted with the other side, so every row's objective is monotone.
    A row stops when its increment falls below ``SEESAW_TOL``; returns
    per-row (values, iterations, converged).
    """
    rows = len(psi_a)
    values = np.full(rows, -np.inf)
    iterations = np.full(rows, MAX_ITER)
    converged = np.zeros(rows, dtype=bool)
    active = np.arange(rows)
    for it in range(1, MAX_ITER + 1):
        m_b = np.einsum("ajbk,ra,rb->rjk", w4, psi_a.conj(), psi_a)
        psi_b = np.linalg.eigh(m_b)[1][:, :, -1]
        m_a = np.einsum("ajbk,rj,rk->rab", w4, psi_b.conj(), psi_b)
        vals, vecs = np.linalg.eigh(m_a)
        psi_a, new_values = vecs[:, :, -1], vals[:, -1]
        done = new_values - values[active] < SEESAW_TOL
        values[active] = new_values
        iterations[active[done]] = it
        converged[active[done]] = True
        active, psi_a = active[~done], psi_a[~done]
        if not active.size:
            break
    return values, iterations, converged


@lru_cache(maxsize=None)
def _spin_matrices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) of spin j = (dim - 1) / 2 in the basis m = j, ..., -j,
    cached and read-only."""
    j = (dim - 1) / 2.0
    m = j - np.arange(dim)
    raising = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), k=1)
    lowering = raising.T
    ops = (raising + lowering) / 2.0, (raising - lowering) / 2.0j, np.diag(m)
    for op in ops:
        op.flags.writeable = False
    return ops


def _sector_top(d_a: int, d_b: int, alpha: float) -> float:
    """Top eigenvalue of ``_sector_witness(d_a, d_b, alpha)`` in closed form.

    The coupled spins j_A = (d_a - 1) / 2 and j_B = (d_b - 1) / 2 split into
    total spins J = |j_A - j_B|, ..., j_A + j_B, and W(alpha) = J^2 +
    (alpha - 1) Jz^2 commutes with J^2 and Jz, so its eigenvalues are
    J (J + 1) + (alpha - 1) m^2 with |m| <= J.  The top takes the largest
    J = (d_a + d_b - 2) / 2 and m = J for alpha >= 1, or the smallest |m|
    = J mod 1 (0 or 1/2, the same for every J) otherwise.
    """
    total = (d_a + d_b - 2) / 2.0
    m = total if alpha >= 1.0 else total % 1.0
    return total * (total + 1.0) + (alpha - 1.0) * m * m


def _sector_witness(d_a: int, d_b: int, alpha: float) -> np.ndarray:
    """W(alpha) on spin sectors of dimensions d_a (x) d_b, as (a, b, a', b')."""
    eye_a = np.eye(d_a)[:, None, :, None]
    eye_b = np.eye(d_b)[None, :, None, :]
    total = 0.0
    for weight, op_a, op_b in zip(
        (1.0, 1.0, alpha), _spin_matrices(d_a), _spin_matrices(d_b)
    ):
        # J_a (x) 1 + 1 (x) J_b, broadcast instead of built by np.kron
        j = (op_a[:, None, :, None] * eye_b + eye_a * op_b[None, :, None, :]).reshape(
            d_a * d_b, d_a * d_b
        )
        total = total + weight * (j @ j)
    return np.ascontiguousarray(total.real).reshape(d_a, d_b, d_a, d_b)


def _polar_starts(dim: int, count: int) -> np.ndarray:
    """(count, dim) spin-coherent states |theta_k, phi = 0> of spin
    j = (dim - 1) / 2 in the basis m = j, ..., -j, at theta_k =
    linspace(0, pi / 2, count): row 0 is the pole, the last row the equator.

    The amplitude of m is sqrt(C(2j, j - m)) cos(theta/2)^(j + m)
    sin(theta/2)^(j - m) (Arecchi et al., PRA 6, 2211 (1972)).
    """
    down = np.arange(dim)  # j - m
    half = np.linspace(0.0, np.pi / 2, count)[:, None] / 2.0
    scale = np.sqrt([math.comb(dim - 1, k) for k in down])
    return scale * np.cos(half) ** (dim - 1 - down) * np.sin(half) ** down


def _polar_maxima(w4):
    """Local maxima over theta in [0, pi/2] of f(theta) = lambda_max(M(theta))
    for a one-qubit side A, from the (2, d_b, 2, d_b) sector witness.

    Side A in |theta> = cos(theta/2)|0> + sin(theta/2)|1> leaves side B the
    matrix M(theta) = M0 + cos(theta) Mc + sin(theta) Ms, with M0 = (W00 +
    W11) / 2, Mc = (W00 - W11) / 2 and Ms = (W01 + W10) / 2 by the
    half-angle identities.  f is the maximum over unit v of v^T M(theta) v,
    each a smooth function of theta, so its kinks are convex and every local
    maximum is a smooth stationary point of the top eigenvalue, where the
    Hellmann-Feynman derivative f' = v^T M'(theta) v vanishes.  One
    stacked ``eigvalsh`` evaluates f on ``GRID_POINTS`` angles; f is even
    about 0 and pi/2 (theta ~ -theta ~ pi - theta), so each end compares
    with its one neighbour.  Every grid local maximum, and the grid's
    argmax, then takes safeguarded Newton steps on f', all candidates in
    one ``eigh`` per step: f'' comes from second-order perturbation theory,
    each step's sign of f' shrinks the bracket between the candidate's
    grid neighbours, and a step that leaves it, or meets f'' >= 0, is a
    bisection instead.  A candidate stops once its step is at most
    ``THETA_TOL``, or once the gain that its slope and curvature allow
    over its bracket of width w, |f'| w + max(f'', 0) w^2 / 2, is below
    the rounding error of f (d_b * eps times the largest entries of M0, Mc
    and Ms, summed): where f'' varies little on the bracket, no angle in it
    beats the current value by more than that, so no further step can be
    told from rounding.  At alpha = 1, W = J^2 and f is constant; its slope
    is rounding noise, and bisecting it to ``THETA_TOL`` would cost about
    26 steps per candidate.  The ends are built exactly (W00 at 0, M0 + Ms
    at pi/2): cos(pi/2) is 6e-17, and M0 + Mc differs from W00 by
    rounding; near |alpha| = 1e12 either slip moves entries of M by 1e-5
    to 1e-3.
    Returns per-candidate (values, iterations, converged); each value is f
    at an evaluated angle, the best along that candidate's path.
    """
    w00, w11 = w4[0, :, 0, :], w4[1, :, 1, :]
    m0, mc = (w00 + w11) / 2.0, (w00 - w11) / 2.0
    ms = (w4[0, :, 1, :] + w4[1, :, 0, :]) / 2.0
    rounding = len(w00) * np.finfo(float).eps * sum(np.abs(x).max() for x in (m0, mc, ms))

    def at(theta):
        """(M(theta), cos(theta), sin(theta)) stacked over the angles."""
        cos = np.where(theta == np.pi / 2, 0.0, np.cos(theta))[:, None, None]
        sin = np.sin(theta)[:, None, None]
        m = np.where((theta == 0.0)[:, None, None], w00, m0 + cos * mc + sin * ms)
        return m, cos, sin

    grid = np.linspace(0.0, np.pi / 2, GRID_POINTS)
    f = np.linalg.eigvalsh(at(grid)[0])[:, -1]
    mirrored = np.concatenate((f[1:2], f, f[-2:-1]))
    peaks = (f > mirrored[:-2]) & (f >= mirrored[2:])
    peaks[np.argmax(f)] = True
    k = np.flatnonzero(peaks)
    theta, values = grid[k], f[k]
    lo, hi = grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, GRID_POINTS - 1)]
    iterations = np.full(len(k), MAX_ITER)
    converged = np.zeros(len(k), dtype=bool)
    active = np.arange(len(k))
    for it in range(1, MAX_ITER + 1):
        t = theta[active]
        m, cos, sin = at(t)
        vals, vecs = np.linalg.eigh(m)
        top = vecs[:, :, -1:]
        slope = (cos * ms - sin * mc) @ top  # M'(theta) v
        grad = (top * slope).sum(axis=(1, 2))
        coupling = (vecs[:, :, :-1] * slope).sum(axis=1)
        gaps = vals[:, -1:] - vals[:, :-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            # f'' = v^T M'' v + 2 sum_k (u_k^T M' v)^2 / (lambda_max - lambda_k)
            curv = (top * (-(cos * mc + sin * ms) @ top)).sum(axis=(1, 2))
            curv = curv + 2.0 * (coupling**2 / gaps).sum(axis=1)
            newton = t - grad / curv
        values[active] = np.maximum(values[active], vals[:, -1])
        low = np.where(grad > 0, t, lo[active])
        high = np.where(grad < 0, t, hi[active])
        lo[active], hi[active] = low, high
        inside = (curv < 0) & (low <= newton) & (newton <= high)
        theta[active] = new = np.where(inside, newton, (low + high) / 2.0)
        width = high - low
        gain = np.abs(grad) * width + np.maximum(curv, 0.0) * width**2 / 2.0
        done = (np.abs(new - t) <= THETA_TOL) | (gain <= rounding)
        iterations[active[done]] = it
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    return values, iterations, converged


def _search_size_class(n, size, alpha) -> SizeClassSearch:
    """Search the spin sectors of the bipartitions with |A| = size: the
    see-saw for size >= 2, the one-dimensional ``_polar_maxima`` for 1.

    Sector pairs are visited symmetric first; a lower pair is skipped when
    its unconstrained top eigenvalue cannot beat the best value so far.
    That top is the closed form of ``_sector_top`` (W commutes with J^2
    on the coupled sector), so a sector witness is built only for the
    pairs that are searched.
    """
    best = (-np.inf, 0, True)
    searched = skipped = 0
    sectors = itertools.product(range(size + 1, 0, -2), range(n - size + 1, 0, -2))
    for d_a, d_b in sectors:
        if searched and _sector_top(d_a, d_b, alpha) <= best[0]:
            skipped += 1
            continue
        searched += 1
        w4 = _sector_witness(d_a, d_b, alpha)
        if size == 1:
            values, iterations, converged = _polar_maxima(w4)
        else:
            values, iterations, converged = _seesaw(w4, _polar_starts(d_a, POLAR_STARTS))
        r = int(np.argmax(values))
        if values[r] > best[0]:
            best = (float(values[r]), int(iterations[r]), bool(converged[r]))
    count = math.comb(n, size) // (2 if 2 * size == n else 1)
    return SizeClassSearch(size, count, *best, searched, skipped)


def biseparable_bound(
    num_qubits: int, alpha: float = 0.0, options: SeeSawOptions | None = None
) -> BoundEstimate:
    """Estimate max <W(alpha)> over pure states product across a bipartition.

    W(alpha) is permutation invariant, so the maximum over a bipartition
    A|B depends only on k = min(|A|, |B|); one search per size class
    k = 1 .. N // 2 covers all 2^(N-1) - 1 bipartitions.  Within a class,
    each side splits into collective-spin sectors j_A = k/2, k/2 - 1, ...
    and j_B = (N-k)/2, ...; W commutes with J_A^2 and J_B^2, so with one
    side fixed the other side's optimum lies in a single sector, and some
    product optimum is pure in one sector pair.  The search therefore
    works on W built from spin-j_A and spin-j_B matrices, of dimension
    (2 j_A + 1)(2 j_B + 1), which is exact for every alpha.  In every
    class, sector pairs are visited symmetric first, and a pair whose
    unconstrained top eigenvalue cannot beat the best value so far is
    skipped.  That top needs no eigensolver: W = J^2 + (alpha - 1) Jz^2
    commutes with J^2 on the coupled sector, whose total spins run from
    |j_A - j_B| to J = j_A + j_B, so the top is J (J + 1) + (alpha - 1) m^2
    with m = J for alpha >= 1 and m = J mod 1 (0 or 1/2) otherwise.

    The azimuth of side A is free, as W commutes with joint rotations
    about z, and theta ~ pi - theta, as W is invariant under the joint pi
    rotation about x, which maps the spin-coherent |theta, 0> to
    |pi - theta, 0> up to phase.  W is real in the m basis and some
    optimum is real (a joint z rotation zeroes the other side's <J_y>),
    so every search runs in real arithmetic.  ``options`` is accepted and
    ignored: the search draws no random numbers and has no start count to
    set.

    For |A| = 1 no see-saw runs.  Side A is one qubit, so its only sector
    is spin 1/2, and every pure qubit state is spin-coherent (Arecchi et
    al., PRA 6, 2211 (1972)); by the two symmetries above it is
    cos(theta/2)|0> + sin(theta/2)|1> with theta in [0, pi/2].  With side
    A fixed, the best side B is the top eigenvector of the contracted
    witness M(theta) = M0 + cos(theta) Mc + sin(theta) Ms, so the class
    value is max over theta of lambda_max(M(theta)), a one-dimensional
    maximum: a grid of ``GRID_POINTS`` angles, then a safeguarded Newton
    refinement of every grid local maximum (``_polar_maxima``).

    For |A| >= 2, each searched sector pair runs the see-saw with side A
    starting in the spin-coherent states at ``POLAR_STARTS`` polar angles
    in [0, pi/2], azimuth 0.  The starts run as one batch: each
    half-step contracts the witness with every start's other side at once
    and takes the top eigenvectors of the whole stack in one ``eigh``, so
    the objective is monotone per start and each start stops on its own
    increment.  ``classes`` reports each class's value, bipartition count,
    convergence and sector counts (see ``SizeClassSearch``); ``value`` is
    the largest class value.  ``alpha`` must be finite with |alpha| at most
    ``MAX_ALPHA``; any other raises ValueError.
    """
    if not _is_integer(num_qubits):
        raise ValueError(f"num_qubits must be an integer, got {num_qubits!r}")
    alpha = _check_alpha(alpha)
    n = int(num_qubits)
    if n < 2:
        raise ValueError("need at least 2 qubits for a bipartition")
    classes = tuple(_search_size_class(n, size, alpha) for size in range(1, n // 2 + 1))
    return BoundEstimate(max(cls.value for cls in classes), classes)


def bound_curve(num_qubits, alphas):
    """[(alpha, biseparable bound)] over a grid of alpha values."""
    return [(float(a), biseparable_bound(num_qubits, float(a)).value) for a in alphas]


# ---------------------------------------------------------------------------
# Tensor-product correlators


def correlator_scan(state: State, plane: str, thetas) -> np.ndarray:
    """<(cos(t) sigma_i + sin(t) sigma_z)^xN> over the angle grid.

    ``plane`` selects sigma_x ('xz') or sigma_y ('yz') as the in-plane
    partner A of sigma_z.  Expanding the product gives the polynomial
    sum_k cos(t)^(N-k) sin(t)^k E_k, where E_k sums <P> over the C(N, k)
    strings with Z on k qubits and A on the rest, so the N + 1 sums come
    from one ``expectations`` call on all 2^N strings and any grid costs
    O(N) per angle.  Each sum adds its strings' values in string order.
    """
    if plane not in PLANES:
        raise ValueError(f"plane must be {' or '.join(map(repr, PLANES))}, got {plane!r}")
    partner = "X" if plane == "xz" else "Y"
    n = state.num_qubits
    strings = ["".join(letters) for letters in itertools.product((partner, "Z"), repeat=n)]
    sums = np.zeros(n + 1)
    # string i has Z where i has a set bit
    np.add.at(sums, _POPCOUNT[: 2**n], expectations(state, strings))
    thetas = np.asarray(thetas, dtype=float)[:, None]
    k = np.arange(n + 1)
    return (np.cos(thetas) ** (n - k) * np.sin(thetas) ** k) @ sums


def dephased(state: State) -> QubitDensity:
    """Populations-only copy of a state in the computational basis."""
    populations = _pattern_blocks(state, ()).reshape(-1)
    # the populations of a valid state on the diagonal: they are its eigenvalues
    return QubitDensity._trusted(state.num_qubits, np.diag(populations.real.astype(complex)))


# ---------------------------------------------------------------------------
# GHZ-type witness after local rotation


_HALF_SQRT = 1.0 / np.sqrt(2.0)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _HALF_SQRT
_SQRT_Z = np.diag([1.0, 1.0j])
_SIGMA_Z = np.diag([1.0, -1.0])


def ghz_rotation_unitaries(num_qubits: int = 4):
    """Per-qubit unitaries turning GHZ_N into the odd Dicke superposition.

    The circuit applies sigma_z to qubit 0 first, then Hadamard followed by
    sqrt(sigma_z) on every qubit.  For N = 4 the output state equals
    (dicke(4,1) - dicke(4,3)) / sqrt(2) up to global phase.
    """
    per_qubit = _SQRT_Z @ _HADAMARD
    ops = [per_qubit] * num_qubits
    ops[0] = per_qubit @ _SIGMA_Z
    return ops


def rotated_ghz_target(num_qubits: int = 4) -> QubitPureState:
    state = apply_local(ghz(num_qubits), ghz_rotation_unitaries(num_qubits))
    # a relabel of a valid state
    return QubitPureState._trusted(state.num_qubits, state.amplitudes, f"ghz_{num_qubits}_rotated")


def ghz_witness(state: State) -> float:
    """1/2 - fidelity against the locally rotated GHZ_4 target.

    Negative values certify GHZ-type entanglement of four-qubit states
    navigated out of the six-photon Dicke state with +/- outcomes.
    """
    if state.num_qubits != 4:
        raise ValueError("ghz_witness is defined for 4-qubit states")
    return 0.5 - fidelity(state, rotated_ghz_target(4))
