import functools
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dickesim.dicke_states import dicke, ghz, w_state
from dickesim.protocols import werner
from dickesim.states import (
    PAULI,
    QubitDensity,
    QubitPureState,
    _as_density_matrix,
    apply_local,
    fidelity,
)
from dickesim.witness import (
    MAX_ITER,
    POLAR_STARTS,
    SEESAW_TOL,
    SeeSawOptions,
    _SpinMoments,
    _polar_maxima,
    _polar_starts,
    _search_size_class,
    _sector_top,
    _sector_witness,
    _seesaw,
    _spin_matrices,
    biseparable_bound,
    bound_curve,
    collective_spin_operator,
    collective_spin_sq,
    correlator_scan,
    dephased,
    ghz_rotation_unitaries,
    ghz_witness,
    rotated_ghz_target,
    witness_operator,
    witness_value,
)
from test_states import random_density


def _top_eigenvector(matrix):
    """Oracle: leading eigenvector and eigenvalue of one matrix."""
    vals, vecs = np.linalg.eigh(matrix)
    return vecs[:, -1], float(vals[-1])


def _random_start(dim, rng):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def _seesaw_once(w4, psi_a, max_iter, tol):
    """Oracle: one see-saw restart from side A's start, one matrix at a time."""
    value = -np.inf
    for it in range(1, max_iter + 1):
        m_b = np.einsum("ajbk,a,b->jk", w4, psi_a.conj(), psi_a)
        psi_b, _ = _top_eigenvector(m_b)
        m_a = np.einsum("ajbk,j,k->ab", w4, psi_b.conj(), psi_b)
        psi_a, new_value = _top_eigenvector(m_a)
        if new_value - value < tol:
            return new_value, it, True
        value = new_value
    return value, max_iter, False


def per_restart_class_search(n, size, alpha):
    """Oracle: the size class search one see-saw restart at a time, with
    the same sector order and skip rule as biseparable_bound and the polar
    starts of its see-saw classes.

    Returns (value, iterations, converged, searched, skipped).
    """
    best = (-np.inf, 0, True)
    searched = skipped = 0
    for d_a, d_b in itertools.product(range(size + 1, 0, -2), range(n - size + 1, 0, -2)):
        w4 = _sector_witness(d_a, d_b, alpha)
        if searched and np.linalg.eigvalsh(w4.reshape(d_a * d_b, -1))[-1] <= best[0]:
            skipped += 1
            continue
        searched += 1
        for psi_a in _polar_starts(d_a, POLAR_STARTS):
            result = _seesaw_once(w4, psi_a, MAX_ITER, SEESAW_TOL)
            if result[0] > best[0]:
                best = result
    return (*best, searched, skipped)


def _random_starts(dim, key, restarts):
    """(restarts, dim) normalised complex Gaussian starts, one seed per row."""
    return np.array([
        _random_start(dim, np.random.default_rng(np.random.SeedSequence((*key, restart))))
        for restart in range(restarts)
    ])


def random_start_class_maxima(n, alpha, restarts, seed=0):
    """Oracle: {k: size class maximum} from seeded complex Gaussian starts
    on every sector pair whose unconstrained top eigenvalue can beat the
    best value so far."""
    out = {}
    for size in range(1, n // 2 + 1):
        best = -np.inf
        for d_a, d_b in itertools.product(range(size + 1, 0, -2), range(n - size + 1, 0, -2)):
            w4 = _sector_witness(d_a, d_b, alpha)
            if np.linalg.eigvalsh(w4.reshape(d_a * d_b, -1))[-1] > best:
                starts = _random_starts(d_a, (seed, size, d_a, d_b), restarts)
                best = max(best, _seesaw(w4, starts)[0].max())
        out[size] = best
    return out


def dense_class_maxima(n, alpha, restarts, seed=0):
    """Oracle: see-saw on the dense 2^n witness for every bipartition.

    Every proper bipartition appears once, as the side A that holds qubit
    0.  Returns {k: [per-bipartition maxima]} keyed by the smaller side's
    size k = min(|A|, n - |A|).
    """
    tensor = witness_operator(n, float(alpha)).reshape([2] * (2 * n))
    parts = [
        (0, *tail)
        for r in range(n - 1)
        for tail in itertools.combinations(range(1, n), r)
    ]
    out = {}
    for part_index, part_a in enumerate(parts):
        part_b = tuple(q for q in range(n) if q not in part_a)
        perm = list(part_a) + list(part_b)
        d_a, d_b = 2 ** len(part_a), 2 ** len(part_b)
        w4 = tensor.transpose(perm + [n + p for p in perm]).reshape(d_a, d_b, d_a, d_b)
        best = max(
            _seesaw_once(
                w4,
                _random_start(
                    d_a, np.random.default_rng(np.random.SeedSequence((seed, part_index, r)))
                ),
                500, 1e-10,
            )[0]
            for r in range(restarts)
        )
        out.setdefault(min(len(part_a), n - len(part_a)), []).append(best)
    return out


def contracted_scan(state, plane, thetas):
    """Oracle: tr((cos(t) A + sin(t) Z)^xN rho) by contracting the 4^N
    density tensor with the single-qubit operator one qubit at a time,
    at every angle; A is X for 'xz' and Y for 'yz'."""
    first = PAULI["X"] if plane == "xz" else PAULI["Y"]
    n = state.num_qubits
    if isinstance(state, QubitPureState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix
    out = []
    for theta in thetas:
        op = np.cos(theta) * first + np.sin(theta) * PAULI["Z"]
        tensor = rho.reshape([2] * (2 * n))
        for q in range(n):
            tensor = np.moveaxis(np.tensordot(op, tensor, axes=[[1], [q]]), 0, q)
        out.append(np.trace(tensor.reshape(2**n, 2**n)).real)
    return np.array(out)


def test_collective_spin_operator_is_hermitian():
    for axis in "xyz":
        op = collective_spin_operator(4, axis)
        assert_allclose(op, op.conj().T, atol=1e-12)


def _random_pure(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QubitPureState(n, amps / np.linalg.norm(amps), label=f"random_{n}")


MOMENT_STATES = {
    state.label: state
    for state in [dicke(n, k) for n in range(2, 9) for k in range(n + 1)]
    + [ghz(n) for n in range(2, 9)]
    + [w_state(n) for n in range(2, 9)]
    + [_random_pure(4, 5)]
}
MOMENT_STATES["werner_0.7_dicke_8_4"] = werner(8, 0.7, dicke(8, 4))
MOMENT_STATES["dephased_dicke_6_3"] = dephased(dicke(6, 3))


@pytest.mark.parametrize("label", list(MOMENT_STATES))
def test_collective_spin_sq_matches_operator(label):
    state = MOMENT_STATES[label]
    rho = _as_density_matrix(state)
    for axis in "xyz":
        op = collective_spin_operator(state.num_qubits, axis)
        direct = np.trace(rho @ op @ op).real
        assert_allclose(collective_spin_sq(state, axis), direct, rtol=0, atol=1e-10)


@pytest.mark.parametrize("label", list(MOMENT_STATES))
def test_one_read_of_three_settings_keeps_each_axis_bits(label):
    # _SpinMoments reads x, y and z in one outcome_distributions call; each
    # row is the bits of its one-row call, so each moment is too
    state = MOMENT_STATES[label]
    moments = _SpinMoments.read(state)
    assert (moments.jx_sq, moments.jy_sq, moments.jz_sq) == tuple(
        collective_spin_sq(state, axis) for axis in "xyz"
    )


def test_witness_value_matches_operator_trace():
    for n, k, alpha in [(6, 3, 0.0), (6, 3, -3.0), (5, 2, 1.5), (4, 2, 0.0)]:
        psi = dicke(n, k)
        op = witness_operator(n, alpha)
        direct = np.vdot(psi.amplitudes, op @ psi.amplitudes).real
        assert_allclose(witness_value(psi, alpha), direct, atol=1e-10)


def test_ideal_witness_values():
    assert_allclose(witness_value(dicke(6, 3), 0.0), 12.0, atol=1e-9)
    assert_allclose(witness_value(dicke(5, 2), 0.0), 8.5, atol=1e-9)
    assert_allclose(witness_value(dicke(4, 2), 0.0), 6.0, atol=1e-9)
    assert_allclose(witness_value(dicke(4, 1), 0.0), 5.0, atol=1e-9)


def test_half_excited_value_is_alpha_independent():
    # the squeezing term multiplies Jz^2, which vanishes at half filling
    base = witness_value(dicke(6, 3), 0.0)
    for alpha in (-3.0, -1.0, 2.0):
        assert_allclose(witness_value(dicke(6, 3), alpha), base, atol=1e-9)


@pytest.mark.parametrize("n", [4.9, 4.0, True, "4"])
def test_biseparable_bound_refuses_a_non_integer_size(n):
    with pytest.raises(ValueError, match="num_qubits must be an integer"):
        biseparable_bound(n)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), 1e13, -1e13])
def test_biseparable_bound_refuses_an_alpha_beyond_the_limit(alpha):
    # MAX_ALPHA = 1e12 itself is accepted (ORACLE_ALPHAS, the closed form for
    # alpha >= 1); bound_curve refuses through biseparable_bound
    with pytest.raises(ValueError, match="alpha must be finite"):
        biseparable_bound(4, alpha)
    with pytest.raises(ValueError, match="alpha must be finite"):
        bound_curve(4, [0.0, alpha])


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), 1e13, -1e13])
def test_witness_value_and_operator_refuse_an_alpha_beyond_the_limit(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        witness_value(dicke(4, 2), alpha)
    with pytest.raises(ValueError, match="alpha must be finite"):
        witness_operator(4, alpha)


@pytest.mark.parametrize("alpha", [1e12, -1e12])
def test_witness_value_and_operator_accept_the_limit(alpha):
    state = dicke(4, 2)
    value = witness_value(state, alpha)
    dense = np.vdot(state.amplitudes, witness_operator(4, alpha) @ state.amplitudes).real
    assert math.isfinite(value)
    assert_allclose(value, dense, rtol=1e-12)


def test_bound_curve_refuses_a_non_integer_size():
    with pytest.raises(ValueError, match="num_qubits must be an integer"):
        bound_curve(4.2, [0.0])


def test_biseparable_bound_small_case_converges():
    est = biseparable_bound(4, 0.0)
    assert all(c.converged for c in est.classes)
    assert 5.15 <= est.value <= 5.232051 + 1e-6
    assert sum(c.bipartitions for c in est.classes) == 7


@pytest.mark.parametrize("n, alpha", [(4, 0.0), (6, -10.0), (7, -3.0)])
def test_biseparable_bound_does_not_read_its_options(n, alpha):
    # the start set is fixed: no restart count or seed changes a class
    expected = biseparable_bound(n, alpha)
    for restarts in (3, 50, 500):
        assert biseparable_bound(n, alpha, SeeSawOptions(restarts=restarts)) == expected
        assert biseparable_bound(n, alpha, SeeSawOptions(restarts, seed=7)) == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_biseparable_bound_matches_dense_oracle(n):
    # both sides are see-saw maxima stopped at a 1e-10 increment; the slow
    # N=4, alpha=-3, |A|=2 search stops up to ~3e-7 short of its limit 4
    for alpha in (-10.0, -3.0, -1.0, 0.0, 0.5, 3.0):
        oracle = dense_class_maxima(n, alpha, restarts=3)
        est = biseparable_bound(n, alpha)
        assert [c.size for c in est.classes] == sorted(oracle)
        for cls in est.classes:
            assert abs(cls.value - max(oracle[cls.size])) < 1e-6, (n, alpha, cls.size)
            assert cls.bipartitions == len(oracle[cls.size])
        assert est.value == max(c.value for c in est.classes)


ORACLE_ALPHAS = (-1e12, -1e4, -10.0, -3.0, -1.0, 0.0, 0.5, 1.0, 3.0, 1e4)


@pytest.mark.parametrize("n", range(4, 8))
def test_batched_seesaw_matches_per_restart_oracle_exactly(n):
    # the batched search must reproduce the one-restart-at-a-time see-saw
    # bit for bit, including the N=4, alpha=-3 class that stops at max_iter;
    # the |A| = 1 class has no see-saw (see the polar maxima tests below)
    for alpha in ORACLE_ALPHAS:
        for cls in biseparable_bound(n, alpha).classes[1:]:
            expected = per_restart_class_search(n, cls.size, alpha)
            got = (cls.value, cls.iterations, cls.converged,
                   cls.sectors_searched, cls.sectors_skipped)
            assert got == expected, (n, alpha, cls.size)
    if n == 4:
        slow = biseparable_bound(4, -3.0).classes[1]
        assert not slow.converged and slow.iterations == 500


def fine_grid_maximum(w4, points=10_001):
    """Oracle: max over ``points`` polar angles in [0, pi/2] of the top
    eigenvalue left to side B when side A, one qubit, is cos(t/2)|0> +
    sin(t/2)|1>, contracted as the see-saw does; the ends use the exact
    amplitudes (1, 0) and (sqrt(1/2), sqrt(1/2))."""
    half = np.linspace(0.0, np.pi / 4, points)
    psi = np.stack([np.cos(half), np.sin(half)], axis=1)
    psi[0] = (1.0, 0.0)
    psi[-1] = np.sqrt(0.5)
    m_b = np.einsum("ajbk,ra,rb->rjk", w4, psi, psi)
    return np.linalg.eigvalsh(m_b)[:, -1].max()


@functools.lru_cache(maxsize=None)
def sector_grid_maximum(d_b, alpha):
    """``fine_grid_maximum`` of the (2, d_b) sector witness, shared by the
    tests below: the sector does not depend on N."""
    return fine_grid_maximum(_sector_witness(2, d_b, alpha))


@pytest.mark.parametrize("n", range(2, 8))
def test_single_qubit_class_matches_per_restart_oracle(n):
    # the |A| = 1 class is a one-dimensional maximum over side A's polar
    # angle: it agrees with the see-saw from every polar start, never falls
    # below it, visits and skips the same sectors, and reaches the maximum
    # of a 10,001-point angle grid over every sector
    for alpha in ORACLE_ALPHAS:
        grid = max(sector_grid_maximum(d_b, alpha) for d_b in range(n, 0, -2))
        cls = biseparable_bound(n, alpha).classes[0]
        value, _, _, searched, skipped = per_restart_class_search(n, 1, alpha)
        assert cls.size == 1 and cls.converged, (n, alpha)
        assert (cls.sectors_searched, cls.sectors_skipped) == (searched, skipped)
        assert cls.value == pytest.approx(value, rel=1e-9), (n, alpha)
        assert cls.value >= value - 1e-12 * abs(value), (n, alpha)
        assert cls.value >= grid - 1e-12 * abs(grid), (n, alpha)


def test_sector_top_matches_eigvalsh():
    eps = np.finfo(float).eps
    for d_a, d_b in itertools.product(range(1, 12), repeat=2):
        for alpha in ORACLE_ALPHAS:
            w = _sector_witness(d_a, d_b, alpha).reshape(d_a * d_b, -1)
            top = np.linalg.eigvalsh(w)[-1]
            tol = d_a * d_b * eps * np.abs(w).max()
            assert abs(_sector_top(d_a, d_b, alpha) - top) <= tol, (d_a, d_b, alpha)


@pytest.mark.parametrize("alpha", [-1e12, -10.0, -3.0, 0.0, 3.0, 1e4])
def test_closed_form_skip_visits_the_sectors_of_the_eigvalsh_rule(alpha, monkeypatch):
    # the search builds a sector witness only for the pairs it searches;
    # replay each class with the eigvalsh skip rule and the same searches
    n = 8
    built = []

    def recording_sector_witness(d_a, d_b, alpha):
        built.append((d_a, d_b))
        return _sector_witness(d_a, d_b, alpha)

    monkeypatch.setattr("dickesim.witness._sector_witness", recording_sector_witness)
    for size in range(1, n // 2 + 1):
        built.clear()
        got = _search_size_class(n, size, alpha)
        best, visited = -np.inf, []
        for d_a, d_b in itertools.product(range(size + 1, 0, -2), range(n - size + 1, 0, -2)):
            w4 = _sector_witness(d_a, d_b, alpha)
            if visited and np.linalg.eigvalsh(w4.reshape(d_a * d_b, -1))[-1] <= best:
                continue
            visited.append((d_a, d_b))
            if size == 1:
                values = _polar_maxima(w4)[0]
            else:
                values = _seesaw(w4, _polar_starts(d_a, POLAR_STARTS))[0]
            best = max(best, float(values.max()))
        assert built == visited, (size, built, visited)
        assert (got.sectors_searched, got.value) == (len(visited), best)
        assert got.sectors_skipped == (size // 2 + 1) * ((n - size) // 2 + 1) - len(visited)


def test_cached_spin_matrices_are_read_only():
    assert _spin_matrices(4) is _spin_matrices(4)
    for op in _spin_matrices(4):
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


@pytest.mark.parametrize("d_b", range(1, 11))
def test_polar_maxima_reach_a_fine_grid_in_every_sector(d_b):
    # every side-B sector up to N=10, searched or skipped, on alphas where
    # some sectors peak inside (0, pi/2) (-3.1623, -2.2) as well as at the ends
    for alpha in (-1e12, -10.0, -3.1623, -3.0, -2.2, -1.0, 0.0, 0.999, 1.0, 3.0):
        w4 = _sector_witness(2, d_b, alpha)
        values, iterations, converged = _polar_maxima(w4)
        grid = sector_grid_maximum(d_b, alpha)
        assert converged.all() and iterations.max() <= 8, alpha
        if alpha == 1.0:
            # W = J^2 leaves f constant: no candidate bisects on rounding
            assert (iterations == 1).all()
        assert values.max() >= grid - 1e-12 * abs(grid), alpha
        # a value is the top eigenvalue at an angle it evaluated, so it is
        # attained: never above the unconstrained top eigenvalue
        top = np.linalg.eigvalsh(w4.reshape(2 * d_b, -1))[-1]
        assert values.max() <= top + 1e-12 * abs(top), alpha


def test_polar_maxima_refine_an_interior_peak():
    # N=4, alpha=-2.2, |A| = 1 in the spin-3/2 sector: the maximum lies
    # near theta = 0.77, above both ends, and Newton steps reach it
    w4 = _sector_witness(2, 4, -2.2)
    values, iterations, converged = _polar_maxima(w4)
    best = int(np.argmax(values))
    grid = sector_grid_maximum(4, -2.2)
    assert values[best] > fine_grid_maximum(w4, points=2) + 1e-3  # both ends
    assert values[best] >= grid - 1e-12 * abs(grid)
    assert converged[best] and 1 < iterations[best] <= 10


def test_polar_maxima_build_both_ends_exactly():
    # next to entries near 1e12, cos(pi/2) = 6e-17 and the rounding of
    # M0 + Mc against W00 each move the top eigenvalue by about 1e-5; no
    # sector witness has a non-integer maximum there, so two hand-built
    # ones do, one peaking at the pole and one at the equator
    big, top = 1.3e12, math.e
    pole = np.zeros((2, 2, 2, 2))
    pole[0, :, 0, :] = np.diag([top, -big])
    pole[1, :, 1, :] = np.diag([-big, -big])
    equator = np.zeros((2, 2, 2, 2))
    equator[0, :, 0, :] = np.diag([-big, -big])
    equator[1, :, 1, :] = np.diag([big, -big])
    equator[0, :, 1, :] = equator[1, :, 0, :] = np.diag([top, 0.0])
    for w4 in (pole, equator):
        values, _, converged = _polar_maxima(w4)
        assert values.max() == top and converged.all()


@pytest.mark.parametrize("n", range(2, 8))
def test_polar_starts_never_fall_below_random_starts(n):
    # the fixed polar starts reach every class maximum that seeded Gaussian
    # starts find (two starts, the pole and the equator, would stop the 3|3
    # class at N=6, alpha=-10 at 4.28 where its maximum is 7)
    for alpha in (-1e4, -10.0, -3.0, -1.0, 0.0, 0.5, 0.999, 1.0, 10.0):
        oracle = random_start_class_maxima(n, alpha, restarts=10)
        for cls in biseparable_bound(n, alpha).classes:
            want = oracle[cls.size]
            # a converged value stops within about one stopping increment
            # of its limit; the N=4, alpha=-3, |A|=2 class stops at
            # MAX_ITER about 5e-7 short of 4
            tol = SEESAW_TOL if cls.converged else 1e-6
            assert cls.value >= want - tol * max(1.0, abs(want)), (n, alpha, cls.size)


def test_polar_starts_are_spin_coherent_states():
    thetas = np.linspace(0.0, np.pi / 2, 7)
    for dim in (1, 2, 3, 6, 11):
        jx, _, jz = _spin_matrices(dim)
        j = (dim - 1) / 2.0
        starts = _polar_starts(dim, len(thetas))
        assert starts.shape == (7, dim)
        for theta, psi in zip(thetas, starts):
            assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-12)
            spin = np.sin(theta) * jx + np.cos(theta) * jz
            assert_allclose(spin @ psi, j * psi, atol=1e-12)
        # the pole is |m = j>
        assert_allclose(starts[0], np.eye(dim)[0], atol=0)


# a cell of the certificate below closes once its upper value is within
# this fraction of the best value attained: half the 1e-9 its test asserts,
# so a class value a little below the best cell value still passes
CERTIFY_RTOL = 5e-10
CERTIFY_LEVELS = 40
_CORNERS = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])


def _side_operators(dim, alpha):
    """(W, J_x, J_z) of one spin-(dim - 1)/2 sector, real; W = J^2 +
    (alpha - 1) J_z^2 is diagonal in the m basis."""
    jx, _, jz = _spin_matrices(dim)
    j, m = (dim - 1) / 2.0, np.diag(jz)
    return np.diag(j * (j + 1) + (alpha - 1.0) * m * m), jx.real, jz


def certified_sector_maximum(d_s, d_g, alpha, best):
    """Oracle: (best, upper, closed) bracketing max <W(alpha)> over product
    states of the sector pair of dimensions d_s <= d_g, by branch and bound
    over the mean spin of the smaller side S (G. Toth et al., New J. Phys.
    11, 083002 (2009)).  ``best`` is a value attained before, or -inf.

    On a product state, <W> = <W_S> + <W_G> + 2 sum_i w_i <J_Si> <J_Gi>
    with w = (1, 1, alpha).  A joint z rotation and the joint pi rotation
    about x bring S's mean spin to s = (s_x, 0, s_z) with s_x, s_z >= 0 and
    |s| <= j_S, so the maximum is that of f(s) + g(s) over the box
    [0, j_S]^2, with f(s) the largest <W_S> at mean spin s and g(s) =
    lambda_max(W_G + 2 s_x J_Gx + 2 alpha s_z J_Gz), convex in s.  A cell
    with centre c takes G's top eigenvector phi there and t = (2 <J_Gx>,
    2 alpha <J_Gz>), the gradient of g at c.  With h(t) = lambda_max(W_S +
    t_x J_Sx + t_z J_Sz) and its top eigenvector psi, psi (x) phi attains
    L = h(t) + g(c) - t.c (both are real, so <J_y> = 0 on each side).
    Weak duality gives f(s) <= h(t') - t'.s for every t', and g(s) - t'.s
    is convex, so largest at a corner v of the cell: no state with s in
    the cell exceeds U = h(t') + max_v (g(v) - t'.v), plus a rounding
    margin.  U takes the smaller of t' = t and t' = t + c - <J_S>_psi, one
    gradient step on the dual h(t') - t'.c; the step is what closes cells
    where f falls off linearly but g is flat, as along s_z at alpha = -10.
    A cell with U within ``CERTIFY_RTOL`` of the best L closes, the others
    split in four, and cells outside the disk |s| <= j_S are dropped.
    ``upper`` is the largest U of the closed cells, and of the open ones
    when ``CERTIFY_LEVELS`` levels do not close them all (``closed`` False).
    """
    w_s, jx_s, jz_s = _side_operators(d_s, alpha)
    w_g, jx_g, jz_g = _side_operators(d_g, alpha)
    j_s = (d_s - 1) / 2.0
    scale = np.abs(w_s).max() + np.abs(w_g).max() + 2.0 * (1.0 + abs(alpha)) * j_s * (d_g - 1)
    margin = 8 * (d_s + d_g) * np.finfo(float).eps * scale

    def stack(w, jx, jz, t):
        """w + t_x jx + t_z jz, one matrix per row of t."""
        return w + t[:, :1, None] * jx + t[:, 1:, None] * jz

    def top(w, jx, jz, t):
        """lambda_max of ``stack`` and its eigenvector's (<jx>, <jz>)."""
        vals, vecs = np.linalg.eigh(stack(w, jx, jz, t))
        v = vecs[:, :, -1]
        return vals[:, -1], np.stack([np.einsum("ri,ij,rj->r", v, op, v) for op in (jx, jz)], 1)

    to_t = np.array([2.0, 2.0 * alpha])
    cells = np.zeros((1, 2), dtype=np.int64)  # lower corners, in cell widths
    upper = -np.inf
    for level in range(CERTIFY_LEVELS):
        width = j_s / 2**level
        cells = cells[np.hypot(*(cells * width).T) <= j_s]
        if not len(cells):
            return best, upper, True
        centres = (cells + 0.5) * width
        g_c, spin_g = top(w_g, jx_g, jz_g, centres * to_t)
        t = spin_g * to_t
        h, spin_s = top(w_s, jx_s, jz_s, t)
        best = max(best, (h + g_c - (t * centres).sum(1)).max())
        corners = (cells[:, None, :] + _CORNERS) * width
        points, index = np.unique(corners.reshape(-1, 2), axis=0, return_inverse=True)
        g_v = np.linalg.eigvalsh(stack(w_g, jx_g, jz_g, points * to_t))[:, -1]
        g_v = g_v[index].reshape(-1, 4)
        step = t + centres - spin_s
        u = margin + np.minimum(
            h + (g_v - (corners * t[:, None, :]).sum(2)).max(1),
            top(w_s, jx_s, jz_s, step)[0] + (g_v - (corners * step[:, None, :]).sum(2)).max(1),
        )
        done = u - margin <= best + CERTIFY_RTOL * abs(best)
        upper = max(upper, u[done].max(initial=-np.inf))
        if done.all():
            return best, upper, True
        cells = (2 * cells[~done, None, :] + _CORNERS).reshape(-1, 2)
    return best, max(upper, u[~done].max()), False


def certified_class_maximum(n, size, alpha):
    """Oracle: (upper, closed) for the |A| = size class: the sector pairs in
    the search's order and with its closed-form skip, each searched pair
    certified, each skipped one bounded by its unconstrained top."""
    best = upper = -np.inf
    closed = True
    for d_a, d_b in itertools.product(range(size + 1, 0, -2), range(n - size + 1, 0, -2)):
        top = _sector_top(d_a, d_b, alpha)
        if top <= best:
            upper = max(upper, top)
            continue
        best, pair_upper, pair_closed = certified_sector_maximum(*sorted((d_a, d_b)), alpha, best)
        upper, closed = max(upper, pair_upper), closed and pair_closed
    return upper, closed


@pytest.mark.parametrize("n", range(4, 11))
def test_seesaw_classes_reach_their_certified_maximum(n):
    # a class value is attained, so it lies below the certified upper bound,
    # and the fixed start set brings it within 1e-9 of that bound; the one
    # unconverged class is N=4, alpha=-3, |A| = 2, which stops at MAX_ITER
    # about 5e-7 short of 4 and is left out
    for alpha in (-10.0, -3.0, -1.0, 0.0, 0.5, 0.9):
        for size in range(2, n // 2 + 1):
            cls = _search_size_class(n, size, alpha)
            if not cls.converged:
                assert (n, alpha, size) == (4, -3.0, 2)
                continue
            upper, closed = certified_class_maximum(n, size, alpha)
            assert closed, (n, alpha, size)
            assert upper - 1e-9 * abs(upper) <= cls.value <= upper, (n, alpha, size, upper)


@pytest.mark.parametrize("n", range(2, 11))
def test_biseparable_bound_closed_form_for_large_alpha(n):
    # for alpha >= 1 the all-up product state is optimal:
    # j(j+1) + (alpha - 1) j^2 with j = N/2
    j = n / 2.0
    for alpha in (1.0, 1.5, 3.0, 1e4, 1e12):
        est = biseparable_bound(n, alpha)
        expected = j * (j + 1) + (alpha - 1) * j * j
        assert est.value == pytest.approx(expected, rel=1e-12, abs=1e-9)
        assert all(c.converged for c in est.classes)


@pytest.mark.parametrize("n", [3, 4])
def test_biseparable_bound_matches_dense_oracle_at_large_negative_alpha(n):
    # W has entries near |alpha| here, so float spacing near its top
    # eigenvalue is far above the 1e-10 stopping increment
    for alpha in (-1e4, -1e12):
        oracle = dense_class_maxima(n, alpha, restarts=3)
        est = biseparable_bound(n, alpha)
        for cls in est.classes:
            assert cls.value == pytest.approx(max(oracle[cls.size]), rel=1e-9), (alpha, cls.size)


def test_bound_curve_returns_alpha_value_pairs():
    alphas = [-1.0, 0.0]
    curve = bound_curve(4, alphas)
    assert [a for a, _ in curve] == alphas
    assert all(v > 0 for _, v in curve)


def test_correlator_scan_closed_form():
    thetas = np.linspace(0.0, np.pi, 25)
    values = correlator_scan(dicke(6, 3), "xz", thetas)
    expected = (3 * np.cos(2 * thetas) + 5 * np.cos(6 * thetas)) / 8.0
    assert_allclose(values, expected, atol=1e-10)
    # yz plane gives the same profile by azimuthal symmetry
    assert_allclose(
        correlator_scan(dicke(6, 3), "yz", thetas), expected, atol=1e-10
    )


def test_correlator_scan_matches_contraction_oracle():
    rng = np.random.default_rng(31)
    cases = {
        "d63": dicke(6, 3),
        "ghz4": ghz(4),
        "w5": w_state(5),
        "dephased d63": dephased(dicke(6, 3)),
        "werner d63": werner(6, 0.6, base=dicke(6, 3)),
    }
    for n in range(1, 6):
        cases[f"random complex {n}"] = random_density(n, rng)
    thetas = np.linspace(-0.3, 2.0 * np.pi, 29)
    for name, state in cases.items():
        for plane in ("xz", "yz"):
            got = correlator_scan(state, plane, thetas)
            assert_allclose(got, contracted_scan(state, plane, thetas), atol=1e-12,
                            err_msg=f"{name} {plane}")
    with pytest.raises(ValueError):
        correlator_scan(dicke(6, 3), "xy", thetas)


def test_dephased_correlator_closed_form():
    thetas = np.linspace(0.0, np.pi, 25)
    noisy = dephased(dicke(6, 3))
    values = correlator_scan(noisy, "xz", thetas)
    assert_allclose(values, -np.sin(thetas) ** 6, atol=1e-10)


def _random_states(n, rng):
    """A random pure state and a random full-rank density, both complex."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = g @ g.conj().T
    return (
        QubitPureState(n, amps / np.linalg.norm(amps), label=f"random_pure_{n}"),
        QubitDensity(n, rho / np.trace(rho).real, label=f"random_density_{n}"),
    )


@pytest.mark.parametrize(
    "state",
    [dicke(6, 3), w_state(5), werner(4, 0.7, base=dicke(4, 1)),
     *_random_states(5, np.random.default_rng(3))],
    ids=lambda s: s.label,
)
def test_dephased_is_the_diagonal_of_the_density_bit_for_bit(state):
    expected = np.diag(_as_density_matrix(state).diagonal().real.astype(complex))
    got = dephased(state).matrix
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_dephased_keeps_populations():
    noisy = dephased(dicke(6, 3))
    assert_allclose(
        np.diag(noisy.matrix),
        np.abs(dicke(6, 3).amplitudes) ** 2,
        atol=1e-12,
    )
    assert_allclose(
        collective_spin_sq(noisy, "z"),
        collective_spin_sq(dicke(6, 3), "z"),
        atol=1e-10,
    )


def test_rotated_ghz_target_from_navigation_unitaries():
    target = rotated_ghz_target(4)
    built = apply_local(ghz(4), ghz_rotation_unitaries(4))
    assert_allclose(fidelity(built, target), 1.0, atol=1e-10)


def test_ghz_witness_detects_only_the_rotated_state():
    assert ghz_witness(rotated_ghz_target(4)) < -0.499
    assert ghz_witness(ghz(4)) > 0.0
