"""Closed-form model of the collinear down-conversion source.

The source emits n photon pairs, one H and one V photon each, into a
single input mode with probability proportional to lam^(2n), up to
``max_order`` pairs.  A splitter spreads that mode evenly over six arms:
a photon enters arm j with amplitude u_j = 1/sqrt(6).  Written out, the
n-pair term is

    (lam^n / norm) n! sum_{h, v} prod_j u_j^(h_j + v_j) / sqrt(h_j! v_j!) |h, v>

over H and V arm occupations h, v with sum h = sum v = n.  Nothing
stores these amplitudes: each quantity the detectors read is a sum over
them in closed form.

- ``simulate_experiment`` and ``calibrate``: per-polarization loss with
  exact one-photon-per-arm selection, whose selected state is a mixture
  of six-qubit Dicke states, and the sixfold threshold-detector event
  probability in the H/V basis, a sum of seven products of power series
  in one variable (H photons or V photons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .dicke_states import dicke
from .states import _POPCOUNT, QubitDensity, _is_integer

N_SPATIAL = 6
# largest pair order SpdcConfig keeps
MAX_ORDER = 7
# the even splitter seen from the pumped input mode: a photon reaches each
# arm with amplitude 1/sqrt(6).  The sixfold event series in
# ``_sixfold_stats`` takes |u_j|^2 from arm 0 for every arm, so it relies on
# the arms being equal.
ARM_AMPLITUDES = np.full(N_SPATIAL, 1.0 / math.sqrt(N_SPATIAL))
ARM_AMPLITUDES.flags.writeable = False
# the Dicke block w that holds entry (i, j) of a six-qubit matrix,
# popcount(i) = popcount(j) = w, or N_SPATIAL + 1 off the blocks; and
# d_w d_w, the block's entry of |D(6, w)><D(6, w)|
_SPATIAL_POPCOUNT = _POPCOUNT[: 2**N_SPATIAL]
_DICKE_BLOCK = np.where(
    _SPATIAL_POPCOUNT[:, None] == _SPATIAL_POPCOUNT, _SPATIAL_POPCOUNT[:, None], N_SPATIAL + 1
)
_DICKE_SQUARES = np.array(
    [d * d for d in (dicke(N_SPATIAL, w).amplitudes.real.max() for w in range(N_SPATIAL + 1))]
)


class NoSixfoldEventsError(RuntimeError):
    """Raised when post-selection keeps zero probability."""


# ---------------------------------------------------------------------------
# Source


@dataclass(frozen=True)
class SpdcConfig:
    lam: float
    max_order: int = 4

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lambda must be in [0, 1), got {self.lam}")
        if not _is_integer(self.max_order) or not 1 <= self.max_order <= MAX_ORDER:
            raise ValueError(
                f"max_order must be an integer in [1, {MAX_ORDER}], got {self.max_order!r}"
            )


@dataclass(frozen=True)
class LossConfig:
    eta_h: float = 1.0
    eta_v: float = 1.0

    def __post_init__(self):
        for name, eta in (("eta_H", self.eta_h), ("eta_V", self.eta_v)):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {eta}")


def order_weight(config: SpdcConfig, pairs: int) -> float:
    """Probability weight of the n-pair component of the truncated source."""
    total = sum(config.lam ** (2 * n) for n in range(config.max_order + 1))
    if pairs > config.max_order:
        return 0.0
    return config.lam ** (2 * pairs) / total


# ---------------------------------------------------------------------------
# Full pipeline and calibration


@dataclass(frozen=True)
class SimulationResult:
    rho_sim: QubitDensity
    fidelity_vs_d63: float
    p_exact: float
    p_exact_per_pulse: float
    p_event: float
    spdc: SpdcConfig
    loss: LossConfig

    def report(self) -> dict:
        return {
            "p_event": self.p_event,
            "p_exact": self.p_exact,
            "p_exact_per_pulse": self.p_exact_per_pulse,
            "fidelity_vs_D63": self.fidelity_vs_d63,
            "lambda": self.spdc.lam,
            "max_order": self.spdc.max_order,
            "eta_H": self.loss.eta_h,
            "eta_V": self.loss.eta_v,
        }


def simulate_experiment(spdc: SpdcConfig, loss: LossConfig | None = None) -> SimulationResult:
    """Compose source, splitter and loss with exact one-photon-per-arm
    selection, and the H/V sixfold threshold event probability.

    ``p_exact`` is the exact one-photon-per-mode probability normalized
    per three-pair emission (so the lossless max_order=3 pipeline gives
    5/324 regardless of lambda); ``p_exact_per_pulse`` is the same event
    probability per source pulse, and ``p_event`` is the per-pulse
    threshold-detector sixfold probability monitored in the H/V basis.
    Zero kept probability raises :class:`NoSixfoldEventsError`.
    """
    loss = loss or LossConfig()
    (dicke_weights,), (stats,) = _sixfold_stats(spdc, [loss.eta_h], [loss.eta_v])
    if stats is None:
        raise NoSixfoldEventsError("post-selection kept zero probability")
    return SimulationResult(
        rho_sim=_dicke_mixture(dicke_weights, stats["p_exact_per_pulse"]),
        fidelity_vs_d63=stats["fidelity"],
        p_exact=stats["p_exact"],
        p_exact_per_pulse=stats["p_exact_per_pulse"],
        p_event=stats["p_event"],
        spdc=spdc,
        loss=loss,
    )


def _dicke_mixture(dicke_weights: np.ndarray, p_raw: float) -> QubitDensity:
    """sum_w P_w |D(6, w)><D(6, w)| / p_raw, filled block by block.

    D(6, w) is d_w on the indices of popcount w, so its projector is the
    constant d_w d_w on the block popcount(i) = popcount(j) = w.  The
    blocks are disjoint, so each entry is the (P_w (d_w d_w)) / p_raw that
    the sum of outer products gives, and every entry off the blocks is 0.
    """
    values = np.append(dicke_weights * _DICKE_SQUARES / p_raw, 0.0)
    # Dicke projectors weighted by the nonnegative P_w, over their sum p_raw
    return QubitDensity._trusted(N_SPATIAL, values.astype(complex)[_DICKE_BLOCK])


def _float_powers(bases: np.ndarray, top: int) -> np.ndarray:
    """bases[..., None] ** k for k = 0 to ``top``, each by ``float.__pow__``:
    numpy's ``power`` can differ from it in the last bit."""
    powers = [[base**k for k in range(top + 1)] for base in bases.ravel().tolist()]
    return np.array(powers).reshape(*bases.shape, top + 1)


def _sixfold_stats(spdc: SpdcConfig, eta_h, eta_v) -> tuple[np.ndarray, list]:
    """Loss, exact one-photon-per-arm selection and the z-basis threshold
    event probability of the source behind the splitter, u = ARM_AMPLITUDES,
    at P loss points (eta_h[p], eta_v[p]) stacked into one computation.

    Returns the (P, 7) weights P_w of each point's selected Dicke mixture,
    w = 0 to 6 V photons, and for each point the scalar statistics that
    ``calibrate`` records, or None where post-selection keeps less than
    1e-30 (no sixfold events).

    Selection.  A loss branch is fixed by the photons lost from each arm,
    l_j^H and l_j^V.  Keeping one photon per arm, H or V as bit b_j of
    the outcome says, the source amplitude times the loss amplitudes
    sqrt(C(k, lost) eta^kept (1 - eta)^lost) reduces to

        (lam^n n! / norm) prod_j u_j^(l_j^H + l_j^V + 1) / sqrt(l_j^H! l_j^V!)
            * sqrt((1 - eta_H)^a (1 - eta_V)^b) * prod_j sqrt(eta_(b_j)),

    with a = sum_j l_j^H and b = sum_j l_j^V, on every outcome with
    w = n - b V photons.  Each branch is therefore the Dicke state
    D(6, w) for any arm amplitudes u, and the multinomial theorem over
    the lost photons (sum_j |u_j|^2 = 1) gives the branches with w V
    photons the total weight

        P_w = prod_j |u_j|^2 C(6, w) eta_H^(6 - w) eta_V^w
              sum_n W_n (1 - eta_H)^a (1 - eta_V)^b / (a! b!),

    with a = n - 6 + w, b = n - w and W_n = ``order_weight(spdc, n)`` n!^2 =
    (lam^n n! / norm)^2, the squared prefactor of the n-pair term.

    Threshold events.  An arm holding h H and v V photons clicks on
    exactly one detector with probability
    f(h, v) = (1 - m_H^h) m_V^v + m_H^h (1 - m_V^v), m_p = 1 - eta_p, so
    with c = |u_j|^2, the same for every arm,

        p_event = sum_n W_n [x^n y^n] F^6,
        F = sum_{h, v} c^(h + v) f(h, v) x^h y^v / (h! v!) = a b' + a' b,

    where a = sum_h (1 - m_H^h) c^h x^h / h! (H clicks),
    a' = sum_h m_H^h c^h x^h / h! (H dark) and b, b' are the V
    analogues in y.  The binomial theorem separates the two variables:

        [x^n y^n] F^6 = sum_m C(6, m) [x^n] a^m a'^(6 - m) [y^n] b'^m b^(6 - m).

    The seven terms of every point are built as one (P, 2, 7, K) stack of
    rows, K = max_order + 1, in six steps, each step multiplying every
    row by the lower-triangular Toeplitz (truncated-product) matrix of
    one of its point's four series, taken from a (P, 4, K, K) stack.
    Every coefficient stays nonnegative; expanding a = e^(cx) - a' would
    instead cancel terms of alternating sign as eta_H -> 0.

    Stacking.  Each point gets the bits of the same computation done for
    it alone: the powers of eta and 1 - eta in P_w are taken by
    ``float.__pow__``, the dark series by numpy's ``power`` as one array,
    and every sum runs left to right (``np.cumsum``), with the n terms
    that P_w lacks padded by exact zeros.

    ``test_simulation_matches_loss_branch_oracle`` checks both against
    post-selection of the full loss-branch mixture of the Fock-space
    state, ``test_event_series_matches_the_arm_by_arm_product`` checks
    p_event against F^6 multiplied out one arm at a time in two
    variables, and ``test_stack_matches_the_one_point_oracle`` checks
    every value against the one-point computation with ``==``.
    """
    order = spdc.max_order
    photons = np.arange(order + 1)
    weights = np.array([order_weight(spdc, n) * factorial(n) ** 2 for n in range(order + 1)])
    c = np.abs(ARM_AMPLITUDES) ** 2
    one_per_arm = float(np.prod(c))
    eta = np.array([eta_h, eta_v], dtype=float)
    miss = 1.0 - eta
    fact = np.array([float(factorial(k)) for k in photons])
    # the (7, K) table of P_w's term of n pairs, which loses a = n - 6 + w H
    # and b = n - w V photons; where a or b is negative the term does not
    # exist and is an exact zero, always before the first term that does
    v_photons = np.arange(N_SPATIAL + 1)
    lost_h = photons - N_SPATIAL + v_photons[:, None]
    lost_v = photons - v_photons[:, None]
    exists = (lost_h >= 0) & (lost_v >= 0)
    lost_h, lost_v = np.where(exists, lost_h, 0), np.where(exists, lost_v, 0)
    miss_powers, eta_powers = _float_powers(miss, order), _float_powers(eta, N_SPATIAL)
    terms = (
        weights * miss_powers[0][:, lost_h] * miss_powers[1][:, lost_v]
        / (fact[lost_h] * fact[lost_v])
    )
    lost = np.cumsum(np.where(exists, terms, 0.0), axis=-1)[..., -1]
    prefactors = np.array([one_per_arm * comb(N_SPATIAL, w) for w in v_photons.tolist()])
    dicke_weights = (
        prefactors * eta_powers[0][:, N_SPATIAL - v_photons] * eta_powers[1][:, v_photons] * lost
    )
    p_raw = np.cumsum(dicke_weights, axis=-1)[:, -1]
    # every arm holds the same c, so one set of series serves all six
    grow = c[0] ** photons * (1.0 / fact)
    dark_h, dark_v = miss[:, :, None] ** photons
    series = np.stack(
        [(1.0 - dark_h) * grow, dark_v * grow, dark_h * grow, (1.0 - dark_v) * grow], axis=1
    )
    # row @ toeplitz[p, k] is the row's series times point p's series k
    # (a, b', a', b), truncated after x^order
    lag = photons[None, :] - photons[:, None]
    toeplitz = np.where(lag >= 0, series[:, :, lag], 0.0)
    # rows[p, 0, m] ends as a^m a'^(6 - m), rows[p, 1, m] as b'^m b^(6 - m)
    rows = np.zeros((len(p_raw), 2, N_SPATIAL + 1, order + 1))
    rows[..., 0] = 1.0
    m = np.arange(N_SPATIAL + 1)[:, None]
    for step in range(N_SPATIAL):
        rows = np.where(m > step, rows @ toeplitz[:, :2], rows @ toeplitz[:, 2:])
    binomials = np.array([comb(N_SPATIAL, k) for k in range(N_SPATIAL + 1)], dtype=float)
    diagonal = binomials @ (rows[:, 0] * rows[:, 1])
    p_event = np.cumsum(weights * diagonal, axis=-1)[:, -1]
    per_three = order_weight(spdc, 3)
    stats = [
        None if raw < 1e-30 else {
            # the Dicke states are orthonormal, so the overlap with D(6, 3) is P_3
            "fidelity": w3 / raw,
            "p_exact": raw / per_three,
            "p_exact_per_pulse": raw,
            "p_event": event,
        }
        for w3, raw, event in zip(dicke_weights[:, 3].tolist(), p_raw.tolist(), p_event.tolist())
    ]
    return dicke_weights, stats


def calibrate(lambdas, etas, max_order: int = 4) -> list[dict]:
    """Sweep (lambda, eta) and record fidelity and event statistics.

    Loss is applied symmetrically (eta_H = eta_V = eta).  Each lambda is
    one ``_sixfold_stats`` call with every eta stacked as a loss point;
    points whose post-selection keeps no sixfold events are left out.
    Records are plain dicts ready for JSON; nothing is cached or
    hardcoded, rerunning the sweep regenerates every value.
    """
    etas = [LossConfig(eta_h=float(eta), eta_v=float(eta)).eta_h for eta in etas]
    records = []
    for lam in lambdas:
        spdc = SpdcConfig(lam=float(lam), max_order=max_order)
        _, stats = _sixfold_stats(spdc, etas, etas)
        records += [
            {"lambda": spdc.lam, "eta_H": eta, "eta_V": eta, "max_order": max_order, **point}
            for eta, point in zip(etas, stats)
            if point is not None
        ]
    return records


def pick_calibration(records, target_fidelity: float = 0.61) -> dict:
    """Record whose fidelity lies closest to the requested target."""
    if not records:
        raise ValueError("no calibration records to choose from")
    return min(records, key=lambda r: abs(r["fidelity"] - target_fidelity))
