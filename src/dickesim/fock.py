"""Fock-space model of the collinear down-conversion source.

Twelve bosonic modes: six spatial modes times two polarizations, flat
index 2*j + p with p = 0 for H and p = 1 for V.  Occupation vectors are
packed into a single integer, 4 bits per mode, so per-mode occupancy must
stay below 16; dictionaries map packed occupations to complex amplitudes.

Pipeline: spdc_state -> propagate (symmetric splitter) -> restricted
sixfold selection: per-polarization loss enumerated only over the
patterns that leave exactly one photon per spatial mode, together with
the z-basis threshold-detector event probability.  threshold_counts
gives the per-basis threshold-detector distribution of a ket.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .dicke_states import dicke
from .states import MeasurementSetting, QubitDensity, fidelity

N_SPATIAL = 6
N_MODES = 2 * N_SPATIAL
MODE_BITS = 4
MODE_MASK = (1 << MODE_BITS) - 1
MAX_PER_MODE = MODE_MASK
PRUNE_TOL = 1e-14
UNITARY_TOL = 1e-10

_SQRT_FACT = [math.sqrt(factorial(k)) for k in range(MAX_PER_MODE + 1)]


class NoSixfoldEventsError(RuntimeError):
    """Raised when post-selection keeps zero probability."""


def pack_occupation(occ) -> int:
    key = 0
    for mode, count in enumerate(occ):
        if count < 0 or count > MAX_PER_MODE:
            raise ValueError(f"mode occupancy {count} outside [0, {MAX_PER_MODE}]")
        key |= int(count) << (MODE_BITS * mode)
    return key


def unpack_occupation(key: int) -> tuple[int, ...]:
    return tuple((key >> (MODE_BITS * mode)) & MODE_MASK for mode in range(N_MODES))


def _total_photons(key: int) -> int:
    total = 0
    while key:
        total += key & MODE_MASK
        key >>= MODE_BITS
    return total


class FockKet:
    """Sparse pure state over the 12 optical modes."""

    def __init__(self, amplitudes, photon_cap: int = MAX_PER_MODE, normalize: bool = False):
        packed: dict[int, complex] = {}
        for occ, amp in dict(amplitudes).items():
            key = occ if isinstance(occ, int) else pack_occupation(occ)
            if _total_photons(key) > photon_cap:
                raise ValueError(f"occupation {unpack_occupation(key)} exceeds photon cap {photon_cap}")
            packed[key] = packed.get(key, 0.0) + complex(amp)
        norm = math.sqrt(sum(abs(a) ** 2 for a in packed.values()))
        if normalize:
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            packed = {k: a / norm for k, a in packed.items()}
        elif abs(norm - 1.0) > 1e-9:
            raise ValueError(f"ket norm {norm} deviates from 1 beyond 1e-9")
        self._packed = packed
        self.photon_cap = int(photon_cap)

    @classmethod
    def _from_packed(cls, packed: dict, photon_cap: int) -> "FockKet":
        obj = cls.__new__(cls)
        obj._packed = packed
        obj.photon_cap = photon_cap
        return obj

    def items(self):
        """Iterate (occupation tuple, amplitude)."""
        for key, amp in self._packed.items():
            yield unpack_occupation(key), amp

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self._packed.values()))

    @property
    def support_size(self) -> int:
        return len(self._packed)

    def __repr__(self):
        return f"<FockKet support={self.support_size} cap={self.photon_cap}>"


# ---------------------------------------------------------------------------
# Source and network


@dataclass(frozen=True)
class SpdcConfig:
    lam: float
    max_order: int = 4

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lambda must be in [0, 1), got {self.lam}")
        if not 1 <= self.max_order <= 7:
            raise ValueError(f"max_order must be in [1, 7], got {self.max_order}")


@dataclass(frozen=True)
class LossConfig:
    eta_h: float = 1.0
    eta_v: float = 1.0

    def __post_init__(self):
        for name, eta in (("eta_H", self.eta_h), ("eta_V", self.eta_v)):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {eta}")

    def flat(self) -> tuple[float, ...]:
        return (self.eta_h, self.eta_v) * N_SPATIAL


def spdc_state(config: SpdcConfig) -> FockKet:
    """Truncated collinear two-mode squeezed state sum_n lam^n |n, n>."""
    amps = {}
    for n in range(config.max_order + 1):
        occ = [0] * N_MODES
        occ[0] = occ[1] = n
        amps[tuple(occ)] = config.lam**n
    return FockKet(amps, photon_cap=2 * config.max_order, normalize=True)


def order_weight(config: SpdcConfig, pairs: int) -> float:
    """Probability weight of the n-pair component of the truncated source."""
    total = sum(config.lam ** (2 * n) for n in range(config.max_order + 1))
    if pairs > config.max_order:
        return 0.0
    return config.lam ** (2 * pairs) / total


def splitter_network() -> np.ndarray:
    """6x6 unitary distributing the source mode evenly over all outputs.

    First column has every entry 1/sqrt(6); the remaining columns complete
    the unitary by Gram-Schmidt on the standard basis, so the matrix is
    real and reproducible.
    """
    first = np.full(N_SPATIAL, 1.0 / math.sqrt(N_SPATIAL))
    columns = [first]
    k = 0
    while len(columns) < N_SPATIAL:
        v = np.zeros(N_SPATIAL)
        v[k] = 1.0
        k += 1
        for u in columns:
            v = v - (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            columns.append(v / norm)
    u = np.stack(columns, axis=1)
    if np.abs(u @ u.conj().T - np.eye(N_SPATIAL)).max() > UNITARY_TOL:
        raise AssertionError("splitter construction lost unitarity")
    return u


def _check_network_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (N_SPATIAL, N_SPATIAL):
        raise ValueError(f"network unitary must be {N_SPATIAL}x{N_SPATIAL}")
    if np.abs(u @ u.conj().T - np.eye(N_SPATIAL)).max() > UNITARY_TOL:
        raise ValueError("network matrix is not unitary within 1e-10")
    return u


def _power_expansion(targets, count: int):
    """Expand (sum_t c_t b_t^dag)^count into packed monomials.

    Returns [(packed_delta, coefficient)] with multinomial weights; the
    bosonic sqrt(n!) factors are applied by the caller.
    """
    out = []
    indices = range(len(targets))
    for multiset in itertools.combinations_with_replacement(indices, count):
        mult: dict[int, int] = {}
        for i in multiset:
            mult[i] = mult.get(i, 0) + 1
        coeff = float(factorial(count))
        delta = 0
        value = 1.0 + 0.0j
        for i, k in mult.items():
            coeff /= factorial(k)
            mode, c = targets[i]
            value *= c**k
            delta |= k << (MODE_BITS * mode)
        out.append((delta, coeff * value))
    return out


def _substitute(ket: FockKet, subs) -> FockKet:
    """Rewrite each creation operator b_m^dag as sum_t subs[m] terms.

    ``subs`` maps every flat mode to a list of (target mode, coefficient);
    the substitution must be unitary for norms to be preserved (checked by
    the callers, not here).
    """
    out: dict[int, complex] = {}
    expansions: dict[tuple[int, int], list] = {}
    for key, amp in ket._packed.items():
        occ = unpack_occupation(key)
        coeff = amp
        for count in occ:
            coeff /= _SQRT_FACT[count]
        poly = {0: coeff}
        for mode, count in enumerate(occ):
            if count == 0:
                continue
            cache_key = (mode, count)
            expansion = expansions.get(cache_key)
            if expansion is None:
                targets = [(t, c) for t, c in subs[mode] if abs(c) > 1e-15]
                expansion = _power_expansion(targets, count)
                expansions[cache_key] = expansion
            new: dict[int, complex] = {}
            for base, base_coeff in poly.items():
                for delta, delta_coeff in expansion:
                    k2 = base + delta
                    new[k2] = new.get(k2, 0.0) + base_coeff * delta_coeff
            poly = new
        for k2, c2 in poly.items():
            value = c2
            rem = k2
            while rem:
                value *= _SQRT_FACT[rem & MODE_MASK]
                rem >>= MODE_BITS
            out[k2] = out.get(k2, 0.0) + value
    kept = {k: v for k, v in out.items() if abs(v) > PRUNE_TOL}
    return FockKet._from_packed(kept, ket.photon_cap)


def propagate(ket: FockKet, network: np.ndarray) -> FockKet:
    """Scatter spatial modes through the network, polarization preserved."""
    u = _check_network_unitary(network)
    subs = {}
    for j in range(N_SPATIAL):
        for p in (0, 1):
            subs[2 * j + p] = [(2 * i + p, u[i, j]) for i in range(N_SPATIAL)]
    out = _substitute(ket, subs)
    if abs(out.norm() - ket.norm()) > 1e-9:
        raise AssertionError("propagation changed the norm")
    return out


# ---------------------------------------------------------------------------
# Detection


def _rotation_substitution(setting: MeasurementSetting) -> dict:
    subs = {}
    for j in range(N_SPATIAL):
        u = setting.rotation(j)
        for p in (0, 1):
            subs[2 * j + p] = [(2 * j + s, u[s, p]) for s in (0, 1)]
    return subs


def threshold_counts(ket: FockKet, setting: MeasurementSetting) -> tuple[np.ndarray, float]:
    """Threshold-detector outcome distribution in a measurement basis.

    Each spatial mode feeds two threshold detectors through a polarization
    rotation into the setting's basis.  A valid sixfold event has exactly
    one of the two detectors click in every mode; multi-photon bunches on
    one detector still give a single click.  Returns the distribution over
    the 64 outcomes conditioned on a valid event together with the valid
    event probability (all zeros and 0.0 when no event can occur).
    """
    if setting.num_qubits != N_SPATIAL:
        raise ValueError("setting must cover the six spatial modes")
    dim = 2**N_SPATIAL
    probs = np.zeros(dim)
    p_event = 0.0
    # a valid event needs a photon in every spatial mode, and the per-mode
    # totals are invariant under the polarization rotation
    filtered: dict[int, complex] = {}
    for key, amp in ket._packed.items():
        occ = unpack_occupation(key)
        if all(occ[2 * j] + occ[2 * j + 1] >= 1 for j in range(N_SPATIAL)):
            filtered[key] = amp
    rotated = _substitute(
        FockKet._from_packed(filtered, ket.photon_cap), _rotation_substitution(setting)
    )
    for occ, amp in rotated.items():
        index = 0
        valid = True
        for j in range(N_SPATIAL):
            plus, minus = occ[2 * j] > 0, occ[2 * j + 1] > 0
            if plus == minus:
                valid = False
                break
            index |= int(minus) << (N_SPATIAL - 1 - j)
        if valid:
            value = abs(amp) ** 2
            probs[index] += value
            p_event += value
    if p_event <= 0.0:
        return np.zeros(dim), 0.0
    return probs / p_event, float(p_event)


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


def simulate_experiment(
    spdc: SpdcConfig, loss: LossConfig | None = None, network: np.ndarray | None = None
) -> SimulationResult:
    """Compose source, network, loss, and both detection models.

    ``p_exact`` is the exact one-photon-per-mode probability normalized
    per three-pair emission (so the lossless max_order=3 pipeline gives
    5/324 regardless of lambda); ``p_exact_per_pulse`` is the same event
    probability per source pulse, and ``p_event`` is the per-pulse
    threshold-detector sixfold probability monitored in the H/V basis.
    Zero kept probability raises :class:`NoSixfoldEventsError`.
    """
    loss = loss or LossConfig()
    net = splitter_network() if network is None else network
    return _sixfold_stats(propagate(spdc_state(spdc), net), spdc, loss)


def _sixfold_stats(psi: FockKet, spdc: SpdcConfig, loss: LossConfig) -> SimulationResult:
    """Loss and exact one-photon-per-mode selection of the propagated
    source ``psi``, plus the z-basis threshold event probability.

    Each amplitude keeps one photon per spatial mode in every way its
    occupation allows, and loses the rest; loss patterns that cannot
    leave one photon per mode are never enumerated.  Every amplitude
    with a photon in each spatial mode contributes its per-mode
    factorized threshold click probability.  The test
    ``test_simulation_matches_loss_branch_oracle`` checks the result
    against post-selection of the full loss-branch mixture.
    """
    eta = loss.flat()
    dim = 2**N_SPATIAL
    branches: dict[int, np.ndarray] = {}
    p_event = 0.0
    eta_h, eta_v = loss.eta_h, loss.eta_v
    for key, amp in psi._packed.items():
        occ = unpack_occupation(key)
        options = []
        feasible = True
        for j in range(N_SPATIAL):
            slots = []
            if occ[2 * j] >= 1:
                slots.append(0)
            if occ[2 * j + 1] >= 1:
                slots.append(1)
            if not slots:
                feasible = False
                break
            options.append(slots)
        if feasible:
            for bits in itertools.product(*options):
                pattern = 0
                factor = amp
                index = 0
                for j, bit in enumerate(bits):
                    index |= bit << (N_SPATIAL - 1 - j)
                    for p in (0, 1):
                        mode = 2 * j + p
                        kept = 1 if p == bit else 0
                        lost = occ[mode] - kept
                        if lost:
                            pattern |= lost << (MODE_BITS * mode)
                        factor *= math.sqrt(
                            comb(occ[mode], lost)
                            * eta[mode] ** kept
                            * (1.0 - eta[mode]) ** lost
                        )
                if factor != 0.0:
                    vec = branches.get(pattern)
                    if vec is None:
                        vec = branches[pattern] = np.zeros(dim, dtype=complex)
                    vec[index] += factor
            # threshold z-basis event probability factorizes per mode
            p_mode = abs(amp) ** 2
            for j in range(N_SPATIAL):
                miss_h = (1.0 - eta_h) ** occ[2 * j]
                miss_v = (1.0 - eta_v) ** occ[2 * j + 1]
                p_mode *= (1.0 - miss_h) * miss_v + miss_h * (1.0 - miss_v)
            p_event += p_mode
    rho = np.zeros((dim, dim), dtype=complex)
    p_raw = 0.0
    for vec in branches.values():
        rho += np.outer(vec, vec.conj())
        p_raw += float(np.vdot(vec, vec).real)
    if p_raw < 1e-30:
        raise NoSixfoldEventsError("post-selection kept zero probability")
    rho_sim = QubitDensity(N_SPATIAL, rho / p_raw)
    return SimulationResult(
        rho_sim=rho_sim,
        fidelity_vs_d63=fidelity(rho_sim, dicke(6, 3)),
        p_exact=p_raw / order_weight(spdc, 3),
        p_exact_per_pulse=p_raw,
        p_event=p_event,
        spdc=spdc,
        loss=loss,
    )


def calibrate(
    lambdas, etas, max_order: int = 4, network: np.ndarray | None = None
) -> list[dict]:
    """Sweep (lambda, eta) and record fidelity and event statistics.

    Loss is applied symmetrically (eta_H = eta_V = eta).  Records are
    plain dicts ready for JSON; nothing is cached or hardcoded, rerunning
    the sweep regenerates every value.
    """
    net = splitter_network() if network is None else network
    records = []
    for lam in lambdas:
        spdc = SpdcConfig(lam=float(lam), max_order=max_order)
        psi = propagate(spdc_state(spdc), net)
        for eta in etas:
            loss = LossConfig(eta_h=float(eta), eta_v=float(eta))
            try:
                result = _sixfold_stats(psi, spdc, loss)
            except NoSixfoldEventsError:
                continue
            records.append(
                {
                    "lambda": float(lam),
                    "eta_H": float(eta),
                    "eta_V": float(eta),
                    "max_order": max_order,
                    "fidelity": result.fidelity_vs_d63,
                    "p_exact": result.p_exact,
                    "p_exact_per_pulse": result.p_exact_per_pulse,
                    "p_event": result.p_event,
                }
            )
    return records


def pick_calibration(records, target_fidelity: float = 0.61) -> dict:
    """Record whose fidelity lies closest to the requested target."""
    if not records:
        raise ValueError("no calibration records to choose from")
    return min(records, key=lambda r: abs(r["fidelity"] - target_fidelity))
