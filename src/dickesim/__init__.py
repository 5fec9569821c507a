"""Simulation and analysis library for symmetric multiphoton states.

Covers dense qubit-register primitives, Dicke-state construction and
measurement navigation, collective-spin entanglement witnesses with
biseparable bounds, Pauli decompositions with measurement-
setting planning and fidelity estimation, a closed-form model of the
down-conversion source, networking protocols, deterministic count
sampling, and published reference values.

Submodules import lazily so the command-line front end can configure
thread environment variables before any numerical import happens.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "states",
    "dicke_states",
    "witness",
    "lms",
    "fock",
    "protocols",
    "sampling",
    "references",
    "cli",
)

_EXPORTS = {
    # states
    "QubitPureState": "states",
    "QubitDensity": "states",
    "MeasurementSetting": "states",
    "ImpossibleOutcomeError": "states",
    "expectation": "states",
    "expectations": "states",
    "fidelity": "states",
    "partial_trace": "states",
    "project": "states",
    "apply_local": "states",
    "outcome_distribution": "states",
    "outcome_distributions": "states",
    "save_state": "states",
    "load_state": "states",
    # dicke_states
    "dicke": "dicke_states",
    "ghz": "dicke_states",
    "w_state": "dicke_states",
    "recursion_residual": "dicke_states",
    "NavigationStep": "dicke_states",
    "navigate": "dicke_states",
    # witness
    "collective_spin_sq": "witness",
    "witness_value": "witness",
    "SeeSawOptions": "witness",
    "BoundEstimate": "witness",
    "biseparable_bound": "witness",
    "bound_curve": "witness",
    "correlator_scan": "witness",
    "dephased": "witness",
    "rotated_ghz_target": "witness",
    "ghz_witness": "witness",
    # lms
    "PauliDecomposition": "lms",
    "decompose": "lms",
    "SettingPlan": "lms",
    "plan_settings": "lms",
    "fidelity_from_counts": "lms",
    "fidelity_from_matrix": "lms",
    "FidelityEstimate": "lms",
    "reference_lms_table": "lms",
    # fock
    "SpdcConfig": "fock",
    "LossConfig": "fock",
    "simulate_experiment": "fock",
    "calibrate": "fock",
    "NoSixfoldEventsError": "fock",
    # protocols
    "pair_channel": "protocols",
    "psi_plus_fraction": "protocols",
    "maximal_singlet_fraction": "protocols",
    "teleport_fidelity_max": "protocols",
    "telecloning_report": "protocols",
    "odt_report": "protocols",
    "qss_run": "protocols",
    "werner": "protocols",
    # sampling
    "CoincidenceHistogram": "sampling",
    "ExperimentPlan": "sampling",
    "run_plan": "sampling",
    "count_matrix": "sampling",
    # references
    "REFERENCE_VALUES": "references",
    "reference_table": "references",
    "compare_values": "references",
}

__all__ = ["__version__", *_SUBMODULES, *_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
