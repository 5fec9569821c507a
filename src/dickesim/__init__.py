"""Simulation and analysis library for symmetric multiphoton states.

Covers dense qubit-register primitives, Dicke-state construction and
measurement navigation, collective-spin entanglement witnesses with
biseparable bounds, Pauli decompositions with measurement-
setting planning and fidelity estimation, a closed-form model of the
down-conversion source, networking protocols, deterministic count
sampling, and published reference values.

Importing the package loads numpy and every library module.  The
command-line front end, ``dickesim.cli``, is not imported here: then
``python -m dickesim.cli`` would find it already loaded and warn.
"""

__version__ = "0.1.0"

from .states import (
    ImpossibleOutcomeError,
    MeasurementSetting,
    QubitDensity,
    QubitPureState,
    apply_local,
    expectation,
    expectations,
    fidelity,
    load_state,
    outcome_distribution,
    outcome_distributions,
    partial_trace,
    project,
    save_state,
)
from .dicke_states import NavigationStep, dicke, ghz, navigate, recursion_residual, w_state
from .witness import (
    BoundEstimate,
    SeeSawOptions,
    biseparable_bound,
    bound_curve,
    collective_spin_sq,
    correlator_scan,
    dephased,
    ghz_witness,
    rotated_ghz_target,
    witness_value,
)
from .lms import (
    FidelityEstimate,
    PauliDecomposition,
    SettingPlan,
    decompose,
    fidelity_from_counts,
    fidelity_from_matrix,
    plan_settings,
    reference_lms_table,
)
from .fock import LossConfig, NoSixfoldEventsError, SpdcConfig, calibrate, simulate_experiment
from .protocols import (
    maximal_singlet_fraction,
    odt_report,
    pair_channel,
    psi_plus_fraction,
    qss_run,
    telecloning_report,
    teleport_fidelity_max,
    werner,
)
from .sampling import CoincidenceHistogram, ExperimentPlan, count_matrix, run_plan
from .references import REFERENCE_VALUES, compare_values, reference_table

# every name bound above: the version, the submodules the imports bind,
# and the names they import
__all__ = [name for name in globals() if name == "__version__" or not name.startswith("_")]
