"""End-to-end run on the noisy simulated source state.

Loads the recorded calibration point, rebuilds the simulated state,
and subjects it to the same analysis the ideal states get: direct
fidelity, witness value against the biseparable bound, pairwise
teleportation thresholds, and a sampled counts-to-fidelity round trip
whose estimate must agree with the direct value.
"""

import argparse
import json
import os

# one BLAS thread unless the caller sets another: the matrices here are
# small, and a threaded BLAS loses time on them; this must run before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dickesim.dicke_states import dicke
from dickesim.fock import LossConfig, SpdcConfig, simulate_experiment
from dickesim.lms import decompose, fidelity_from_counts, plan_settings
from dickesim.protocols import telecloning_report
from dickesim.sampling import ExperimentPlan, histograms_to_table, run_plan
from dickesim.states import fidelity
from dickesim.witness import biseparable_bound, witness_value

DEFAULT_CAL = os.path.join(os.path.dirname(__file__), "..", "data", "calibration.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calibration", default=DEFAULT_CAL)
    parser.add_argument("--events", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args()

    with open(args.calibration) as fh:
        picked = json.load(fh)["picked"]
    print(f"calibration point: lambda = {picked['lambda']}, eta = {picked['eta_H']}")

    outcome = simulate_experiment(
        SpdcConfig(lam=picked["lambda"], max_order=picked["max_order"]),
        LossConfig(eta_h=picked["eta_H"], eta_v=picked["eta_V"]),
    )
    rho = outcome.rho_sim
    target = dicke(6, 3)
    direct = fidelity(rho, target)
    print(f"direct fidelity to the six-photon target: {direct:.6f}")

    value = witness_value(rho, 0.0)
    bound = biseparable_bound(6, 0.0)
    print(f"witness value {value:.4f} vs biseparable bound {bound.value:.4f} "
          f"-> genuinely multipartite: {value > bound.value}")

    tele = telecloning_report(rho)
    low = min(tele.pair_fidelity.values())
    print(f"pairwise teleportation: minimum F_max = {low:.4f} "
          f"(classical threshold {tele.classical_threshold:.4f}, "
          f"all above: {tele.all_above_classical})")

    # the default plan: uniform-direction settings (22 for the six-qubit target)
    decomp = decompose(target)
    plan = plan_settings(decomp)
    experiment = ExperimentPlan(
        settings=[a.setting for a in plan.assignments],
        events_per_setting=args.events,
        seed=args.seed,
    )
    table = histograms_to_table(run_plan(rho, experiment))
    est = fidelity_from_counts(decomp, plan, table)
    pull = abs(est.value - direct) / est.std_error if est.std_error else 0.0
    print(f"counts round trip over {plan.num_settings} settings: "
          f"estimate {est.value:.4f} +- {est.std_error:.4f}, "
          f"|estimate - direct| = {pull:.2f} standard errors")


if __name__ == "__main__":
    main()
