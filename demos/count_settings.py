"""Decompose projectors, plan measurement settings, and close the loop
from sampled counts back to a fidelity estimate.

Two ways of reading out the projector's Pauli strings are compared.  The
greedy planner fixes one measurement axis per photon and evaluates every
string whose letters match those axes; for the six-photon target that
matching rule alone forces far more settings than the published count.
The symmetric planner measures all photons along one direction per
setting and weights the symmetric correlators of the outcomes, which
meets the published count for the GHZ target and lands next to it for
the Dicke targets.
"""

import argparse
import os
from collections import Counter

# one BLAS thread unless the caller sets another: the matrices here are
# small, and a threaded BLAS loses time on them; this must run before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dickesim.dicke_states import dicke, ghz
from dickesim.lms import (
    decompose,
    fidelity_from_counts,
    plan_settings,
    reference_lms_table,
)
from dickesim.sampling import ExperimentPlan, histograms_to_table, run_plan

TARGETS = {
    "dicke_6_3": dicke(6, 3),
    "dicke_4_2": dicke(4, 2),
    "dicke_4_1": dicke(4, 1),
    "ghz_4": ghz(4),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=50000)
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args()

    published = reference_lms_table()
    for label, state in TARGETS.items():
        decomp = decompose(state)
        weights = Counter(sum(c != "I" for c in s) for s in decomp.nonidentity_strings())
        # exact matching, reached only by name, as the comparison column
        greedy = plan_settings(decomp, "greedy")
        symmetric = plan_settings(decomp)
        print(f"{label:10s} terms = {len(decomp):3d}  weights = {dict(sorted(weights.items()))}  "
              f"greedy = {greedy.num_settings:3d}  symmetric = {symmetric.num_settings:2d}  "
              f"published = {published[label]}")

    # a full-support string is covered only by its own axis string, so the
    # number of weight-N strings lower-bounds any plan for that target
    decomp = decompose(TARGETS["dicke_6_3"])
    full = sum("I" not in s for s in decomp.nonidentity_strings())
    print(f"\nsix-photon target: {full} full-support strings force >= {full} settings "
          f"under axis matching; uniform-direction settings avoid that bound")

    label = "dicke_4_2"
    decomp = decompose(TARGETS[label])
    plan = plan_settings(decomp)
    experiment = ExperimentPlan(
        settings=[a.setting for a in plan.assignments],
        events_per_setting=args.events,
        seed=args.seed,
    )
    table = histograms_to_table(run_plan(TARGETS[label], experiment))
    est = fidelity_from_counts(decomp, plan, table)
    print(f"\n{label}: {args.events} events x {plan.num_settings} settings -> "
          f"fidelity estimate {est.value:.4f} +- {est.std_error:.4f} (true 1)")


if __name__ == "__main__":
    main()
