"""Networking figures of merit carried by the half-excited Dicke states.

Tracing the six-photon state to any pair leaves a Bell mixture usable as
a teleportation channel; measuring the other four photons in H/V can
distill that pair on demand; and simultaneous x/y measurements by all
parties generate a shared secret whose error rate tracks the state
quality.  The script runs all three protocols on ideal and noisy
states.
"""

import argparse
import os

# one BLAS thread unless the caller sets another: the matrices here are
# small, and a threaded BLAS loses time on them; this must run before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dickesim.dicke_states import dicke
from dickesim.protocols import (
    maximal_singlet_fraction,
    odt_report,
    pair_channel,
    psi_plus_fraction,
    qss_run,
    telecloning_report,
    teleport_fidelity_max,
    werner,
)


def _qber(run) -> str:
    return "n/a (no round kept)" if run.qber is None else f"{run.qber:.4f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    for n in (6, 4):
        rho = pair_channel(dicke(n, n // 2), 0, 1)
        msf = maximal_singlet_fraction(rho)
        print(f"{n}-photon pair channel: Bell fraction = {psi_plus_fraction(rho):.6f}, "
              f"msf = {msf.value:.6f}, F_max = {teleport_fidelity_max(msf.value):.6f}")

    tele = telecloning_report(dicke(6, 3))
    values = sorted(set(round(v, 9) for v in tele.pair_fidelity.values()))
    print(f"telecloning: {len(tele.pair_fidelity)} pairs, F_max values {values}, "
          f"classical threshold {tele.classical_threshold:.4f}")

    for n in (6, 4):
        odt = odt_report(dicke(n, n // 2))
        print(f"open-destination distillation, {n} photons: p_success = {odt.p_success:.6f}, "
              f"heralded fidelity = {odt.mean_heralded_fidelity:.6f}, "
              f"consistency = {odt.channel_consistency:.6f}")

    ideal = qss_run(dicke(6, 3), rounds=args.rounds, seed=args.seed)
    print(f"secret sharing, ideal state: {ideal.sifted_bits} sifted bits "
          f"(rate {ideal.sift_rate:.4f}, expected {ideal.expected_sift_rate:.4f}), "
          f"QBER = {_qber(ideal)}")

    noisy = werner(6, 0.5, base=dicke(6, 3))
    run = qss_run(noisy, rounds=args.rounds, seed=args.seed)
    print(f"secret sharing, half-visibility noise: QBER = {_qber(run)} "
          f"(white noise predicts 0.25)")


if __name__ == "__main__":
    main()
