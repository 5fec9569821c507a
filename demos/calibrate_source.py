"""Calibrate the photon-source model and record the operating point.

The source model takes a truncated down-conversion source split over
six arms, applies per-photon loss, and post-selects on one photon per
arm, all in closed form.  Lossless third-order truncation reproduces
the exact selection probability 5/324 and a perfect six-photon state;
with fourth-order terms and loss the fidelity degrades, and a grid
sweep locates the (pump, efficiency) pair whose fidelity is closest to
the 0.61 reference.  The chosen record and the full grid go to
data/calibration.json.
"""

import argparse
import json
import os

# one BLAS thread unless the caller sets another: the matrices here are
# small, and a threaded BLAS loses time on them; this must run before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dickesim.fock import LossConfig, SpdcConfig, calibrate, pick_calibration, simulate_experiment

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "data", "calibration.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--target", type=float, default=0.61)
    args = parser.parse_args()

    exact = simulate_experiment(SpdcConfig(lam=0.2, max_order=3), LossConfig(1.0, 1.0))
    rep = exact.report()
    print(f"lossless third order: fidelity = {rep['fidelity_vs_D63']:.12f}, "
          f"p_exact = {rep['p_exact']:.12f} (5/324 = {5 / 324:.12f})")

    lambdas = [0.45, 0.55, 0.65, 0.75, 0.80, 0.85, 0.90]
    etas = [0.26, 0.30, 0.38, 0.45, 0.62, 0.80]
    print(f"sweeping {len(lambdas)}x{len(etas)} grid at fourth order")
    grid = calibrate(lambdas=lambdas, etas=etas, max_order=4)
    best = pick_calibration(grid, target_fidelity=args.target)
    print(f"operating point: lambda = {best['lambda']}, eta = {best['eta_H']}, "
          f"fidelity = {best['fidelity']:.6f}, p_event = {best['p_event']:.3e}")

    payload = {"target_fidelity": args.target, "picked": best, "grid": grid}
    out_path = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
