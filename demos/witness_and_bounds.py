"""Collective-spin witness values, biseparable bounds, and the angle scan.

The witness J_x^2 + J_y^2 + alpha J_z^2 separates genuinely multipartite
entangled symmetric states from biseparable ones.  The script evaluates
the ideal witness values, optimizes the biseparable bounds with the
alternating eigenvector search, and traces the product-basis correlator
curve whose closed form the six-photon state obeys.
"""

import os

# one BLAS thread unless the caller sets another: the matrices here are
# small, and a threaded BLAS loses time on them; this must run before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from dickesim.dicke_states import dicke
from dickesim.witness import biseparable_bound, correlator_scan, dephased, witness_value

PUBLISHED_BOUNDS = {4: 5.23, 5: 7.87, 6: 11.02}


def main():
    print("ideal witness values at alpha = 0")
    for n, m in [(6, 3), (5, 2), (4, 2), (4, 1)]:
        value = witness_value(dicke(n, m), 0.0)
        print(f"  {n} photons, {m} excitations: {value:.6f}")

    print("\nbiseparable bounds")
    for n in (4, 5, 6):
        est = biseparable_bound(n, 0.0)
        print(f"  {n} qubits: {est.value:.6f}  (published {PUBLISHED_BOUNDS[n]}, "
              f"deviation {est.value - PUBLISHED_BOUNDS[n]:+.4f})")

    state = dicke(6, 3)
    thetas = np.linspace(0.0, np.pi / 2, 100)
    curve = correlator_scan(state, "xz", thetas)
    closed = (3 * np.cos(2 * thetas) + 5 * np.cos(6 * thetas)) / 8
    print(f"\nxz correlator scan: max |measured - closed form| = "
          f"{np.abs(curve - closed).max():.3e}")

    blurred = correlator_scan(dephased(state), "xz", thetas)
    print(f"dephased state follows -sin^6: max dev = "
          f"{np.abs(blurred + np.sin(thetas) ** 6).max():.3e}")


if __name__ == "__main__":
    main()
