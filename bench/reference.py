"""A fixed reference kernel, the benchmark's yardstick for the host's speed.

A shared host runs the same code up to about 1.5 times slower in spells
that last from seconds to minutes, on every CPU at once.  A run times
``unit()`` right before each job, so the reference meets the same spells
as the jobs, and reports the workload's pass time as a multiple of the
reference's (``wall_rel``).  The kernel mixes the kinds of work the
package does: dict-heavy pure Python (the Fock-state code, the setting
plans), small dense complex linear algebra (witness bounds, protocols)
and random sampling (measurement events, qss rounds).  It imports nothing
from ``dickesim``, so a change to the package never changes it.
"""

from __future__ import annotations

import time

import numpy as np

_RNG_SEED = 20090313
_DIM = 48
_PARTS = np.random.default_rng(_RNG_SEED).standard_normal((2, _DIM, _DIM))
_MATRIX = _PARTS[0] + 1j * _PARTS[1]


def _python_part():
    table = {}
    for i in range(32000):
        key = (i * 7919) % 2053
        table[key] = table.get(key, 0.0) + 0.5 * i
    return sum(table.values())


def _linear_algebra_part():
    herm = _MATRIX + _MATRIX.conj().T
    total = 0.0
    for _ in range(16):
        values = np.linalg.eigvalsh(herm)
        herm = herm @ herm / values[-1]
        total += float(values[-1])
    return total


def _sampling_part():
    rng = np.random.default_rng(_RNG_SEED)
    probs = np.full(64, 1.0 / 64)
    draws = rng.choice(64, size=60000, p=probs)
    return int(np.bincount(draws, minlength=64).max())


def unit() -> float:
    """Run the kernel once and return its duration in seconds."""
    start = time.perf_counter()
    _python_part()
    _linear_algebra_part()
    _sampling_part()
    return time.perf_counter() - start
