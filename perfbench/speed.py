"""Machine-speed reference for a shared, noisy host.

On the host this benchmark was defined on, the same code ran 15-60%
slower for tens of seconds at a time with other tenants' load, and how
much slower depended on the kind of code.  Two fixed kernels that share no
code with diracred are timed between ops: ``small``, the small numpy calls
and interpreter work that most ops are made of, and ``lapack``, a
mid-sized SVD.  A workload names the kernels that match its ops; each op's
wall time is scaled by the geometric mean over those kernels of
``REFERENCE_S`` over the mean kernel time just before and after the op, so
it reads as seconds on that host at its quiet speed.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(12345)
_S = _rng.standard_normal((6, 4))
_V = _rng.standard_normal(4)
_A = _rng.standard_normal((120, 120))


def _small() -> None:
    for _ in range(100):
        np.linalg.pinv(_S)
        np.linalg.svd(_S)
        float(_V @ _V)
        np.column_stack([_V, _V])
        np.abs(_S).max()
        sum(i * i for i in range(40))


def _lapack() -> None:
    for _ in range(2):
        np.linalg.svd(_A)


KERNELS = {"small": _small, "lapack": _lapack}

# 10th percentile of probe() on the quiet host: 2-vCPU Intel Xeon at
# 2.0 GHz, numpy 2.4.6 with OpenBLAS 0.3.31 on one thread
REFERENCE_S = {"small": 0.0155, "lapack": 0.0170}


# set-up is mostly the import of numpy and scipy.linalg, so a fresh
# interpreter importing them is the reference for set-up times; 10th
# percentile of 16 such imports on the host above
REFERENCE_IMPORT_S = 0.34
_IMPORT = ("import time; t = time.perf_counter(); import numpy, scipy.linalg;"
           " print(time.perf_counter() - t)")


def import_probe() -> float:
    """Seconds to import numpy and scipy.linalg in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def probe(names) -> dict:
    """Kernel times; each is three runs, timed apart, median times three,
    so that a hiccup inside one run does not move it."""
    out = {}
    for name in names:
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            KERNELS[name]()
            runs.append(perf_counter() - t0)
        out[name] = 3.0 * statistics.median(runs)
    return out


def scale(names, before: dict, after: dict) -> float:
    """Factor taking a wall time between two probes to quiet-host seconds."""
    if not names:
        return 1.0
    logs = [math.log(2.0 * REFERENCE_S[n] / (before[n] + after[n]))
            for n in names]
    return math.exp(sum(logs) / len(logs))
