"""Environment stamp attached to every benchmark result.

Records what the numbers depend on besides the code: usable CPUs, the BLAS
library numpy links and the thread count it actually runs with, and the
interpreter and library versions.  The line count of ``src/offdiag`` is
recorded as information; it is not a metric.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that this process has loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stamp() -> dict:
    import numpy as np
    import scipy

    import offdiag

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = Path(offdiag.__file__).parent
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_loc": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }
