"""Process environment the benchmark pins before NumPy is imported.

Kept free of third-party imports so ``__main__`` can call :func:`prepare`
first: BLAS thread pools read their environment variables once, at import.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Every BLAS/OpenMP pool is held to one thread: the machine has two cores and
#: the load generators already use both, so library threads would only add
#: run-to-run noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent


def prepare() -> None:
    """Pin thread counts, refuse a dtype override, and put ``src/`` on the path."""
    if os.environ.get("REPRO_DEFAULT_DTYPE"):
        sys.exit("bench: REPRO_DEFAULT_DTYPE is set; the benchmark measures the default "
                 "float64 policy only - unset it")
    if "numpy" in sys.modules:
        sys.exit("bench: NumPy was imported before the thread counts were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: the program under test was not found at {src / 'repro'}")
    sys.path.insert(0, str(src))
