"""Kernel backend selection.

Product reachability is a closed form and always runs in pure Python.
The search runs in the compiled extension when it is built, else in
pure Python.  Set DIHEDRAL_MAGIC_PURE=1 to force the pure search even
when the extension is built (used by the benchmark and the parity tests).
"""

from __future__ import annotations

import os

from . import _kernels_py as pure

compiled = None
if not os.environ.get("DIHEDRAL_MAGIC_PURE"):
    try:
        from . import _kernels as compiled  # type: ignore[no-redef]
    except ImportError:
        compiled = None


def active_backend() -> str:
    """Name of the search backend in use: "compiled" or "pure"."""
    return "pure" if compiled is None else "compiled"


achievable_indices = pure.achievable_indices


def run_search(l: int, m: int, n: int, k: int, linear: bool,
               symmetry: bool, count_all: bool, budget: int):
    # The compiled search keeps product sets in 64-bit masks.
    if compiled is not None and 2 * l <= 64:
        return compiled.run_search(l, m, n, k, linear, symmetry, count_all,
                                   budget)
    return pure.run_search(l, m, n, k, linear, symmetry, count_all, budget)
