"""Kernel backend selection.

Product reachability is a closed form and always runs in pure Python:
verification intersects reachable_mask bitmasks, and achievable_indices
lists one mask's indices.
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


reachable_mask = pure.reachable_mask
achievable_indices = pure.achievable_indices

# The compiled kernel keeps product sets in 64-bit masks; search.HARD_CAP
# keeps every group it is given within that width.
run_search = (pure if compiled is None else compiled).run_search
