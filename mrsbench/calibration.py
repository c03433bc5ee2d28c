"""The machine's speed during a run, for scaling the run's timings.

The benchmark was built on a shared machine whose speed drifted by 30 to
50% over minutes, with the load of other tenants; raw times from two
runs a few minutes apart were not comparable within the benchmark's
bounds.  So between ops the benchmark times a fixed piece of pure-Python
work like the library's own: tuple arithmetic in D_l, set and dict work,
regex token parsing, small frozen dataclasses hashed into a Counter, and
JSON.  The run's speed factor is REFERENCE_S over the median of those
times, and every end-to-end time is reported multiplied by it, that is,
as it would read at the reference speed (the speed at which the
calibration takes exactly REFERENCE_S).  The raw times are printed too.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import reference as ref

REFERENCE_S = 1.5e-3
EVERY_S = 0.1  # seconds of timed ops between two samples


@dataclass(frozen=True, slots=True)
class _Cell:
    is_reflection: bool
    exponent: int


class Calibration:
    def __init__(self):
        self.l = 24
        elems = [(t, e) for t in (0, 1) for e in range(self.l)]
        self.grid = [[elems[a * 16 + i * 4:a * 16 + i * 4 + 4]
                      for i in range(4)] for a in range(3)]
        self.line = elems[::5][:10]
        self.text = json.dumps([[[ref.fmt(x) for x in row] for row in arr]
                                for arr in self.grid])
        self.samples: list[float] = []

    def sample(self) -> None:
        l = self.l
        t0 = time.perf_counter()
        for _ in range(4):
            ref.reachable(self.line, l)
            ref.linear_verdict(self.grid, l)
            arrays = json.loads(self.text)
            cells = [_Cell(bool(t), e) for arr in arrays for row in arr
                     for t, e in (ref.parse(tok, l) for tok in row)]
            Counter(cells)
            json.dumps(arrays, indent=2)
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """REFERENCE_S over the median sample: below 1 on a slow machine."""
        return REFERENCE_S / statistics.median(self.samples)
