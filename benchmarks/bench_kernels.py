#!/usr/bin/env python3
"""Time the search kernel on each available backend.

Workload: certify that no magic rectangle set MRS(2,3;2) exists over
D_6 (the hottest exhaustive-search case in the acceptance suite).  With
the extension built, both backends run, must agree, and the speedup is
printed; without it, only the pure backend is timed.

Run:  python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

from dihedral_magic import _backend, _kernels_py

NAME = "search MRS(2,3;2)/D_6"
ARGS = (6, 2, 3, 2, False, True, False, 10**9)


def time_search(impl, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = impl.run_search(*ARGS)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best of N)")
    args = parser.parse_args()

    t_p, r_p = time_search(_kernels_py, args.repeat)
    print(f"{NAME}: pure {t_p * 1e3:.2f} ms, {r_p[1] / t_p:,.0f} nodes/s")
    if _backend.compiled is None:
        print("compiled extension not built; pure backend only")
        return
    t_c, r_c = time_search(_backend.compiled, args.repeat)
    assert r_c == r_p, f"backend results diverge on {NAME}"
    print(f"{NAME}: compiled {t_c * 1e3:.2f} ms, {r_c[1] / t_c:,.0f} nodes/s"
          f" ({t_p / t_c:.1f}x)")


if __name__ == "__main__":
    main()
