"""Pure-Python kernels.

  reachable_mask(cells, l) -> int, bit i set iff index i is reachable
  achievable_indices(cells, l) -> sorted list of reachable indices
  run_search(l, m, n, k, linear, symmetry, count_all, budget)
      -> (status, nodes, count, first_solution_or_None)

Element indices follow elements(l): rotations 0..l-1 by exponent,
reflections l..2l-1.  Search status codes: 0 found (short-circuit),
1 space exhausted, 2 node budget exceeded.  The compiled extension
implements run_search with identical results and node accounting.
"""

from __future__ import annotations


def _word_index(vals, l: int) -> int:
    """Index of the product of the word `vals`, read left to right.

    Multiplying r^E s^f by r^b s^g on the right gives r^(E + (-1)^f b)
    s^(f + g), so each exponent enters E with sign (-1)^(reflections
    before it).
    """
    e = 0
    sign = 1
    for v in vals:
        if v < l:
            e += sign * v
        else:
            e += sign * (v - l)
            sign = -sign
    return e % l if sign > 0 else l + e % l


def reachable_mask(cells, l: int) -> int:
    """Products reachable by some ordering of the multiset `cells`.

    Any ordering with t reflections gives a product r^E s^(t mod 2)
    (see _word_index).  With t = 0 the product is fixed.  With t >= 1
    every rotation exponent may take either sign in E, and exactly
    ceil(t/2) reflection exponents take +.  Exponent sets are l-bit
    masks; by_plus[j] holds the sums with j reflections signed +.
    """
    full = (1 << l) - 1

    def shift(mask: int, a: int) -> int:
        a %= l
        return ((mask << a) | (mask >> (l - a))) & full

    rots = [x for x in cells if x < l]
    refs = [x - l for x in cells if x >= l]
    if not refs:
        return 1 << (sum(rots) % l)
    sums = 1
    for a in rots:
        sums = shift(sums, a) | shift(sums, -a)
    by_plus = [sums]
    for b in refs:
        minus = [shift(x, -b) for x in by_plus] + [0]
        plus = [0] + [shift(x, b) for x in by_plus]
        by_plus = [p | q for p, q in zip(minus, plus)]
    mask = by_plus[(len(refs) + 1) // 2]
    return mask << l if len(refs) & 1 else mask


def achievable_indices(cells, l: int) -> list[int]:
    """Sorted element indices of reachable_mask(cells, l), found by a
    C-level search of its binary string: O(l) plus one step per index."""
    bits = bin(reachable_mask(cells, l))
    top = len(bits) - 1  # bits[top - i] is bit i
    out = []
    j = bits.rfind("1")
    while j >= 0:
        out.append(top - j)
        j = bits.rfind("1", 0, j)
    return out


def run_search(l: int, m: int, n: int, k: int, linear: bool,
               symmetry: bool, count_all: bool, budget: int):
    """Depth-first placement of all 2l elements into the k m x n arrays.

    Cells fill array by array, row-major.  Each completed line yields a
    mask of the products it can take: one fixed product in linear mode
    (rows left-to-right, columns bottom-to-top), reachable_mask in
    orderable mode.  rho and sigma are the running intersections over
    rows and columns (0 until the first line), and a branch is pruned
    when one becomes empty.  A node is counted for every placement of an
    unused, symmetry-admissible element.
    """
    G = 2 * l
    per = m * n
    N = per * k
    grid = [-1] * N
    used = [False] * G
    anchor = [-1] * N
    if symmetry:
        for a in range(1, k):
            anchor[a * per] = (a - 1) * per
    fix_first = symmetry and not linear

    nodes = 0
    count = 0
    found: list[int] | None = None
    status = 1

    memo: dict[tuple[int, ...], int] = {}

    def word_mask(vals: list[int]) -> int:
        return 1 << _word_index(vals, l)

    def reachable_memo(vals: list[int]) -> int:
        key = tuple(sorted(vals))
        got = memo.get(key)
        if got is None:
            got = memo[key] = reachable_mask(key, l)
        return got

    line_mask = word_mask if linear else reachable_memo

    def check_lines(t: int, rho: int, sigma: int):
        a, w = divmod(t, per)
        i, j = divmod(w, n)
        base = a * per
        if j == n - 1:
            mask = line_mask(grid[base + i * n:base + i * n + n])
            rho = rho & mask if rho else mask
            if not rho:
                return False, rho, sigma
        if i == m - 1:
            mask = line_mask(grid[base + j:base + per:n][::-1])
            sigma = sigma & mask if sigma else mask
            if not sigma:
                return False, rho, sigma
        return True, rho, sigma

    def dfs(t: int, rho: int, sigma: int) -> bool:
        nonlocal nodes, count, found, status
        if t == N:
            count += 1
            if found is None:
                found = grid.copy()
            if not count_all:
                status = 0
                return True
            return False
        anc = anchor[t]
        for x in range(G):
            if used[x]:
                continue
            if fix_first and t == 0 and x != 0:
                continue
            if anc >= 0 and x <= grid[anc]:
                continue
            nodes += 1
            if nodes > budget:
                status = 2
                return True
            grid[t] = x
            used[x] = True
            ok, nrho, nsigma = check_lines(t, rho, sigma)
            stop = ok and dfs(t + 1, nrho, nsigma)
            grid[t] = -1
            used[x] = False
            if stop:
                return True
        return False

    dfs(0, 0, 0)
    return status, nodes, count, found
