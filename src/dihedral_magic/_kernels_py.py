"""Pure-Python kernels.

  reachable_mask(cells, l) -> int, bit i set iff index i is reachable
  achievable_indices(cells, l) -> sorted list of reachable indices
  run_search(l, m, n, k, linear, symmetry, count_all, budget)
      -> (status, nodes, count, first_solution_or_None)

Element indices follow elements(l): rotations 0..l-1 by exponent,
reflections l..2l-1.  Search status codes: 0 found (short-circuit),
1 space exhausted, 2 node budget exceeded.  The compiled extension
walks the same plan with identical results and node accounting; the
bulk count, the peek and the line-mask table below only save Python
calls.

The pure search does O(1) work per node, and its cost per call does not
grow with the shape.  D_l's product table and inverses are built once
per l, and the plan that gives each position its neighbours, the lines
it ends and the next position's line ends once per shape and mode; both
are shared read-only by every search.  D_l's line masks (a line's cell
set -> its reachable products) are kept once per l too, filled on a miss
by any orderable search over D_l.  Each position keeps its row's and
column's state so far (a product in linear mode, a cell-set bitmask in
orderable mode), and candidates are walked as a bitmask of free
elements, lowest first.  In linear mode a line that ends with its
product already fixed admits exactly one element; the others are
counted as nodes without being placed, and when that one element is
already used the position is counted by its parent, without a call.  In
orderable mode a line of one cell reaches only that cell, so its key is
its mask.
"""

from __future__ import annotations

import functools


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


@functools.cache
def _tables(l: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """D_l's product table, mul[a][b] = _word_index((a, b), l), and its
    inverse list, built once per l and shared read-only by every search
    over D_l."""
    g = range(2 * l)
    mul = tuple(tuple(_word_index((a, b), l) for b in g) for a in g)
    inv = tuple([-a % l for a in range(l)] + list(range(l, 2 * l)))
    return mul, inv


@functools.cache
def _line_masks(l: int) -> dict[int, int]:
    """D_l's line masks: a line's cell set (a bitmask) -> _key_mask of it.

    Filled by the orderable search on a miss and shared by every search
    over D_l; an entry depends only on (l, key), so it never changes.
    Keys are cell sets of D_l, at most 2^(2l) of them.
    """
    return {}


def _key_mask(key: int, l: int) -> int:
    """reachable_mask of the line whose cells are the set bits of key."""
    if not key & (key - 1):
        return key  # one cell reaches only itself
    cells = []
    while key:
        b = key & -key
        cells.append(b.bit_length() - 1)
        key ^= b
    return reachable_mask(cells, l)


@functools.cache
def _plan(m: int, n: int, k: int, linear: bool, symmetry: bool):
    """The per-position plan of a search over k m x n arrays, built once
    per shape and mode and shared read-only (a tuple of tuples).

    plan[t]: ends a row, ends a column, left and upper neighbour (the
    spare slot N = mnk, an empty line, where a line starts), the
    candidate cut (the identity only at t = 0 in orderable mode with
    symmetry) and the anchor whose cell this one must exceed (-1 for
    none); then, for the linear peek, t + 1's row end, column end and
    upper neighbour when t + 1 has no anchor, else (False, False, N).
    """
    per = m * n
    N = per * k
    plan = []
    for t in range(N):
        i, j = divmod(t % per, n)
        plan.append((j == n - 1, i == m - 1, t - 1 if j else N,
                     t - n if i else N,
                     1 if t == 0 and symmetry and not linear else -1,
                     t - per if symmetry and t >= per and t % per == 0
                     else -1))
    peeks = [(row_end, col_end, up) if anc < 0 else (False, False, N)
             for row_end, col_end, _, up, _, anc in plan[1:]]
    peeks.append((False, False, N))
    return tuple(entry + peek for entry, peek in zip(plan, peeks))


def run_search(l: int, m: int, n: int, k: int, linear: bool,
               symmetry: bool, count_all: bool, budget: int):
    """Depth-first placement of all 2l elements into the k m x n arrays.

    Cells fill array by array, row-major, and candidates are tried in
    ascending index order.  Each completed line yields a mask of the
    products it can take; rho and sigma are the running intersections
    over rows and columns, and a branch is pruned when one becomes
    empty.  A node is counted for every placement of an unused,
    symmetry-admissible element: with symmetry on, an array's first cell
    exceeds the previous array's first cell, and in orderable mode the
    identity comes first.

    Per node the work is O(1), and per call it does not grow with the
    shape: the plan (_plan) is built once per shape and mode.  Linear
    mode passes each row's product left to right to the next position
    (mul[p][x]) and keeps each column's product bottom to top (colv[t] =
    mul[x][colv[t-n]]), so rho and sigma are single products.  A row
    (column) ending where rho (sigma) is already fixed admits only the
    element that completes that product, so the candidates that fail are
    counted in bulk.  When the next position is such a line end without
    an anchor (the plan records which lines it ends), its one admissible
    element is found before the call; if it is already used, the next
    position's candidates are counted here and nothing is called.
    Orderable mode carries each line's cell set as a bitmask (cells are
    distinct) and reads its reachable products from D_l's line-mask
    table (_line_masks), shared by every search over D_l and filled on a
    miss (a one-cell set's mask is its key).
    """
    N = m * n * k
    plan = _plan(m, n, k, linear, symmetry)
    grid = [0] * N
    # the column from t up: a product (linear mode, bottom to top) or a
    # cell set (orderable); slot N is the empty column
    colv = [0] * (N + 1)

    nodes = 0
    count = 0
    found: list[int] | None = None
    status = 1

    def leaf() -> bool:
        nonlocal count, found, status
        count += 1
        if found is None:
            found = grid.copy()
        if not count_all:
            status = 0
            return True
        return False

    if linear:
        mul, inv = _tables(l)

    def linear_dfs(t: int, p: int, rho: int, sigma: int, free: int) -> bool:
        # p: the row's product so far (the identity, 0, at a row start);
        # rho, sigma: the line product, -1 before the first line
        nonlocal nodes, status
        if t == N:
            return leaf()
        (row_end, col_end, _, up, _, anc,
         next_row_end, next_col_end, next_up) = plan[t]
        cand = free
        if anc >= 0:
            cand &= -(2 << grid[anc])  # elements above the anchor's
        q = colv[up]
        live = cand
        if row_end and rho >= 0:
            live &= 1 << mul[inv[p]][rho]  # the x with p x = rho
        if col_end and sigma >= 0:
            live &= 1 << mul[sigma][inv[q]]  # the x with x q = sigma
        # peek: t + 1 ends a line whose product is fixed by then, and has
        # no anchor, so its candidates are free ^ b and it admits one
        peek_row = next_row_end and (row_end or rho >= 0)
        peek_col = next_col_end and (col_end or sigma >= 0)
        peek = peek_row or peek_col
        row = mul[p]
        while live:
            b = live & -live
            live ^= b
            # the candidates below b fail a line here but are nodes too
            nodes += (cand & (b - 1)).bit_count() + 1
            if nodes > budget:
                nodes = budget + 1  # where a node-at-a-time count stops
                status = 2
                return True
            cand &= -(b << 1)
            x = b.bit_length() - 1
            grid[t] = x
            r = row[x]
            c = colv[t] = mul[x][q]
            rest = free ^ b
            if peek:
                # t + 1's one admissible element, as its call would find
                # it; if t ends a row, t + 1 starts one (n = 1) and rho is r
                need = rest
                if peek_row:
                    need &= 1 << (r if row_end else mul[inv[r]][rho])
                if peek_col:
                    need &= 1 << mul[c if col_end else sigma][
                        inv[colv[next_up]]]
                if not need:  # t + 1 places nothing: count its nodes
                    nodes += rest.bit_count()
                    if nodes > budget:
                        nodes = budget + 1
                        status = 2
                        return True
                    continue
            if linear_dfs(t + 1, 0 if row_end else r, r if row_end else rho,
                          c if col_end else sigma, rest):
                return True
        nodes += cand.bit_count()  # the candidates above the last live one
        if nodes > budget:
            nodes = budget + 1
            status = 2
            return True
        return False

    masks = _line_masks(l)
    rowv = [0] * (N + 1)  # the row up to t, as a cell set

    def orderable_dfs(t: int, rho: int, sigma: int, free: int) -> bool:
        # rho, sigma: masks of the products every line so far can take,
        # 0 before the first line
        nonlocal nodes, status
        if t == N:
            return leaf()
        row_end, col_end, left, up, cand, anc, _, _, _ = plan[t]
        cand &= free
        if anc >= 0:
            cand &= -(2 << grid[anc])  # elements above the anchor's
        row = rowv[left]
        col = colv[up]
        while cand:
            b = cand & -cand
            cand ^= b
            nodes += 1
            if nodes > budget:
                status = 2
                return True
            r = row | b
            c = col | b
            nrho = rho
            nsigma = sigma
            if row_end:
                mask = masks.get(r)
                if mask is None:
                    mask = masks[r] = _key_mask(r, l)
                nrho = rho & mask if rho else mask
                if not nrho:
                    continue
            if col_end:
                mask = masks.get(c)
                if mask is None:
                    mask = masks[c] = _key_mask(c, l)
                nsigma = sigma & mask if sigma else mask
                if not nsigma:
                    continue
            grid[t] = b.bit_length() - 1
            rowv[t] = r
            colv[t] = c
            if orderable_dfs(t + 1, nrho, nsigma, free ^ b):
                return True
        return False

    if linear:
        linear_dfs(0, 0, -1, -1, (1 << 2 * l) - 1)
    else:
        orderable_dfs(0, 0, 0, (1 << 2 * l) - 1)
    return status, nodes, count, found
