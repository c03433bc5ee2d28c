"""Independent reference for checking the library's outputs.

Nothing here imports dihedral_magic.  Elements of D_l are pairs (t, e):
t = 0 for the rotation r^e, t = 1 for the reflection r^e*s, with e in
[0, l).  Pairs sort like the library's DihedralElement (rotations first,
then by exponent), so "least element" means the same thing on both sides.

The module provides:
  - group arithmetic (mul, product, parse/format of element tokens);
  - reachable line products, by brute-force permutation for short lines
    and by the closed form for any length (signed subset sums);
  - the closed-form constants of the constructions;
  - reference verdicts for the linear and orderable verifiers;
  - an independent exhaustive search that counts magic rectangle sets,
    which wrote the outcomes in search_table.json, and a brute-force
    count over all arrangements (groups of order <= 6) that checks the
    table again.

Run `python3 mrsbench/reference.py --recount-table` to recompute the
table's outcomes with the reference search (about a minute).
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

TABLE_PATH = Path(__file__).with_name("search_table.json")
BRUTE_FORCE_MAX_CELLS = 6

_TOKEN = re.compile(r"^r\^(-?\d+)(\*s)?$")


def mul(a, b, l):
    """(r^a1 s^t1)(r^b1 s^t2) = r^(a1 +- b1) s^(t1+t2): s r^b = r^-b s."""
    (ta, ea), (tb, eb) = a, b
    return (ta ^ tb, (ea - eb if ta else ea + eb) % l)


def product(seq, l):
    acc = (0, 0)
    for x in seq:
        acc = mul(acc, x, l)
    return acc


def parse(token, l):
    m = _TOKEN.match(token)
    if m is None:
        raise ValueError(f"bad token {token!r}")
    return (1 if m.group(2) else 0, int(m.group(1)) % l)


def fmt(x):
    return f"r^{x[1]}*s" if x[0] else f"r^{x[1]}"


def reachable_brute(cells, l):
    """Products of every ordering of `cells`; only for short lines."""
    if len(cells) > BRUTE_FORCE_MAX_CELLS:
        raise ValueError(f"brute force is limited to "
                         f"{BRUTE_FORCE_MAX_CELLS} cells")
    return frozenset(product(p, l) for p in itertools.permutations(cells))


def reachable(cells, l):
    """Products of some ordering of `cells`, in closed form.

    In an ordering, each exponent enters the product with sign
    (-1)^(reflections before it).  With t reflections: if t = 0 the
    product is r^(sum).  Otherwise every rotation exponent takes either
    sign, and exactly ceil(t/2) reflection exponents take + (the rest -),
    and the product is a rotation iff t is even.
    """
    rots = [e for t, e in cells if not t]
    refs = [e for t, e in cells if t]
    if not refs:
        return frozenset({(0, sum(rots) % l)})
    sums = {0}
    for a in rots:
        sums = {(s + a) % l for s in sums} | {(s - a) % l for s in sums}
    # by_plus[j]: reachable sums with j reflections taking the + sign
    by_plus = [{0}]
    for b in refs:
        nxt = [set() for _ in range(len(by_plus) + 1)]
        for j, vals in enumerate(by_plus):
            nxt[j] |= {(v - b) % l for v in vals}
            nxt[j + 1] |= {(v + b) % l for v in vals}
        by_plus = nxt
    plus = (len(refs) + 1) // 2
    parity = len(refs) % 2
    return frozenset((parity, (s + v) % l) for s in sums
                     for v in by_plus[plus])


# --- sets as plain grids: arrays[a][i][j] = (t, e) -------------------------

def rows_of(arr):
    return [list(r) for r in arr]


def cols_of(arr):
    return [[arr[i][j] for i in range(len(arr))] for j in range(len(arr[0]))]


def cover(arrays, l):
    """(cell_count, duplicates {elem: count}, missing list in index order)."""
    counts = {}
    for arr in arrays:
        for row in arr:
            for x in row:
                counts[x] = counts.get(x, 0) + 1
    cells = sum(len(arr) * len(arr[0]) for arr in arrays)
    dups = {x: c for x, c in counts.items() if c > 1}
    missing = [(t, e) for t in (0, 1) for e in range(l)
               if (t, e) not in counts]
    return cells, dups, missing


def construction_constants(kind, m, n):
    """Closed-form line constants of the library's constructions.

    lmrs22/lmrs: rows (left-to-right) give rho = (rs)^(n/2), columns
    (bottom-to-top) give sigma = s^(m/2).  lsms/ms: mu = r^0.
    """
    if kind in ("lsms", "ms"):
        return {"rho": (0, 0), "sigma": (0, 0), "mu": (0, 0)}
    # (rs)^2 = e and s^2 = e, so only the parity of n/2, m/2 matters
    return {"rho": (1, 1) if (n // 2) % 2 else (0, 0),
            "sigma": (1, 0) if (m // 2) % 2 else (0, 0)}


def linear_verdict(arrays, l, square=False, magic=False):
    """Reference for verify_linear / verify_*_square(mode="linear",
    diagonal_mode="fixed"): witnesses are the first row and column
    products; failing lines are those that differ from them."""
    rho = sigma = None
    bad = []
    for a, arr in enumerate(arrays, start=1):
        for i, row in enumerate(rows_of(arr), start=1):
            p = product(row, l)
            rho = p if rho is None else rho
            if p != rho:
                bad.append((a, f"row {i}"))
        for j, col in enumerate(cols_of(arr), start=1):
            q = product(reversed(col), l)
            sigma = q if sigma is None else sigma
            if q != sigma:
                bad.append((a, f"column {j}"))
    out = {"rho": rho, "sigma": sigma, "bad": bad}
    passed = not bad
    if square or magic:
        passed = passed and rho == sigma
        out["mu"] = rho if passed else None
    if magic:
        arr = arrays[0]
        n = len(arr)
        out["delta1"] = product([arr[i][i] for i in reversed(range(n))], l)
        out["delta2"] = product([arr[i][n - 1 - i] for i in range(n)], l)
        if not (out["delta1"] == out["delta2"] == rho):
            passed = False
            out["mu"] = None
    out["passed"] = passed
    return out


def _common(lines, l, reach):
    acc = None
    for line in lines:
        acc = reach(line, l) if acc is None else acc & reach(line, l)
        if not acc:
            return frozenset()
    return acc


def orderable_verdict(arrays, l, kind="sets", diagonal_mode=None,
                      reach=reachable):
    """Reference for the orderable verifiers.

    kind "sets" is verify_orderable, "square" the semi-magic check and
    "magic" the magic check with the given diagonal_mode.  Returns
    {"passed": bool, "rho", "sigma", "mu", "delta1", "delta2"} with the
    witnesses of a passing report (least members of the intersections).
    """
    rows = _common((r for arr in arrays for r in rows_of(arr)), l, reach)
    cols = _common((c for arr in arrays for c in cols_of(arr)), l, reach)
    out = {"passed": bool(rows and cols)}
    if kind == "sets":
        if out["passed"]:
            out.update(rho=min(rows), sigma=min(cols))
        return out
    cand = rows & cols
    if kind == "square":
        out["passed"] = bool(cand)
        if cand:
            out.update(rho=min(cand), sigma=min(cand), mu=min(cand))
        return out
    arr = arrays[0]
    n = len(arr)
    main = [arr[i][i] for i in range(n)]
    back = [arr[i][n - 1 - i] for i in range(n)]
    if diagonal_mode == "fixed":
        d1, d2 = product(reversed(main), l), product(back, l)
        mu = d1 if d1 == d2 and d1 in cand else None
    else:
        both = cand & reach(main, l) & reach(back, l)
        mu = min(both) if both else None
        d1 = d2 = mu
    out["passed"] = mu is not None
    if mu is not None:
        out.update(rho=mu, sigma=mu, mu=mu, delta1=d1, delta2=d2)
    return out


# --- exhaustive search ----------------------------------------------------

def search_count(l, m, n, k, mode, symmetry, first_only=False):
    """Count the magic rectangle sets over D_l with k arrays m x n.

    With symmetry on, only canonical sets count: the arrays' first
    cells increase, and in orderable mode the first cell of the first
    array is the identity (rows and columns of an array may be permuted
    freely in that mode).  Cells fill array by array, row-major.
    With first_only the search stops at the first set (returns 0 or 1).
    """
    G = 2 * l
    per = m * n
    N = per * k
    elems = [(0, e) for e in range(l)] + [(1, e) for e in range(l)]
    grid = [None] * N
    used = [False] * G
    state = {"count": 0}
    linear = mode == "linear"

    def line_ok(t, acc):
        a, w = divmod(t, per)
        i, j = divmod(w, n)
        base = a * per
        rho, sigma = acc
        if j == n - 1:
            row = [elems[grid[base + i * n + c]] for c in range(n)]
            val = (frozenset({product(row, l)}) if linear
                   else reachable(row, l))
            rho = val if rho is None else rho & val
            if not rho:
                return None
        if i == m - 1:
            col = [elems[grid[base + r * n + j]] for r in reversed(range(m))]
            val = (frozenset({product(col, l)}) if linear
                   else reachable(col, l))
            sigma = val if sigma is None else sigma & val
            if not sigma:
                return None
        return rho, sigma

    def dfs(t, acc):
        if t == N:
            state["count"] += 1
            if first_only:
                raise StopIteration
            return
        for x in range(G):
            if used[x]:
                continue
            if symmetry:
                if t == 0 and not linear and x != 0:
                    continue
                if t % per == 0 and t and x <= grid[t - per]:
                    continue
            grid[t] = x
            used[x] = True
            nxt = line_ok(t, acc)
            if nxt is not None:
                dfs(t + 1, nxt)
            used[x] = False
        grid[t] = None

    try:
        dfs(0, (None, None))
    except StopIteration:
        pass
    return state["count"]


def brute_force_count(l, m, n, k, mode, symmetry):
    """search_count by trying every arrangement (orders <= 6 only), with
    orderable lines checked by brute-force permutation products."""
    G = 2 * l
    if G > BRUTE_FORCE_MAX_CELLS:
        raise ValueError("brute force count is limited to order <= 6")
    elems = [(0, e) for e in range(l)] + [(1, e) for e in range(l)]
    per = m * n
    count = 0
    for perm in itertools.permutations(elems):
        arrays = [[list(perm[a * per + i * n:a * per + (i + 1) * n])
                   for i in range(m)] for a in range(k)]
        if symmetry:
            firsts = [arr[0][0] for arr in arrays]
            if firsts != sorted(firsts):
                continue
            if mode == "orderable" and arrays[0][0][0] != (0, 0):
                continue
        if mode == "linear":
            ok = linear_verdict(arrays, l)["passed"]
        else:
            ok = orderable_verdict(arrays, l, reach=reachable_brute)["passed"]
        count += ok
    return count


def load_table(path=TABLE_PATH):
    """The pool entries of search_table.json, with key
    (l, m, n, k, mode, symmetry) and fields ops, exists, solutions."""
    return json.loads(Path(path).read_text())["entries"]


def recount_table(path=TABLE_PATH):
    """Recompute exists/solutions of every entry with search_count."""
    doc = json.loads(Path(path).read_text())
    for e in doc["entries"]:
        key = (e["l"], e["m"], e["n"], e["k"], e["mode"], e["symmetry"])
        if "count" in e["ops"]:
            e["solutions"] = search_count(*key)
            e["exists"] = e["solutions"] > 0
        else:
            e["solutions"] = None
            e["exists"] = search_count(*key, first_only=True) > 0
        print(e, file=sys.stderr, flush=True)
    rows = ",\n".join("  " + json.dumps(e) for e in doc["entries"])
    Path(path).write_text(
        f'{{\n "about": {json.dumps(doc["about"])},\n'
        f' "node_budget": {doc["node_budget"]},\n'
        f' "entries": [\n{rows}\n ]\n}}\n')


if __name__ == "__main__":
    if sys.argv[1:] != ["--recount-table"]:
        sys.exit("usage: python3 mrsbench/reference.py --recount-table")
    recount_table()
