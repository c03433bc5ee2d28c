"""Kernels: closed-form reachability against permutation products, and
backend parity (the compiled search must behave exactly like the pure
twin: results, node counts, budget accounting), and node counts pinned
on whichever backends are present."""

import hashlib
import itertools
import math
import random

import pytest

from dihedral_magic import _backend, _kernels_py, search
from dihedral_magic.dihedral import element_index, elements, multiply, word_product
from dihedral_magic.search import HARD_CAP

compiled = _backend.compiled
needs_ext = pytest.mark.skipif(compiled is None,
                               reason="compiled extension not built")

# every shape search serves (2l <= HARD_CAP), in both modes, with
# symmetry and count_all on and off
SEARCHABLE_RUNS = [(l, m, n, (2 * l) // (m * n), linear, symmetry, count_all,
                    20000)
                   for l in range(1, HARD_CAP // 2 + 1)
                   for m in range(1, 2 * l + 1)
                   for n in range(1, 2 * l + 1)
                   if (2 * l) % (m * n) == 0
                   for linear, symmetry, count_all in itertools.product(
                       (True, False), repeat=3)]


class TestIndexMultiply:
    def test_matches_element_multiply_exhaustively(self):
        for l in range(1, 9):
            g = elements(l)
            for a, b in itertools.product(g, repeat=2):
                want = element_index(multiply(a, b, l), l)
                got = _kernels_py._word_index([element_index(a, l),
                                               element_index(b, l)], l)
                assert got == want

    def test_tables_match_multiply(self):
        for l in range(1, 17):
            mul, inv = _kernels_py._tables(l)
            g = elements(l)
            for a, x in enumerate(g):
                assert mul[a] == tuple(element_index(multiply(x, y, l), l)
                                       for y in g)
                assert mul[a][inv[a]] == 0

    def test_line_key_mask_matches_sorted_cells(self):
        rng = random.Random(11)
        for l in range(1, 33):
            for _ in range(20):
                cells = rng.sample(range(2 * l), rng.randint(1, min(2 * l, 12)))
                key = sum(1 << x for x in cells)
                assert _kernels_py._key_mask(key, l) == \
                    _kernels_py.reachable_mask(tuple(sorted(cells)), l)

    def test_one_cell_key_is_its_mask(self):
        for l in range(1, 33):
            for x in range(2 * l):
                assert _kernels_py._key_mask(1 << x, l) == \
                    _kernels_py.reachable_mask([x], l)


class TestAchievableParity:
    def test_pure_matches_permutation_products(self):
        rng = random.Random(5)
        for l in range(1, 13):
            pool = elements(l)
            for _ in range(12):
                cells = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
                idxs = [element_index(c, l) for c in cells]
                brute = sorted({element_index(word_product(p, l), l)
                                for p in set(itertools.permutations(cells))})
                assert _kernels_py.achievable_indices(idxs, l) == brute


@needs_ext
class TestSearchParity:
    CASES = [
        # l, m, n, k, linear, symmetry, count_all
        (2, 2, 2, 1, True, False, True),
        (2, 2, 2, 1, False, True, True),
        (3, 2, 3, 1, False, False, True),
        (3, 3, 2, 1, False, True, False),
        (4, 2, 4, 1, True, True, False),
        (4, 2, 2, 2, True, True, True),
        (4, 2, 2, 2, False, True, True),
        (4, 4, 2, 1, False, False, False),
        (6, 2, 3, 2, False, True, False),
        (1, 1, 2, 1, False, False, True),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_identical_runs(self, case):
        l, m, n, k, linear, symmetry, count_all = case
        args = (l, m, n, k, linear, symmetry, count_all, 10**9)
        assert compiled.run_search(*args) == _kernels_py.run_search(*args)

    def test_identical_budget_accounting(self):
        for budget in (1, 10, 137, 5000):
            args = (6, 2, 3, 2, False, True, False, budget)
            assert compiled.run_search(*args) == _kernels_py.run_search(*args)

    def test_every_searchable_config_identical(self):
        for args in SEARCHABLE_RUNS:
            assert compiled.run_search(*args) == \
                _kernels_py.run_search(*args), args

    def test_long_lines_and_full_masks_identical(self):
        # lines longer than 20 cells, and l = 32 where the top mask bit is used
        for l, m, n, k in ((16, 1, 32, 1), (16, 32, 1, 1), (32, 2, 32, 1),
                           (32, 4, 2, 8)):
            for linear, symmetry, count_all in itertools.product(
                    (True, False), repeat=3):
                args = (l, m, n, k, linear, symmetry, count_all, 20000)
                assert compiled.run_search(*args) == \
                    _kernels_py.run_search(*args), args

    def test_dispatcher_prefers_compiled(self):
        assert _backend.active_backend() == "compiled"
        assert _backend.run_search is compiled.run_search

    def test_rejects_groups_beyond_64_bits(self):
        with pytest.raises(ValueError):
            compiled.run_search(33, 2, 33, 1, False, True, False, 100)


# (l, m, n, k, linear, symmetry, count_all, budget) -> (status, nodes, count),
# recorded from the kernel that re-read every completed line from the grid
PINNED_RUNS = [
    ((4, 2, 2, 2, True, True, True, 10**9), (1, 4196, 48)),
    ((4, 2, 2, 2, True, True, False, 10**9), (0, 301, 1)),
    ((4, 2, 2, 2, True, False, True, 10**9), (1, 6128, 96)),
    ((4, 2, 2, 2, True, False, False, 10**9), (0, 301, 1)),
    ((4, 2, 2, 2, False, True, True, 10**9), (1, 2084, 240)),
    ((4, 2, 2, 2, False, True, False, 10**9), (0, 15, 1)),
    ((4, 2, 2, 2, False, False, True, 10**9), (1, 16192, 1920)),
    ((4, 2, 2, 2, False, False, False, 10**9), (0, 15, 1)),
    ((6, 2, 3, 2, False, True, False, 1), (2, 2, 0)),
    ((6, 2, 3, 2, False, True, False, 137), (2, 138, 0)),
    ((6, 2, 3, 2, True, True, True, 10**9), (1, 183000, 0)),
    ((8, 2, 4, 2, True, True, False, 10**9), (0, 3436, 1)),
    ((8, 4, 4, 1, True, True, False, 5000), (2, 5001, 0)),
    ((3, 2, 3, 1, False, False, True, 10**9), (1, 1620, 0)),
    ((32, 2, 32, 1, True, False, True, 20000), (2, 20001, 32)),
    ((32, 2, 32, 1, False, False, True, 20000), (2, 20001, 130)),
    # lines of one cell
    ((5, 10, 1, 1, False, True, True, 10**9), (1, 10, 0)),
    ((8, 8, 1, 2, True, True, True, 10**9), (1, 256, 0)),
    ((6, 1, 12, 1, False, True, True, 10**9), (1, 12, 0)),
    ((6, 12, 1, 1, True, False, True, 10**9), (1, 144, 0)),
]


@pytest.mark.parametrize("args, want", PINNED_RUNS)
def test_node_counts_pinned_on_every_backend(args, want):
    for run_search in {_kernels_py.run_search, _backend.run_search}:
        status, nodes, count, found = run_search(*args)
        assert (status, nodes, count) == want, run_search
        assert (found is None) == (count == 0)


def test_interleaved_group_orders_repeat_exactly():
    # the per-l tables are shared between calls: keyed by l, never mutated
    runs = [(l, m, n, k, linear, True, count_all, 20000)
            for l, m, n, k in ((2, 2, 2, 1), (4, 2, 2, 2), (3, 2, 3, 1),
                               (8, 2, 4, 2), (1, 1, 2, 1), (6, 12, 1, 1),
                               (4, 2, 4, 1), (8, 8, 1, 2))
            for linear in (True, False) for count_all in (True, False)]
    _kernels_py._tables.cache_clear()
    _kernels_py._line_masks.cache_clear()
    first = [_kernels_py.run_search(*args) for args in runs]
    again = [_kernels_py.run_search(*args) for args in reversed(runs)]
    assert again[::-1] == first


def test_line_mask_tables_hold_reachable_masks():
    # the per-l tables the orderable searches fill: every entry is the
    # reachable mask of its key's cells
    _kernels_py._line_masks.cache_clear()
    for args in SEARCHABLE_RUNS:
        _kernels_py.run_search(*args)
    for l in range(1, HARD_CAP // 2 + 1):
        table = _kernels_py._line_masks(l)
        assert table, l
        for key, mask in table.items():
            assert 0 < key < 1 << 2 * l, (l, key)  # a cell set of D_l
            cells = [x for x in range(2 * l) if key >> x & 1]
            assert mask == _kernels_py.reachable_mask(cells, l), (l, key)


def test_cold_and_warm_line_mask_tables_search_alike():
    _kernels_py._line_masks.cache_clear()
    cold = [_kernels_py.run_search(*args) for args in SEARCHABLE_RUNS]
    warm = [_kernels_py.run_search(*args)
            for args in reversed(SEARCHABLE_RUNS)]
    assert warm[::-1] == cold


# every budget from 1 to 300, then a stride up to the total, in linear mode
# (where forced line ends are counted in bulk and dead ones settled before
# the call); digest recorded from the kernel that built its plan per call
BUDGET_SWEEP_DIGEST = (
    3705, "d8408bdbc80bb070032c3d247695b2d4005b74d2013c3447cb01575d15e21833")
# the same sweep in orderable mode, recorded from the kernel that built its
# line-mask memo per call
ORDERABLE_BUDGET_SWEEP_DIGEST = (
    3700, "85469f73449f05de41d9cb67f2568211225acaaceae867077c3e2f0c1b5753fa")


def budget_sweep(run_search, linear):
    """(number of runs, sha256 of their results) over the budget sweep."""
    results = []
    for (l, m, n, k), symmetry, count_all in itertools.product(
            ((4, 2, 2, 2), (6, 2, 3, 2), (6, 1, 6, 2)), (True, False),
            (True, False)):
        total = run_search(l, m, n, k, linear, symmetry, count_all, 10**9)[1]
        for budget in sorted({*range(1, 301), total, total + 1,
                              *range(1, total, total // 16 + 1)}):
            results.append(run_search(l, m, n, k, linear, symmetry,
                                      count_all, budget))
    return len(results), hashlib.sha256(repr(results).encode()).hexdigest()


def test_budget_sweep_pinned_on_every_backend():
    for run_search in {_kernels_py.run_search, _backend.run_search}:
        assert budget_sweep(run_search, True) == BUDGET_SWEEP_DIGEST, \
            run_search


def test_orderable_budget_sweep_pinned_on_every_backend():
    for run_search in {_kernels_py.run_search, _backend.run_search}:
        assert budget_sweep(run_search, False) == \
            ORDERABLE_BUDGET_SWEEP_DIGEST, run_search


def test_interleaved_plans_repeat_exactly():
    # plans are cached per shape and mode: shapes sharing N = mnk must
    # not see each other's plan, and no search may mutate one
    keys = [(m, n, k, linear, symmetry)
            for m, n, k in ((2, 3, 2), (3, 2, 2), (1, 6, 2), (6, 1, 2),
                            (2, 6, 1), (12, 1, 1))
            for linear in (True, False) for symmetry in (True, False)]
    _kernels_py._plan.cache_clear()
    first = [_kernels_py._plan(*key) for key in keys]
    for key in keys:
        _kernels_py.run_search(6, *key, True, 20000)
    again = [_kernels_py._plan(*key) for key in reversed(keys)]
    assert again[::-1] == first
    assert first == [_kernels_py._plan.__wrapped__(*key) for key in keys]
    for plan in first:
        assert type(plan) is tuple
        assert all(type(entry) is tuple for entry in plan)


def test_search_cap_fits_the_compiled_masks():
    assert 2 * HARD_CAP <= 64


def test_search_cap_fits_the_compiled_node_count():
    # a node places a distinct element at each position of a prefix, so a
    # search over HARD_CAP elements visits at most sum_j P(HARD_CAP, j)
    # < e * HARD_CAP! nodes, so exhaustive_search may cut any larger
    # budget to the compiled kernel's largest, 2^63 - 1, without effect
    most = sum(math.perm(HARD_CAP, j) for j in range(1, HARD_CAP + 1))
    assert most < math.e * math.factorial(HARD_CAP) < search._KERNEL_BUDGET
