"""Kernels: closed-form reachability against permutation products, and
backend parity (the compiled search must behave exactly like the pure
twin: results, node counts, budget accounting)."""

import itertools
import random

import pytest

from dihedral_magic import _backend, _kernels_py
from dihedral_magic.dihedral import element_index, elements, multiply, word_product
from dihedral_magic.search import SearchConfig, exhaustive_search

compiled = _backend.compiled
needs_ext = pytest.mark.skipif(compiled is None,
                               reason="compiled extension not built")


class TestIndexMultiply:
    def test_matches_element_multiply_exhaustively(self):
        for l in range(1, 9):
            g = elements(l)
            for a, b in itertools.product(g, repeat=2):
                want = element_index(multiply(a, b, l), l)
                got = _kernels_py._word_index([element_index(a, l),
                                               element_index(b, l)], l)
                assert got == want


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

    def test_fuzzed_configs_identical(self):
        rng = random.Random(424242)
        shapes = [(l, m, n, (2 * l) // (m * n))
                  for l in (1, 2, 3, 4)
                  for m in range(1, 2 * l + 1)
                  for n in range(1, 2 * l + 1)
                  if (2 * l) % (m * n) == 0]
        for _ in range(40):
            l, m, n, k = rng.choice(shapes)
            args = (l, m, n, k, rng.random() < 0.5, rng.random() < 0.5,
                    rng.random() < 0.5, rng.choice([3, 50, 10**9]))
            assert compiled.run_search(*args) == _kernels_py.run_search(*args), args

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


class TestDispatch:
    def test_group_beyond_64_bits_gives_same_outcome(self, monkeypatch):
        # 2l = 66 does not fit the compiled kernel's 64-bit product masks;
        # the dispatcher must route it to the pure kernel.
        cfg = SearchConfig(l=33, m=2, n=33, k=1, node_budget=500)
        got = exhaustive_search(cfg, hard_cap=66)
        monkeypatch.setattr(_backend, "compiled", None)
        assert exhaustive_search(cfg, hard_cap=66) == got
        assert got.result == "budget_exceeded"
