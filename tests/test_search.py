"""Search oracle: soundness, completeness vs a naive reference, symmetry
invariance, determinism, budget honesty."""

import itertools

import pytest

from dihedral_magic import _backend, _kernels_py
from dihedral_magic.designs import Rectangle, RectangleSet
from dihedral_magic.dihedral import element_from_index
from dihedral_magic.errors import BudgetExceededError, CapacityError
from dihedral_magic.feasibility import Status, classify
from dihedral_magic.search import (SearchConfig, count_solutions,
                                   exhaustive_search)
from dihedral_magic.verify import verify_linear, verify_orderable


def all_shapes(group_order):
    """All (m, n, k) with m*n*k == group_order."""
    out = []
    for m in range(1, group_order + 1):
        if group_order % m:
            continue
        rest = group_order // m
        for n in range(1, rest + 1):
            if rest % n:
                continue
            out.append((m, n, rest // n))
    return out


def grid_to_set(perm, l, m, n, k):
    per = m * n
    arrays = tuple(
        Rectangle(tuple(tuple(element_from_index(perm[a * per + i * n + j], l)
                              for j in range(n)) for i in range(m)))
        for a in range(k))
    return RectangleSet(l, arrays)


def naive_reference(l, m, n, k, mode):
    """Try every permutation of all 2l elements; verify each candidate."""
    verifier = verify_linear if mode == "linear" else verify_orderable
    count = 0
    first = None
    for perm in itertools.permutations(range(2 * l)):
        s = grid_to_set(perm, l, m, n, k)
        if verifier(s).passed:
            count += 1
            if first is None:
                first = s
    return count, first


class TestConfig:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SearchConfig(l=4, m=2, n=2, k=1)

    def test_non_positive_dimensions_and_budget(self):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            SearchConfig(l=2, m=-2, n=-2, k=1)
        with pytest.raises(ValueError, match="node budget must be positive"):
            SearchConfig(l=2, m=2, n=2, k=1, node_budget=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SearchConfig(l=2, m=2, n=2, k=1, mode="both")

    @pytest.mark.parametrize("field, fields", [
        # each would pass every value check: m*n*k == 2l, positive
        ("node_budget", dict(node_budget=2.5)),  # reported 3.5 nodes
        ("m", dict(m=2.0)),  # failed inside the kernel
        ("m", dict(m=True, n=2, k=2)),  # ran as m = 1
        ("n", dict(n=True, m=2, k=2)),
        ("k", dict(k=True)),
        ("node_budget", dict(node_budget=True)),
        ("n", dict(n="2")),
        ("symmetry_reduction", dict(symmetry_reduction="no")),  # ran as True
        ("symmetry_reduction", dict(symmetry_reduction=0)),
        ("count_all", dict(count_all=1)),
        ("count_all", dict(count_all=None)),
    ])
    def test_field_types(self, field, fields):
        with pytest.raises(TypeError, match=f"^{field} must be a plain "):
            SearchConfig(**{"l": 2, "m": 2, "n": 2, "k": 1, **fields})

    def test_hard_cap(self):
        with pytest.raises(CapacityError):
            exhaustive_search(SearchConfig(l=9, m=2, n=9, k=1))


class TestOutcomes:
    def test_positive_control_linear(self):
        out = exhaustive_search(SearchConfig(l=4, m=2, n=4, k=1, mode="linear"))
        assert out.result == "found"
        assert verify_linear(out.found).passed

    def test_smallest_square(self):
        out = exhaustive_search(SearchConfig(l=2, m=2, n=2, k=1, mode="linear"))
        assert out.result == "found"
        assert verify_linear(out.found).passed

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
    def test_odd_l_exhausted(self, m, n):
        out = exhaustive_search(SearchConfig(l=3, m=m, n=n, k=1))
        assert out.result == "exhausted_none"

    def test_two_arrays_over_d6_exhausted(self):
        out = exhaustive_search(SearchConfig(l=6, m=2, n=3, k=2))
        assert out.result == "exhausted_none"

    def test_budget_exceeded_is_not_an_answer(self):
        cfg = SearchConfig(l=6, m=2, n=3, k=2, node_budget=500)
        out = exhaustive_search(cfg)
        assert out.result == "budget_exceeded"
        assert out.solutions_count is None
        with pytest.raises(BudgetExceededError):
            count_solutions(cfg)

    def test_budgets_past_64_bits_change_nothing(self, monkeypatch):
        # the compiled kernel takes a signed 64-bit budget; no search
        # within HARD_CAP comes near it, so a larger one is the same
        for run_search in {_kernels_py.run_search, _backend.run_search}:
            monkeypatch.setattr(_backend, "run_search", run_search)
            for l, m, n, k in ((2, 2, 2, 1), (3, 2, 3, 1)):
                for mode in ("linear", "orderable"):
                    for count_all in (True, False):
                        first, *rest = [exhaustive_search(SearchConfig(
                            l=l, m=m, n=n, k=k, mode=mode,
                            node_budget=budget, count_all=count_all))
                            for budget in (10**9, 2**63, 10**30)]
                        assert rest == [first, first], (l, m, n, k, mode)

    def test_determinism(self):
        cfg = SearchConfig(l=4, m=2, n=2, k=2)
        a = exhaustive_search(cfg)
        b = exhaustive_search(cfg)
        assert (a.result, a.nodes_visited, a.found) == \
            (b.result, b.nodes_visited, b.found)


class TestCounts:
    def test_no_solutions_for_odd_l(self):
        assert count_solutions(SearchConfig(l=3, m=2, n=3, k=1)) == 0

    def test_d2_square_linear_count(self):
        # regression constant, established by the naive reference below
        cfg = SearchConfig(l=2, m=2, n=2, k=1, mode="linear",
                           symmetry_reduction=False)
        assert count_solutions(cfg) == 24

    def test_degenerate_1x2(self):
        # columns of length 1 must all equal sigma: impossible with
        # distinct entries, consistently with the verifier
        cfg = SearchConfig(l=1, m=1, n=2, k=1, symmetry_reduction=False)
        assert count_solutions(cfg) == 0

    def test_array_symmetry_divides_linear_count(self):
        base = SearchConfig(l=4, m=2, n=2, k=2, mode="linear",
                            symmetry_reduction=False, count_all=True)
        reduced = SearchConfig(l=4, m=2, n=2, k=2, mode="linear",
                               symmetry_reduction=True, count_all=True)
        assert count_solutions(base) == 2 * count_solutions(reduced)


class TestAgainstNaiveReference:
    @pytest.mark.parametrize("mode", ["linear", "orderable"])
    def test_group_orders_up_to_6(self, mode):
        for order in (2, 4, 6):
            l = order // 2
            for m, n, k in all_shapes(order):
                expect_count, expect_first = naive_reference(l, m, n, k, mode)
                cfg = SearchConfig(l=l, m=m, n=n, k=k, mode=mode,
                                   symmetry_reduction=False, count_all=True)
                out = exhaustive_search(cfg)
                assert out.solutions_count == expect_count, (l, m, n, k, mode)
                assert (out.found is not None) == (expect_first is not None)
                if out.found is not None:
                    # fill order is lexicographic, so the first solutions agree
                    assert out.found == expect_first


class TestOpenRegionProbe:
    """Desk-scale probes of shapes no implemented result decides."""

    def test_odd_side_rectangle_exists_over_d6(self):
        # MRS(3,4;1) over D_6 exists in the orderable sense even though
        # one side is odd; the classifier correctly answers Unknown here
        assert classify(3, 4, 1).status is Status.UNKNOWN
        out = exhaustive_search(SearchConfig(l=6, m=3, n=4, k=1))
        assert out.result == "found"
        assert verify_orderable(out.found).passed

    def test_single_line_shapes_never_work(self):
        # width- or height-1 shapes need all (distinct) cells of some axis
        # to share a product, so nothing larger than 1x1x1 can exist
        for m, n, k in ((1, 12, 1), (12, 1, 1), (1, 1, 12), (1, 4, 3)):
            out = exhaustive_search(SearchConfig(l=6, m=m, n=n, k=k))
            assert out.result == "exhausted_none", (m, n, k)


class TestSideOneShapes:
    @pytest.mark.parametrize("mode", ["linear", "orderable"])
    def test_classified_and_exhausted_up_to_order_16(self, mode):
        # a line of one cell multiplies to its cell, and cells are distinct
        for order in range(2, 17, 2):
            l = order // 2
            for m, n, k in all_shapes(order):
                if 1 not in (m, n):
                    continue
                assert classify(m, n, k).status is Status.NOT_EXISTS
                for symmetry in (True, False):
                    out = exhaustive_search(SearchConfig(
                        l=l, m=m, n=n, k=k, mode=mode,
                        symmetry_reduction=symmetry))
                    assert out.result == "exhausted_none", (m, n, k)


class TestConcordanceOrders10And12:
    """Bigger desk-scale sweep: the classifier never contradicts the
    exhaustive oracle, and every found set verifies."""

    def test_sweep(self):
        for order in (10, 12):
            l = order // 2
            for m, n, k in all_shapes(order):
                verdict = classify(m, n, k)
                out = exhaustive_search(SearchConfig(l=l, m=m, n=n, k=k))
                if verdict.status is Status.NOT_EXISTS:
                    assert out.result == "exhausted_none", (m, n, k)
                if verdict.status is Status.EXISTS:
                    assert out.result == "found", (m, n, k)
                if out.result == "found":
                    assert verify_orderable(out.found).passed, (m, n, k)


class TestSymmetryInvariance:
    @pytest.mark.parametrize("mode", ["linear", "orderable"])
    def test_same_outcome_up_to_order_8(self, mode):
        for order in (2, 4, 6, 8):
            l = order // 2
            for m, n, k in all_shapes(order):
                on = exhaustive_search(SearchConfig(
                    l=l, m=m, n=n, k=k, mode=mode, symmetry_reduction=True))
                off = exhaustive_search(SearchConfig(
                    l=l, m=m, n=n, k=k, mode=mode, symmetry_reduction=False))
                assert on.result == off.result, (l, m, n, k, mode)


class TestSoundness:
    @pytest.mark.parametrize("mode", ["linear", "orderable"])
    def test_every_found_set_verifies(self, mode):
        verifier = verify_linear if mode == "linear" else verify_orderable
        for order in (2, 4, 6, 8):
            l = order // 2
            for m, n, k in all_shapes(order):
                out = exhaustive_search(SearchConfig(l=l, m=m, n=n, k=k,
                                                     mode=mode))
                if out.result == "found":
                    assert verifier(out.found).passed, (l, m, n, k, mode)
