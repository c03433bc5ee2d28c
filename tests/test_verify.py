"""Verifiers: frozen examples, the permutation brute-force oracle, and the
linear => orderable implication."""

import itertools
import random

import pytest

from dihedral_magic.construct import lmrs_2_2, lmrs_even, lsms, ms
from dihedral_magic.designs import (ProductSpec, Rectangle, RectangleSet,
                                    validate_cover)
from dihedral_magic.dihedral import (elements, identity, parse_element,
                                     reflection, rotation, word_product)
from dihedral_magic.errors import CapacityError, ShapeError
from dihedral_magic.verify import (Failure, VerificationReport,
                                   achievable_products, verify_linear,
                                   verify_magic_square, verify_orderable,
                                   verify_semi_magic_square)


def brute_achievable(cells, l):
    """Independent oracle: products of every permutation."""
    return frozenset(word_product(p, l) for p in itertools.permutations(cells))


def square(text, l):
    """One-array set from rows of tokens separated by "/"."""
    rows = [[parse_element(t, l) for t in row.split()]
            for row in text.split("/")]
    return RectangleSet(l, (Rectangle.from_rows(rows),))


class TestAchievableProducts:
    def test_two_element_example(self):
        got = achievable_products([rotation(1, 4), reflection(0, 4)], 4)
        assert got == {reflection(1, 4), reflection(3, 4)}

    def test_rotations_commute(self):
        got = achievable_products([rotation(2, 8), rotation(3, 8)], 8)
        assert got == {rotation(5, 8)}

    def test_odd_reflection_count_gives_reflections(self):
        rng = random.Random(7)
        for l in (2, 3, 5):
            pool = elements(l)
            for _ in range(20):
                cells = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
                got = achievable_products(cells, l)
                parity = sum(1 for c in cells if c.is_reflection) % 2
                assert all(p.is_reflection == bool(parity) for p in got)

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for l in (1, 2, 4, 5):
            pool = elements(l)
            for _ in range(25):
                cells = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
                assert achievable_products(cells, l, cap=6) == \
                    brute_achievable(cells, l)

    def test_result_bounded_and_order_independent(self):
        rng = random.Random(3)
        pool = elements(5)
        cells = [rng.choice(pool) for _ in range(6)]
        got = achievable_products(cells, 5)
        assert len(got) <= min(720, 10)
        shuffled = cells[:]
        rng.shuffle(shuffled)
        assert achievable_products(shuffled, 5) == got

    def test_cap_enforced(self):
        cells = elements(5)  # 10 cells
        with pytest.raises(CapacityError, match="^achievable_products over "
                           "10 cells exceeds cap 8; use linear mode"):
            achievable_products(cells, 5)
        achievable_products(cells, 5, cap=10)  # raised cap works


class TestVerifyLinear:
    def test_block_family(self):
        report = verify_linear(lmrs_2_2(4))
        assert report.passed
        assert report.witnessed.rho == parse_element("rs", 8)
        assert report.witnessed.sigma == parse_element("s", 8)

    def test_even_tiling_4x4(self):
        report = verify_linear(lmrs_even(4, 4, 1))
        assert report.passed
        assert report.witnessed.rho == identity(8)
        assert report.witnessed.sigma == identity(8)

    def test_row_swap_is_caught(self):
        s = lmrs_2_2(4)
        grid = [list(map(list, rect.cells)) for rect in s.arrays]
        # swap two cells of array 2 across its rows
        grid[1][0][0], grid[1][1][0] = grid[1][1][0], grid[1][0][0]
        broken = RectangleSet(8, tuple(
            Rectangle(tuple(tuple(r) for r in rect)) for rect in grid))
        report = verify_linear(broken)
        assert not report.passed
        assert any(f.array == 2 and f.line.startswith("row") for f in report.failures)

    def test_deterministic(self):
        assert verify_linear(lmrs_2_2(3)) == verify_linear(lmrs_2_2(3))


class TestVerifyOrderable:
    def test_linear_pass_implies_orderable_pass(self):
        corpus = [lmrs_2_2(2), lmrs_2_2(4), lmrs_even(2, 4, 1),
                  lmrs_even(4, 4, 1), lmrs_even(2, 2, 2), lsms(4)]
        for s in corpus:
            assert verify_linear(s).passed
            assert verify_orderable(s, cap=8).passed

    def test_ms4_square(self):
        report = verify_orderable(ms(4), cap=4)
        assert report.passed
        assert report.witnessed.rho == identity(8)
        assert report.witnessed.sigma == identity(8)

    def test_all_of_d3_in_2x3_fails(self):
        e = elements(3)
        s = RectangleSet(3, (Rectangle((tuple(e[:3]), tuple(e[3:]))),))
        report = verify_orderable(s)
        assert not report.passed

    def test_cap_precondition(self):
        with pytest.raises(CapacityError):
            verify_orderable(lmrs_even(2, 10, 1), cap=8)

    def test_linear_lines_with_orderable_diagonals_over_the_cap(self):
        # linear rows and columns have no cap; the diagonals still do
        with pytest.raises(CapacityError) as info:
            verify_magic_square(lsms(16), mode="linear",
                                diagonal_mode="orderable")
        assert str(info.value) == (
            "orderable diagonals of length 16 exceed cap 8; "
            "use diagonal_mode='fixed' or raise the cap")


class TestSquares:
    def test_lsms4_semi_magic(self):
        report = verify_semi_magic_square(lsms(4))
        assert report.passed
        assert report.witnessed.mu == identity(8)

    def test_single_block_fails_rho_ne_sigma(self):
        s = RectangleSet(4, (lmrs_2_2(2).arrays[0],))
        report = verify_semi_magic_square(s)
        assert not report.passed
        assert any(f.line == "rho=sigma" for f in report.failures)
        assert report.witnessed.rho == parse_element("rs", 4)
        assert report.witnessed.sigma == parse_element("s", 4)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            verify_semi_magic_square(RectangleSet(
                1, (Rectangle(((rotation(0, 1),),)),)))
        with pytest.raises(ShapeError):
            verify_semi_magic_square(lmrs_even(2, 4, 1))
        with pytest.raises(ShapeError):
            verify_semi_magic_square(lmrs_2_2(2))

    def test_unknown_modes_rejected(self):
        s = lsms(4)
        with pytest.raises(ValueError, match="unknown mode 'both'"):
            verify_semi_magic_square(s, mode="both")
        with pytest.raises(ValueError, match="unknown mode 'both'"):
            verify_magic_square(s, mode="both")
        with pytest.raises(ValueError, match="unknown diagonal mode 'both'"):
            verify_magic_square(s, diagonal_mode="both")

    def test_ms4_magic_fixed(self):
        report = verify_magic_square(ms(4), mode="orderable",
                                     diagonal_mode="fixed", cap=4)
        assert report.passed
        assert report.witnessed.mu == identity(8)

    def test_lsms8_magic_fixed(self):
        report = verify_magic_square(lsms(8))
        assert report.passed
        assert report.witnessed.mu == identity(32)

    def test_lsms4_diagonals_reported_separately(self):
        report = verify_magic_square(lsms(4))
        assert not report.passed
        assert all(f.line == "diagonals" for f in report.failures)
        # frozen fixed-order diagonal products of the 4x4 tiling over D_8
        assert report.witnessed.delta1 == rotation(6, 8)
        assert report.witnessed.delta2 == rotation(2, 8)

    def test_ms4_magic_orderable_diagonals(self):
        report = verify_magic_square(ms(4), mode="orderable",
                                     diagonal_mode="orderable", cap=4)
        assert report.passed

    def test_orderable_rows_and_columns_share_no_product(self):
        s = square("r^0 r^1 / r^0*s r^1*s", 2)
        report = verify_semi_magic_square(s, mode="orderable")
        assert [f.note for f in report.failures] == [
            "no product is reachable by every row and every column"]
        assert report.witnessed.mu is None

    def test_fixed_diagonals_agree_but_miss_the_line_products(self):
        s = square("r^1*s r^0*s r^0 r^7*s / r^5*s r^1 r^7 r^5 / "
                   "r^2 r^3*s r^3 r^6 / r^4*s r^6*s r^2*s r^4", 8)
        report = verify_magic_square(s, mode="orderable",
                                     diagonal_mode="fixed")
        assert [f.note for f in report.failures] == [
            "diagonal product is not a common row/column product"]
        assert report.witnessed.delta1 == report.witnessed.delta2 == \
            reflection(1, 8)

    def test_orderable_diagonals_reach_no_line_product(self):
        s = square("r^3*s r^5 r^1 r^1*s / r^7*s r^2 r^4*s r^7 / "
                   "r^4 r^5*s r^3 r^0*s / r^6 r^6*s r^2*s r^0", 8)
        report = verify_magic_square(s, mode="orderable",
                                     diagonal_mode="orderable")
        assert [f.note for f in report.failures] == [
            "no common product is reachable by both diagonals"]
        assert report.witnessed.mu is None

    def test_render_names_the_diagonal_mode(self):
        text = verify_magic_square(lsms(8)).render()
        assert "diagonals: fixed" in text.splitlines()
        assert "diagonals:" not in verify_linear(lsms(8)).render()

    def test_report_json_keys(self):
        doc = verify_magic_square(lsms(8)).to_json_dict()
        assert doc["verdict"] == "pass"
        assert doc["diagonal_mode"] == "fixed"
        assert doc["rho"] == "r^0" and doc["sigma"] == "r^0"
        assert doc["mu"] == "r^0"
        assert doc["failures"] == []
        assert doc["cover"]["ok"] is True


def permute_set(s, rng):
    """Random row/column permutation per array plus an array permutation;
    these are exactly the transformations that preserve orderable
    magicness (the symmetry group the search reduction relies on)."""
    arrays = []
    for rect in s.arrays:
        rows = list(rect.cells)
        rng.shuffle(rows)
        cols = list(range(len(rows[0])))
        rng.shuffle(cols)
        arrays.append(Rectangle(tuple(tuple(row[j] for j in cols)
                                      for row in rows)))
    rng.shuffle(arrays)
    return RectangleSet(s.l, tuple(arrays))


def transpose_set(s):
    arrays = tuple(Rectangle(tuple(zip(*rect.cells))) for rect in s.arrays)
    return RectangleSet(s.l, arrays)


class TestOrderableSymmetries:
    def test_pass_invariant_under_line_and_array_permutations(self):
        rng = random.Random(2024)
        for s in (lmrs_2_2(3), lmrs_even(2, 4, 1), lmrs_even(4, 4, 1), ms(4)):
            base = verify_orderable(s, cap=8)
            assert base.passed
            for _ in range(10):
                shuffled = permute_set(s, rng)
                report = verify_orderable(shuffled, cap=8)
                assert report.passed
                assert report.witnessed == base.witnessed

    def test_fail_invariant_under_permutations(self):
        e = elements(3)
        s = RectangleSet(3, (Rectangle((tuple(e[:3]), tuple(e[3:]))),))
        rng = random.Random(7)
        for _ in range(10):
            assert not verify_orderable(permute_set(s, rng)).passed

    def test_transpose_swaps_witnesses(self):
        for s in (lmrs_2_2(3), lmrs_even(2, 6, 1), lmrs_even(4, 2, 2)):
            report = verify_orderable(s, cap=8)
            flipped = verify_orderable(transpose_set(s), cap=8)
            assert report.passed and flipped.passed
            assert flipped.witnessed.rho == report.witnessed.sigma
            assert flipped.witnessed.sigma == report.witnessed.rho


# The frozenset reading of the verifiers: every line's products as
# achievable_products, intersected with &, witnesses by min and failures
# listing tuple(sorted(...)).  The verifiers keep the same sets as
# bitmasks; both readings must give the same reports and errors.

def ref_common(s, axis, cap):
    common = None
    for a, rect in enumerate(s.arrays, start=1):
        lines = rect.cells if axis == "row" else zip(*rect.cells)
        for i, line in enumerate(lines, start=1):
            reach = achievable_products(line, s.l, cap)
            common = reach if common is None else common & reach
            if not common:
                return common, [Failure(a, f"{axis} {i}", tuple(sorted(reach)),
                                        f"no common {axis} product remains")]
    return common, []


def ref_orderable_sets(s, cap):
    if max(s.m, s.n) > cap:
        raise CapacityError(
            f"orderable verification of lines up to length {max(s.m, s.n)} "
            f"exceeds cap {cap}; raise the cap or use linear mode")
    rho_set, row_failures = ref_common(s, "row", cap)
    sigma_set, column_failures = ref_common(s, "column", cap)
    return rho_set, sigma_set, row_failures + column_failures


def ref_verify_orderable(s, cap):
    rho_set, sigma_set, failures = ref_orderable_sets(s, cap)
    witnessed = ProductSpec(rho=min(rho_set, default=None),
                            sigma=min(sigma_set, default=None))
    return VerificationReport("orderable", witnessed, tuple(failures),
                              validate_cover(s))


def ref_semi_magic(s, mode, cap):
    """(mu candidates, rho, sigma, failures) of a square's lines."""
    if mode == "linear":
        first, failures = {}, []
        cells = s.arrays[0].cells
        for axis, lines in (("row", cells), ("column", zip(*reversed(cells)))):
            for i, line in enumerate(lines, start=1):
                p = word_product(line, s.l)
                expected = first.setdefault(axis, p)
                if p != expected:
                    failures.append(Failure(1, f"{axis} {i}", (p,),
                                            f"expected {expected}"))
        rho, sigma = first["row"], first["column"]
        if failures:
            return frozenset(), rho, sigma, failures
        if rho != sigma:
            return frozenset(), rho, sigma, [Failure(
                None, "rho=sigma", (rho, sigma),
                "row and column products differ")]
        return frozenset({rho}), rho, sigma, []
    rho_set, sigma_set, failures = ref_orderable_sets(s, cap)
    candidates = rho_set & sigma_set
    if not failures and not candidates:
        failures.append(Failure(None, "rho=sigma",
                                tuple(sorted(rho_set | sigma_set)),
                                "no product is reachable by every row "
                                "and every column"))
    return (candidates, min(rho_set, default=None),
            min(sigma_set, default=None), failures)


def ref_verify_square(s, mode, diagonal_mode, cap):
    """Semi-magic check, plus the diagonals unless diagonal_mode is None."""
    candidates, rho, sigma, failures = ref_semi_magic(s, mode, cap)
    mu = min(candidates, default=None)
    d1 = d2 = None
    if diagonal_mode is not None:
        cells = s.arrays[0].cells
        main = [cells[i][i] for i in range(s.n)]
        back = [cells[i][s.n - 1 - i] for i in range(s.n)]
        mu = None
        if diagonal_mode == "fixed":
            d1 = word_product(reversed(main), s.l)
            d2 = word_product(back, s.l)
            if candidates and d1 == d2 and d1 in candidates:
                mu = d1
            elif candidates:
                failures.append(Failure(
                    None, "diagonals", (d1, d2),
                    "main and backward diagonal products differ" if d1 != d2
                    else "diagonal product is not a common row/column product"))
        else:
            if s.n > cap:
                raise CapacityError(
                    f"orderable diagonals of length {s.n} exceed cap {cap}; "
                    "use diagonal_mode='fixed' or raise the cap")
            both = (achievable_products(main, s.l, cap)
                    & achievable_products(back, s.l, cap))
            if candidates & both:
                mu = d1 = d2 = min(candidates & both)
            elif candidates:
                failures.append(Failure(None, "diagonals", tuple(sorted(both)),
                                        "no common product is reachable by "
                                        "both diagonals"))
    witnessed = ProductSpec(rho=mu if mu is not None else rho,
                            sigma=mu if mu is not None else sigma,
                            mu=mu, delta1=d1, delta2=d2)
    return VerificationReport(mode, witnessed, tuple(failures),
                              validate_cover(s), diagonal_mode=diagonal_mode)


def seeded_mutants(s, rng, count=4):
    """Two cells swapped (even draws) or one copied over another (odd)."""
    places = [(a, i, j) for a in range(s.k) for i in range(s.m)
              for j in range(s.n)]
    out = []
    for draw in range(count):
        grid = [[list(row) for row in rect.cells] for rect in s.arrays]
        (a1, i1, j1), (a2, i2, j2) = rng.sample(places, 2)
        if draw % 2:
            grid[a2][i2][j2] = grid[a1][i1][j1]
        else:
            grid[a1][i1][j1], grid[a2][i2][j2] = \
                grid[a2][i2][j2], grid[a1][i1][j1]
        out.append(RectangleSet(s.l, tuple(Rectangle.from_rows(g)
                                           for g in grid)))
    return out


def outcome(call, *args):
    try:
        report = call(*args)
    except CapacityError as exc:
        return "CapacityError", str(exc)
    return report.to_json_dict(), report.render()


class TestMasksAgainstFrozensets:
    CORPUS = [lmrs_2_2(2), lmrs_2_2(3), lmrs_2_2(5), lmrs_2_2(8),
              lmrs_2_2(12), lmrs_even(2, 4, 1), lmrs_even(4, 2, 3),
              lmrs_even(2, 6, 3), lmrs_even(4, 4, 1), lmrs_even(6, 6, 1),
              lmrs_even(2, 12, 1), lmrs_even(10, 4, 1), lmrs_even(8, 6, 1),
              lmrs_even(4, 12, 1), lsms(4), ms(4),
              # fixed diagonals agree but miss the common line products
              square("r^1*s r^0*s r^0 r^7*s / r^5*s r^1 r^7 r^5 / "
                     "r^2 r^3*s r^3 r^6 / r^4*s r^6*s r^2*s r^4", 8)]

    def test_reports_and_errors_match(self):
        rng = random.Random(8)
        notes = set()
        for base in self.CORPUS:
            assert base.l <= 24
            for s in [base] + seeded_mutants(base, rng):
                for cap in (4, 8, 12):
                    calls = [(verify_orderable, (s, cap),
                              ref_verify_orderable, (s, cap))]
                    if s.k == 1 and s.m == s.n:
                        calls += [
                            (verify_semi_magic_square, (s, mode, cap),
                             ref_verify_square, (s, mode, None, cap))
                            for mode in ("linear", "orderable")]
                        calls += [
                            (verify_magic_square, (s, mode, diagonals, cap),
                             ref_verify_square, (s, mode, diagonals, cap))
                            for mode in ("linear", "orderable")
                            for diagonals in ("fixed", "orderable")]
                    for call, args, ref, ref_args in calls:
                        got = outcome(call, *args)
                        assert got == outcome(ref, *ref_args), \
                            (call.__name__, args[1:])
                        if isinstance(got[0], dict):
                            notes.update(f["note"] for f in got[0]["failures"])
                        else:
                            notes.add(got[0])
        # every orderable failure and the cap refusals were reached
        assert {"no common row product remains",
                "no common column product remains",
                "no product is reachable by every row and every column",
                "no common product is reachable by both diagonals",
                "diagonal product is not a common row/column product",
                "CapacityError"} <= notes
