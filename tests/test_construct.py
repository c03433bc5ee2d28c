"""Constructors against the published block values and the verifier oracles."""

import itertools
import math
import time

import pytest

from dihedral_magic.construct import (diagonal_plan, lemma_block, lmrs_2_2,
                                      lmrs_even, lsms, ms, ms_block)
from dihedral_magic.designs import validate_cover
from dihedral_magic.dihedral import (MAX_GROUP_ORDER, identity, multiply,
                                     parse_element, power, reflection,
                                     rotation, word_product)
from dihedral_magic.verify import (verify_linear, verify_magic_square,
                                   verify_orderable, verify_semi_magic_square)


def tokens(rect):
    return [[str(c) for c in row] for row in rect.cells]


class TestLemmaBlock:
    def test_p0_l4(self):
        assert tokens(lemma_block(0, 4)) == [["r^1", "r^0*s"],
                                             ["r^1*s", "r^0"]]

    def test_uniform_line_products(self):
        for l in (2, 3, 8, 32):
            modulus = 2 * l
            rs = parse_element("rs", modulus)
            s = parse_element("s", modulus)
            for p in range(l):
                block = lemma_block(p, l)
                for i in range(2):
                    assert word_product(block.row(i), modulus) == rs
                for j in range(2):
                    assert word_product(reversed(block.column(j)), modulus) == s

    def test_range_check(self):
        with pytest.raises(ValueError):
            lemma_block(4, 4)
        with pytest.raises(ValueError):
            lemma_block(-1, 4)


@pytest.mark.parametrize("block", [lemma_block, ms_block],
                         ids=["lemma_block", "ms_block"])
@pytest.mark.parametrize("p", [0.0, 1.0, True, False])
def test_block_index_must_be_plain_int(block, p):
    # a float index printed exponents such as r^1.0, and True ran as p = 1
    with pytest.raises(TypeError, match="plain int"):
        block(p, 8)


def test_lemma_block_group_must_be_plain_int():
    # lemma_block(0, True) built a block over D_2
    for l in (True, 4.0):
        with pytest.raises(TypeError, match="^l must be a plain int"):
            lemma_block(0, l)


def test_lmrs_2_2_needs_plain_int():
    for l in (3.0, True):
        with pytest.raises(TypeError, match="^l must be a plain int"):
            lmrs_2_2(l)


def test_lmrs_even_needs_plain_ints():
    # lmrs_even(2, 4, True) built a set over D_4
    for args, name in (((2, 4, True), "k"), ((2.0, 4, 1), "m"),
                       ((2, 4.0, 1), "n")):
        with pytest.raises(TypeError, match=f"^{name} must be a plain int"):
            lmrs_even(*args)


def test_diagonal_plan_needs_plain_int():
    # diagonal_plan(1.0) returned float block indices, and True ran as k = 1
    for k in (1.0, True):
        with pytest.raises(TypeError, match="^k must be a plain int"):
            diagonal_plan(k)


def test_lsms_needs_plain_int():
    # lsms(True) was refused with a ValueError about the side
    for n in (8.0, True):
        with pytest.raises(TypeError, match="^n must be a plain int"):
            lsms(n)


def test_ms_needs_plain_int():
    for n in (4.0, True):
        with pytest.raises(TypeError, match="^n must be a plain int"):
            ms(n)


class TestLmrs22:
    def test_l2_covers_d4(self):
        s = lmrs_2_2(2)
        assert s.k == 2 and s.l == 4
        assert validate_cover(s).ok

    def test_l4_products(self):
        report = verify_linear(lmrs_2_2(4))
        assert report.passed
        assert report.witnessed.rho == parse_element("rs", 8)
        assert report.witnessed.sigma == parse_element("s", 8)

    def test_l64_verifies(self):
        assert verify_linear(lmrs_2_2(64)).passed

    def test_exponent_parity_partition(self):
        for l in (2, 7, 50):
            s = lmrs_2_2(l)
            assert validate_cover(s).ok
            for p, rect in enumerate(s.arrays):
                assert rect.cells[0][0].exponent % 2 == 1
                assert rect.cells[1][1].exponent % 2 == 0

    def test_l0_rejected(self):
        with pytest.raises(ValueError, match="needs l >= 1, got 0"):
            lmrs_2_2(0)

    def test_l1_is_the_single_block(self):
        # M^0 over D_2, with rho = r^1*s and sigma = r^0*s
        s = lmrs_2_2(1)
        assert s.k == 1 and s.l == 2
        assert tokens(s.arrays[0]) == tokens(lemma_block(0, 1))
        assert validate_cover(s).ok
        report = verify_linear(s)
        assert report.passed
        assert report.witnessed.rho == reflection(1, 2)
        assert report.witnessed.sigma == reflection(0, 2)
        assert verify_orderable(s).passed
        assert lmrs_even(2, 2, 1) == s


class TestLmrsEven:
    def test_2x4(self):
        report = verify_linear(lmrs_even(2, 4, 1))
        assert report.passed
        assert report.witnessed.rho == identity(4)
        assert report.witnessed.sigma == reflection(0, 4)

    def test_4x4_k2(self):
        s = lmrs_even(4, 4, 2)
        assert s.l == 16 and s.k == 2
        assert validate_cover(s).ok
        assert verify_linear(s).passed

    def test_2x2_reduces_to_block_family(self):
        assert lmrs_even(2, 2, 5) == lmrs_2_2(5)

    @pytest.mark.parametrize("m,n,k", [(2, 4, 3), (4, 2, 1), (6, 8, 2),
                                       (10, 2, 1), (4, 12, 1)])
    def test_stated_products(self, m, n, k):
        s = lmrs_even(m, n, k)
        modulus = m * n * k // 2
        report = verify_linear(s)
        assert report.passed
        assert report.witnessed.rho == power(parse_element("rs", modulus),
                                             n // 2, modulus)
        assert report.witnessed.sigma == power(reflection(0, modulus),
                                               m // 2, modulus)
        if n % 4 == 0:
            assert report.witnessed.rho == identity(modulus)
        if m % 4 == 0:
            assert report.witnessed.sigma == identity(modulus)

    def test_long_rows_cost_linear_time(self):
        start = time.perf_counter()
        s = lmrs_even(2, 24000, 1)
        assert time.perf_counter() - start < 1.0
        assert s.arrays[0].cells[1][-2:] == lemma_block(11999, 12000).cells[1]

    def test_rejections(self):
        with pytest.raises(ValueError):
            lmrs_even(3, 4, 1)
        with pytest.raises(ValueError):
            lmrs_even(2, 3, 2)
        with pytest.raises(ValueError):
            lmrs_even(2, 4, 0)


class TestDiagonalIndexPlan:
    def test_k1_closed_form(self):
        main, back = diagonal_plan(1)
        assert main == (0, 2, 6, 7)
        assert back == (8, 10, 14, 15)
        assert sum(main) % 8 == 7  # -1 mod 8

    def test_k2_plan(self):
        # the pairs (j, 32-j) for j = 1, 3, with j = 2 replaced by 2k = 4
        main, back = diagonal_plan(2)
        assert main == (1, 31, 4, 28, 3, 29, 0, 30)
        assert back == tuple(a + 32 for a in main)

    def test_valid_for_every_k_lsms_reaches(self):
        # lsms(8k) works over D_(32k^2), so k runs up to the group cap
        top = math.isqrt(MAX_GROUP_ORDER // 32)
        assert 32 * top * top <= MAX_GROUP_ORDER < 32 * (top + 1) ** 2
        for k in range(1, top + 1):
            main, back = diagonal_plan(k)
            c = 8 * k * k
            assert len(main) == len(set(main)) == 4 * k, k
            assert 0 <= min(main) and max(main) < c, k
            assert sum(main) % c == (-k) % c, k
            assert back == tuple(a + c for a in main), k
            assert not set(main) & set(back), k

    def test_diagonal_rotation_product_telescopes(self):
        # the main diagonal of block a contributes r^(4a+1) in D_(32k^2)
        for k in (1, 2, 3):
            main, _ = diagonal_plan(k)
            modulus = 32 * k * k
            prod = word_product([rotation(4 * a + 1, modulus)
                                 for a in main], modulus)
            assert prod == identity(modulus)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            diagonal_plan(0)


class TestLsms:
    def test_n4_semi_magic(self):
        report = verify_semi_magic_square(lsms(4))
        assert report.passed
        assert report.witnessed.mu == identity(8)

    def test_n8_magic_and_diagonal_blocks(self):
        s = lsms(8)
        report = verify_magic_square(s)
        assert report.passed and report.witnessed.mu == identity(32)
        cells = s.arrays[0].cells
        main_blocks = {(cells[2 * g][2 * g].exponent - 1) // 2
                       for g in range(4)}
        assert main_blocks == {0, 2, 6, 7}
        back_blocks = {(-cells[2 * g][7 - 2 * g].exponent) % 32 // 2
                       for g in range(4)}
        assert back_blocks == {8, 10, 14, 15}

    def test_n16_magic_with_repair(self):
        report = verify_magic_square(lsms(16))
        assert report.passed and report.witnessed.mu == identity(128)

    def test_n12_is_plain_tiling(self):
        assert lsms(12) == lmrs_even(12, 12, 1)

    def test_diagonal_block_order_immaterial(self):
        # the main diagonal pairs multiply to rotations, so permuting the
        # diagonal blocks cannot change the diagonal product
        s = lsms(8)
        cells = s.arrays[0].cells
        pairs = [(cells[2 * g][2 * g], cells[2 * g + 1][2 * g + 1])
                 for g in range(4)]
        reference = word_product([x for pair in reversed(pairs)
                                  for x in reversed(pair)], 32)
        assert reference == identity(32)
        for perm in itertools.permutations(pairs):
            seq = [x for pair in reversed(perm) for x in reversed(pair)]
            assert word_product(seq, 32) == reference

    def test_bad_sides_rejected(self):
        for n in (0, 2, 3, 6, 10):
            with pytest.raises(ValueError):
                lsms(n)

    LSMS8_EXPECTED = [
        "r^1 r^0*s r^3 r^30*s r^7 r^26*s r^17 r^16*s",
        "r^1*s r^0 r^3*s r^2 r^7*s r^6 r^17*s r^16",
        "r^9 r^24*s r^5 r^28*s r^21 r^12*s r^11 r^22*s",
        "r^9*s r^8 r^5*s r^4 r^21*s r^20 r^11*s r^10",
        "r^19 r^14*s r^29 r^4*s r^13 r^20*s r^23 r^10*s",
        "r^19*s r^18 r^29*s r^28 r^13*s r^12 r^23*s r^22",
        "r^31 r^2*s r^25 r^8*s r^27 r^6*s r^15 r^18*s",
        "r^31*s r^30 r^25*s r^24 r^27*s r^26 r^15*s r^14",
    ]

    def test_n8_golden_grid(self):
        # deterministic placement pin: diagonals in plan list order,
        # remaining blocks row-major ascending
        got = [" ".join(str(c) for c in row)
               for row in lsms(8).arrays[0].cells]
        assert got == self.LSMS8_EXPECTED


class TestMsBlock:
    def test_p0_low_worked_values(self):
        assert tokens(ms_block(0, 8)) == [["r^7*s", "r^0"],
                                          ["r^7", "r^0*s"]]

    def test_low_stated_products(self):
        for l in (8, 32):
            for p in range(l // 4):
                b = ms_block(p, l)
                # row products in the stated orderings (right-to-left)
                assert multiply(b.cells[0][1], b.cells[0][0], l) == \
                    reflection(-1 % l, l)
                assert multiply(b.cells[1][1], b.cells[1][0], l) == \
                    parse_element("rs", l)
                # columns: top-to-bottom here
                assert multiply(b.cells[0][0], b.cells[1][0], l) == \
                    reflection(0, l)
                assert multiply(b.cells[0][1], b.cells[1][1], l) == \
                    reflection(0, l)
                # diagonals: main bottom-up gives r, backward top-down r^-1
                assert multiply(b.cells[1][1], b.cells[0][0], l) == \
                    rotation(1, l)
                assert multiply(b.cells[0][1], b.cells[1][0], l) == \
                    rotation(-1 % l, l)

    def test_high_stated_products(self):
        l = 8
        for p in range(l // 4, l // 2):
            b = ms_block(p, l)
            assert multiply(b.cells[1][1], b.cells[0][0], l) == \
                rotation(-1 % l, l)
            assert multiply(b.cells[0][1], b.cells[1][0], l) == rotation(1, l)
            assert multiply(b.cells[1][0], b.cells[0][0], l) == \
                reflection(0, l)

    def test_range_and_variant_checks(self):
        with pytest.raises(ValueError):
            ms_block(4, 8)
        with pytest.raises(ValueError):
            ms_block(-1, 8)
        with pytest.raises(ValueError):
            ms_block(0, 6)
        # p in [l/4, l/2) selects the high variant: the low rows swapped
        assert tokens(ms_block(2, 8)) == [["r^3", "r^4*s"],
                                          ["r^3*s", "r^4"]]


MS4_EXPECTED = [
    ["r^7*s", "r^0", "r^1*s", "r^6"],
    ["r^7", "r^0*s", "r^1", "r^2*s"],
    ["r^3", "r^4*s", "r^5", "r^6*s"],
    ["r^3*s", "r^4", "r^5*s", "r^2"],
]


class TestMs:
    def test_n4_entry_for_entry(self):
        assert tokens(ms(4).arrays[0]) == MS4_EXPECTED

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_magic(self, n):
        s = ms(n)
        assert validate_cover(s).ok
        report = verify_magic_square(s, mode="orderable",
                                     diagonal_mode="fixed", cap=n)
        assert report.passed
        assert report.witnessed.mu == identity(s.l)

    def test_row_products_reach_identity_blockwise(self):
        # per block, some row ordering gives r^-1*s or r*s; 2k of those
        # reflections multiply to r^0
        s = ms(8)
        rect = s.arrays[0]
        for i in range(8):
            row = rect.row(i)
            seq = []
            for b in range(4):
                seq += [row[2 * b + 1], row[2 * b]]  # right-to-left per block
            assert word_product(seq, s.l) == identity(s.l)

    def test_bad_sides_rejected(self):
        for n in (0, 2, 6, 9):
            with pytest.raises(ValueError):
                ms(n)


class TestEveryConstructorCovers:
    @pytest.mark.parametrize("s", [
        lmrs_2_2(2), lmrs_2_2(7), lmrs_even(2, 6, 3), lmrs_even(8, 4, 2),
        lsms(4), lsms(8), lsms(12), lsms(16), ms(4), ms(8), ms(12),
    ])
    def test_exact_cover(self, s):
        assert validate_cover(s).ok


def blocks_of(rect):
    """The 2x2 blocks of a rectangle, block rows top to bottom, each
    left to right."""
    return [tuple(row[j:j + 2] for row in rect.cells[i:i + 2])
            for i in range(0, rect.m, 2) for j in range(0, rect.n, 2)]


class TestFlatConstructionsMatchTheBlocks:
    """The constructions cut their rows out of one pass over all cells;
    each 2x2 block must still be the published block at its index."""

    def test_lmrs_even(self):
        # block p of the docstring: array u, block row bi, block column bj
        # hold p = u*(m/2)*(n/2) + bi*(n/2) + bj, so the blocks in order
        for m in range(2, 13, 2):
            for n in range(2, 13, 2):
                for k in range(1, 480 // (m * n) + 1):
                    if m * n * k <= 4:
                        continue
                    s = lmrs_even(m, n, k)
                    got = [b for rect in s.arrays for b in blocks_of(rect)]
                    assert got == [lemma_block(p, s.l // 2).cells
                                   for p in range(s.l // 2)], (m, n, k)

    def test_lsms(self):
        for n in range(4, 65, 4):
            if n % 8 == 4:  # the plain tiling: blocks row-major
                order = list(range(n * n // 4))
            else:
                main, back = diagonal_plan(n // 8)
                side = n // 2
                grid = [[None] * side for _ in range(side)]
                for g, (a, b) in enumerate(zip(main, back)):
                    grid[g][g], grid[g][side - 1 - g] = a, b
                rest = iter(sorted(set(range(side * side)) - set(main)
                                   - set(back)))
                order = [next(rest) if p is None else p
                         for row in grid for p in row]
            s = lsms(n)
            assert blocks_of(s.arrays[0]) == [
                lemma_block(p, s.l // 2).cells for p in order], n

    def test_ms(self):
        for n in range(4, 33, 4):
            s = ms(n)
            assert blocks_of(s.arrays[0]) == [
                ms_block(p, s.l).cells for p in range(s.l // 2)], n


class TestGroupOrderCheck:
    @pytest.mark.parametrize("build", [
        lambda: lmrs_even(2, 2, 10**7), lambda: lsms(4480),
        lambda: ms(4480)], ids=["lmrs_even", "lsms", "ms"])
    def test_oversized_group_refused_before_building(self, build):
        # D_l with l > MAX_GROUP_ORDER is refused once, up front, not
        # after millions of cells are placed
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            build()
        assert time.perf_counter() - start < 0.5

    def test_blocks_check_the_group_order(self):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            lemma_block(0, 5 * 10**6 + 1)
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            ms_block(0, 10**7 + 4)
        with pytest.raises(TypeError):
            lemma_block(0, 2.5)
