"""Group arithmetic: worked examples, exhaustive laws, parity property."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from dihedral_magic import _kernels_py, dihedral
from dihedral_magic.dihedral import (DihedralElement, element_from_index,
                                     element_index, elements, format_element,
                                     identity, inverse, multiply,
                                     parse_element, power, reflection,
                                     rotation, word_product)
from dihedral_magic.errors import ParseError

E4 = identity(4)


def brute_power(a, t, l):
    acc = identity(l)
    for _ in range(t):
        acc = multiply(acc, a, l)
    return acc


class TestBasics:
    def test_identity(self):
        assert identity(4) == DihedralElement(False, 0)
        assert identity(16) == DihedralElement(False, 0)

    def test_identity_law_exhaustive_l3(self):
        e = identity(3)
        for x in elements(3):
            assert multiply(e, x, 3) == x
            assert multiply(x, e, 3) == x

    def test_conjugation_of_rotation_by_s(self):
        # s * r^2 * s = r^-2 = r^6 in D_8
        s = reflection(0, 8)
        r2 = rotation(2, 8)
        assert multiply(multiply(s, r2, 8), s, 8) == rotation(6, 8)

    def test_reflections_are_involutions(self):
        rs = reflection(1, 4)
        assert multiply(rs, rs, 4) == identity(4)

    def test_rotation_exponents_add_mod_l(self):
        assert multiply(rotation(2, 4), rotation(3, 4), 4) == rotation(1, 4)

    def test_inverse_examples(self):
        assert inverse(rotation(3, 8), 8) == rotation(5, 8)
        assert inverse(reflection(3, 8), 8) == reflection(3, 8)
        assert inverse(identity(1), 1) == identity(1)

    def test_power_examples(self):
        rs = reflection(1, 8)
        assert power(rs, 2, 8) == identity(8)
        assert power(rs, 3, 8) == brute_power(rs, 3, 8) == rs
        assert power(rotation(3, 8), 4, 8) == rotation(4, 8)

    def test_power_rejects_negative(self):
        with pytest.raises(ValueError):
            power(rotation(1, 4), -1, 4)

    def test_rotation_rejects_a_float_exponent(self):
        # r^1.5 would print as a token that no parser reads back
        with pytest.raises(TypeError, match="^exponent must be a plain int, "
                           "got float"):
            rotation(1.5, 4)

    def test_reflection_rejects_a_float_exponent(self):
        with pytest.raises(TypeError, match="^exponent must be a plain int"):
            reflection(2.0, 4)

    def test_power_rejects_a_float_exponent(self):
        with pytest.raises(TypeError, match="^exponent must be a plain int"):
            power(rotation(1, 4), 2.0, 4)

    def test_element_from_index_rejects_a_float(self):
        with pytest.raises(TypeError, match="^element index must be a plain "
                           "int"):
            element_from_index(1.0, 4)

    def test_enumerate_smallest(self):
        assert elements(1) == [identity(1), reflection(0, 1)]

    def test_enumerate_l3(self):
        assert elements(3) == [rotation(0, 3), rotation(1, 3), rotation(2, 3),
                               reflection(0, 3), reflection(1, 3),
                               reflection(2, 3)]

    def test_enumerate_size(self):
        assert len(elements(16)) == 32

    def test_enumerate_distinct(self):
        for l in (1, 2, 5, 64):
            assert len(set(elements(l))) == 2 * l

    def test_word_product_examples(self):
        # r^1 * r^0s = r^1s in D_4
        assert word_product([rotation(1, 4), reflection(0, 4)], 4) == reflection(1, 4)
        assert word_product([], 4) == identity(4)
        # stepwise oracle for r^1s * r^1
        seq = [reflection(1, 4), rotation(1, 4)]
        stepwise = multiply(seq[0], seq[1], 4)
        assert word_product(seq, 4) == stepwise == reflection(0, 4)

    def test_group_order_bounds(self):
        with pytest.raises(ValueError):
            identity(0)
        with pytest.raises(ValueError):
            identity(dihedral.MAX_GROUP_ORDER + 1)
        with pytest.raises(TypeError):
            dihedral.check_group_order(2.0)


class TestParsing:
    def test_negative_exponent_reduces(self):
        a = parse_element("r^-2", 8)
        assert a == rotation(6, 8)
        assert format_element(a) == "r^6"

    def test_aliases(self):
        assert parse_element("s", 8) == reflection(0, 8)
        assert format_element(parse_element("s", 8)) == "r^0*s"
        assert parse_element("e", 8) == rotation(0, 8)
        assert format_element(parse_element("e", 8)) == "r^0"
        assert parse_element("r", 8) == rotation(1, 8)
        assert parse_element("rs", 8) == reflection(1, 8)

    @pytest.mark.parametrize("bad", ["q^2", "r^", "r^1*t", "r^1s", "", "sr"])
    def test_malformed_tokens(self, bad):
        with pytest.raises(ParseError) as err:
            parse_element(bad, 8)
        assert repr(bad) in str(err.value)

    @given(st.integers(1, 200), st.booleans(), st.integers(-500, 500))
    def test_round_trip(self, l, is_ref, exp):
        a = DihedralElement(is_ref, exp % l)
        assert parse_element(format_element(a), l) == a


class TestLaws:
    def test_associativity_exhaustive(self):
        for l in range(1, 9):
            g = elements(l)
            for a, b, c in itertools.product(g, repeat=3):
                assert multiply(multiply(a, b, l), c, l) == \
                    multiply(a, multiply(b, c, l), l)

    def test_conjugation_exhaustive(self):
        for l in range(1, 65):
            s = reflection(0, l)
            for i in range(l):
                got = multiply(multiply(s, rotation(i, l), l), s, l)
                assert got == rotation((l - i) % l, l)

    def test_inverses_exhaustive(self):
        for l in range(1, 65):
            e = identity(l)
            for a in elements(l):
                assert multiply(a, inverse(a, l), l) == e
                assert multiply(inverse(a, l), a, l) == e

    def test_index_round_trip(self):
        for l in (1, 3, 8):
            for i, a in enumerate(elements(l)):
                assert element_index(a, l) == i
                assert element_from_index(i, l) == a
        with pytest.raises(ValueError):
            element_from_index(6, 3)

    @given(st.integers(1, 50), st.data())
    def test_power_matches_repeated_multiply(self, l, data):
        a = data.draw(st.sampled_from(elements(l)))
        t = data.draw(st.integers(0, 20))
        assert power(a, t, l) == brute_power(a, t, l)

    def test_element_ordering_rotations_first(self):
        for l in range(1, 9):
            assert sorted(elements(l)) == elements(l)
        assert min(elements(5)) == identity(5)


class TestElementContract:
    """The tuple behaviour that hashing and the one-pass word product
    rely on, checked exhaustively over small groups (ordering is pinned
    in TestLaws)."""

    def test_hash_and_equality_are_those_of_the_field_tuple(self):
        for l in range(1, 9):
            for e in elements(l):
                assert hash(e) == hash((e.is_reflection, e.exponent))
                assert e == (e.is_reflection, e.exponent)

    def test_repr_str_and_immutability(self):
        e = DihedralElement(True, 3)
        assert repr(e) == "DihedralElement(is_reflection=True, exponent=3)"
        assert str(e) == "r^3*s" and str(DihedralElement(False, 3)) == "r^3"
        with pytest.raises(AttributeError):
            e.exponent = 4

    @staticmethod
    def words(l, max_len=4):
        g = elements(l)
        for n in range(max_len + 1):
            yield from itertools.product(g, repeat=n)

    def test_word_product_is_the_left_fold_of_multiply(self):
        for l in range(1, 6):
            for word in self.words(l):
                acc = identity(l)
                for x in word:
                    acc = multiply(acc, x, l)
                got = word_product(word, l)
                assert got == acc
                assert type(got) is DihedralElement
                assert type(got.is_reflection) is bool

    def test_word_product_matches_the_index_kernel(self):
        # verify and search share one product formula
        for l in range(1, 6):
            for word in self.words(l):
                idxs = [element_index(x, l) for x in word]
                assert element_index(word_product(word, l), l) == \
                    _kernels_py._word_index(idxs, l)


class TestReflectionParity:
    """With an odd number of reflections every permutation multiplies to a
    reflection; with an even number, to a rotation."""

    def check_multiset(self, cells, l):
        parity = sum(1 for x in cells if x.is_reflection) % 2
        for perm in itertools.permutations(cells):
            assert word_product(perm, l).is_reflection == bool(parity)

    def test_random_multisets_all_permutations(self):
        rng = random.Random(20260811)
        for l in range(1, 6):
            pool = elements(l)
            for _ in range(30):
                size = rng.randint(1, 6)
                cells = [rng.choice(pool) for _ in range(size)]
                self.check_multiset(cells, l)

    @given(st.integers(1, 5), st.data())
    def test_parity_property(self, l, data):
        cells = data.draw(st.lists(st.sampled_from(elements(l)),
                                   min_size=1, max_size=6))
        self.check_multiset(cells, l)
