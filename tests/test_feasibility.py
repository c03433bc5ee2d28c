"""Classifier: worked verdicts, role symmetry, the parity witness, and
the constructions and counting facts behind the verdicts."""

import itertools

import pytest

from dihedral_magic.construct import lmrs_even
from dihedral_magic.designs import validate_cover
from dihedral_magic.dihedral import (elements, multiply, parse_element,
                                     power)
from dihedral_magic.feasibility import (Justification, Status, classify,
                                        parity_witness)
from dihedral_magic.verify import verify_linear, verify_orderable


def shapes_up_to(order):
    """Every (m, n, k) with m*n*k even and at most `order`."""
    for total in range(2, order + 1, 2):
        for m in range(1, total + 1):
            for n in range(1, total // m + 1):
                if total % (m * n) == 0:
                    yield m, n, total // (m * n)


class TestClassify:
    def test_odd_l_rectangle(self):
        v = classify(2, 3, 1)
        assert v.status is Status.NOT_EXISTS
        assert v.justification is Justification.OBS_ODD_L
        assert v.l == 3
        assert "2 mod 4" in v.detail  # the one-even-dimension corollary

    def test_two_by_odd_twice(self):
        v = classify(2, 3, 2)
        assert v.status is Status.NOT_EXISTS
        assert v.justification is Justification.OBS_TWO_BY_L_TWICE
        assert v.l == 6

    def test_two_by_odd_twice_transposed(self):
        v = classify(3, 2, 2)
        assert v.status is Status.NOT_EXISTS
        assert v.justification is Justification.OBS_TWO_BY_L_TWICE

    def test_k_role_not_symmetric(self):
        # k = 3 with a 2x2 shape is NOT the two-array obstruction
        v = classify(2, 2, 3)
        assert v.status is Status.EXISTS
        assert v.justification is Justification.LEMMA_BLOCK

    def test_other_even_odd_even_shapes_stay_unknown(self):
        # the parity argument is not claimed beyond width-2 shapes
        assert classify(4, 3, 2).status is Status.UNKNOWN
        assert classify(6, 5, 2).status is Status.UNKNOWN

    def test_two_by_odd_any_even_k(self):
        v = classify(2, 3, 4)
        assert v.status is Status.NOT_EXISTS
        assert v.justification is Justification.OBS_TWO_BY_L_TWICE
        assert "2a = c (mod 12)" in v.detail
        assert "3 columns of 2 cells" in v.detail
        assert "5 rows of 2 cells" in classify(5, 2, 6).detail

    def test_even_tiling(self):
        v = classify(4, 6, 2)
        assert v.status is Status.EXISTS
        assert v.justification is Justification.THM_EVEN_TILING
        assert v.l == 24

    def test_one_even_mod4_falls_through(self):
        # past the parity rules to the side-one rule: 12 one-cell columns
        v = classify(1, 4, 3)
        assert v.status is Status.NOT_EXISTS
        assert v.justification is Justification.OBS_SIDE_ONE
        assert "12 columns" in v.detail

    def test_side_one_rows(self):
        v = classify(12, 1, 1)
        assert v.status is Status.NOT_EXISTS
        assert v.justification is Justification.OBS_SIDE_ONE
        assert "12 rows" in v.detail

    def test_single_block_exists(self):
        # M^0 over D_2 is the whole set
        v = classify(2, 2, 1)
        assert v.status is Status.EXISTS
        assert v.justification is Justification.LEMMA_BLOCK

    def test_smallest_groups(self):
        assert classify(1, 2, 1).status is Status.NOT_EXISTS
        assert classify(2, 1, 2).status is Status.NOT_EXISTS
        assert classify(2, 1, 2).justification is Justification.OBS_SIDE_ONE

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError):
            classify(3, 3, 1)

    @pytest.mark.parametrize("shape,name", [
        ((2.5, 2, 2), "m"),   # was NotExists "over D_5.0"
        ((True, 2, 2), "m"),  # cited "two 2xTrue arrays"
        ((2, 2, 2.0), "k"),   # was Exists over D_4.0
    ], ids=["float_m", "bool_m", "float_k"])
    def test_non_int_shape_rejected(self, shape, name):
        with pytest.raises(TypeError, match=f"^{name} must be a plain int"):
            classify(*shape)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            classify(0, 2, 1)

    def test_odd_l_never_exists(self):
        for m in range(1, 7):
            for n in range(1, 7):
                for k in range(1, 5):
                    if (m * n * k) % 2:
                        continue
                    v = classify(m, n, k)
                    if (m * n * k // 2) % 2:
                        assert v.status is Status.NOT_EXISTS

    def test_pure_and_total(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for k in range(1, 5):
                    if (m * n * k) % 2:
                        continue
                    assert classify(m, n, k) == classify(m, n, k)

    def test_json_shape(self):
        doc = classify(2, 3, 2).to_json_dict()
        assert doc["status"] == "NotExists"
        assert doc["justification"] == "ObsTwoByLTwice"
        assert doc["l"] == 6


class TestParityWitness:
    def test_2_3_1(self):
        text = parity_witness(2, 3, 1)
        assert "D_3 has 3 reflections" in text
        assert "sigma^2" in text

    def test_3_1_2(self):
        text = parity_witness(3, 1, 2)
        assert "D_3" in text
        assert "sigma^2" in text

    def test_6_1_1(self):
        text = parity_witness(6, 1, 1)
        assert "D_3" in text
        assert "sigma^6" in text

    def test_rejected_on_other_verdicts(self):
        with pytest.raises(ValueError):
            parity_witness(4, 6, 2)  # Exists
        with pytest.raises(ValueError):
            parity_witness(2, 3, 2)  # the two-array obstruction


class TestVerdictsUpToOrder64:
    def test_counts(self):
        statuses = [classify(*shape).status for shape in shapes_up_to(64)]
        assert [statuses.count(x) for x in Status] == [110, 445, 53]

    def test_every_exists_is_built_by_lmrs_even(self):
        built = 0
        for m, n, k in shapes_up_to(64):
            if classify(m, n, k).status is not Status.EXISTS:
                continue
            s = lmrs_even(m, n, k)
            l = s.l
            assert validate_cover(s).ok, (m, n, k)
            report = verify_linear(s)
            assert report.passed, (m, n, k)
            assert report.witnessed.rho == power(parse_element("rs", l),
                                                 n // 2, l)
            assert report.witnessed.sigma == power(parse_element("s", l),
                                                   m // 2, l)
            if max(m, n) <= 8:
                assert verify_orderable(s).passed, (m, n, k)
            built += 1
        assert built == 110

    def test_every_two_by_odd_is_ruled_out(self):
        seen = 0
        for m, n, k in shapes_up_to(64):
            if (m == 2 and n % 2) or (n == 2 and m % 2):
                assert classify(m, n, k).status is Status.NOT_EXISTS, \
                    (m, n, k)
                seen += 1
        assert seen > 0


class TestTwoByOddFacts:
    """The two facts the (2, odd; even k) rule rests on, by computation."""

    def test_psi_is_a_homomorphism_onto_z2_squared(self):
        def psi(x):
            return x.exponent % 2, int(x.is_reflection)

        for l in range(2, 33, 2):
            g = elements(l)
            assert {psi(x) for x in g} == set(itertools.product((0, 1),
                                                                repeat=2))
            for x, y in itertools.product(g, repeat=2):
                px, py = psi(x), psi(y)
                assert psi(multiply(x, y, l)) == ((px[0] + py[0]) % 2,
                                                  (px[1] + py[1]) % 2)

    def test_an_even_c_has_a_self_paired_rotation(self):
        for l in range(2, 33, 2):
            for c in range(0, l, 2):
                assert any(2 * a % l == c for a in range(l))
