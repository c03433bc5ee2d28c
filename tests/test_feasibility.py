"""Classifier: worked verdicts, role symmetry, the parity witness."""

import pytest

from dihedral_magic.feasibility import (Justification, Status, classify,
                                        parity_witness)


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
        # the two-array argument is not claimed beyond width-2 shapes
        assert classify(4, 3, 2).status is Status.UNKNOWN
        assert classify(2, 3, 4).status is Status.UNKNOWN
        assert classify(6, 5, 2).status is Status.UNKNOWN

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

    def test_below_tiling_range(self):
        v = classify(2, 2, 1)
        assert v.status is Status.UNKNOWN
        assert "search" in v.detail

    def test_smallest_groups(self):
        assert classify(1, 2, 1).status is Status.NOT_EXISTS
        assert classify(2, 1, 2).status is Status.NOT_EXISTS
        assert classify(2, 1, 2).justification is Justification.OBS_TWO_BY_L_TWICE

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
