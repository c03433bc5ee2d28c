"""Rectangle sets: cover validation, concatenation, serialization."""

import json

import pytest

from dihedral_magic import designs
from dihedral_magic.construct import lemma_block, lmrs_2_2, lmrs_even
from dihedral_magic.designs import (CoverViolationWarning, Rectangle,
                                    RectangleSet, concat_horizontal,
                                    concat_vertical, deserialize, render_text,
                                    serialize, validate_cover)
from dihedral_magic.dihedral import (elements, identity, parse_element, power,
                                     reflection, rotation, word_product)
from dihedral_magic.errors import CoverError, ParseError, SchemaError


def square_over(l):
    """A 2x2 single array containing every element of D_l (needs 2l = 4)."""
    e = elements(l)
    return RectangleSet(l, (Rectangle(((e[0], e[1]), (e[2], e[3]))),))


class TestModel:
    def test_ragged_rectangle_rejected(self):
        with pytest.raises(ValueError):
            Rectangle(((rotation(0, 2),), (rotation(1, 2), reflection(0, 2))))

    def test_mixed_shapes_rejected(self):
        a = Rectangle(((rotation(0, 4), rotation(1, 4)),))
        b = Rectangle(((rotation(2, 4),), (rotation(3, 4),)))
        with pytest.raises(ValueError):
            RectangleSet(4, (a, b))

    def test_non_canonical_cell_rejected(self):
        from dihedral_magic.dihedral import DihedralElement
        bad = DihedralElement(False, 5)
        with pytest.raises(ValueError):
            RectangleSet(4, (Rectangle(((bad,),)),))


class TestCover:
    def test_lmrs_cover_ok(self):
        report = validate_cover(lmrs_2_2(4))
        assert report.ok
        assert report.dimension_ok

    def test_small_square_cover_ok(self):
        assert validate_cover(square_over(2)).ok

    def test_duplicate_listed(self):
        s = lmrs_2_2(2)
        cells = [list(map(list, rect.cells)) for rect in s.arrays]
        dup = s.arrays[0].cells[0][0]
        cells[1][1][1] = dup  # overwrite one cell with a repeat
        broken = RectangleSet(4, tuple(
            Rectangle(tuple(tuple(row) for row in rect)) for rect in cells))
        report = validate_cover(broken)
        assert not report.ok
        assert report.dimension_ok
        assert (dup, 2) in report.duplicates
        assert len(report.missing) == 1

    def test_dimension_mismatch_reported_distinctly(self):
        # one array of the l=2 block family over its group: 4 cells vs 8
        s = RectangleSet(4, (lmrs_2_2(2).arrays[0],))
        report = validate_cover(s)
        assert not report.ok
        assert not report.dimension_ok
        assert report.cell_count == 4 and report.expected_count == 8
        assert "dimension mismatch" in report.summary()
        assert report.missing == ()
        assert report.missing_count == 4
        assert "missing: 4 elements" in report.summary()

    def test_missing_listed_in_full_when_count_fits(self):
        s = lmrs_2_2(2)
        cells = [list(map(list, rect.cells)) for rect in s.arrays]
        cells[0][0][0] = cells[0][0][1] = cells[0][1][0]
        report = validate_cover(RectangleSet(4, tuple(
            Rectangle(tuple(tuple(row) for row in rect)) for rect in cells)))
        assert report.dimension_ok
        assert report.missing_count == len(report.missing) == 2
        assert set(report.missing) == set(elements(4)) - {
            c for rect in cells for row in rect for c in row}
        assert report.to_json_dict()["missing_count"] == 2


class TestConcat:
    def test_horizontal_shape_and_products(self):
        s = lmrs_2_2(4)
        joined = concat_horizontal(s)
        assert (joined.k, joined.m, joined.n) == (1, 2, 8)
        assert validate_cover(joined).ok
        rho_k = power(parse_element("rs", 8), 4, 8)
        assert rho_k == identity(8)
        rect = joined.arrays[0]
        for i in range(2):
            assert word_product(rect.row(i), 8) == rho_k
        for j in range(8):
            assert word_product(reversed(rect.column(j)), 8) == reflection(0, 8)

    def test_horizontal_blocks_preserved(self):
        s = lmrs_2_2(3)
        joined = concat_horizontal(s)
        for p, rect in enumerate(s.arrays):
            for i in range(2):
                for j in range(2):
                    assert joined.arrays[0].cells[i][2 * p + j] == rect.cells[i][j]

    def test_vertical_shape_and_products(self):
        s = lmrs_2_2(4)
        joined = concat_vertical(s)
        assert (joined.k, joined.m, joined.n) == (1, 8, 2)
        assert validate_cover(joined).ok
        rect = joined.arrays[0]
        sigma_k = power(reflection(0, 8), 4, 8)
        for j in range(2):
            assert word_product(reversed(rect.column(j)), 8) == sigma_k
        for i in range(8):
            assert word_product(rect.row(i), 8) == parse_element("rs", 8)

    def test_k1_identity(self):
        s = lmrs_even(2, 4, 1)
        assert concat_horizontal(s) == s
        assert concat_vertical(s) == s

    def test_requires_cover(self):
        s = RectangleSet(4, (lmrs_2_2(2).arrays[0],))
        with pytest.raises(CoverError):
            concat_horizontal(s)


class TestSerialization:
    @pytest.mark.parametrize("s", [lmrs_2_2(2), lmrs_even(4, 4, 2),
                                   lmrs_even(2, 6, 1)])
    def test_round_trip(self, s):
        assert deserialize(serialize(s)) == s

    def test_round_trip_squares(self):
        from dihedral_magic.construct import lsms, ms
        for s in (lsms(4), lsms(8), ms(4), ms(8)):
            assert deserialize(serialize(s)) == s

    def test_schema_fields(self):
        doc = json.loads(serialize(lmrs_2_2(2)))
        assert doc["l"] == 4 and doc["m"] == 2 and doc["n"] == 2 and doc["k"] == 2
        assert len(doc["arrays"]) == 2

    def test_cover_violation_warns_but_loads(self):
        doc = json.loads(serialize(lmrs_2_2(2)))
        doc["arrays"][0][0][0] = doc["arrays"][1][1][1]
        with pytest.warns(CoverViolationWarning):
            s = deserialize(json.dumps(doc))
        assert not validate_cover(s).ok

    def test_malformed_token_names_location(self):
        doc = json.loads(serialize(lmrs_2_2(2)))
        doc["arrays"][1][0][1] = "q^2"
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(doc))
        msg = str(err.value)
        assert "array 2" in msg and "row 1" in msg and "column 2" in msg
        assert "'q^2'" in msg

    def test_wrong_dims_rejected(self):
        doc = json.loads(serialize(lmrs_2_2(2)))
        doc["arrays"][0][0].append("r^0")
        with pytest.raises(SchemaError) as err:
            deserialize(json.dumps(doc))
        assert "array 1, row 1" in str(err.value)

    def test_bad_types_rejected(self):
        with pytest.raises(SchemaError):
            deserialize(json.dumps({"l": "four", "m": 2, "n": 2, "k": 1,
                                    "arrays": []}))
        with pytest.raises(SchemaError):
            deserialize("[1, 2]")
        with pytest.raises(SchemaError):
            deserialize("{not json")

    def test_exponents_reduce_on_parse(self):
        doc = {"l": 4, "m": 1, "n": 2, "k": 1,
               "arrays": [[["r^-1", "r^5*s"]]]}
        s = from_doc_ignoring_cover(doc)
        assert s.arrays[0].cells[0] == (rotation(3, 4), reflection(1, 4))


def from_doc_ignoring_cover(doc):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverViolationWarning)
        return deserialize(json.dumps(doc))


class TestRender:
    def test_block_tokens_one_per_cell(self):
        text = render_text(RectangleSet(8, (lemma_block(0, 4),)))
        lines = [line.split() for line in text.splitlines()]
        assert lines == [["r^1", "r^0*s"], ["r^1*s", "r^0"]]

    def test_arrays_separated_by_blank_line(self):
        text = render_text(lmrs_2_2(2))
        assert text.count("\n\n") == 1
