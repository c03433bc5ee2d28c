"""Rectangle sets: cover validation, concatenation, serialization."""

import json
import random
import re
import time
from collections import Counter

import pytest

from dihedral_magic import designs, dihedral
from dihedral_magic.construct import lemma_block, lmrs_2_2, lmrs_even, lsms, ms
from dihedral_magic.designs import (CoverReport, CoverViolationWarning,
                                    Rectangle, RectangleSet,
                                    concat_horizontal, concat_vertical,
                                    deserialize, render_text, serialize,
                                    validate_cover)
from dihedral_magic.dihedral import (DihedralElement, elements, identity,
                                     parse_element, power, reflection,
                                     rotation, word_product)
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

    def test_empty_rectangle_and_set_rejected(self):
        with pytest.raises(ValueError):
            Rectangle(())
        with pytest.raises(ValueError):
            RectangleSet(2, ())

    def test_non_boolean_reflection_flag_rejected(self):
        from dihedral_magic.dihedral import DihedralElement
        bad = DihedralElement(2, 0)
        with pytest.raises(ValueError):
            RectangleSet(1, (Rectangle(((rotation(0, 1), bad),)),))

    def test_cells_that_are_not_elements_rejected(self):
        e = elements(2)
        # a flat row where rows are expected reads as a grid of bools and ints
        with pytest.raises(ValueError, match=r"array 0, row 0, column 0: "
                                             r"False is not a group element"):
            RectangleSet(2, (Rectangle((e[0], e[1])),))
        # a plain (flag, exponent) tuple equals an element but is not one;
        # the error names it, not the equal element before it
        plain = Rectangle(((e[0], e[1]), (e[3], (True, 1))))
        with pytest.raises(ValueError, match=r"array 1, row 1, column 1: "
                                             r"\(True, 1\) is not"):
            RectangleSet(2, (square_over(2).arrays[0], plain))

    @pytest.mark.parametrize("exponent, shown", [
        (True, "r^True*s"), (False, "r^False*s"), (1.0, "r^1.0*s"),
        ("1", "r^1*s")])
    def test_exponents_that_are_not_ints_rejected(self, exponent, shown):
        # such a cell would serialize as a token no parser reads back
        from dihedral_magic.dihedral import DihedralElement
        bad = DihedralElement(True, exponent)
        with pytest.raises(ValueError, match=rf"^cell {re.escape(shown)} is "
                                             r"not canonical for l=2$"):
            RectangleSet(2, (Rectangle(((rotation(0, 2), bad),)),))

    def test_arrays_that_are_not_rectangles_rejected(self):
        e = elements(2)
        grid = ((e[0], e[1]), (e[2], e[3]))
        with pytest.raises(ValueError, match=r"^array 0 is not a Rectangle$"):
            RectangleSet(2, (grid,))
        with pytest.raises(ValueError, match=r"^array 1 is not a Rectangle$"):
            RectangleSet(2, (square_over(2).arrays[0], grid))


def counted_cover(s):
    """validate_cover's report, from a Counter over every cell."""
    counts = Counter(c for rect in s.arrays for row in rect.cells for c in row)
    cell_count = sum(counts.values())
    missing = ()
    if cell_count == 2 * s.l:
        missing = tuple(e for e in elements(s.l) if e not in counts)
    return CoverReport(cell_count, 2 * s.l,
                       tuple(sorted((e, c) for e, c in counts.items()
                                    if c > 1)),
                       missing, 2 * s.l - len(counts))


def mutated(s, rng, mark):
    """s with two cells in different places swapped, or one copied over
    the other."""
    cells = [[list(row) for row in rect.cells] for rect in s.arrays]
    places = [(a, i, j) for a in range(s.k) for i in range(s.m)
              for j in range(s.n)]
    (a1, i1, j1), (a2, i2, j2) = rng.sample(places, 2)
    if mark == "swap":
        cells[a1][i1][j1], cells[a2][i2][j2] = \
            cells[a2][i2][j2], cells[a1][i1][j1]
    else:
        cells[a2][i2][j2] = cells[a1][i1][j1]
    return RectangleSet(s.l, tuple(Rectangle.from_rows(rows)
                                   for rows in cells))


class TestCover:
    BUILT = [lmrs_2_2(2), lmrs_2_2(7), lmrs_even(4, 6, 3), lmrs_even(2, 2, 50),
             lsms(4), lsms(8), lsms(12), ms(4), ms(8)]

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

    def test_constructed_and_mutated_sets(self):
        rng = random.Random(20)
        for s in self.BUILT:
            candidates = [s] + [mutated(s, rng, mark) for mark in
                                ("swap", "swap", "dup", "dup", "dup")]
            twice = mutated(mutated(s, rng, "dup"), rng, "dup")
            candidates.append(twice)
            for t in candidates:
                assert validate_cover(t) == counted_cover(t)

    def test_shape_mismatches(self):
        for s in self.BUILT:
            for arrays in (s.arrays[:-1], s.arrays + s.arrays[:1]):
                if arrays:
                    t = RectangleSet(s.l, arrays)
                    assert validate_cover(t) == counted_cover(t)
            t = RectangleSet(2 * s.l, s.arrays)  # the cells of half a group
            assert validate_cover(t) == counted_cover(t)

    def test_oversized_documents(self):
        rng = random.Random(21)
        for _ in range(40):
            l = rng.randint(2000, 20000)
            a = rng.randrange(2 * l)
            b = rng.choice([a, rng.randrange(2 * l)])
            cells = [str(dihedral.element_from_index(x, l)) for x in (a, b)]
            s = from_doc_ignoring_cover({"l": l, "m": 1, "n": 2, "k": 1,
                                         "arrays": [[cells]]})
            assert validate_cover(s) == counted_cover(s)

    def test_oversized_cost_follows_the_cell_count(self):
        # 2 cells declaring the largest group: listing its 2*10^7 absent
        # elements would take seconds
        l = dihedral.MAX_GROUP_ORDER
        s = RectangleSet(l, (Rectangle(((rotation(3, l), rotation(3, l)),)),))
        start = time.perf_counter()
        report = validate_cover(s)
        assert time.perf_counter() - start < 0.1
        assert report == CoverReport(2, 2 * l, ((rotation(3, l), 2),), (),
                                     2 * l - 1)


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

    def test_horizontal_is_linear_in_the_array_count(self):
        s = lmrs_2_2(20000)
        start = time.perf_counter()
        joined = concat_horizontal(s)
        assert time.perf_counter() - start < 1.0
        assert (joined.m, joined.n) == (2, 40000)

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

    @pytest.mark.parametrize("s", [
        lmrs_2_2(2), lmrs_2_2(7), lmrs_even(4, 6, 3), lsms(8), lsms(12),
        ms(4), ms(8),
        RectangleSet(3, (Rectangle(((reflection(2, 3),),)),)),
        RectangleSet(1, (Rectangle(((rotation(0, 1),),)),
                         Rectangle(((reflection(0, 1),),)))),
        RectangleSet(3, (Rectangle((tuple(elements(3)),)),)),
        RectangleSet(3, (Rectangle(tuple((e,) for e in elements(3))),)),
        concat_horizontal(lmrs_even(2, 4, 3))],
        ids=lambda s: f"{s.m}x{s.n}x{s.k}-l{s.l}")
    def test_serialize_is_the_indented_json_text(self, s):
        assert serialize(s) == json.dumps(designs.to_json_dict(s), indent=2)

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

    def test_arrays_rows_and_cells_checked(self):
        def error_for(mutate):
            doc = json.loads(serialize(lmrs_2_2(2)))
            mutate(doc)
            with pytest.raises(SchemaError) as err:
                deserialize(json.dumps(doc))
            return str(err.value)

        assert "list of 2 arrays" in error_for(
            lambda d: d["arrays"].pop())
        assert "list of 2 arrays" in error_for(
            lambda d: d.update(arrays={"1": d["arrays"]}))
        assert "array 2: expected 2 rows" in error_for(
            lambda d: d["arrays"][1].pop())
        assert "array 1, row 2, column 1: cell must be a string" in error_for(
            lambda d: d["arrays"][0][1].__setitem__(0, 3))

    def test_overlong_exponent_is_a_parse_error(self):
        doc = json.loads(serialize(lmrs_2_2(2)))
        doc["arrays"][0][1][0] = "r^" + "7" * 5000
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(doc))
        msg = str(err.value)
        assert "array 1, row 2, column 1" in msg and "too long" in msg

    def test_bad_types_rejected(self):
        with pytest.raises(SchemaError):
            deserialize(json.dumps({"l": "four", "m": 2, "n": 2, "k": 1,
                                    "arrays": []}))
        with pytest.raises(SchemaError):
            deserialize("[1, 2]")
        with pytest.raises(SchemaError):
            deserialize("{not json")

    @pytest.mark.parametrize("text, reason", [
        ('{"l": ' + "1" * 5000 + ', "m": 1, "n": 2, "k": 1}',
         "invalid JSON: integer literal too long"),
        ("[" * 100_000, "invalid JSON: nested too deeply")])
    def test_unreadable_json_is_a_schema_error(self, text, reason):
        with pytest.raises(SchemaError, match=reason) as err:
            deserialize(text)
        assert "set_int_max_str_digits" not in str(err.value)

    def test_group_order_checked_at_the_first_token(self):
        def error_for(l, arrays):
            with pytest.raises(ValueError) as err:
                deserialize(json.dumps({"l": l, "m": 1, "n": 2, "k": 1,
                                        "arrays": arrays}))
            return type(err.value), str(err.value)

        # a shape error before the first token wins, as does a cell that
        # is not a string; from the first token on, l is at fault
        assert error_for(0, [[["r^0"]]])[0] is SchemaError
        assert error_for(0, [[[0, "r^0"]]])[0] is SchemaError
        for arrays in ([[["r^0", 1]]], [[["r^0", "r^1"]]]):
            assert error_for(0, arrays) == (
                ValueError, "group order parameter must be >= 1, got 0")

    def test_exponents_reduce_on_parse(self):
        doc = {"l": 4, "m": 1, "n": 2, "k": 1,
               "arrays": [[["r^-1", "r^5*s"]]]}
        s = from_doc_ignoring_cover(doc)
        assert s.arrays[0].cells[0] == (rotation(3, 4), reflection(1, 4))


# Tokens for the row path: canonical ones it reads, and ones it leaves to
# the per-token path (aliases, padding, signs, Unicode digits, commas,
# non-strings, an exponent longer than int() accepts)
TOKEN_CORPUS = [
    "r^0", "r^3", "r^3*s", "r^12", "r^007", "r^007*s", "r^-3", "r^-3*s",
    "e", "r", "s", "rs", " r^1", "r^1*s ", "\tr^2\n", "r^\u0663",
    "r^\u0663*s", "r^1,r^2", "r^1,", ",r^1", "e,e", "", "r^", "r^*s",
    "r^1*s*s", "R^1", "r^1 *s", "r^" + "1" * 40, 0, 1.5, None, True,
    "r^" + "7" * 5000]


class TestRowParsing:
    L = 8

    def per_token(self, row):
        """The row as parse_element reads it token by token: the elements,
        or the exception deserialize must raise for the first bad cell."""
        cells = []
        for j, token in enumerate(row):
            where = f"array 1, row 1, column {j + 1}: "
            if not isinstance(token, str):
                return SchemaError(where + "cell must be a string token")
            try:
                cells.append(parse_element(token, self.L))
            except ParseError as exc:
                return ParseError(where + str(exc))
        return tuple(cells)

    def rows(self):
        for token in TOKEN_CORPUS:
            yield [token] * 3
            for j in range(3):
                row = ["r^1", "r^2*s", "r^5"]
                row[j] = token
                yield row

    def test_deserialize_matches_the_per_token_path(self):
        for row in self.rows():
            expected = self.per_token(row)
            doc = {"l": self.L, "m": 1, "n": 3, "k": 1, "arrays": [[row]]}
            if isinstance(expected, Exception):
                with pytest.raises(type(expected)) as err:
                    from_doc_ignoring_cover(doc)
                assert str(err.value) == str(expected), row
                continue
            cells = from_doc_ignoring_cover(doc).arrays[0].cells[0]
            assert cells == expected, row
            assert all(type(c) is DihedralElement and type(c.exponent) is int
                       and type(c.is_reflection) is bool for c in cells)

    def per_token_document(self, doc):
        """The document as parse_element reads it cell by cell, after the
        shape checks of each array and row: the set, or the exception
        deserialize must raise first.  parse_element checks l at every
        token, so l is at fault from the first string token on."""
        l, m, n = doc["l"], doc["m"], doc["n"]
        arrays = []
        for a, rows_doc in enumerate(doc["arrays"]):
            if not isinstance(rows_doc, list) or len(rows_doc) != m:
                return SchemaError(f"array {a + 1}: expected {m} rows")
            rows = []
            for i, row in enumerate(rows_doc):
                if not isinstance(row, list) or len(row) != n:
                    return SchemaError(f"array {a + 1}, row {i + 1}: "
                                       f"expected {n} cells")
                cells = []
                for j, token in enumerate(row):
                    where = f"array {a + 1}, row {i + 1}, column {j + 1}: "
                    if not isinstance(token, str):
                        return SchemaError(where + "cell must be a string "
                                                   "token")
                    try:
                        cells.append(parse_element(token, l))
                    except ParseError as exc:
                        return ParseError(where + str(exc))
                    except ValueError as exc:  # l itself
                        return exc
                rows.append(tuple(cells))
            arrays.append(Rectangle(tuple(rows)))
        return RectangleSet(l, tuple(arrays))

    SHAPE_DEFECTS = {
        "array not a list": lambda arrays: arrays.__setitem__(2, "r^1"),
        "array a dict": lambda arrays: arrays.__setitem__(2, {"0": []}),
        "array a tuple": lambda arrays: arrays.__setitem__(
            2, tuple(arrays[2])),
        "row missing": lambda arrays: arrays[2].pop(),
        "row not a list": lambda arrays: arrays[2].__setitem__(1, "r^1"),
        "row a tuple": lambda arrays: arrays[2].__setitem__(
            1, tuple(arrays[2][1])),
        "row short": lambda arrays: arrays[2][1].pop(),
        "row long": lambda arrays: arrays[2][1].append("r^1"),
        "cell not a string": lambda arrays: arrays[2][1].__setitem__(2, 5),
    }

    def documents(self):
        """Documents of k = 3 arrays of 2 rows: each corpus row as the last
        row of the last array, then each shape defect of the last array,
        alone, after a corpus token in the first array, and with l = 0.
        They go to from_json_dict as built, so a tuple stays a tuple."""
        def doc(last_row=None, defect=None, first_token=None, l=self.L):
            arrays = [[["r^1", "r^2*s", "r^5"], ["r^0*s", "r^7", "r^3"]]
                      for _ in range(3)]
            if last_row is not None:
                arrays[2][1] = list(last_row)
            if first_token is not None:
                arrays[0][1][1] = first_token
            if defect is not None:
                self.SHAPE_DEFECTS[defect](arrays)
            return {"l": l, "m": 2, "n": 3, "k": 3, "arrays": arrays}

        yield doc()
        yield doc(l=0)
        yield doc(l=-3)
        for row in self.rows():
            yield doc(last_row=row)
        for defect in self.SHAPE_DEFECTS:
            yield doc(defect=defect)
            yield doc(defect=defect, l=0)
            for token in TOKEN_CORPUS:
                yield doc(defect=defect, first_token=token)

    def test_documents_match_the_per_token_path(self):
        for doc in self.documents():
            expected = self.per_token_document(doc)
            if isinstance(expected, Exception):
                with pytest.raises(type(expected)) as err:
                    designs.from_json_dict(doc)
                assert type(err.value) is type(expected), doc
                assert str(err.value) == str(expected), doc
                continue
            s = designs.from_json_dict(doc)
            assert s == expected, doc
            assert all(type(c) is DihedralElement and type(c.exponent) is int
                       and type(c.is_reflection) is bool
                       for c in s.all_cells())

    def test_row_path_reads_canonical_rows_only(self):
        canonical = re.compile(r"r\^[0-9]+(\*s)?")
        for row in self.rows():
            expected = self.per_token(row)
            if (isinstance(expected, Exception) or not all(
                    isinstance(t, str) and canonical.fullmatch(t) for t in row)):
                expected = None
            assert dihedral._parse_canonical_row(row, self.L) == expected, row


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

    def test_columns_padded_to_their_widest_token(self):
        r, f = (lambda i: rotation(i, 12)), (lambda i: reflection(i, 12))
        s = RectangleSet(12, (Rectangle(((f(10), r(1), f(3)),
                                         (r(0), r(11), r(2)))),
                              Rectangle(((r(4), f(0), r(5)),
                                         (f(11), r(6), f(1))))))
        assert render_text(s) == ("r^10*s r^1  r^3*s\n"
                                  "r^0    r^11 r^2\n"
                                  "\n"
                                  "r^4    r^0*s r^5\n"
                                  "r^11*s r^6   r^1*s")
