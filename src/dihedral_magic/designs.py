"""Rectangles and rectangle sets over a dihedral group.

A RectangleSet holds k arrays of shape m x n over D_l.  A candidate
magic rectangle set must use every element of the group exactly once
(exact cover); validate_cover checks that, and deserialize tolerates
broken covers (flagged, not fatal) so third-party candidates can still
be loaded and diagnosed.

Serialized form (JSON):
    {"l": int, "m": int, "n": int, "k": int,
     "arrays": [[["<token>", ...row...], ...rows...], ...k arrays...]}
with tokens from the element grammar ("r^3", "r^0*s", aliases e/r/s/rs).
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Sequence

from . import dihedral
from .dihedral import DihedralElement
from .errors import CoverError, ParseError, SchemaError


class CoverViolationWarning(UserWarning):
    """Deserialized set does not cover its group exactly once."""


@dataclass(frozen=True, slots=True)
class Rectangle:
    """An m x n grid of group elements, row-major, 0-indexed storage."""

    cells: tuple[tuple[DihedralElement, ...], ...]

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise ValueError("rectangle must have at least one row and column")
        width = len(self.cells[0])
        if any(map(width.__ne__, map(len, self.cells))):
            raise ValueError("rectangle rows must all have the same length")

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def n(self) -> int:
        return len(self.cells[0])

    def row(self, i: int) -> tuple[DihedralElement, ...]:
        return self.cells[i]

    def column(self, j: int) -> tuple[DihedralElement, ...]:
        return tuple(self.cells[i][j] for i in range(self.m))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[DihedralElement]]) -> "Rectangle":
        return Rectangle(tuple(tuple(row) for row in rows))


@dataclass(frozen=True, slots=True)
class RectangleSet:
    """k same-shaped rectangles over D_l (a candidate magic rectangle set)."""

    l: int
    arrays: tuple[Rectangle, ...]

    def __post_init__(self):
        dihedral.check_group_order(self.l)
        if not self.arrays:
            raise ValueError("rectangle set must contain at least one array")
        l = self.l
        for idx, rect in enumerate(self.arrays):
            if not isinstance(rect, Rectangle):
                raise ValueError(f"array {idx} is not a Rectangle")
            if idx == 0:  # self.m and self.n read array 0, checked just now
                m, n = self.m, self.n
            elif rect.m != m or rect.n != n:
                raise ValueError(f"array {idx} has shape {rect.m}x{rect.n}, "
                                 f"expected {m}x{n}")
            try:
                for row in rect.cells:
                    for cell in row:
                        exp = cell.exponent
                        # a bool or float exponent would print as r^True
                        # or r^1.0, which no parser reads back
                        if (type(exp) is not int or not 0 <= exp < l
                                or cell.is_reflection not in (False, True)):
                            raise ValueError(
                                f"cell {cell} is not canonical for l={l}")
            except AttributeError:
                # row and cell are the ones that raised; find them by identity
                # (a plain tuple compares equal to an element)
                i = next(i for i, r in enumerate(rect.cells) if r is row)
                j = next(j for j, c in enumerate(row) if c is cell)
                raise ValueError(f"array {idx}, row {i}, column {j}: {cell!r} "
                                 "is not a group element") from None

    @property
    def k(self) -> int:
        return len(self.arrays)

    @property
    def m(self) -> int:
        return self.arrays[0].m

    @property
    def n(self) -> int:
        return self.arrays[0].n

    def all_cells(self) -> Iterator[DihedralElement]:
        return chain.from_iterable(row for rect in self.arrays
                                   for row in rect.cells)


@dataclass(frozen=True, slots=True)
class ProductSpec:
    """Witnessed constants: row product rho, column product sigma, and for
    squares the magic constant mu and the two diagonal products."""

    rho: DihedralElement | None = None
    sigma: DihedralElement | None = None
    mu: DihedralElement | None = None
    delta1: DihedralElement | None = None
    delta2: DihedralElement | None = None

    def to_json_dict(self) -> dict:
        out = {}
        for name in ("rho", "sigma", "mu", "delta1", "delta2"):
            value = getattr(self, name)
            if value is not None:
                out[name] = dihedral.format_element(value)
        return out


@dataclass(frozen=True, slots=True)
class CoverReport:
    """Result of the exact-cover check.

    `missing` lists the absent elements only when the cell count matches
    the group order; `missing_count` always gives their number.
    """

    cell_count: int
    expected_count: int
    duplicates: tuple[tuple[DihedralElement, int], ...] = ()
    missing: tuple[DihedralElement, ...] = ()
    missing_count: int = 0

    @property
    def dimension_ok(self) -> bool:
        return self.cell_count == self.expected_count

    @property
    def ok(self) -> bool:
        return self.dimension_ok and not self.duplicates and not self.missing

    def summary(self) -> str:
        if self.ok:
            return f"ok ({self.cell_count} cells cover the group exactly)"
        parts = []
        if not self.dimension_ok:
            parts.append(f"dimension mismatch: {self.cell_count} cells vs "
                         f"group order {self.expected_count}")
        if self.duplicates:
            dups = ", ".join(f"{elem} x{count}" for elem, count in self.duplicates)
            parts.append(f"duplicated: {dups}")
        if self.missing:
            parts.append("missing: " + ", ".join(str(e) for e in self.missing))
        elif self.missing_count:
            parts.append(f"missing: {self.missing_count} elements")
        return "; ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "dimension_ok": self.dimension_ok,
            "cell_count": self.cell_count,
            "expected_count": self.expected_count,
            "duplicates": [[str(e), c] for e, c in self.duplicates],
            "missing": [str(e) for e in self.missing],
            "missing_count": self.missing_count,
        }


def validate_cover(s: RectangleSet) -> CoverReport:
    """Check that the k arrays use each element of D_l exactly once.

    A size mismatch m*n*k != 2l is reported distinctly from duplicated or
    missing elements; nothing is raised, so defective candidates can be
    diagnosed.  The work is proportional to the cell count: on a size
    mismatch the missing elements are counted, not listed.  Every cell is
    canonical, so 2l distinct cells are the whole group: one set shows
    that, and only a defective set is counted.
    """
    cell_count = s.m * s.n * s.k
    if cell_count == 2 * s.l and len(set(s.all_cells())) == cell_count:
        return CoverReport(cell_count, cell_count)
    counts = Counter(s.all_cells())
    duplicates = ()
    if len(counts) < cell_count:
        duplicates = tuple(sorted((e, c) for e, c in counts.items() if c > 1))
    missing = ()
    if cell_count == 2 * s.l and len(counts) < 2 * s.l:
        missing = tuple(e for e in dihedral.elements(s.l) if e not in counts)
    return CoverReport(cell_count, 2 * s.l, duplicates, missing,
                       2 * s.l - len(counts))


def _require_cover(s: RectangleSet, op: str) -> None:
    report = validate_cover(s)
    if not report.ok:
        raise CoverError(f"{op} requires an exact cover: {report.summary()}",
                         report)


def concat_horizontal(s: RectangleSet) -> RectangleSet:
    """Join the k arrays side by side into one m x (n*k) rectangle.

    Array p occupies columns p*n .. (p+1)*n - 1.  Exact cover is preserved;
    if the input is linearly magic with row product rho, the output rows
    multiply to rho^k and every column keeps its original product.
    """
    _require_cover(s, "concat_horizontal")
    if s.k == 1:
        return s
    rows = [tuple(x for rect in s.arrays for x in rect.cells[i])
            for i in range(s.m)]
    return RectangleSet(s.l, (Rectangle.from_rows(rows),))


def concat_vertical(s: RectangleSet) -> RectangleSet:
    """Stack the k arrays into one (m*k) x n rectangle (array p on rows
    p*m .. (p+1)*m - 1); mirror of concat_horizontal with columns fixed
    and the column product becoming sigma^k."""
    _require_cover(s, "concat_vertical")
    if s.k == 1:
        return s
    rows = [row for rect in s.arrays for row in rect.cells]
    return RectangleSet(s.l, (Rectangle.from_rows(rows),))


def to_json_dict(s: RectangleSet) -> dict:
    return {
        "l": s.l,
        "m": s.m,
        "n": s.n,
        "k": s.k,
        "arrays": [[[dihedral.format_element(cell) for cell in row]
                    for row in rect.cells]
                   for rect in s.arrays],
    }


def serialize(s: RectangleSet) -> str:
    """Lossless JSON text form of a rectangle set: the text of
    json.dumps(to_json_dict(s), indent=2), written directly.  Cells are
    canonical, so each token is "r^<digits>" or "r^<digits>*s" and needs
    no escaping."""
    fmt = dihedral.format_element
    arrays = ",\n    ".join(
        "[\n      " + ",\n      ".join(
            '[\n        "' + '",\n        "'.join(map(fmt, row)) + '"\n      ]'
            for row in rect.cells) + "\n    ]"
        for rect in s.arrays)
    return (f'{{\n  "l": {s.l},\n  "m": {s.m},\n  "n": {s.n},\n  "k": {s.k},'
            f'\n  "arrays": [\n    {arrays}\n  ]\n}}')


def _expect_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"field {key!r} must be an integer, got {value!r}")
    return value


def from_json_dict(doc: dict) -> RectangleSet:
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    l = _expect_int(doc, "l")
    m = _expect_int(doc, "m")
    n = _expect_int(doc, "n")
    k = _expect_int(doc, "k")
    arrays_doc = doc.get("arrays")
    if not isinstance(arrays_doc, list) or len(arrays_doc) != k:
        raise SchemaError(f"'arrays' must be a list of {k} arrays")
    cells = _canonical_cells(arrays_doc, l, m, n)
    if cells is not None:
        rows = [cells[j:j + n] for j in range(0, len(cells), n)]
        return RectangleSet(l, tuple(Rectangle(tuple(rows[i:i + m]))
                                     for i in range(0, m * k, m)))
    arrays = []
    for a, rows_doc in enumerate(arrays_doc):
        if not isinstance(rows_doc, list) or len(rows_doc) != m:
            raise SchemaError(f"array {a + 1}: expected {m} rows")
        rows = []
        for i, row_doc in enumerate(rows_doc):
            if not isinstance(row_doc, list) or len(row_doc) != n:
                raise SchemaError(f"array {a + 1}, row {i + 1}: "
                                  f"expected {n} cells")
            if a == i == 0 and row_doc and isinstance(row_doc[0], str):
                # l is checked once, at the first token: after the shape
                # errors and the non-string first cell that come before it
                dihedral.check_group_order(l)
            rows.append(_parse_tokens(row_doc, l, a, i))
        arrays.append(Rectangle(tuple(rows)))
    return RectangleSet(l, tuple(arrays))


def _canonical_cells(arrays_doc: list, l: int, m: int, n: int) -> tuple | None:
    """All cells of a document of k lists of m rows of n canonical tokens,
    row-major, read in C-level passes; None for any other document, which
    the caller reads row by row for its errors.

    l is checked here where the row-by-row reading checks it: once the
    shape holds, at the first token, if that is a string.
    """
    if not (all(map(isinstance, arrays_doc, repeat(list)))
            and all(map(m.__eq__, map(len, arrays_doc)))):
        return None
    rows = list(chain.from_iterable(arrays_doc))
    if not (all(map(isinstance, rows, repeat(list)))
            and all(map(n.__eq__, map(len, rows)))):
        return None
    tokens = list(chain.from_iterable(rows))
    if not tokens or not isinstance(tokens[0], str):
        return None
    dihedral.check_group_order(l)
    return dihedral._parse_canonical_row(tokens, l)


def _parse_tokens(row_doc: list, l: int, a: int, i: int) -> tuple:
    """Row i of array a token by token, raising the first bad cell's
    error with its location (1-based in the messages)."""
    row = []
    for j, token in enumerate(row_doc):
        if not isinstance(token, str):
            raise SchemaError(f"array {a + 1}, row {i + 1}, column "
                              f"{j + 1}: cell must be a string token")
        try:
            row.append(dihedral._parse_token(token, l))
        except ParseError as exc:
            raise ParseError(f"array {a + 1}, row {i + 1}, column "
                             f"{j + 1}: {exc}") from None
    return tuple(row)


def deserialize(text: str) -> RectangleSet:
    """Parse the JSON form; cover violations are reported as a
    CoverViolationWarning but the set is still returned."""
    s = _from_text(text)
    report = validate_cover(s)
    if not report.ok:
        warnings.warn(CoverViolationWarning(report.summary()), stacklevel=2)
    return s


def _from_text(text: str) -> RectangleSet:
    """deserialize without the cover check."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    except ValueError:  # an integer with more digits than int() accepts
        raise SchemaError("invalid JSON: integer literal too long") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    return from_json_dict(doc)


def render_text(s: RectangleSet) -> str:
    """Text grid: one array per block, column-aligned cells, arrays
    separated by a blank line."""
    blocks = []
    for rect in s.arrays:
        tokens = [list(map(dihedral.format_element, row))
                  for row in rect.cells]
        widths = [max(map(len, column)) for column in zip(*tokens)]
        lines = [" ".join(map(str.ljust, row, widths)).rstrip()
                 for row in tokens]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
