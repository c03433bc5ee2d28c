"""Exact arithmetic in the dihedral group D_l of order 2l.

Elements are rotations r^i or reflections r^i*s with the exponent kept
reduced to [0, l), so equality is plain tuple comparison.  The defining
relation is r^i s = s r^-i; everything below follows from it:

    r^a * r^b     = r^(a+b)
    r^a * r^b s   = r^(a+b) s
    r^a s * r^b   = r^(a-b) s
    r^a s * r^b s = r^(a-b)

All functions are pure and take the group order parameter l explicitly;
l = 1 and l = 2 are accepted as the degenerate groups defined by the
same relations (handy for small brute-force work).
"""

from __future__ import annotations

import re
from functools import partial
from itertools import repeat
from typing import Iterable, NamedTuple

from .errors import ParseError

# Orders above this would still be exact, just pointlessly slow; enumeration
# and table-based code assume desk-scale groups.
MAX_GROUP_ORDER = 10**7

_TOKEN_RE = re.compile(r"^r\^(-?\d+)(\*s)?$")
# A row of canonical tokens (ASCII digits, no sign) joined by commas
_CANONICAL_ROW_RE = re.compile(r"r\^[0-9]+(?:\*s)?(?:,r\^[0-9]+(?:\*s)?)*")
_ALIASES = {"e": (False, 0), "r": (False, 1), "s": (True, 0), "rs": (True, 1)}


def check_group_order(l: int) -> int:
    """Validate a group order parameter (D_l has 2l elements)."""
    if not isinstance(l, int) or isinstance(l, bool):
        raise TypeError(f"group order must be an int, got {type(l).__name__}")
    if l < 1:
        raise ValueError(f"group order parameter must be >= 1, got {l}")
    if l > MAX_GROUP_ORDER:
        raise ValueError(f"group order parameter {l} exceeds the supported "
                         f"maximum {MAX_GROUP_ORDER}")
    return l


def _plain_int(name: str, value) -> None:
    """Refuse a value that is not a plain int: a bool or a float would
    otherwise pass the range checks and give a non-integer exponent or a
    structure of the wrong size."""
    if type(value) is not int:
        raise TypeError(f"{name} must be a plain int, got "
                        f"{type(value).__name__}")


class DihedralElement(NamedTuple):
    """One element of D_l: r^exponent, or r^exponent * s if is_reflection.

    A named tuple, so hashing, equality and ordering run in C.  Ordering
    is (is_reflection, exponent): rotations sort before reflections, each
    by ascending exponent; the least element is e.  An element equals the
    plain tuple (is_reflection, exponent).
    """

    is_reflection: bool
    exponent: int

    def __str__(self) -> str:
        return format_element(self)


# DihedralElement((flag, exponent)) without the named tuple's __new__,
# which is a Python function: one C call per element
_new_element = partial(tuple.__new__, DihedralElement)


def identity(l: int) -> DihedralElement:
    """The identity e = r^0."""
    check_group_order(l)
    return DihedralElement(False, 0)


def rotation(exponent: int, l: int) -> DihedralElement:
    """r^exponent, reduced mod l; exponent must be a plain int."""
    _plain_int("exponent", exponent)
    check_group_order(l)
    return DihedralElement(False, exponent % l)


def reflection(exponent: int, l: int) -> DihedralElement:
    """r^exponent * s, reduced mod l; exponent must be a plain int."""
    _plain_int("exponent", exponent)
    check_group_order(l)
    return DihedralElement(True, exponent % l)


def multiply(a: DihedralElement, b: DihedralElement, l: int) -> DihedralElement:
    """Product a*b; inputs must be canonical for the same l."""
    if a.is_reflection:
        exp = a.exponent - b.exponent
    else:
        exp = a.exponent + b.exponent
    return DihedralElement(a.is_reflection != b.is_reflection, exp % l)


def inverse(a: DihedralElement, l: int) -> DihedralElement:
    """Group inverse; reflections are involutions."""
    if a.is_reflection:
        return a
    return DihedralElement(False, -a.exponent % l)


def power(a: DihedralElement, t: int, l: int) -> DihedralElement:
    """t-fold product of a, for a plain int t >= 0; power(a, 0) is the
    identity."""
    _plain_int("exponent", t)
    if t < 0:
        raise ValueError(f"exponent must be non-negative, got {t}")
    if a.is_reflection:
        return a if t % 2 else DihedralElement(False, 0)
    return DihedralElement(False, (a.exponent * t) % l)


def elements(l: int) -> list[DihedralElement]:
    """All 2l elements: rotations by ascending exponent, then reflections."""
    check_group_order(l)
    rots = [DihedralElement(False, i) for i in range(l)]
    refs = [DihedralElement(True, i) for i in range(l)]
    return rots + refs


def word_product(seq: Iterable[DihedralElement], l: int) -> DihedralElement:
    """Left-to-right product of a sequence; empty product is e.

    One pass, as _kernels_py._word_index does on indices: r^E s^f times
    r^b s^g is r^(E + (-1)^f b) s^(f + g), so each exponent enters E
    with the sign set by the reflections before it.
    """
    exp = 0
    flip = False
    for x in seq:
        exp = exp - x.exponent if flip else exp + x.exponent
        flip = flip != x.is_reflection
    return _new_element((flip, exp % l))


def parse_element(token: str, l: int) -> DihedralElement:
    """Parse "r^<int>" / "r^<int>*s" (aliases e, r, s, rs); reduces mod l."""
    check_group_order(l)
    return _parse_token(token, l)


def _parse_token(token: str, l: int) -> DihedralElement:
    """parse_element for an l the caller has already checked."""
    stripped = token.strip()
    alias = _ALIASES.get(stripped)
    if alias is not None:
        is_ref, exp = alias
        return DihedralElement(is_ref, exp % l)
    m = _TOKEN_RE.match(stripped)
    if m is None:
        raise ParseError(f"malformed element token {token!r}")
    try:
        exponent = int(m.group(1))
    except ValueError:  # more digits than int() accepts
        raise ParseError(f"exponent too long in token {token!r}") from None
    return DihedralElement(m.group(2) is not None, exponent % l)


def _parse_canonical_row(tokens: list, l: int) -> tuple | None:
    """_parse_token over a row whose tokens are all "r^<digits>" or
    "r^<digits>*s", in C-level passes; None for any other row, which the
    caller parses token by token.  l must be checked already.  A whole
    document's tokens, row after row, are one row here.

    The joined row matches the pattern only as c tokens with c - 1 commas
    between them, so c == len(tokens) means no token holds a comma and
    the j-th digit run is token j's exponent.
    """
    try:
        joined = ",".join(tokens)
    except TypeError:  # a cell that is not a string
        return None
    if _CANONICAL_ROW_RE.fullmatch(joined) is None:
        return None
    digits = joined.replace("*s", "")[2:].split(",r^")
    if len(digits) != len(tokens):
        return None
    flags = map(str.endswith, tokens, repeat("s"))
    try:
        return tuple(map(_new_element,
                         zip(flags, map(l.__rmod__, map(int, digits)))))
    except ValueError:  # more digits than int() accepts
        return None


def format_element(a: DihedralElement) -> str:
    """Canonical token: "r^3" or "r^3*s"."""
    return f"r^{a.exponent}*s" if a.is_reflection else f"r^{a.exponent}"


def element_index(a: DihedralElement, l: int) -> int:
    """Position of a in elements(l): exponent, plus l for reflections."""
    return a.exponent + (l if a.is_reflection else 0)


def element_from_index(i: int, l: int) -> DihedralElement:
    """Inverse of element_index; i must be a plain int."""
    _plain_int("element index", i)
    if not 0 <= i < 2 * l:
        raise ValueError(f"element index {i} out of range for order {2 * l}")
    return DihedralElement(i >= l, i % l)
