"""Classify (m, n, k) tuples: does a magic rectangle set over the
dihedral group of order m*n*k exist?

The decision procedure applies, in order:
  1. m*n*k odd: no dihedral group of that order exists (error);
  2. l = m*n*k/2 odd: NotExists, since an odd l means D_l holds an odd
     number of reflections, so any ordering of all its elements
     multiplies to a reflection, while column orderings force the total
     sigma^(even) which is a rotation;
  3. shape (2, odd; 2) (or its transpose): NotExists by the row/column
     reflection-parity counting argument special to two rows and two
     arrays;
  4. a side of length 1: NotExists, since a line of one cell multiplies
     to that cell, the cells are distinct, and there are at least two
     such lines;
  5. m and n both even (and m*n*k > 4): Exists, by the 2x2 block tiling;
  6. everything else: Unknown (no result either way is implemented).

Verdicts only ever cite results this package can back with a
constructor; the Unknown region is genuinely open.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Status(enum.Enum):
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"
    UNKNOWN = "Unknown"


class Justification(enum.Enum):
    LEMMA_BLOCK = "LemmaBlock"
    THM_EVEN_TILING = "ThmEvenTiling"
    OBS_ODD_L = "ObsOddL"
    OBS_TWO_BY_L_TWICE = "ObsTwoByLTwice"
    OBS_SIDE_ONE = "ObsSideOne"


@dataclass(frozen=True, slots=True)
class FeasibilityVerdict:
    m: int
    n: int
    k: int
    l: int
    status: Status
    justification: Justification | None
    detail: str

    def render(self) -> str:
        just = f" ({self.justification.value})" if self.justification else ""
        return (f"MRS({self.m},{self.n};{self.k}) over D_{self.l}: "
                f"{self.status.value}{just}: {self.detail}")

    def to_json_dict(self) -> dict:
        return {
            "m": self.m, "n": self.n, "k": self.k, "l": self.l,
            "status": self.status.value,
            "justification": self.justification.value
            if self.justification else None,
            "detail": self.detail,
        }


def classify(m: int, n: int, k: int) -> FeasibilityVerdict:
    """Feasibility verdict for a magic rectangle set of k arrays m x n;
    m, n and k must be plain ints (TypeError otherwise)."""
    if not (type(m) is type(n) is type(k) is int):
        for name, value in (("m", m), ("n", n), ("k", k)):
            if type(value) is not int:
                raise TypeError(f"{name} must be a plain int, got "
                                f"{type(value).__name__}")
    if m < 1 or n < 1 or k < 1:
        raise ValueError(f"dimensions must be positive, got ({m},{n},{k})")
    if (m * n * k) % 2:
        raise ValueError(f"m*n*k = {m * n * k} is odd; no dihedral group "
                         "has odd order")
    l = m * n * k // 2

    if l % 2:
        detail = (f"l = {l} is odd, so D_{l} contains an odd number of "
                  "reflections: the product of all elements is a reflection "
                  "under every ordering, yet the column products force a "
                  "rotation")
        # mnk = 2l = 2 mod 4: exactly one dimension is even, and it is 2 mod 4
        even = next(x for x in (m, n, k) if x % 2 == 0)
        detail += (f"; equivalently, {even} is the only even dimension "
                   "and it is 2 mod 4")
        return FeasibilityVerdict(m, n, k, l, Status.NOT_EXISTS,
                                  Justification.OBS_ODD_L, detail)

    if k == 2 and ((m == 2 and n % 2) or (n == 2 and m % 2)):
        odd = n if m == 2 else m
        return FeasibilityVerdict(
            m, n, k, l, Status.NOT_EXISTS, Justification.OBS_TWO_BY_L_TWICE,
            f"two 2x{odd} arrays over D_{l} with {odd} odd: equal row "
            "parities per array force a reflection count of 0 mod 4, but "
            f"the group holds 2*{odd} = 2 mod 4 entries")

    if m == 1 or n == 1:
        axis, lines = ("column", n * k) if m == 1 else ("row", m * k)
        return FeasibilityVerdict(
            m, n, k, l, Status.NOT_EXISTS, Justification.OBS_SIDE_ONE,
            f"each of the {lines} {axis}s holds one cell, so its product is "
            f"that cell; the cells are distinct, so the {axis} products "
            "cannot all be equal")

    if m % 2 == 0 and n % 2 == 0:
        if m * n * k > 4:
            if m == 2 and n == 2:
                return FeasibilityVerdict(
                    m, n, k, l, Status.EXISTS, Justification.LEMMA_BLOCK,
                    f"the k = {k} blocks M^p cover D_{l} with row product "
                    "rs and column product s")
            return FeasibilityVerdict(
                m, n, k, l, Status.EXISTS, Justification.THM_EVEN_TILING,
                f"even-by-even tiling of 2x2 blocks: linearly magic with "
                f"rho = (rs)^{n // 2}, sigma = s^{m // 2}")
        return FeasibilityVerdict(
            m, n, k, l, Status.UNKNOWN, None,
            "below the tiling construction's range (it needs at least two "
            "blocks, i.e. m*n*k > 4); small-order search shows a 2x2 square "
            "over D_2 does exist")

    return FeasibilityVerdict(
        m, n, k, l, Status.UNKNOWN, None,
        "no implemented construction or nonexistence argument covers this "
        "shape")


def parity_witness(m: int, n: int, k: int) -> str:
    """Instantiated counting argument behind an odd-l NotExists verdict."""
    verdict = classify(m, n, k)
    if verdict.justification is not Justification.OBS_ODD_L:
        raise ValueError(
            f"({m},{n},{k}) was not ruled out by the odd-l parity argument "
            f"(verdict: {verdict.status.value})")
    l = verdict.l
    # Keep an odd dimension on the row side, transposing if necessary.
    if m % 2:
        rows, exponent, axis = m, n * k, "column"
    else:
        rows, exponent, axis = n, m * k, "row"
    return (
        f"D_{l} has {l} reflections, an odd number, so every ordering of "
        f"all {2 * l} elements multiplies to a reflection. Concatenating "
        f"the {k} array(s) along the side of length {rows} (odd) leaves "
        f"{exponent} lines of length {rows}; multiplying the whole group "
        f"through those {axis} orderings gives sigma^{exponent}, and "
        f"{exponent} is even, so that product is a rotation. Both cannot "
        "hold, hence no magic rectangle set exists.")
