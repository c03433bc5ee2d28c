"""Decide whether a rectangle set is magic, and report the witnesses.

Two reading modes exist for rows and columns:

  linear    - rows multiply left-to-right, columns bottom-to-top
              (row m down to row 1); every line must hit the same fixed
              products rho (rows) and sigma (columns).
  orderable - for each line some ordering of its cells must reach a
              product common to all rows (rho) resp. all columns (sigma).

For squares the magic constant mu = rho = sigma must also be achieved by
both diagonals.  The fixed diagonal reading runs right-to-left: the main
diagonal from (n,n) up to (1,1), mirroring the bottom-to-top column
rule, and the backward diagonal from (1,n) down to (n,1).  These are the
orders under which the block constructions in this package telescope to
a rotation per block; the permissive alternative (diagonal_mode
"orderable") only asks each diagonal multiset to reach mu.

Exact-cover problems are diagnosed in the report but do not decide the
verdict; pair these verifiers with validate_cover for full membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _backend, dihedral
from .designs import CoverReport, ProductSpec, RectangleSet, validate_cover
from .dihedral import DihedralElement
from .errors import CapacityError, ShapeError

DEFAULT_CAP = 8


@dataclass(frozen=True, slots=True)
class Failure:
    """One failed check; array and line ids are 1-indexed for reporting."""

    array: int | None
    line: str
    achieved: tuple[DihedralElement, ...]
    note: str = ""

    def render(self) -> str:
        where = f"array {self.array} {self.line}" if self.array else self.line
        got = ", ".join(str(p) for p in self.achieved) or "-"
        text = f"{where}: got {got}"
        return f"{text} ({self.note})" if self.note else text

    def to_json_dict(self) -> dict:
        return {
            "array": self.array,
            "line": self.line,
            "achieved": [str(p) for p in self.achieved],
            "note": self.note,
        }


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Verdict plus witnessed products; pass iff `failures` is empty."""

    mode: str
    witnessed: ProductSpec
    failures: tuple[Failure, ...]
    cover: CoverReport
    diagonal_mode: str | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"verdict: {'PASS' if self.passed else 'FAIL'}",
                 f"mode: {self.mode}"]
        if self.diagonal_mode is not None:
            lines.append(f"diagonals: {self.diagonal_mode}")
        lines.extend(f"{name}: {value}"
                     for name, value in self.witnessed.to_json_dict().items())
        lines.append(f"cover: {self.cover.summary()}")
        if self.failures:
            lines.append("failures:")
            lines.extend(f"  {f.render()}" for f in self.failures)
        else:
            lines.append("failures: none")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        out = {"verdict": "pass" if self.passed else "fail", "mode": self.mode}
        if self.diagonal_mode is not None:
            out["diagonal_mode"] = self.diagonal_mode
        out.update(self.witnessed.to_json_dict())
        out["failures"] = [f.to_json_dict() for f in self.failures]
        out["cover"] = self.cover.to_json_dict()
        return out


def _refuse_over_cap(cells: int, cap: int) -> None:
    if cells > cap:
        raise CapacityError(
            f"achievable_products over {cells} cells exceeds cap {cap}; "
            "use linear mode or raise the cap")


def achievable_products(cells, l: int, cap: int = DEFAULT_CAP) -> frozenset[DihedralElement]:
    """Exact set of products reachable by some ordering of `cells`.

    Computed in closed form as signed sums of the exponents (see
    _kernels_py.reachable_mask), in time polynomial in |cells| and l.
    |cells| above the cap is refused with CapacityError.
    """
    cells = list(cells)
    _refuse_over_cap(len(cells), cap)
    idxs = [dihedral.element_index(c, l) for c in cells]
    return frozenset(dihedral.element_from_index(i, l)
                     for i in _backend.achievable_indices(idxs, l))


# Orderable verification keeps product sets as masks over element
# indices (bit i set iff element_from_index(i, l) is in the set), and
# index order is element order: the least member is the lowest set bit.

def _line_mask(line, l: int) -> int:
    """Mask of the products some ordering of `line` reaches."""
    return _backend.reachable_mask(
        [x.exponent + l * x.is_reflection for x in line], l)


def _least(mask: int, l: int) -> DihedralElement | None:
    """Least element of the mask, or None when it is empty."""
    if not mask:
        return None
    return dihedral.element_from_index((mask & -mask).bit_length() - 1, l)


def _members(mask: int, l: int) -> tuple[DihedralElement, ...]:
    """Elements of the mask in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(dihedral.element_from_index(low.bit_length() - 1, l))
        mask ^= low
    return tuple(out)


def _linear_products(s: RectangleSet):
    first: dict[str, DihedralElement] = {}
    failures: list[Failure] = []
    for a, rect in enumerate(s.arrays, start=1):
        # columns read bottom-to-top
        for axis, lines in (("row", rect.cells),
                            ("column", zip(*reversed(rect.cells)))):
            for i, line in enumerate(lines, start=1):
                p = dihedral.word_product(line, s.l)
                expected = first.setdefault(axis, p)
                if p != expected:
                    failures.append(Failure(a, f"{axis} {i}", (p,),
                                            f"expected {expected}"))
    return first["row"], first["column"], failures


def _common_products(s: RectangleSet, axis: str):
    """Mask of the products every `axis` line can reach, and the failure
    of the first line that leaves none."""
    common = (1 << 2 * s.l) - 1
    for a, rect in enumerate(s.arrays, start=1):
        lines = rect.cells if axis == "row" else zip(*rect.cells)
        for i, line in enumerate(lines, start=1):
            reachable = _line_mask(line, s.l)
            common &= reachable
            if not common:
                return common, [Failure(a, f"{axis} {i}",
                                        _members(reachable, s.l),
                                        f"no common {axis} product remains")]
    return common, []


def _orderable_sets(s: RectangleSet, cap: int):
    if max(s.m, s.n) > cap:
        raise CapacityError(
            f"orderable verification of lines up to length {max(s.m, s.n)} "
            f"exceeds cap {cap}; raise the cap or use linear mode")
    rho_set, row_failures = _common_products(s, "row")
    sigma_set, column_failures = _common_products(s, "column")
    return rho_set, sigma_set, row_failures + column_failures


def verify_linear(s: RectangleSet) -> VerificationReport:
    """Fixed-order check: every row multiplies to the first row's product,
    every column (bottom-to-top) to the first column's."""
    rho, sigma, failures = _linear_products(s)
    witnessed = ProductSpec(rho=rho, sigma=sigma)
    return VerificationReport("linear", witnessed, tuple(failures),
                              validate_cover(s))


def verify_orderable(s: RectangleSet, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Existential check: some ordering per line, with rho and sigma common
    to all rows resp. columns across all k arrays.  Witnesses are the
    lexicographically least members of the surviving intersections."""
    rho_set, sigma_set, failures = _orderable_sets(s, cap)
    witnessed = ProductSpec(rho=_least(rho_set, s.l),
                            sigma=_least(sigma_set, s.l))
    return VerificationReport("orderable", witnessed, tuple(failures),
                              validate_cover(s))


def _require_square(s: RectangleSet) -> None:
    if s.k != 1:
        raise ShapeError(f"square verification requires k=1, got k={s.k}")
    if s.m != s.n:
        raise ShapeError(f"square verification requires m=n, got {s.m}x{s.n}")
    if s.n < 2:
        raise ShapeError("square verification requires side >= 2")


def _semi_magic(s: RectangleSet, mode: str, cap: int):
    """Shared semi-magic core: returns (mask of mu candidates, witnesses,
    failures)."""
    if mode == "linear":
        rho, sigma, failures = _linear_products(s)
        candidates = (1 << dihedral.element_index(rho, s.l)
                      if not failures and rho == sigma else 0)
        if not failures and rho != sigma:
            failures.append(Failure(None, "rho=sigma", (rho, sigma),
                                    "row and column products differ"))
        return candidates, rho, sigma, failures
    if mode == "orderable":
        rho_set, sigma_set, failures = _orderable_sets(s, cap)
        candidates = rho_set & sigma_set
        if not failures and not candidates:
            failures.append(Failure(None, "rho=sigma",
                                    _members(rho_set | sigma_set, s.l),
                                    "no product is reachable by every row "
                                    "and every column"))
        return (candidates, _least(rho_set, s.l), _least(sigma_set, s.l),
                failures)
    raise ValueError(f"unknown mode {mode!r}")


def verify_semi_magic_square(s: RectangleSet, mode: str = "linear",
                             cap: int = DEFAULT_CAP) -> VerificationReport:
    """Single square array with equal row and column products rho = sigma."""
    _require_square(s)
    candidates, rho, sigma, failures = _semi_magic(s, mode, cap)
    mu = _least(candidates, s.l)
    witnessed = ProductSpec(rho=mu if mu is not None else rho,
                            sigma=mu if mu is not None else sigma,
                            mu=mu)
    return VerificationReport(mode, witnessed, tuple(failures),
                              validate_cover(s))


def verify_magic_square(s: RectangleSet, mode: str = "linear",
                        diagonal_mode: str = "fixed",
                        cap: int = DEFAULT_CAP) -> VerificationReport:
    """Semi-magic check plus both diagonals equal to mu.

    diagonal_mode "fixed" reads the main diagonal (n,n)..(1,1) and the
    backward diagonal (1,n)..(n,1); "orderable" only requires each
    diagonal multiset to reach mu under some ordering.
    """
    _require_square(s)
    if diagonal_mode not in ("fixed", "orderable"):
        raise ValueError(f"unknown diagonal mode {diagonal_mode!r}")
    candidates, rho, sigma, failures = _semi_magic(s, mode, cap)
    cells = s.arrays[0].cells
    n = s.n
    main = [cells[i][i] for i in range(n)]
    back = [cells[i][n - 1 - i] for i in range(n)]
    mu = None
    d1 = d2 = None
    if diagonal_mode == "fixed":
        d1 = dihedral.word_product(reversed(main), s.l)
        d2 = dihedral.word_product(back, s.l)
        if candidates:
            if d1 == d2 and candidates >> dihedral.element_index(d1, s.l) & 1:
                mu = d1
            elif d1 != d2:
                failures.append(Failure(None, "diagonals", (d1, d2),
                                        "main and backward diagonal products "
                                        "differ"))
            else:
                failures.append(Failure(None, "diagonals", (d1, d2),
                                        "diagonal product is not a common "
                                        "row/column product"))
    else:
        _refuse_over_cap(n, cap)
        if candidates:
            both = _line_mask(main, s.l) & _line_mask(back, s.l)
            if candidates & both:
                mu = d1 = d2 = _least(candidates & both, s.l)
            else:
                failures.append(Failure(None, "diagonals",
                                        _members(both, s.l),
                                        "no common product is reachable by "
                                        "both diagonals"))
    witnessed = ProductSpec(rho=mu if mu is not None else rho,
                            sigma=mu if mu is not None else sigma,
                            mu=mu, delta1=d1, delta2=d2)
    return VerificationReport(mode, witnessed, tuple(failures),
                              validate_cover(s), diagonal_mode=diagonal_mode)
