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
        for name in ("rho", "sigma", "mu", "delta1", "delta2"):
            value = getattr(self.witnessed, name)
            if value is not None:
                lines.append(f"{name}: {value}")
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


def achievable_products(cells, l: int, cap: int = DEFAULT_CAP) -> frozenset[DihedralElement]:
    """Exact set of products reachable by some ordering of `cells`.

    Computed in closed form as signed sums of the exponents (see
    _kernels_py.reachable_mask), in time polynomial in |cells| and l.
    |cells| above the cap is refused with CapacityError.
    """
    cells = list(cells)
    if len(cells) > cap:
        raise CapacityError(
            f"achievable_products over {len(cells)} cells exceeds cap {cap}; "
            "use linear mode or raise the cap")
    idxs = [dihedral.element_index(c, l) for c in cells]
    return frozenset(dihedral.element_from_index(i, l)
                     for i in _backend.achievable_indices(idxs, l))


def _linear_products(s: RectangleSet):
    rho = None
    sigma = None
    failures: list[Failure] = []
    for a, rect in enumerate(s.arrays, start=1):
        for i in range(rect.m):
            p = dihedral.word_product(rect.row(i), s.l)
            if rho is None:
                rho = p
            elif p != rho:
                failures.append(Failure(a, f"row {i + 1}", (p,),
                                        f"expected {rho}"))
        for j in range(rect.n):
            q = dihedral.word_product(reversed(rect.column(j)), s.l)
            if sigma is None:
                sigma = q
            elif q != sigma:
                failures.append(Failure(a, f"column {j + 1}", (q,),
                                        f"expected {sigma}"))
    return rho, sigma, failures


def _orderable_sets(s: RectangleSet, cap: int):
    if max(s.m, s.n) > cap:
        raise CapacityError(
            f"orderable verification of lines up to length {max(s.m, s.n)} "
            f"exceeds cap {cap}; raise the cap or use linear mode")
    failures: list[Failure] = []
    rho_set: frozenset[DihedralElement] | None = None
    for a, rect in enumerate(s.arrays, start=1):
        for i in range(rect.m):
            reachable = achievable_products(rect.row(i), s.l, cap)
            rho_set = reachable if rho_set is None else rho_set & reachable
            if not rho_set:
                failures.append(Failure(a, f"row {i + 1}",
                                        tuple(sorted(reachable)),
                                        "no common row product remains"))
                break
        if rho_set is not None and not rho_set:
            break
    sigma_set: frozenset[DihedralElement] | None = None
    for a, rect in enumerate(s.arrays, start=1):
        for j in range(rect.n):
            reachable = achievable_products(rect.column(j), s.l, cap)
            sigma_set = reachable if sigma_set is None else sigma_set & reachable
            if not sigma_set:
                failures.append(Failure(a, f"column {j + 1}",
                                        tuple(sorted(reachable)),
                                        "no common column product remains"))
                break
        if sigma_set is not None and not sigma_set:
            break
    return rho_set or frozenset(), sigma_set or frozenset(), failures


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
    witnessed = ProductSpec(rho=min(rho_set) if rho_set else None,
                            sigma=min(sigma_set) if sigma_set else None)
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
    """Shared semi-magic core: returns (mu candidates, witnesses, failures)."""
    if mode == "linear":
        rho, sigma, failures = _linear_products(s)
        candidates = frozenset((rho,)) if not failures and rho == sigma else frozenset()
        if not failures and rho != sigma:
            failures.append(Failure(None, "rho=sigma", (rho, sigma),
                                    "row and column products differ"))
        return candidates, rho, sigma, failures
    if mode == "orderable":
        rho_set, sigma_set, failures = _orderable_sets(s, cap)
        candidates = rho_set & sigma_set
        if not failures and not candidates:
            failures.append(Failure(None, "rho=sigma",
                                    tuple(sorted(rho_set | sigma_set)),
                                    "no product is reachable by every row "
                                    "and every column"))
        rho = min(rho_set) if rho_set else None
        sigma = min(sigma_set) if sigma_set else None
        return candidates, rho, sigma, failures
    raise ValueError(f"unknown mode {mode!r}")


def verify_semi_magic_square(s: RectangleSet, mode: str = "linear",
                             cap: int = DEFAULT_CAP) -> VerificationReport:
    """Single square array with equal row and column products rho = sigma."""
    _require_square(s)
    candidates, rho, sigma, failures = _semi_magic(s, mode, cap)
    mu = min(candidates) if candidates else None
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
            if d1 == d2 and d1 in candidates:
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
        main_set = achievable_products(main, s.l, cap)
        back_set = achievable_products(back, s.l, cap)
        reachable = candidates & main_set & back_set
        if candidates:
            if reachable:
                mu = min(reachable)
                d1 = d2 = mu
            else:
                failures.append(Failure(None, "diagonals",
                                        tuple(sorted(main_set & back_set)),
                                        "no common product is reachable by "
                                        "both diagonals"))
    witnessed = ProductSpec(rho=mu if mu is not None else rho,
                            sigma=mu if mu is not None else sigma,
                            mu=mu, delta1=d1, delta2=d2)
    return VerificationReport(mode, witnessed, tuple(failures),
                              validate_cover(s), diagonal_mode=diagonal_mode)
