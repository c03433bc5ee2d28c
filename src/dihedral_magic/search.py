"""Exhaustive backtracking search over small dihedral groups.

Independent of the constructors: it either produces a witness set or
certifies that none exists within the (optionally symmetry-reduced)
space.  The inner loop lives in the kernel backends; this module owns
configuration, outcome packaging and the hard size cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import _backend, designs, dihedral
from .designs import Rectangle, RectangleSet
from .errors import BudgetExceededError, CapacityError

HARD_CAP = 16  # largest group order 2l searched; <= 64 (compiled masks)
DEFAULT_BUDGET = 10**9
# the compiled kernel counts nodes in a signed 64-bit integer; no search
# within HARD_CAP visits this many, so a larger budget is the same budget
_KERNEL_BUDGET = 2**63 - 1


# the fields whose value must have exactly this type: a bool is not a
# dimension or a budget, and a truthy non-bool is not a switch
_FIELD_TYPES = (("m", int), ("n", int), ("k", int), ("node_budget", int),
                ("symmetry_reduction", bool), ("count_all", bool))


@dataclass(frozen=True, slots=True)
class SearchConfig:
    """Parameters of one search run; m*n*k must equal 2l.

    m, n, k and node_budget must be plain ints and the two switches
    plain bools (TypeError otherwise).
    """

    l: int
    m: int
    n: int
    k: int
    mode: str = "orderable"
    node_budget: int = DEFAULT_BUDGET
    symmetry_reduction: bool = True
    count_all: bool = False

    def __post_init__(self):
        dihedral.check_group_order(self.l)
        if not (type(self.m) is type(self.n) is type(self.k)
                is type(self.node_budget) is int
                and type(self.symmetry_reduction) is type(self.count_all)
                is bool):
            for name, kind in _FIELD_TYPES:
                value = getattr(self, name)
                if type(value) is not kind:
                    raise TypeError(f"{name} must be a plain {kind.__name__}"
                                    f", got {type(value).__name__}")
        if self.m < 1 or self.n < 1 or self.k < 1:
            raise ValueError("dimensions must be positive")
        if self.m * self.n * self.k != 2 * self.l:
            raise ValueError(
                f"m*n*k = {self.m * self.n * self.k} does not equal the "
                f"group order 2l = {2 * self.l}")
        if self.mode not in ("linear", "orderable"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.node_budget < 1:
            raise ValueError("node budget must be positive")


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """Result of a run.

    result is "found", "exhausted_none" or "budget_exceeded";
    solutions_count is only reported when counting finished within
    budget (a partial count is never an answer).
    """

    result: str
    nodes_visited: int
    found: RectangleSet | None = None
    solutions_count: int | None = None

    def to_json_dict(self) -> dict:
        out = {"result": self.result, "nodes_visited": self.nodes_visited}
        if self.solutions_count is not None:
            out["solutions_count"] = self.solutions_count
        if self.found is not None:
            out["found"] = designs.to_json_dict(self.found)
        return out


def _grid_to_set(flat: list[int], cfg: SearchConfig) -> RectangleSet:
    per = cfg.m * cfg.n
    arrays = []
    for a in range(cfg.k):
        rows = tuple(
            tuple(dihedral.element_from_index(flat[a * per + i * cfg.n + j],
                                              cfg.l)
                  for j in range(cfg.n))
            for i in range(cfg.m))
        arrays.append(Rectangle(rows))
    return RectangleSet(cfg.l, tuple(arrays))


def exhaustive_search(cfg: SearchConfig) -> SearchOutcome:
    """Run the backtracking search described by cfg.

    Deterministic: a fixed fill order (arrays in order, row-major) and a
    fixed candidate order (ascending element index) give identical
    outcomes and node counts across runs and backends.
    """
    if 2 * cfg.l > HARD_CAP:
        raise CapacityError(
            f"group order {2 * cfg.l} exceeds the search cap {HARD_CAP}")
    status, nodes, count, flat = _backend.run_search(
        cfg.l, cfg.m, cfg.n, cfg.k, cfg.mode == "linear",
        cfg.symmetry_reduction, cfg.count_all,
        min(cfg.node_budget, _KERNEL_BUDGET))
    if status == 2:
        return SearchOutcome("budget_exceeded", nodes)
    found = _grid_to_set(flat, cfg) if flat is not None else None
    solutions = count if cfg.count_all else None
    if found is not None:
        return SearchOutcome("found", nodes, found, solutions)
    return SearchOutcome("exhausted_none", nodes, None, solutions)


def count_solutions(cfg: SearchConfig) -> int:
    """Number of solutions (symmetry-reduced when reduction is on)."""
    outcome = exhaustive_search(replace(cfg, count_all=True))
    if outcome.result == "budget_exceeded":
        raise BudgetExceededError(
            f"node budget {cfg.node_budget} exhausted after "
            f"{outcome.nodes_visited} nodes; the count is not an answer")
    assert outcome.solutions_count is not None
    return outcome.solutions_count
