"""Command-line surface.

Subcommands: construct, verify, feasible, search, concat, render.
Exit codes: 0 success/pass, 1 verified-fail or NotExists/ExhaustedNone,
2 usage error, 3 capacity or budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import construct, designs, feasibility, search, verify
from .designs import CoverReport, RectangleSet
from .errors import (BudgetExceededError, CapacityError, CoverError,
                     ShapeError)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    from . import __version__
    parser = argparse.ArgumentParser(
        prog="dihedral-magic",
        description="Construct, verify, classify and search magic rectangle "
                    "sets over dihedral groups.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit one of the constructions")
    p.add_argument("--type", required=True,
                   choices=["lmrs22", "lmrs", "lsms", "lms", "ms"])
    p.add_argument("--l", type=int, help="block count for lmrs22 (group D_2l)")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    # a no-op, still accepted because mrsbench/workloads.py passes it
    p.add_argument("--repair-plan", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="verify a rectangle set from a file")
    p.add_argument("--mode", choices=["linear", "orderable"], default="linear")
    p.add_argument("--square", action="store_true",
                   help="require a semi-magic square (rho = sigma)")
    p.add_argument("--magic", action="store_true",
                   help="require a magic square (implies --square)")
    p.add_argument("--diag", choices=["fixed", "orderable"], default="fixed")
    p.add_argument("--cap", type=int, default=verify.DEFAULT_CAP)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("feasible", help="classify a parameter tuple")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--witness", action="store_true",
                   help="also print the parity counting argument when the "
                        "verdict rests on it")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search", help="exhaustive search for a set")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["linear", "orderable"],
                   default="orderable")
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p.add_argument("--count", action="store_true",
                   help="count all (symmetry-reduced) solutions")
    p.add_argument("--no-symmetry", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("concat", help="concatenate the k arrays into one")
    p.add_argument("--axis", choices=["rows", "cols"], required=True,
                   help="rows stacks vertically (mk x n), cols joins "
                        "horizontally (m x nk)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("render", help="print a set as a text grid")
    p.add_argument("--in", dest="infile", required=True)
    return parser


def _read_set(path: str) -> RectangleSet:
    """The set in the file, with no cover check."""
    with open(path, "r", encoding="utf-8") as fh:
        return designs._from_text(fh.read())


def _note_cover(path: str, report: CoverReport) -> None:
    if not report.ok:
        print(f"note: cover violation in {path}: {report.summary()}",
              file=sys.stderr)


def _load_set(path: str) -> RectangleSet:
    s = _read_set(path)
    _note_cover(path, designs.validate_cover(s))
    return s


def _emit_set(s: RectangleSet, as_json: bool) -> None:
    print(designs.serialize(s) if as_json else designs.render_text(s))


def _require(args: argparse.Namespace, names: list[str]) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError(f"--type {args.type} requires {', '.join(missing)}")


class UsageError(Exception):
    pass


def _cmd_construct(args) -> int:
    if args.type == "lmrs22":
        _require(args, ["l"])
        s = construct.lmrs_2_2(args.l)
    elif args.type == "lmrs":
        _require(args, ["m", "n", "k"])
        s = construct.lmrs_even(args.m, args.n, args.k)
    else:
        _require(args, ["n"])
        if args.type == "lms" and args.n % 8:
            raise UsageError(f"--type lms asserts a fully magic square and "
                             f"needs n = 0 mod 8, got {args.n}")
        if args.type == "ms":
            s = construct.ms(args.n)
        else:
            s = construct.lsms(args.n)
    _emit_set(s, args.json)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    # the report carries the cover; it is counted here only when the
    # verifier refuses the set, so the note still comes before the error
    s = _read_set(args.infile)
    try:
        if args.magic:
            report = verify.verify_magic_square(s, mode=args.mode,
                                                diagonal_mode=args.diag,
                                                cap=args.cap)
        elif args.square:
            report = verify.verify_semi_magic_square(s, mode=args.mode,
                                                     cap=args.cap)
        elif args.mode == "linear":
            report = verify.verify_linear(s)
        else:
            report = verify.verify_orderable(s, cap=args.cap)
    except (ShapeError, CapacityError):
        _note_cover(args.infile, designs.validate_cover(s))
        raise
    _note_cover(args.infile, report.cover)
    print(json.dumps(report.to_json_dict(), indent=2) if args.json
          else report.render())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_feasible(args) -> int:
    verdict = feasibility.classify(args.m, args.n, args.k)
    if args.json:
        out = verdict.to_json_dict()
        if args.witness and verdict.justification is feasibility.Justification.OBS_ODD_L:
            out["witness"] = feasibility.parity_witness(args.m, args.n, args.k)
        print(json.dumps(out, indent=2))
    else:
        print(verdict.render())
        if args.witness and verdict.justification is feasibility.Justification.OBS_ODD_L:
            print(feasibility.parity_witness(args.m, args.n, args.k))
    return EXIT_FAIL if verdict.status is feasibility.Status.NOT_EXISTS else EXIT_PASS


def _cmd_search(args) -> int:
    cfg = search.SearchConfig(
        l=args.l, m=args.m, n=args.n, k=args.k, mode=args.mode,
        node_budget=args.budget, symmetry_reduction=not args.no_symmetry,
        count_all=args.count)
    outcome = search.exhaustive_search(cfg)
    if args.json:
        print(json.dumps(outcome.to_json_dict(), indent=2))
    else:
        print(f"result: {outcome.result}")
        print(f"nodes_visited: {outcome.nodes_visited}")
        if outcome.solutions_count is not None:
            print(f"solutions_count: {outcome.solutions_count}")
        if outcome.found is not None:
            print(designs.render_text(outcome.found))
    if outcome.result == "budget_exceeded":
        return EXIT_CAPACITY
    return EXIT_PASS if outcome.result == "found" else EXIT_FAIL


def _cmd_concat(args) -> int:
    # the join counts the cover; its error carries the report for the note
    s = _read_set(args.infile)
    try:
        joined = (designs.concat_vertical(s) if args.axis == "rows"
                  else designs.concat_horizontal(s))
    except CoverError as exc:
        _note_cover(args.infile, exc.report)
        raise
    _emit_set(joined, args.json)
    return EXIT_PASS


def _cmd_render(args) -> int:
    print(designs.render_text(_load_set(args.infile)))
    return EXIT_PASS


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "feasible": _cmd_feasible,
    "search": _cmd_search,
    "concat": _cmd_concat,
    "render": _cmd_render,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; keep its choice
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (CapacityError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CoverError as exc:
        # the input is a verified-defective candidate, not a usage mistake
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
