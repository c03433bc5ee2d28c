"""Self-tests of the benchmark:  python3 -m pytest mrsbench

They check the reference against brute force, that the checker rejects
corrupted outputs (so failed_frac can rise), that a seed fixes the op
list and the exact counts, and that each workload passes a smoke run.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import dihedral_magic as dm  # noqa: E402
import dihedral_magic.cli  # noqa: E402,F401
import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import (WORKLOADS, CheckFailed, LinearPipeline,  # noqa: E402
                       OrderableVerify, SearchCertify, Stopwatch)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- the reference --------------------------------------------------------

def test_closed_form_reach_matches_brute_force():
    rng = random.Random(7)
    for _ in range(600):
        l = rng.randint(1, 9)
        cells = [(rng.randint(0, 1), rng.randrange(l))
                 for _ in range(rng.randint(0, 6))]
        assert ref.reachable(cells, l) == ref.reachable_brute(cells, l)


def test_group_arithmetic():
    l = 7
    r, s = (0, 1), (1, 0)
    assert ref.mul(s, r, l) == (1, 6)  # s r = r^-1 s
    assert ref.product([r] * l, l) == (0, 0)
    assert ref.mul(s, s, l) == (0, 0)
    assert ref.parse("r^-2*s", l) == (1, 5) and ref.fmt((1, 5)) == "r^5*s"


def test_construction_constants_hold_for_the_library():
    for kind, s in (("lmrs22", dm.lmrs_2_2(3)), ("lmrs", dm.lmrs_even(2, 6, 2)),
                    ("lmrs", dm.lmrs_even(4, 4, 1)), ("lsms", dm.lsms(8))):
        grid = [[[(int(c.is_reflection), c.exponent) for c in row]
                 for row in a.cells] for a in s.arrays]
        got = ref.linear_verdict(grid, s.l, square=kind == "lsms")
        want = ref.construction_constants(kind, s.m, s.n)
        assert got["passed"]
        assert all(got[k] == v for k, v in want.items())


def test_table_small_orders_match_brute_force():
    small = [e for e in ref.load_table() if 2 * e["l"] <= 6]
    assert small
    for e in small:
        key = (e["l"], e["m"], e["n"], e["k"], e["mode"], e["symmetry"])
        count = ref.brute_force_count(*key)
        assert (count > 0) == e["exists"], key
        if e["solutions"] is not None:
            assert count == e["solutions"], key


def test_reference_search_matches_table_up_to_order_8():
    for e in ref.load_table():
        if 2 * e["l"] > 8 or e["solutions"] is None:
            continue
        key = (e["l"], e["m"], e["n"], e["k"], e["mode"], e["symmetry"])
        assert ref.search_count(*key) == e["solutions"], key


# --- the checker rejects corrupted outputs -------------------------------

def _first_op(wl, pred):
    return next(op for _, op in islice(wl.ops(), 2000) if pred(op))


def _run(wl, op):
    out = wl.run(op, Stopwatch())
    wl.check(op, out)  # the genuine output passes
    return out


def _flip_report(report):
    """A report with the opposite verdict."""
    if report.passed:
        bogus = dm.Failure(1, "row 1", (), "corrupted")
        return dataclasses.replace(report, failures=(bogus,))
    return dataclasses.replace(report, failures=())


def test_checker_rejects_corrupted_linear_verdict_and_witness():
    wl = LinearPipeline(dm, 3)
    op = _first_op(wl, lambda op: op[0] == "lmrs22" and not op[2]
                   and op[3] is None)
    out = _run(wl, op)
    with pytest.raises(CheckFailed):
        wl.check(op, dict(out, report=_flip_report(out["report"])))
    wrong = dataclasses.replace(
        out["report"], witnessed=dataclasses.replace(
            out["report"].witnessed, rho=dm.rotation(1, out["loaded"].l)))
    with pytest.raises(CheckFailed):
        wl.check(op, dict(out, report=wrong))
    with pytest.raises(CheckFailed):
        wl.check(op, dict(out, warned=True))


def test_checker_rejects_corrupted_cover_report():
    wl = LinearPipeline(dm, 3)
    op = _first_op(wl, lambda op: op[3] is not None and op[3][0] == "dup"
                   and not op[2])
    out = _run(wl, op)
    cover = out["cover"]
    assert not cover.ok
    with pytest.raises(CheckFailed):
        wl.check(op, dict(out, cover=dataclasses.replace(cover, missing=())))


def test_checker_rejects_corrupted_cli_output():
    wl = LinearPipeline(dm, 3)
    op = _first_op(wl, lambda op: op[2] and op[0] != "oversized")
    out = _run(wl, op)
    code, stdout, err = out["verify"]
    with pytest.raises(CheckFailed):
        wl.check(op, dict(out, verify=(1 - code, stdout, err)))


def test_checker_rejects_corrupted_orderable_verdict():
    wl = OrderableVerify(dm, 3)
    op = _first_op(wl, lambda op: op[0] == ("ms", (4,)))
    out = _run(wl, op)
    with pytest.raises(CheckFailed):
        wl.check(op, _flip_report(out))


def test_checker_rejects_corrupted_search_outcome():
    wl = SearchCertify(dm, 3)
    op = _first_op(wl, lambda op: op[1] and op[0]["exists"]
                   and op[0]["solutions"] > 1)
    verdict, outcome = _run(wl, op)
    bad_count = dataclasses.replace(outcome,
                                    solutions_count=outcome.solutions_count + 1)
    with pytest.raises(CheckFailed):
        wl.check(op, (verdict, bad_count))
    with pytest.raises(CheckFailed):
        wl.check(op, (verdict, dataclasses.replace(
            outcome, result="exhausted_none", found=None)))
    cells = [list(r) for r in outcome.found.arrays[0].cells]
    cells[0][0], cells[-1][-1] = cells[-1][-1], cells[0][0]
    broken = dm.RectangleSet(outcome.found.l, (dm.Rectangle.from_rows(cells),)
                             + outcome.found.arrays[1:])
    with pytest.raises(CheckFailed):
        wl.check(op, (verdict, dataclasses.replace(outcome, found=broken)))


# --- determinism ----------------------------------------------------------

def _op_ids(wl, n):
    return [repr(op[:3]) if isinstance(wl, OrderableVerify) else repr(op)
            for _, op in islice(wl.ops(), n)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops(name):
    cls = WORKLOADS[name]
    assert _op_ids(cls(dm, 11), 300) == _op_ids(cls(dm, 11), 300)
    assert _op_ids(cls(dm, 11), 300) != _op_ids(cls(dm, 12), 300)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_counts(name, tmp_path):
    def counts():
        wl = WORKLOADS[name](dm, 5)
        wl.trace_ops = 12
        tally = run.Counter()
        metrics = run.measure_traced(wl, 0, tally, tmp_path / "t.jsonl", {})
        assert tally["failed"] == 0
        return {k: v for k, (v, unit) in metrics.items()
                if unit in ("count", "bytes")}
    assert counts() == counts()


# --- smoke runs -----------------------------------------------------------

def _bench(args, cwd):
    return subprocess.run([sys.executable, "mrsbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(name, trace):
    p = _bench(["--workload", name, "--seed", "1", "--seconds", "0.3",
                "--trace", str(trace)], ROOT)
    assert p.returncode == 0, p.stderr
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in last["metrics"].items()}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "mrsbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _bench(["--workload", "search_certify", "--seed", "1", "--seconds",
                "0.3", "--trace", "0"], tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
