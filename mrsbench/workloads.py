"""The three seeded workloads and the checks of their outputs.

Each workload turns a seed into an endless stream of ops, runs one op at
a time against the library (closed loop, one client, no think time) and
checks the op's output against mrsbench.reference.  Only the library
calls are timed: the benchmark's own work between them (mutating a
candidate, writing the CLI's input file) and the checks are not.

The stream is made of rounds.  A round holds a fixed number of ops of
each kind, and sizes are drawn by stratified sampling (op i of N of a
kind draws from the i-th N-quantile of its range), so every round has
nearly the same mix of costs whatever the seed; the seed draws the
sizes within their strata, the mutations, and the order.

The library is called through its submodules' attributes (for example
`designs.serialize`), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import warnings
from collections import Counter
from pathlib import Path

import reference as ref

OUT_DIR = Path(__file__).with_name("out")
_clock = time.perf_counter


class Stopwatch:
    """Sums the time spent in the calls made through it."""

    def __init__(self):
        self.total = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.total += _clock() - t0


class CheckFailed(Exception):
    """An op's output disagrees with the reference."""


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def pair(x):
    """A library DihedralElement (or None) as a reference pair."""
    return None if x is None else (int(x.is_reflection), x.exponent)


def grid_of(s):
    return [[[pair(c) for c in row] for row in rect.cells]
            for rect in s.arrays]


def grid_of_doc(doc):
    l = doc["l"]
    seen = {}

    def parse(tok):
        got = seen.get(tok)
        if got is None:
            got = seen[tok] = ref.parse(tok, l)
        return got

    return [[[parse(tok) for tok in row] for row in arr]
            for arr in doc["arrays"]]


def strata(rng, n):
    """n draws in [0, 1), one from each n-quantile, in random order."""
    us = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(us)
    return us


def check_cover(cover, grid, l, truth=None):
    """cover: the library's CoverReport as its JSON dict; truth: the
    reference's ref.cover(grid, l) if already computed.  Listed
    duplicates and missing elements must be true ones; when the cell
    count fits the group they must be complete as well."""
    cells, dups, missing = truth or ref.cover(grid, l)
    fits = cells == 2 * l
    expect(cover["cell_count"] == cells, "cover cell_count")
    expect(cover["expected_count"] == 2 * l, "cover expected_count")
    expect(cover["dimension_ok"] == fits, "cover dimension_ok")
    expect(cover["ok"] == (fits and not dups and not missing), "cover ok")
    listed_dups = {ref.parse(tok, l): c for tok, c in cover["duplicates"]}
    listed_missing = set(cover["missing"])
    true_missing = {ref.fmt(x) for x in missing}
    expect(len(listed_missing) == len(cover["missing"]),
           "cover lists a missing element twice")
    expect(all(dups.get(x) == c for x, c in listed_dups.items()),
           "cover lists a false duplicate")
    expect(listed_missing <= true_missing,
           "cover lists a present element as missing")
    if fits:
        expect(listed_dups == dups, "cover duplicates incomplete")
        expect(listed_missing == true_missing, "cover missing list incomplete")


def check_report(report, expected, fields, l):
    """report: a VerificationReport as its JSON dict; expected: a
    reference verdict.  The named witness fields must agree."""
    expect((report["verdict"] == "pass") == expected["passed"], "verdict")
    for name in fields:
        got = report.get(name)
        expect((None if got is None else ref.parse(got, l)) ==
               expected.get(name), f"witness {name}")


def _capture(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    """Base: a seeded op stream plus run/check of one op."""

    trace_ops = 0  # ops in one traced pass

    def __init__(self, dm, seed: int):
        self.dm = dm
        self.seed = seed
        self.events = Counter()

    def ops(self, seed=None):
        """The op stream of `seed` (default: the workload's own seed)."""
        rng = random.Random(self.seed if seed is None else seed)
        n = 0
        while True:
            for op in self.round(rng):
                yield n, op
                n += 1

    def round(self, rng):
        raise NotImplementedError

    def run(self, op, sw: Stopwatch):
        raise NotImplementedError

    def check(self, op, out) -> None:
        raise NotImplementedError


# --- linear_pipeline ------------------------------------------------------

def _lmrs_shapes():
    shapes = [(m, n, k) for m in range(2, 13, 2) for n in range(2, 13, 2)
              for k in range(1, 101) if 4 < m * n * k <= 2000]
    return sorted(shapes, key=lambda s: (s[0] * s[1] * s[2], s))


class LinearPipeline(Workload):
    """construct -> serialize -> deserialize -> validate_cover -> verify
    in linear mode, with mutated candidates, CLI ops and oversized
    candidates.  Per round of 100 ops: 32 lmrs22 (l <= 200), 32 lmrs
    (even m, n <= 12, k <= 100, <= 2000 cells), 32 lsms (n <= 48), and
    4 oversized 1x2 candidates declaring l in [2000, 20000].  Of the 96
    constructions, 12 get two cells swapped across lines and 12 get one
    cell duplicated; 8 go through cli construct/verify, as do 2 of the
    oversized candidates."""

    trace_ops = 200
    LMRS = _lmrs_shapes()

    def round(self, rng):
        ops = []
        for u in strata(rng, 32):
            ops.append(["lmrs22", (2 + int(u * 199),)])
        for u in strata(rng, 32):
            ops.append(["lmrs", self.LMRS[int(u * len(self.LMRS))]])
        for u in strata(rng, 32):
            ops.append(["lsms", (4 * (1 + int(u * 12)),)])
        marks = ["swap"] * 12 + ["dup"] * 12 + [None] * 72
        rng.shuffle(marks)
        via_cli = [True] * 8 + [False] * 88
        rng.shuffle(via_cli)
        for op, mark, cli in zip(ops, marks, via_cli):
            op += [cli, self._mutation(rng, mark, *self._shape(*op[:2]))]
        for u, cli in [(u, cli) for cli in (True, False)
                       for u in strata(rng, 2)]:
            l = 2000 + int(u * 18000)
            a, b = rng.sample(range(2 * l), 2)
            cells = [ref.fmt((x // l, x % l)) for x in (a, b)]
            doc = {"l": l, "m": 1, "n": 2, "k": 1, "arrays": [[cells]]}
            ops.append(["oversized", (l,), cli, json.dumps(doc)])
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _shape(kind, params):
        if kind == "lmrs22":
            return 2, 2, params[0]
        if kind == "lmrs":
            return params
        return params[0], params[0], 1

    @staticmethod
    def _mutation(rng, mark, m, n, k):
        if mark is None:
            return None
        a1, i1, j1 = rng.randrange(k), rng.randrange(m), rng.randrange(n)
        while True:
            a2, i2, j2 = rng.randrange(k), rng.randrange(m), rng.randrange(n)
            if a2 != a1 or (i2 != i1 and j2 != j1):
                return (mark, (a1, i1, j1), (a2, i2, j2))

    @staticmethod
    def _mutate(cells, mutation):
        """Apply a mutation to arrays[a][i][j] (tokens or pairs) in place."""
        mark, (a1, i1, j1), (a2, i2, j2) = mutation
        if mark == "swap":
            cells[a1][i1][j1], cells[a2][i2][j2] = \
                cells[a2][i2][j2], cells[a1][i1][j1]
        else:
            cells[a2][i2][j2] = cells[a1][i1][j1]

    def _construct_argv(self, kind, params):
        if kind == "lmrs22":
            return ["construct", "--type", "lmrs22", "--l", str(params[0]),
                    "--json"]
        if kind == "lmrs":
            m, n, k = params
            return ["construct", "--type", "lmrs", "--m", str(m), "--n",
                    str(n), "--k", str(k), "--json"]
        return ["construct", "--type", "lsms", "--n", str(params[0]),
                "--repair-plan", "--json"]

    @staticmethod
    def _verifier(kind, params):
        if kind == "lsms":
            return "magic" if params[0] % 8 == 0 else "square"
        return "linear"

    def _mutated_text(self, text, mutation):
        if mutation is None:
            return text
        doc = json.loads(text)
        self._mutate(doc["arrays"], mutation)
        return json.dumps(doc)

    def run(self, op, sw):
        kind, params, cli, extra = op
        if cli:
            return self._run_cli(op, sw)
        construct, designs = self.dm.construct, self.dm.designs
        out = {}
        if kind == "oversized":
            text = extra
        else:
            build = {"lmrs22": construct.lmrs_2_2, "lmrs": construct.lmrs_even,
                     "lsms": construct.lsms}[kind]
            s = out["built"] = sw(build, *params)
            out["text"] = sw(designs.serialize, s)
            text = self._mutated_text(out["text"], extra)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", designs.CoverViolationWarning)
            s2 = out["loaded"] = sw(designs.deserialize, text)
        out["warned"] = bool(caught)
        out["cover"] = sw(designs.validate_cover, s2)
        verify = self.dm.verify
        which = self._verifier(kind, params)
        if which == "linear":
            out["report"] = sw(verify.verify_linear, s2)
        elif which == "square":
            out["report"] = sw(verify.verify_semi_magic_square, s2,
                               mode="linear")
        else:
            out["report"] = sw(verify.verify_magic_square, s2, mode="linear",
                               diagonal_mode="fixed")
        return out

    def _run_cli(self, op, sw):
        kind, params, _, extra = op
        run = lambda argv: _capture(self.dm.cli.run, argv)  # noqa: E731
        out = {}
        if kind == "oversized":
            text = extra
        else:
            code, text, err = sw(run, self._construct_argv(kind, params))
            out["construct"] = (code, text, err)
            self.events["cli.output_bytes"] += len(text) + len(err)
            text = self._mutated_text(text, extra)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / "cli-candidate.json"
        path.write_text(text, encoding="utf-8")
        argv = ["verify", "--mode", "linear", "--in", str(path), "--json"]
        which = self._verifier(kind, params)
        if which != "linear":
            argv.insert(3, "--magic" if which == "magic" else "--square")
        out["verify"] = sw(run, argv)
        code, stdout, err = out["verify"]
        self.events["cli.output_bytes"] += len(stdout) + len(err)
        return out

    # -- checks --

    def _expected_grid(self, op, out):
        """Check the construction (library path: the built set and its
        JSON; CLI path: the printed JSON) and return the candidate grid."""
        kind, params, cli, extra = op
        if kind == "oversized":
            return grid_of_doc(json.loads(extra))
        if cli:
            code, text, err = out["construct"]
            expect(code == 0 and not err, "cli construct exit code")
            grid = grid_of_doc(json.loads(text))
        else:
            grid = grid_of(out["built"])
            expect(grid_of_doc(json.loads(out["text"])) == grid,
                   "serialize does not round-trip")
        m, n, k = self._shape(kind, params)
        l = m * n * k // 2
        expect([len(grid), len(grid[0]), len(grid[0][0])] == [k, m, n],
               "construction shape")
        cells, dups, missing = ref.cover(grid, l)
        expect(cells == 2 * l and not dups and not missing,
               "construction is not an exact cover")
        which = self._verifier(kind, params)
        got = ref.linear_verdict(grid, l, square=which != "linear",
                                 magic=which == "magic")
        want = ref.construction_constants(kind, m, n)
        expect(got["passed"], "construction is not linearly magic")
        expect(all(got[key] == val for key, val in want.items()),
               "construction constants")
        if which == "magic":
            expect(got["delta1"] == got["delta2"] == (0, 0),
                   "construction diagonals")
        if extra is not None:
            self._mutate(grid, extra)
        return grid

    def check(self, op, out):
        kind, params, cli, _ = op
        grid = self._expected_grid(op, out)
        l = sum(len(arr) * len(arr[0]) for arr in grid) // 2
        if kind == "oversized":
            l = params[0]
        which = self._verifier(kind, params)
        expected = ref.linear_verdict(grid, l, square=which != "linear",
                                      magic=which == "magic")
        fields = ["rho", "sigma"] + {"linear": [], "square": ["mu"],
                                     "magic": ["mu", "delta1",
                                               "delta2"]}[which]
        truth = ref.cover(grid, l)
        cover_ok = truth[0] == 2 * l and not truth[1] and not truth[2]
        if cli:
            code, stdout, err = out["verify"]
            expect(code == (0 if expected["passed"] else 1),
                   "cli verify exit code")
            expect(("cover violation" in err) == (not cover_ok),
                   "cli cover violation note")
            report = json.loads(stdout)
        else:
            expect(grid_of(out["loaded"]) == grid, "deserialize")
            expect(out["warned"] == (not cover_ok), "CoverViolationWarning")
            check_cover(out["cover"].to_json_dict(), grid, l, truth)
            report = out["report"].to_json_dict()
        check_cover(report["cover"], grid, l, truth)
        check_report(report, expected, fields, l)
        bad = {f"{a} {line}" for a, line in expected["bad"]}
        listed = {f"{f['array']} {f['line']}" for f in report["failures"]
                  if f["array"] is not None}
        expect(listed <= bad, "a passing line is reported as failing")
        expect(bool(listed) == bool(bad), "failing lines not reported")


# --- orderable_verify -----------------------------------------------------

class OrderableVerify(Workload):
    """Orderable verification of lmrs_even, lsms and ms sets with lines of
    2 to 12 cells, cap set to the longest line.

    MENU gives, per round, how many ops verify each set as built and how
    many verify a mutant of it: two cells swapped, or one duplicated,
    between the first two rows and among the first three columns, so the
    verifier fails early.  Squares cycle through the verifiers from a
    seeded start.  The counts are chosen so that, with the pure kernel,
    lines of <= 8 cells and of 10-12 cells each carry about half of the
    reach time, and so that p50, p90 and p99 each fall inside a class of
    ops of one cost (lmrs(2,6,1); the 10-cell lines and lmrs(4,8,2);
    lmrs(12,2,1)), not on the edge between two classes."""

    # (construction, params, verifiers, plain ops, mutated ops) per round
    MENU = [
        ("lmrs", (2, 2, 2), "sets", 5, 1),
        ("lmrs", (2, 2, 4), "sets", 5, 1),
        ("lmrs", (2, 4, 1), "sets", 5, 1),
        ("lmrs", (4, 2, 2), "sets", 5, 1),
        ("lmrs", (4, 4, 1), "square", 5, 1),
        ("lsms", (4,), "magic", 2, 0),
        ("ms", (4,), "magic", 2, 0),
        ("lmrs", (2, 6, 1), "sets", 30, 0),
        ("lmrs", (6, 4, 1), "sets", 3, 1),
        ("lmrs", (2, 8, 1), "sets", 3, 1),
        ("lmrs", (8, 2, 1), "sets", 3, 0),
        ("lmrs", (4, 8, 1), "sets", 2, 1),
        ("lmrs", (6, 6, 1), "square", 2, 1),
        ("lmrs", (6, 8, 1), "sets", 3, 0),
        ("lmrs", (8, 6, 1), "sets", 2, 0),
        ("lmrs", (4, 8, 2), "sets", 2, 0),
        ("lmrs", (8, 8, 1), "square", 1, 1),
        ("lsms", (8,), "magic", 1, 1),
        ("ms", (8,), "magic", 1, 1),
        ("lmrs", (2, 10, 1), "sets", 4, 0),
        ("lmrs", (10, 2, 1), "sets", 4, 0),
        ("lmrs", (2, 12, 1), "sets", 1, 0),
        ("lmrs", (12, 2, 1), "sets", 2, 0),
    ]
    VERIFIERS = {"sets": ["sets"], "square": ["square", "sets"],
                 "magic": ["magic-fixed", "magic-orderable", "square",
                           "sets"]}
    trace_ops = 100

    def __init__(self, dm, seed):
        super().__init__(dm, seed)
        c = dm.construct
        self.sets = {}
        for kind, params, _, _, _ in self.MENU:
            build = {"lmrs": c.lmrs_even, "lsms": c.lsms, "ms": c.ms}[kind]
            self.sets[(kind, params)] = build(*params)
        self._expected = {}

    def round(self, rng):
        ops = []
        for kind, params, verifiers, plain, mutated in self.MENU:
            cycle = self.VERIFIERS[verifiers]
            start = rng.randrange(len(cycle))
            for i in range(plain + mutated):
                verifier = cycle[(start + i) % len(cycle)]
                mutation = None
                if i >= plain:
                    n = self.sets[(kind, params)].n
                    j1, j2 = rng.sample(range(min(3, n)), 2)
                    mutation = (rng.choice(["swap", "dup"]), (0, 0, j1),
                                (0, 1, j2))
                ops.append(((kind, params), verifier, mutation))
        rng.shuffle(ops)
        return ops

    def _candidate(self, key, mutation):
        s = self.sets[key]
        if mutation is None:
            return s
        designs = self.dm.designs
        rows = [list(r) for r in s.arrays[0].cells]
        mark, (_, i1, j1), (_, i2, j2) = mutation
        if mark == "swap":
            rows[i1][j1], rows[i2][j2] = rows[i2][j2], rows[i1][j1]
        else:
            rows[i2][j2] = rows[i1][j1]
        first = designs.Rectangle.from_rows(rows)
        return designs.RectangleSet(s.l, (first,) + s.arrays[1:])

    def ops(self, seed=None):
        for n, (key, verifier, mutation) in super().ops(seed):
            yield n, (key, verifier, mutation,
                      self._candidate(key, mutation))

    def run(self, op, sw):
        _, verifier, _, s = op
        verify = self.dm.verify
        cap = max(s.m, s.n)
        if verifier == "sets":
            return sw(verify.verify_orderable, s, cap=cap)
        if verifier == "square":
            return sw(verify.verify_semi_magic_square, s, mode="orderable",
                      cap=cap)
        return sw(verify.verify_magic_square, s, mode="orderable",
                  diagonal_mode=verifier.split("-")[1], cap=cap)

    def check(self, op, report):
        key, verifier, mutation, s = op
        ident = (key, verifier, mutation)
        if ident not in self._expected:
            grid = grid_of(self.sets[key])
            if mutation is not None:
                LinearPipeline._mutate(grid, mutation)
            kind = verifier.split("-")[0]
            diag = verifier.split("-")[1] if kind == "magic" else None
            self._expected[ident] = (
                grid, ref.orderable_verdict(grid, s.l, kind, diag))
        grid, expected = self._expected[ident]
        expect(grid_of(s) == grid, "candidate")
        out = report.to_json_dict()
        fields = ["rho", "sigma", "mu", "delta1", "delta2"]
        check_report(out, expected, fields if expected["passed"] else [], s.l)
        check_cover(out["cover"], grid, s.l)


# --- search_certify -------------------------------------------------------

class SearchCertify(Workload):
    """classify(m, n, k), then exhaustive_search, over the pool in
    search_table.json: every config of order <= 16 whose find-first or
    count_all op needs at most 250k nodes with the pure kernel, in both
    modes, symmetry on and off.  A round is the whole pool (559 ops) in
    seeded order."""

    trace_ops = 160

    def __init__(self, dm, seed):
        super().__init__(dm, seed)
        doc = json.loads(ref.TABLE_PATH.read_text())
        self.budget = doc["node_budget"]
        self.pool = [(e, op == "count") for e in doc["entries"]
                     for op in e["ops"]]

    def round(self, rng):
        ops = list(self.pool)
        rng.shuffle(ops)
        return ops

    def run(self, op, sw):
        e, count_all = op
        search = self.dm.search

        def certify():
            verdict = self.dm.feasibility.classify(e["m"], e["n"], e["k"])
            cfg = search.SearchConfig(e["l"], e["m"], e["n"], e["k"],
                                      e["mode"], self.budget, e["symmetry"],
                                      count_all)
            return verdict, search.exhaustive_search(cfg)

        return sw(certify)

    def check(self, op, out):
        e, count_all = op
        verdict, outcome = out
        want = "found" if e["exists"] else "exhausted_none"
        expect(outcome.result == want, "search result")
        expect(outcome.solutions_count ==
               (e["solutions"] if count_all else None), "solutions_count")
        status = verdict.status.value
        expect(status != "NotExists" or not e["exists"],
               "classify says NotExists but a set exists")
        expect(status != "Exists" or e["exists"],
               "classify says Exists but the search found none")
        if outcome.found is None:
            expect(not e["exists"], "no witness")
            return
        s, l = outcome.found, e["l"]
        grid = grid_of(s)
        expect([len(grid), len(grid[0]), len(grid[0][0])] ==
               [e["k"], e["m"], e["n"]], "witness shape")
        cells, dups, missing = ref.cover(grid, l)
        expect(cells == 2 * l and not dups and not missing,
               "witness is not an exact cover")
        if e["mode"] == "linear":
            expect(ref.linear_verdict(grid, l)["passed"], "witness (linear)")
        else:
            expect(ref.orderable_verdict(grid, l)["passed"],
                   "witness (orderable)")
        if e["symmetry"]:
            firsts = [arr[0][0] for arr in grid]
            expect(firsts == sorted(firsts), "witness is not canonical")
            expect(e["mode"] == "linear" or firsts[0] == (0, 0),
                   "witness is not canonical")
        # the library's own checks agree with the reference
        verify = self.dm.verify
        expect(self.dm.designs.validate_cover(s).ok, "validate_cover")
        report = (verify.verify_linear(s) if e["mode"] == "linear" else
                  verify.verify_orderable(s, cap=max(e["m"], e["n"])))
        expect(report.passed, "verifier rejects the witness")


WORKLOADS = {
    "linear_pipeline": LinearPipeline,
    "orderable_verify": OrderableVerify,
    "search_certify": SearchCertify,
}
