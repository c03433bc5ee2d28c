"""CLI surface: pipelines, exit codes, JSON round-trips."""

import json
import time

import pytest

from dihedral_magic import cli, designs, verify
from dihedral_magic.construct import lmrs_2_2


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_lmrs22_json(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--type", "lmrs22",
                               "--l", "4", "--json")
        assert code == 0
        assert designs.deserialize(out) == lmrs_2_2(4)

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--type", "ms", "--n", "4")
        assert code == 0
        assert out.splitlines()[0].split() == ["r^7*s", "r^0", "r^1*s", "r^6"]

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--type", "lmrs22")
        assert code == 2
        assert "--l" in err

    def test_lms_needs_multiple_of_8(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--type", "lms",
                               "--n", "12")
        assert code == 2
        assert "mod 8" in err

    def test_lms16_repair_flag_ignored(self, capsys):
        # --repair-plan is still accepted, hidden, and changes nothing
        code, out, _ = run_cli(capsys, "construct", "--type", "lms",
                               "--n", "16", "--json")
        assert code == 0
        assert designs.deserialize(out).n == 16
        code, flagged, _ = run_cli(capsys, "construct", "--type", "lms",
                                   "--n", "16", "--repair-plan", "--json")
        assert code == 0
        assert flagged == out
        code, out, _ = run_cli(capsys, "construct", "--help")
        assert code == 0
        assert "repair" not in out

    def test_invalid_params_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "--type", "lmrs",
                             "--m", "3", "--n", "4", "--k", "1")
        assert code == 2


class TestVerifyPipeline:
    def write_set(self, tmp_path, capsys, *argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "set.json"
        path.write_text(out)
        return str(path)

    def test_lmrs22_roundtrip(self, tmp_path, capsys):
        path = self.write_set(tmp_path, capsys, "construct", "--type",
                              "lmrs22", "--l", "4", "--json")
        code, out, _ = run_cli(capsys, "verify", "--mode", "linear",
                               "--in", path)
        assert code == 0
        assert "rho: r^1*s" in out
        assert "sigma: r^0*s" in out

    def test_ms_magic_verification(self, tmp_path, capsys):
        path = self.write_set(tmp_path, capsys, "construct", "--type", "ms",
                              "--n", "4", "--json")
        code, out, _ = run_cli(capsys, "verify", "--mode", "orderable",
                               "--magic", "--diag", "fixed", "--cap", "4",
                               "--in", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass" and doc["mu"] == "r^0"

    def test_failing_input_exits_1(self, tmp_path, capsys):
        s = lmrs_2_2(2)
        doc = json.loads(designs.serialize(s))
        doc["arrays"][0][0][0], doc["arrays"][0][1][0] = \
            doc["arrays"][0][1][0], doc["arrays"][0][0][0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--mode", "linear",
                               "--in", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_cover_violation_noted_but_verified(self, tmp_path, capsys):
        doc = json.loads(designs.serialize(lmrs_2_2(2)))
        doc["arrays"][0][0][0] = doc["arrays"][1][1][1]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--mode", "linear",
                                 "--in", str(path))
        assert "cover violation" in err
        assert "duplicated" in out

    @pytest.mark.parametrize("flags, code, error", [
        ((), 1, ""),
        (("--json",), 1, ""),
        (("--square",), 2, "error: square verification requires k=1, "
                           "got k=2\n"),
        (("--mode", "orderable", "--cap", "1"), 3,
         "error: orderable verification of lines up to length 2 exceeds "
         "cap 1; raise the cap or use linear mode\n")])
    def test_cover_counted_once_and_noted_first(self, tmp_path, capsys,
                                                monkeypatch, flags, code,
                                                error):
        # the note comes from the report's cover; when the verifier
        # refuses the set, it is still printed before the error
        doc = json.loads(designs.serialize(lmrs_2_2(2)))
        doc["arrays"][0][0][0] = doc["arrays"][1][1][1]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        summary = designs.validate_cover(
            designs.from_json_dict(doc)).summary()
        calls = []
        counted = designs.validate_cover

        def counting(s):
            calls.append(s)
            return counted(s)
        monkeypatch.setattr(designs, "validate_cover", counting)
        monkeypatch.setattr(verify, "validate_cover", counting)
        got, _, err = run_cli(capsys, "verify", *flags, "--in", str(path))
        assert got == code
        assert err == (f"note: cover violation in {path}: {summary}\n"
                       + error)
        assert len(calls) == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--mode", "linear",
                               "--in", "/nonexistent/set.json")
        assert code == 2

    def test_square_flag_on_rectangle(self, tmp_path, capsys):
        path = self.write_set(tmp_path, capsys, "construct", "--type", "lmrs",
                              "--m", "2", "--n", "4", "--k", "1", "--json")
        code, _, err = run_cli(capsys, "verify", "--square", "--in", path)
        assert code == 2

    def test_capacity_exit(self, tmp_path, capsys):
        path = self.write_set(tmp_path, capsys, "construct", "--type", "lmrs",
                              "--m", "2", "--n", "20", "--k", "1", "--json")
        code, _, err = run_cli(capsys, "verify", "--mode", "orderable",
                               "--in", path)
        assert code == 3
        assert "cap" in err

    def test_overlong_exponent_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"l": 2, "m": 1, "n": 2, "k": 1,
                                    "arrays": [[["r^0", "r^" + "1" * 5000]]]}))
        code, _, err = run_cli(capsys, "verify", "--in", str(path))
        assert code == 2
        assert "array 1, row 1, column 2" in err and "too long" in err

    @pytest.mark.parametrize("text", [
        '{"l": ' + "1" * 5000 + ', "m": 1, "n": 2, "k": 1}',
        "[" * 100_000])
    def test_unreadable_json_is_a_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--in", str(path))
        assert code == 2 and not out
        assert err.startswith("error: invalid JSON")
        assert "set_int_max_str_digits" not in err

    def test_huge_group_order_costs_no_more_than_the_input(self, tmp_path,
                                                           capsys):
        # 2 cells claiming D_(10^7): the cover report must not enumerate
        # the 2*10^7 absent elements, nor orderable verification scan the
        # 2*10^7-bit product mask that a reflection gives
        for cells in (["r^0", "r^1"], ["r^5", "r^7*s"]):
            text = json.dumps({"l": 10**7, "m": 1, "n": 2, "k": 1,
                               "arrays": [[cells]]})
            path = tmp_path / "huge.json"
            path.write_text(text)
            for argv in (("--mode", "linear"),
                         ("--mode", "orderable", "--json")):
                start = time.perf_counter()
                code, out, err = run_cli(capsys, "verify", *argv,
                                         "--in", str(path))
                assert time.perf_counter() - start < 1.0
                assert code == 1
                assert "19999998" in out and "19999998" in err
                assert len(out) + len(err) < 10 * len(text)


class TestFeasible:
    def test_not_exists_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--m", "2", "--n", "3",
                               "--k", "2", "--json")
        assert code == 1
        assert json.loads(out)["justification"] == "ObsTwoByLTwice"

    def test_exists_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--m", "4", "--n", "6",
                               "--k", "2")
        assert code == 0
        assert "ThmEvenTiling" in out

    def test_unknown_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--m", "3", "--n", "4",
                               "--k", "1")
        assert code == 0
        assert "Unknown" in out

    def test_witness_flag(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--m", "2", "--n", "3",
                               "--k", "1", "--witness")
        assert code == 1
        assert "reflections" in out

    def test_witness_in_json(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--m", "3", "--n", "3",
                               "--k", "2", "--json", "--witness")
        assert code == 1
        doc = json.loads(out)
        assert doc["justification"] == "ObsOddL"
        assert doc["witness"].startswith("D_9 has 9 reflections")

    def test_odd_order_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "feasible", "--m", "3", "--n", "3",
                             "--k", "1")
        assert code == 2


class TestSearch:
    def test_found_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--l", "4", "--m", "2",
                               "--n", "4", "--k", "1", "--mode", "linear",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "found"
        assert designs.from_json_dict(doc["found"]).l == 4

    def test_none_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--l", "3", "--m", "2",
                               "--n", "3", "--k", "1")
        assert code == 1
        assert "exhausted_none" in out

    def test_budget_exits_3(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--l", "6", "--m", "2",
                               "--n", "3", "--k", "2", "--budget", "100")
        assert code == 3

    def test_count_flag(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--l", "2", "--m", "2",
                               "--n", "2", "--k", "1", "--mode", "linear",
                               "--no-symmetry", "--count", "--json")
        assert code == 0
        assert json.loads(out)["solutions_count"] == 24

    def test_count_text_prints_count_and_grid(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--l", "4", "--m", "2",
                               "--n", "2", "--k", "2", "--count")
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["result: found", "nodes_visited: 2084",
                             "solutions_count: 240"]
        assert lines[3:] == ["r^0 r^1", "r^3 r^2", "",
                             "r^0*s r^1*s", "r^3*s r^2*s"]

    def test_cap_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "search", "--l", "9", "--m", "2",
                               "--n", "9", "--k", "1")
        assert code == 3


class TestConcatRender:
    def test_concat_cols_then_verify(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "construct", "--type", "lmrs22",
                               "--l", "4", "--json")
        path = tmp_path / "s.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "concat", "--axis", "cols",
                               "--in", str(path), "--json")
        assert code == 0
        joined = designs.deserialize(out)
        assert (joined.m, joined.n, joined.k) == (2, 8, 1)
        path2 = tmp_path / "j.json"
        path2.write_text(out)
        code, out, _ = run_cli(capsys, "verify", "--mode", "linear",
                               "--in", str(path2))
        assert code == 0
        assert "rho: r^0" in out

    def test_concat_rows(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "construct", "--type", "lmrs22",
                               "--l", "2", "--json")
        path = tmp_path / "s.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "concat", "--axis", "rows",
                               "--in", str(path), "--json")
        assert code == 0
        assert designs.deserialize(out).m == 4

    def test_concat_broken_cover_exits_1(self, tmp_path, capsys):
        doc = json.loads(designs.serialize(lmrs_2_2(2)))
        doc["arrays"][0][0][0] = doc["arrays"][1][1][1]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "concat", "--axis", "cols",
                                 "--in", str(path))
        assert code == 1
        assert out == ""
        assert "concat_horizontal requires an exact cover" in err

    @pytest.mark.parametrize("axis, op", [("cols", "concat_horizontal"),
                                          ("rows", "concat_vertical")])
    @pytest.mark.parametrize("broken", [False, True])
    def test_cover_counted_once(self, tmp_path, capsys, monkeypatch, axis,
                                op, broken):
        doc = json.loads(designs.serialize(lmrs_2_2(2)))
        if broken:
            doc["arrays"][0][0][0] = doc["arrays"][1][1][1]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        summary = designs.validate_cover(
            designs.from_json_dict(doc)).summary()
        calls = []
        counted = designs.validate_cover

        def counting(s):
            calls.append(s)
            return counted(s)
        monkeypatch.setattr(designs, "validate_cover", counting)
        code, out, err = run_cli(capsys, "concat", "--axis", axis,
                                 "--in", str(path))
        assert len(calls) == 1
        if broken:
            assert (code, out) == (1, "")
            assert err == (f"note: cover violation in {path}: {summary}\n"
                           f"error: {op} requires an exact cover: "
                           f"{summary}\n")
        else:
            assert (code, err) == (0, "")

    def test_render(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "construct", "--type", "lmrs22",
                               "--l", "2", "--json")
        path = tmp_path / "s.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "render", "--in", str(path))
        assert code == 0
        assert out.splitlines()[0].split() == ["r^1", "r^0*s"]

    def test_text_and_json_describe_same_set(self, capsys):
        code, json_out, _ = run_cli(capsys, "construct", "--type", "lmrs22",
                                    "--l", "3", "--json")
        code, text_out, _ = run_cli(capsys, "construct", "--type", "lmrs22",
                                    "--l", "3")
        s = designs.deserialize(json_out)
        assert text_out.strip() == designs.render_text(s)


class TestParserReuse:
    """cli.run reuses one parser; no call may see another call's flags."""

    @staticmethod
    def first_and_repeat(capsys, runs):
        first = []
        for argv in runs:
            cli._build_parser.cache_clear()
            first.append(run_cli(capsys, *argv))
        cli._build_parser.cache_clear()
        return first, [run_cli(capsys, *argv) for argv in runs]

    def test_verify_json_then_text(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        path.write_text(designs.serialize(lmrs_2_2(4)))
        verify = ["verify", "--in", str(path)]
        first, repeat = self.first_and_repeat(
            capsys, [verify + ["--json"], verify, verify + ["--json"]])
        assert repeat == first
        assert first[0][1] != first[1][1]

    def test_search_count_then_find(self, capsys):
        search = ["search", "--l", "4", "--m", "2", "--n", "2", "--k", "2"]
        first, repeat = self.first_and_repeat(
            capsys, [search + ["--count"], search, search + ["--count"]])
        assert repeat == first
        assert "solutions_count" not in first[1][1]


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "detect")[0] == 2

    def test_no_args(self, capsys):
        assert run_cli(capsys)[0] == 2


PIPELINES = [
    # (construct argv, verify argv)
    (["--type", "lmrs22", "--l", "2"], ["--mode", "linear"]),
    (["--type", "lmrs22", "--l", "8"], ["--mode", "linear"]),
    (["--type", "lmrs", "--m", "2", "--n", "4", "--k", "1"],
     ["--mode", "linear"]),
    (["--type", "lmrs", "--m", "6", "--n", "4", "--k", "3"],
     ["--mode", "linear"]),
    (["--type", "lsms", "--n", "4"], ["--mode", "linear", "--square"]),
    (["--type", "lsms", "--n", "12"], ["--mode", "linear", "--square"]),
    (["--type", "lms", "--n", "8"],
     ["--mode", "linear", "--magic", "--diag", "fixed"]),
    (["--type", "lms", "--n", "16"],
     ["--mode", "linear", "--magic", "--diag", "fixed"]),
    (["--type", "ms", "--n", "4"],
     ["--mode", "orderable", "--magic", "--diag", "fixed", "--cap", "4"]),
    (["--type", "ms", "--n", "8"],
     ["--mode", "orderable", "--magic", "--diag", "fixed", "--cap", "8"]),
]


class TestGoldenPipeline:
    """Every construct output piped into verify passes."""

    @pytest.mark.parametrize("construct_args,verify_args", PIPELINES)
    def test_construct_then_verify(self, tmp_path, capsys, construct_args,
                                   verify_args):
        code, out, _ = run_cli(capsys, "construct", *construct_args, "--json")
        assert code == 0
        path = tmp_path / "set.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "verify", *verify_args,
                               "--in", str(path), "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"
