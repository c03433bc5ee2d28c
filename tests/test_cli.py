"""CLI surface: pipelines, exit codes, JSON round-trips."""

import json
import time

import pytest

from dihedral_magic import cli, designs
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

    def test_lms16_needs_repair_flag(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--type", "lms",
                               "--n", "16")
        assert code == 2
        assert "--repair-plan" in err
        code, out, _ = run_cli(capsys, "construct", "--type", "lms",
                               "--n", "16", "--repair-plan", "--json")
        assert code == 0
        assert designs.deserialize(out).n == 16

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


    def test_huge_group_order_costs_no_more_than_the_input(self, tmp_path,
                                                           capsys):
        # 2 cells claiming D_(10^7): the cover report must not enumerate
        # the 2*10^7 absent elements
        text = json.dumps({"l": 10**7, "m": 1, "n": 2, "k": 1,
                           "arrays": [[["r^0", "r^1"]]]})
        path = tmp_path / "huge.json"
        path.write_text(text)
        for argv in (("--mode", "linear"), ("--mode", "orderable", "--json")):
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
        code, out, _ = run_cli(capsys, "feasible", "--m", "1", "--n", "4",
                               "--k", "3")
        assert code == 0
        assert "Unknown" in out

    def test_witness_flag(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--m", "2", "--n", "3",
                               "--k", "1", "--witness")
        assert code == 1
        assert "reflections" in out

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
    (["--type", "lms", "--n", "16", "--repair-plan"],
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
