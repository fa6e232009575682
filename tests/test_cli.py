"""Tests for the command line harness: gen, solve, verify, bench."""

import contextlib
import copy
import csv
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from reference_instances import expected_utility
from reference_lp import select_reference

from unanimity import (
    AgentSpec,
    ConstraintSet,
    Instance,
    Lottery,
    Oracle,
    cli,
    oracle,
    solve_baseline,
    solve_deterministic,
    solve_randomized,
)
from unanimity.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def ex23(tmp_path):
    path = tmp_path / "ex23.instance.json"
    assert run(["gen", "example-2-3", "--out", path]) == 0
    return path


@pytest.fixture
def ex21(tmp_path):
    path = tmp_path / "ex21.instance.json"
    assert run(["gen", "example-2-1", "--out", path]) == 0
    return path


class TestGen:
    def test_writes_instance_and_truth_sidecar(self, tmp_path):
        path = tmp_path / "g.instance.json"
        assert run(["gen", "grid-singleton", "--m", 3, "--inv-eps", 10,
                    "--x", "1/10,2/10,7/10", "--out", path]) == 0
        doc = json.loads(path.read_text())
        assert doc["m"] == 3
        truth = json.loads((tmp_path / "g.instance.json.truth.json").read_text())
        assert truth["feasible"] and truth["lottery"] == ["1/10", "1/5", "7/10"]

    def test_near_threshold_emits_hint_sidecar(self, tmp_path):
        path = tmp_path / "nt.instance.json"
        assert run(["gen", "near-threshold", "--Q", 10, "--delta", "1/25",
                    "--t", 0, "--out", path]) == 0
        hint = json.loads((path.parent / (path.name + ".hint.json")).read_text())
        assert len(hint) == 2

    def test_bad_params_exit_usage(self, tmp_path):
        code = run(["gen", "grid-singleton", "--m", 5, "--inv-eps", 4,
                    "--out", tmp_path / "bad.json"])
        assert code >= 64

    @pytest.mark.parametrize("inv_eps", [0, 1, -4])
    @pytest.mark.parametrize("family, params", [
        ("random-feasible", ["--n", 3, "--m", 2]),
        ("random-infeasible", ["--n", 3, "--m", 2]),
        ("grid-singleton", ["--m", 2]),
        ("point-mass", ["--m", 3, "--j", 1]),
        ("dummy-padded", ["--n", 3, "--m", 2]),
        ("near-threshold", ["--delta", "1/25", "--t", 0]),
    ])
    def test_bad_inv_eps_exits_usage(self, tmp_path, capsys, family, params, inv_eps):
        path = tmp_path / "bad.instance.json"
        assert run(["gen", family, *params, "--inv-eps", inv_eps, "--out", path]) == 64
        err = capsys.readouterr().err
        assert "1/epsilon must be an integer >= 2" in err and "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["random-feasible", "--n", -1, "--m", 2, "--inv-eps", 10], "need n >= 0"),
        (["grid-singleton", "--m", 0, "--inv-eps", 10], "need m >= 1"),
        (["random-feasible", "--n", 3, "--m", 2, "--inv-eps", 10, "--x", "1/2,1/2"],
         "random-feasible does not read parameter(s): x"),
    ])
    def test_bad_size_or_unread_param_exits_usage(self, tmp_path, capsys, argv, message):
        path = tmp_path / "bad.instance.json"
        assert run(["gen", *argv, "--out", path]) == 64
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not path.exists()

    def test_unknown_family_exits_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "no-such-family", "--out", tmp_path / "x.json"])
        assert exc.value.code == 64


class TestSolve:
    def test_feasible_exits_zero(self, ex23, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        assert run(["solve", ex23, "--solver", "deterministic", "--out", rep]) == 0
        doc = json.loads(rep.read_text())
        assert doc["outcome"]["kind"] == "Accepted"

    def test_null_exits_three_with_witness(self, ex21, capsys):
        assert run(["solve", ex21, "--solver", "baseline"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"]["witness"] == {"helly": [1, 2]}

    def test_randomized_seeded_runs_are_identical(self, ex23, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["solve", ex23, "--solver", "randomized", "--seed", 7, "--out", a])
        run(["solve", ex23, "--solver", "randomized", "--seed", 7, "--out", b])
        assert a.read_text() == b.read_text()

    def test_lottery_advice_file(self, ex23, tmp_path, capsys):
        hint = tmp_path / "hint.json"
        hint.write_text(json.dumps(["1/4", "3/5", "3/20"]))
        assert run(["solve", ex23, "--advice-lottery", hint]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["queries"]["total"] == 3  # perfect hint: one query per agent

    def test_lottery_advice_of_wrong_dimension_exits_usage(self, tmp_path, capsys):
        # No agent is asked about the advice, so no query can notice the
        # mismatch.  Baseline reads no advice, yet refuses advice that does
        # not fit as the other solvers do.
        inst, hint, perm = tmp_path / "i.json", tmp_path / "hint.json", tmp_path / "perm.json"
        rep = tmp_path / "r.json"
        inst.write_text(json.dumps({"m": 3, "inv_epsilon": 10, "agents": []}))
        hint.write_text(json.dumps(["1/2", "1/2"]))
        perm.write_text(json.dumps([1, 2]))
        for flag, path, message in [
            ("--advice-lottery", hint, "dimension mismatch: instance has 3, lottery hint 2"),
            ("--advice-perm", perm, "order covers 2 agents, instance has 0"),
        ]:
            for solver in cli.SOLVERS:
                assert run(["solve", inst, "--solver", solver, flag, path,
                            "--out", rep]) == 64, (flag, solver)
                assert message in capsys.readouterr().err
                assert not rep.exists()

    @pytest.mark.parametrize("doc, lottery", [
        ({"m": 3, "inv_epsilon": 10, "agents": []}, ["1", "0", "0"]),
        ({"m": 1, "inv_epsilon": 10, "agents": [{"u": ["1/2"], "tau": "1/10"}]}, ["1"]),
    ])
    def test_every_solver_decides_no_agents_and_one_alternative(self, tmp_path, capsys,
                                                                 doc, lottery):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps(doc))
        for solver in ("baseline", "deterministic", "randomized"):
            assert run(["solve", inst, "--solver", solver]) == 0, solver
            report = json.loads(capsys.readouterr().out)
            assert report["outcome"] == {"kind": "Accepted", "lottery": lottery}
        out = tmp_path / "bench.csv"
        assert run(["bench", inst, "--out", out]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["outcome"] for row in rows] == ["Accepted"] * 3

    def test_perm_advice_file(self, ex23, tmp_path, capsys):
        perm = tmp_path / "perm.json"
        perm.write_text("[3, 1, 2]")
        assert run(["solve", ex23, "--advice-perm", perm]) == 0

    def test_trace_csv(self, ex23, tmp_path):
        trace = tmp_path / "trace.csv"
        run(["solve", ex23, "--trace", trace, "--out", tmp_path / "r.json"])
        rows = list(csv.reader(trace.open()))
        assert rows[0] == ["seq", "agent", "category", "lottery", "answer"]
        assert len(rows) > 1

    def test_trace_truncation_is_reported(self, ex23, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "TRACE_CAP", 4)
        trace = tmp_path / "trace.csv"
        assert run(["solve", ex23, "--trace", trace, "--out", tmp_path / "r.json"]) == 0
        total = json.loads((tmp_path / "r.json").read_text())["queries"]["total"]
        assert len(list(csv.reader(trace.open()))) == 1 + 4
        err = capsys.readouterr().err
        assert err == (f"unanimity: warning: trace {trace} holds the first 4 of {total} "
                       f"queries; {total - 4} were not recorded\n")

    def test_untruncated_trace_prints_no_warning(self, ex23, tmp_path, capsys):
        run(["solve", ex23, "--trace", tmp_path / "t.csv", "--out", tmp_path / "r.json"])
        assert capsys.readouterr().err == ""

    def test_missing_instance_exits_io(self, tmp_path, capsys):
        assert run(["solve", tmp_path / "nope.json"]) == 66

    @pytest.mark.parametrize("flag,text", [
        ("--advice-perm", "5"),
        ("--advice-perm", "[true, 2, 3]"),
        ("--advice-perm", '[1, "2", 3]'),
        ("--advice-perm", '["3", "1", "2"]'),
        ("--advice-perm", "[1.0, 2, 3]"),
        ("--advice-perm", '{"1": 1}'),
        ("--advice-lottery", "[0.25, 0.5, 0.25]"),
        ("--advice-lottery", '"1/3"'),
        ("--advice-lottery", '{"1/4": "3/5"}'),
    ])
    def test_malformed_advice_exits_usage(self, ex23, tmp_path, capsys, flag, text):
        advice = tmp_path / "advice.json"
        advice.write_text(text)
        assert run(["solve", ex23, flag, advice]) == 64

    @pytest.mark.parametrize("path,value", [
        (("agents", 0, "u"), [1, 0]),
        (("agents", 0, "u"), "10"),  # would iterate as ["1", "0"]
        (("agents", 0, "tau"), 0.6),
        (("agents", 0), ["1", "0"]),
        (("agents",), {"u": ["1", "0"], "tau": "3/5"}),
        (("m",), 1e999),
        (("m",), True),
        (("m",), "2"),
        (("inv_epsilon",), 10.0),
    ])
    def test_mistyped_instance_exits_usage(self, ex21, capsys, path, value):
        doc = json.loads(ex21.read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        ex21.write_text(json.dumps(doc))
        assert run(["solve", ex21]) == 64

    @pytest.mark.parametrize("inv_epsilon", [0, 1, -3])
    def test_bad_inv_epsilon_exits_usage(self, ex21, inv_epsilon, capsys):
        doc = json.loads(ex21.read_text())
        doc["inv_epsilon"] = inv_epsilon
        ex21.write_text(json.dumps(doc))
        assert run(["solve", ex21]) == 64
        err = capsys.readouterr().err
        assert "inv_epsilon" in err and "Traceback" not in err


class TestSharedFiles:
    """``solve`` refuses, before anything is written, when ``--out`` or
    ``--trace`` names the same file as another file of the command."""

    PAIRS = [("--out", "--trace"), ("instance", "--out"), ("instance", "--trace"),
             ("--advice-perm", "--out"), ("--advice-perm", "--trace"),
             ("--advice-lottery", "--out"), ("--advice-lottery", "--trace")]

    @staticmethod
    def argv(files):
        argv = ["solve", files.pop("instance")]
        for flag, path in files.items():
            argv += [flag, path]
        return argv

    @staticmethod
    def snapshot(tmp_path):
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    @pytest.mark.parametrize("first, second", PAIRS)
    def test_each_pair_exits_usage_and_writes_nothing(self, ex23, tmp_path, capsys,
                                                      first, second):
        files = {"instance": ex23, "--advice-perm": tmp_path / "perm.json",
                 "--advice-lottery": tmp_path / "hint.json"}
        files["--advice-perm"].write_text("[3, 1, 2]")
        files["--advice-lottery"].write_text('["1/4", "3/5", "3/20"]')
        # An existing input file, or for --out and --trace one not yet made.
        shared = files.get(first, tmp_path / "shared")
        (tmp_path / "sub").mkdir()
        files = {flag: files[flag] for flag in ("instance", first) if flag in files}
        files[first] = shared
        files[second] = tmp_path / "sub" / ".." / shared.name  # another spelling
        before = self.snapshot(tmp_path)
        assert run(self.argv(files)) == 64
        assert self.snapshot(tmp_path) == before
        name = "the instance" if first == "instance" else first
        err = capsys.readouterr().err
        assert f"{name} and {second} name the same file" in err

    def test_existing_report_named_twice_is_kept(self, ex23, tmp_path):
        report = tmp_path / "r.json"
        report.write_text("earlier report\n")
        assert run(["solve", ex23, "--out", report, "--trace", report]) == 64
        assert report.read_text() == "earlier report\n"

    def test_symlink_to_the_instance_is_refused(self, ex23, tmp_path):
        link = tmp_path / "link.json"
        link.symlink_to(ex23)
        before = ex23.read_bytes()
        assert run(["solve", ex23, "--out", link]) == 64
        assert ex23.read_bytes() == before

    def test_distinct_files_still_solve(self, ex23, tmp_path):
        assert run(["solve", ex23, "--out", tmp_path / "r.json",
                    "--trace", tmp_path / "t.csv"]) == 0
        assert run(["verify", tmp_path / "r.json", ex23]) == 0


class TestVerify:
    def test_round_trip_passes(self, ex23, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["solve", ex23, "--out", rep])
        assert run(["verify", rep, ex23]) == 0
        assert "pass" in capsys.readouterr().out

    def test_tampered_lottery_names_the_agent(self, ex23, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["solve", ex23, "--out", rep])
        doc = json.loads(rep.read_text())
        doc["outcome"]["lottery"] = ["1", "0", "0"]  # e_1 is rejected by agent 2
        rep.write_text(json.dumps(doc))
        assert run(["verify", rep, ex23]) == 1
        assert "agent 2" in capsys.readouterr().out

    def test_null_report_verified(self, ex21, tmp_path):
        rep = tmp_path / "rep.json"
        run(["solve", ex21, "--out", rep])
        assert run(["verify", rep, ex21]) == 0

    def test_reject_all_round_trip(self, tmp_path, capsys):
        # Agent 2's best pure lottery is worth 2/10 < tau = 3/10.
        inst, rep = tmp_path / "inst.json", tmp_path / "rep.json"
        inst.write_text(json.dumps({"m": 2, "inv_epsilon": 10, "agents": [
            {"u": ["1", "0"], "tau": "1/2"}, {"u": ["1/10", "2/10"], "tau": "3/10"}]}))
        for solver in cli.SOLVERS:
            assert run(["solve", inst, "--solver", solver, "--out", rep]) == 3, solver
            outcome = json.loads(rep.read_text())["outcome"]
            assert outcome == {"kind": "Null", "witness": {"reject_all": 2}}, solver
            capsys.readouterr()
            assert run(["verify", rep, inst]) == 0, solver
            assert capsys.readouterr().out == "pass\n"

    def test_non_witness_subset_detected(self, ex21, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["solve", ex21, "--out", rep])
        doc = json.loads(rep.read_text())
        doc["outcome"]["witness"] = {"helly": [1]}  # one agent is not enough
        rep.write_text(json.dumps(doc))
        assert run(["verify", rep, ex21]) == 1

    @pytest.mark.parametrize("witness", [
        {"helly": [-1, 2]},  # -1 would alias the last agent
        {"helly": [0, 2]},
        {"helly": [1, 1]},
        {"helly": [1, 2, 3]},
        {"helly": ["1", 2]},
        {"helly": [True, 2]},
        {"helly": 12},
        {"reject_all": 7},
        {"reject_all": "1"},
        {"reject_all": 1},  # agent 1 accepts e_1
        {"reject_all": 1, "helly": [1, 2]},
        {},
        [1, 2],
        None,  # no witness at all
    ])
    def test_malformed_null_witness_fails(self, ex21, tmp_path, capsys, witness):
        rep = tmp_path / "rep.json"
        run(["solve", ex21, "--out", rep])
        doc = json.loads(rep.read_text())
        if witness is None:
            del doc["outcome"]["witness"]
        else:
            doc["outcome"]["witness"] = witness
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", rep, ex21]) == 1
        assert capsys.readouterr().out.startswith("FAIL: ")

    @pytest.mark.parametrize("doc", [
        [],
        "Accepted",
        {},
        {"outcome": "Accepted"},
        {"outcome": ["Accepted"]},
        {"outcome": {"kind": "Accepted"}},
        {"outcome": {"kind": "Accepted", "lottery": "19/64"}},
        {"outcome": {"kind": "Accepted", "lottery": {"1": "1"}}},
    ])
    def test_malformed_report_fails(self, ex23, tmp_path, capsys, doc):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", rep, ex23]) == 1
        assert capsys.readouterr().out.startswith("FAIL: ")

    @pytest.mark.parametrize("lottery", [["1/2", "1/2"], ["1/4", "1/4", "1/4", "1/4"]])
    def test_lottery_of_wrong_dimension_exits_usage(self, ex23, tmp_path, capsys, lottery):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"outcome": {"kind": "Accepted", "lottery": lottery}}))
        capsys.readouterr()
        assert run(["verify", rep, ex23]) == 64
        captured = capsys.readouterr()
        assert "dimension mismatch" in captured.err and "pass" not in captured.out

    def test_numeric_lottery_exits_usage(self, ex23, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(
            {"outcome": {"kind": "Accepted", "lottery": [0.25, 0.6, 0.15]}}))
        assert run(["verify", rep, ex23]) == 64

    @pytest.mark.parametrize("u1,expected", [
        # Agent 1 rejects every lottery: its normalized row is all zero.
        (["1/10", "1/10"], 0),
        (["1/10", "2/10"], 0),
        # Agent 1 accepts every lottery, so it proves nothing.
        (["3/10", "4/10"], 1),
    ])
    def test_helly_witness_of_one_agent(self, tmp_path, capsys, u1, expected):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"m": 2, "inv_epsilon": 10, "agents": [
            {"u": u1, "tau": "3/10"}, {"u": ["1", "0"], "tau": "1/2"}]}))
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"outcome": {"kind": "Null", "witness": {"helly": [1]}}}))
        assert run(["verify", rep, inst]) == expected
        out = capsys.readouterr().out
        assert out == ("pass\n" if expected == 0
                       else "FAIL: witness agent 1 accepts everything\n")

    def test_false_null_detected(self, ex23, ex21, tmp_path):
        rep = tmp_path / "rep.json"
        run(["solve", ex21, "--out", rep])  # genuine Null report
        assert run(["verify", rep, ex23]) == 1  # but this instance is feasible


class TestDeepJson:
    """JSON nested deeper than the parser's recursion limit is malformed
    input: exit 64, not a RecursionError (whose exit 1 would read as a
    verify FAIL)."""

    @pytest.mark.parametrize("target", ["instance", "report", "advice-lottery", "advice-perm"])
    def test_deep_nesting_exits_usage(self, ex23, tmp_path, capsys, target):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        rep = tmp_path / "rep.json"
        assert run(["solve", ex23, "--out", rep]) == 0
        argvs = {
            "instance": [["solve", deep], ["verify", rep, deep]],
            "report": [["verify", deep, ex23]],
            "advice-lottery": [["solve", ex23, "--advice-lottery", deep]],
            "advice-perm": [["solve", ex23, "--advice-perm", deep]],
        }[target]
        for argv in argvs:
            capsys.readouterr()
            assert run(argv) == 64
            assert "nested too deeply" in capsys.readouterr().err


class TestBench:
    def test_sweep_shape_and_append(self, ex23, ex21, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", ex23, ex21, "--seeds", 2, "--out", out]) == 0
        rows = list(csv.DictReader(out.open()))
        # 2 instances x (baseline + deterministic + 2 randomized seeds).
        assert len(rows) == 8
        for row in rows:
            cats = sum(int(row[c]) for c in
                       ("pure_vertex", "threshold_search", "verification", "advice_check"))
            assert int(row["total_queries"]) == cats
        # Appending must not rewrite the existing rows.
        assert run(["bench", ex23, "--solver", "baseline", "--out", out]) == 0
        assert len(list(csv.DictReader(out.open()))) == 9

    def test_outcome_column(self, ex21, tmp_path):
        out = tmp_path / "bench.csv"
        run(["bench", ex21, "--solver", "deterministic", "--out", out])
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["outcome"] == "Null" and rows[0]["n"] == "2"

    @pytest.mark.parametrize("seeds", [0, -3])
    def test_nonpositive_seeds_exit_usage(self, ex23, tmp_path, capsys, seeds):
        out = tmp_path / "bench.csv"
        assert run(["bench", ex23, "--solver", "randomized", "--seeds", seeds,
                    "--out", out]) == 64
        err = capsys.readouterr().err
        assert f"--seeds must be >= 1 (got {seeds})" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("shared", ["instance", "--advice-perm", "--advice-lottery"])
    def test_out_naming_an_input_exits_usage_before_solving(self, ex23, tmp_path, capsys,
                                                            monkeypatch, shared):
        files = {"instance": ex23, "--advice-perm": tmp_path / "perm.json",
                 "--advice-lottery": tmp_path / "hint.json"}
        files["--advice-perm"].write_text("[3, 1, 2]")
        files["--advice-lottery"].write_text('["1/4", "3/5", "3/20"]')
        before = files[shared].read_bytes()
        monkeypatch.setattr(cli, "_run_solver", None)  # a solver run would raise
        argv = ["bench", ex23, "--solver", "baseline", "--out", files[shared]]
        if shared != "instance":
            argv += [shared, files[shared]]
        assert run(argv) == 64
        name = "the instance" if shared == "instance" else shared
        assert f"{name} and --out name the same file" in capsys.readouterr().err
        assert files[shared].read_bytes() == before

    def test_advice_that_does_not_fit_exits_usage_and_appends_nothing(
            self, ex21, ex23, tmp_path, capsys, monkeypatch):
        hint, out = tmp_path / "hint.json", tmp_path / "bench.csv"
        hint.write_text(json.dumps(["1/2", "1/2"]))  # fits ex21 (m=2), not ex23 (m=3)
        argv = ["bench", "--solver", "baseline", "--advice-lottery", hint, "--out", out]
        assert run(argv + [ex21]) == 0
        before = out.read_bytes()
        capsys.readouterr()
        assert run(argv + [ex21, ex23]) == 64
        assert "dimension mismatch: instance has 3, lottery hint 2" in capsys.readouterr().err
        assert out.read_bytes() == before
        monkeypatch.setattr(cli, "_run_solver", None)  # a solver run would raise
        assert run(argv + [ex23]) == 64
        assert out.read_bytes() == before

    def test_existing_csv_out_still_appends(self, ex23, tmp_path):
        out = tmp_path / "bench.csv"
        out.write_text(",".join(cli.BENCH_COLUMNS) + "\n")
        assert run(["bench", ex23, "--solver", "baseline", "--out", out]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1 and rows[0]["solver"] == "baseline"

    def test_format_option_is_gone(self, ex23, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            run(["bench", ex23, "--format", "csv", "--out", out])
        assert exc.value.code == 64
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
        assert not out.exists()


class TestReportText:
    """``_dumps_indented`` is ``json.dumps(obj, indent=2)``, byte for byte."""

    _LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=6))
    _DOCS = st.recursive(
        _LEAVES,
        lambda kids: st.one_of(st.lists(kids, max_size=4),
                               st.dictionaries(st.text(max_size=4), kids, max_size=4)),
        max_leaves=20,
    )

    @settings(max_examples=300)
    @given(_DOCS)
    @example({})
    @example({"a": {}, "b": [], "c": [[]]})
    @example([{"\u00e9": "\u00fc\u2603"}, None, 1.5, True])
    @example({"outcome": {"kind": "Accepted", "lottery": ["1/2", "1/2"]},
              "queries": {"total": 3, "per_agent": {str(i): 1 for i in range(1, 4)},
                          "per_category": {"Verification": 3}}})
    def test_matches_json_dumps_indent_2(self, doc):
        assert cli._dumps_indented(doc) == json.dumps(doc, indent=2)


class TestHugeExponent:
    """A 12-byte value like "1e-999999999" would make Fraction build
    10**999999999; every reader rejects it at once with exit 64."""

    HUGE = "1e-999999999"

    @pytest.mark.parametrize("target", ["instance", "report", "advice-lottery",
                                        "bench-advice-lottery", "gen-x", "gen-delta"])
    def test_exits_usage(self, ex23, tmp_path, capsys, target):
        huge = self.HUGE
        rep, hint = tmp_path / "rep.json", tmp_path / "hint.json"
        rep.write_text(json.dumps({"outcome": {"kind": "Accepted",
                                               "lottery": [huge, "1", "0"]}}))
        hint.write_text(json.dumps([huge, "1", "0"]))
        rejected = f"not a rational number: {huge!r} (exponent beyond +-4300)"
        if target == "instance":
            doc = json.loads(ex23.read_text())
            doc["agents"][0]["tau"] = huge
            ex23.write_text(json.dumps(doc))
            argv = ["solve", ex23]
            rejected = f"agent 1: threshold {huge!r} is not a rational string"
        else:
            argv = {
                "report": ["verify", rep, ex23],
                "advice-lottery": ["solve", ex23, "--advice-lottery", hint],
                "bench-advice-lottery": ["bench", ex23, "--advice-lottery", hint,
                                         "--out", tmp_path / "bench.csv"],
                "gen-x": ["gen", "grid-singleton", "--m", 3, "--inv-eps", 10,
                          "--x", f"{huge},0,1", "--out", tmp_path / "g.json"],
                "gen-delta": ["gen", "near-threshold", "--Q", 10, "--delta", huge,
                              "--t", 0, "--out", tmp_path / "n.json"],
            }[target]
        assert run(argv) == 64
        captured = capsys.readouterr()
        assert captured.err == f"unanimity: error: {rejected}\n" and captured.out == ""


class TestParserReuse:
    """main builds its parser once per process and reuses it."""

    def test_parser_is_built_once(self, ex23, tmp_path, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        counts = []
        for argv in (["solve", ex23, "--out", tmp_path / "r.json"],
                     ["verify", tmp_path / "r.json", ex23],
                     ["solve", ex23, "--out", tmp_path / "r.json"]):
            assert run(argv) == 0
            counts.append(len(built))
        assert built.count("unanimity") == 1 and counts == [counts[0]] * 3

    def test_advice_does_not_carry_over(self, ex23, tmp_path):
        hint = tmp_path / "hint.json"
        hint.write_text(json.dumps(["1/4", "3/5", "3/20"]))
        hinted, plain = tmp_path / "hinted.json", tmp_path / "plain.json"
        assert run(["solve", ex23, "--advice-lottery", hint, "--out", hinted]) == 0
        assert run(["solve", ex23, "--out", plain]) == 0
        assert "AdviceCheck" in json.loads(hinted.read_text())["queries"]["per_category"]
        assert "AdviceCheck" not in json.loads(plain.read_text())["queries"]["per_category"]

    def test_usage_error_then_valid_command(self, ex23, tmp_path, capsys):
        argv = ["solve", str(ex23), "--solver", "nope"]
        with pytest.raises(SystemExit) as exc:
            cli._build_parser.__wrapped__().parse_args(argv)
        fresh = capsys.readouterr().err
        assert exc.value.code == 64 and "invalid choice: 'nope'" in fresh
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 64 and capsys.readouterr().err == fresh
        assert run(["solve", ex23, "--out", tmp_path / "r.json"]) == 0
        assert capsys.readouterr().err == ""


# Fuzz: replace one node of a valid report, instance or advice document with
# an arbitrary small JSON value; the CLI must exit with a documented code.
_KEYS = ["outcome", "kind", "lottery", "witness", "helly", "reject_all",
         "m", "inv_epsilon", "agents", "u", "tau"]
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6),
    st.sampled_from([0.25, 1.5, -0.0, 1e300]),
    st.sampled_from(["", " 1 ", "0", "1/2", "3/5", "-1/5", "1/0", "x", "2",
                     "Accepted", "Null", "0.6"]),
)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.sampled_from(_KEYS), kids, max_size=4)),
    max_leaves=10,
)


def _mutate(doc, data):
    """``doc`` with one node (possibly the root) replaced by a fuzz value."""
    if isinstance(doc, (list, dict)) and doc and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(range(len(doc)) if isinstance(doc, list) else list(doc)))
        doc = copy.copy(doc)
        doc[key] = _mutate(doc[key], data)
        return doc
    return data.draw(_JSON)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for family in ("example-2-3", "example-2-1"):
        inst, rep = root / f"{family}.json", root / f"{family}.report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            run(["gen", family, "--out", inst])
            run(["solve", inst, "--out", rep])
        docs[family] = (json.loads(inst.read_text()), json.loads(rep.read_text()))
    return root, docs


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_json_exits_with_a_documented_code(fuzz_base, data):
    root, docs = fuzz_base
    family = data.draw(st.sampled_from(sorted(docs)))
    inst_doc, rep_doc = docs[family]
    inst, rep, adv = root / "f.instance.json", root / "f.report.json", root / "f.advice.json"
    target = data.draw(st.sampled_from(["report", "instance", "perm", "lottery"]))
    inst.write_text(json.dumps(_mutate(inst_doc, data) if target == "instance" else inst_doc))
    rep.write_text(json.dumps(_mutate(rep_doc, data) if target == "report" else rep_doc))
    if target == "report":
        argvs = [["verify", rep, inst]]
    elif target == "instance":
        argvs = [["verify", rep, inst], ["solve", inst, "--out", root / "out.json"]]
    else:
        base = list(range(1, len(inst_doc["agents"]) + 1)) if target == "perm" \
            else ["1/2", "1/2"] + ["0"] * (inst_doc["m"] - 2)
        adv.write_text(json.dumps(_mutate(base, data)))
        argvs = [["solve", inst, f"--advice-{target}", adv, "--out", root / "out.json"]]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run(argv) in (0, 1, 3, 64, 66)


# Soundness: verify passes a Null or Accepted claim exactly when it is true,
# judged here without the solvers' code: membership in Fractions through
# AgentSpec, subset feasibility by the reference LP, RejectAll from the
# utilities.

@st.composite
def _small_instances(draw):
    Q = draw(st.sampled_from([2, 3, 5, 10]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    return Instance(m, F(1, Q), [
        AgentSpec([F(draw(st.integers(0, Q)), Q) for _ in range(m)], F(draw(st.integers(1, Q)), Q))
        for _ in range(n)])


@st.composite
def _claims(draw, inst, genuine):
    """A random lottery, Helly set or RejectAll index, or a solver's own
    outcome, mutated or not."""
    n, m, Q = inst.n, inst.m, inst.inv_epsilon
    kind = draw(st.sampled_from(["lottery", "helly", "reject_all", "genuine"]))
    if kind == "lottery":
        w = draw(st.lists(st.integers(0, Q), min_size=m, max_size=m).filter(any))
        return {"kind": "Accepted", "lottery": [str(F(v, sum(w))) for v in w]}
    if kind == "helly":
        agents = draw(st.lists(st.integers(1, n), unique=True, max_size=m)
                      if n and draw(st.booleans()) else st.lists(st.integers(-1, n + 2), max_size=m + 1))
        return {"kind": "Null", "witness": {"helly": agents}}
    if kind == "reject_all":
        return {"kind": "Null", "witness": {"reject_all": draw(st.integers(-1, n + 2))}}
    outcome = copy.deepcopy(draw(st.sampled_from(genuine)))
    if outcome["kind"] == "Accepted":
        x = [F(t) for t in outcome["lottery"]]
        j, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        d = min(x[j], F(1, draw(st.sampled_from([Q, 2 * Q, Q * Q]))))
        x[j] -= d
        x[k] += d
        outcome["lottery"] = [str(p) for p in x]
        return outcome
    [(key, claim)] = outcome["witness"].items()
    agents = claim if key == "helly" else [claim]
    edit = draw(st.sampled_from(["keep", "drop", "add", "shift", "swap-key"]))
    if edit == "drop":
        agents = agents[1:]
    elif edit == "add":
        agents = agents + [draw(st.integers(1, n))]
    elif edit == "shift":
        agents = [agents[0] + draw(st.sampled_from([-1, 1]))] + agents[1:]
    if edit == "swap-key" and key == "helly":
        return {"kind": "Null", "witness": {"reject_all": agents[0]}}
    if edit == "swap-key" or len(agents) != 1:
        return {"kind": "Null", "witness": {"helly": agents}}
    return {"kind": "Null", "witness": {key: agents if key == "helly" else agents[0]}}


def _true_claim(outcome, inst) -> bool:
    agents, Q = inst.agents, inst.inv_epsilon
    if outcome["kind"] == "Accepted":
        x = Lottery([F(t) for t in outcome["lottery"]])
        return all(expected_utility(a, x) >= a.threshold for a in agents)
    [(key, claim)] = outcome["witness"].items()
    if key == "reject_all":
        return 1 <= claim <= inst.n and max(agents[claim - 1].utilities) < agents[claim - 1].threshold
    if not (len(claim) <= inst.m and len(set(claim)) == len(claim)
            and all(1 <= i <= inst.n for i in claim)):
        return False
    # Each agent must reject some lottery; the rest must meet nowhere.
    # <U, x> >= T is <U - c, x> >= T - c on the simplex, with every entry of
    # U - c positive for c = min(U) - 1.
    rows = []
    for i in claim:
        U, T = [int(u * Q) for u in agents[i - 1].utilities], int(agents[i - 1].threshold * Q)
        if min(U) >= T:
            return False
        c = min(U) - 1
        rows.append((i, ([u - c for u in U], T - c)))
    return select_reference(ConstraintSet(inst.m, rows)) is None


class TestVerifySoundness:
    """``verify`` passes exactly the true claims, and every report the three
    solvers write."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_passes_exactly_the_true_claims(self, data):
        inst = data.draw(_small_instances())
        genuine = [solve_baseline(Oracle(inst)).to_json_dict(),
                   solve_deterministic(Oracle(inst)).to_json_dict(),
                   solve_randomized(Oracle(inst), seed=data.draw(st.integers(0, 99))).to_json_dict()]
        for doc in genuine:
            assert cli._verify_report(doc, inst) == [], doc
        for _ in range(6):
            outcome = data.draw(_claims(inst, [doc["outcome"] for doc in genuine]))
            passed = cli._verify_report({"outcome": outcome}, inst) == []
            assert passed == _true_claim(outcome, inst), outcome
