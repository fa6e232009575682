"""Tests for the command line harness: gen, solve, verify, bench."""

import csv
import json

import pytest

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

    def test_missing_instance_exits_io(self, tmp_path, capsys):
        assert run(["solve", tmp_path / "nope.json"]) == 66

    @pytest.mark.parametrize("inv_epsilon", [0, 1, -3])
    def test_bad_inv_epsilon_exits_usage(self, ex21, inv_epsilon, capsys):
        doc = json.loads(ex21.read_text())
        doc["inv_epsilon"] = inv_epsilon
        ex21.write_text(json.dumps(doc))
        assert run(["solve", ex21]) == 64
        err = capsys.readouterr().err
        assert "inv_epsilon" in err and "Traceback" not in err


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

    def test_false_null_detected(self, ex23, ex21, tmp_path):
        rep = tmp_path / "rep.json"
        run(["solve", ex21, "--out", rep])  # genuine Null report
        assert run(["verify", rep, ex23]) == 1  # but this instance is feasible


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
