import json

import pytest

from baire_lab import cli
from baire_lab.cli import DEPTH_MAX, PAIRS_NMAX, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_vector(path, entries):
    path.write_text(json.dumps({"entries": entries}))


def test_gen_then_rank(tmp_path, capsys):
    t = tmp_path / "t.json"
    code, _, _ = run(capsys, "gen", "chain", "--n", "5", "--out", str(t))
    assert code == 0
    code, out, _ = run(capsys, "rank", "--tree", str(t))
    assert code == 0 and out.strip() == "4"


def test_gen_round_trips_through_all_consumers(tmp_path, capsys):
    for shape in ("chain", "star", "comb", "random"):
        t = tmp_path / (shape + ".json")
        code, _, _ = run(capsys, "gen", shape, "--n", "4", "--out", str(t))
        assert code == 0
        nodes = json.loads(t.read_text())["nodes"]
        x = tmp_path / (shape + "_x.json")
        write_vector(x, [[nodes[-1], "1"]])
        for sub in (
            ["rank", "--tree", str(t)],
            ["baire", "--tree", str(t), "--vector", str(x)],
            ["tsirelson", "--tree", str(t), "--vector", str(x)],
            ["ground", "--tree", str(t), "--vector", str(x)],
        ):
            code, _, _ = run(capsys, *sub)
            assert code == 0, (shape, sub)


def test_baire_json_output(tmp_path, capsys):
    t = tmp_path / "t.json"
    run(capsys, "gen", "star", "--n", "3", "--out", str(t))
    x = tmp_path / "x.json"
    write_vector(x, [[[0], "1"], [[1], "3/2"]])
    code, out, _ = run(
        capsys, "baire", "--tree", str(t), "--vector", str(x), "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "5/2"
    assert len(data["family"]) == 2


def test_tsirelson_witness_and_iterate(tmp_path, capsys):
    t = tmp_path / "t.json"
    run(capsys, "gen", "star", "--n", "4", "--base-label", "4", "--out", str(t))
    x = tmp_path / "x.json"
    write_vector(x, [[[4], "1"], [[5], "1"], [[6], "1"], [[7], "1"]])
    code, out, _ = run(
        capsys, "tsirelson", "--tree", str(t), "--vector", str(x), "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "2"
    assert "family" in data["witness_family_tree"]
    code, out, _ = run(
        capsys,
        "tsirelson", "--tree", str(t), "--vector", str(x),
        "--iterate", "0", "--json",
    )
    assert json.loads(out)["value"] == "1"


def test_hi_schedule(capsys):
    code, out, _ = run(capsys, "hi", "schedule", "--jmax", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == ["2", "32"]
    assert data["n"] == ["4", str(20**15)]
    code, out, _ = run(capsys, "hi", "schedule", "--jmax", "3")
    assert code == 0 and len(out.split()[-1]) == 1517
    # n_4 would not print; refused before it is computed
    code, out, err = run(capsys, "hi", "schedule", "--jmax", "4")
    assert code == 2 and out == "" and err.startswith("error: --jmax 4")


def test_hi_witness_csv(capsys):
    code, out, _ = run(capsys, "hi", "witness", "--pairs", "2:4,2:8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,ground,lower,upper,ratio"
    assert lines[1] == "2,4,1,2,4,2"
    assert lines[2] == "2,8,1,4,8,4"


def test_hi_pairs_n_is_bounded(capsys):
    # a 10**8-leaf star would never return; both commands refuse it first
    for argv in (["hi", "witness", "--pairs"], ["verify", "hi", "--pairs"]):
        for pairs in ("2:100000000", "2:4,2:%d" % (PAIRS_NMAX + 1)):
            code, out, err = run(capsys, *argv, pairs)
            assert code == 2 and out == "", (argv, pairs)
            assert err.startswith("error: pair 2:") and "at most %d" % PAIRS_NMAX in err
    code, out, _ = run(capsys, "hi", "witness", "--pairs", "2:%d" % PAIRS_NMAX)
    assert code == 0
    assert out.strip().splitlines()[1] == "2,%d,1,%d,%d,%d" % (
        PAIRS_NMAX, PAIRS_NMAX // 2, PAIRS_NMAX, PAIRS_NMAX // 2)


def test_internal_error_exits_2_without_traceback(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli, "cmd_rank", boom)
    code, out, err = run(capsys, "rank", "--tree", "t.json")
    assert code == 2 and out == ""
    assert err == "error: internal: RuntimeError: unexpected state\n"


def test_verify_subcommands(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "branch", "--cases", "10", "--seed", "1")
    assert code == 0
    code, out, _ = run(capsys, "verify", "tsirelson", "--cases", "5", "--seed", "1")
    assert code == 0
    rep = tmp_path / "rep.json"
    code, out, _ = run(
        capsys, "verify", "hi", "--pairs", "2:4", "--out", str(rep)
    )
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True


def test_verify_input_errors_exit_2(capsys):
    # bad flag values are input errors, not internal errors or empty passes
    code, out, err = run(capsys, "verify", "branch", "--max-len", "0")
    assert code == 2 and out == ""
    assert err == "error: max_len must be >= 1\n"
    for suite in ("branch", "tsirelson"):
        code, out, err = run(capsys, "verify", suite, "--cases", "-3")
        assert code == 2 and out == "", suite
        assert err == "error: --cases must be >= 0\n"
        # zero cases stay a vacuous pass
        code, out, _ = run(capsys, "verify", suite, "--cases", "0")
        assert code == 0 and json.loads(out)["records"] == []


def test_depth_is_bounded(tmp_path, capsys, monkeypatch):
    # a node with d entries brings d prefixes, so deep input is refused
    # before anything is built
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({"nodes": [[0] * (DEPTH_MAX + 1)]}))
    code, out, err = run(capsys, "rank", "--tree", str(deep))
    assert code == 2 and out == ""
    assert err.startswith("error: tree in ") and "%d entries" % (DEPTH_MAX + 1) in err
    for argv in (["gen", "chain", "--n"], ["gen", "comb", "--n"],
                 ["verify", "branch", "--max-len"]):
        code, out, err = run(capsys, *argv, str(DEPTH_MAX + 1))
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "at most %d" % DEPTH_MAX in err
    # the bound itself is allowed (checked on a small bound: a 3,000-entry
    # node takes about 1 s to build)
    monkeypatch.setattr(cli, "DEPTH_MAX", 5)
    deep.write_text(json.dumps({"nodes": [[0] * 5]}))
    code, out, err = run(capsys, "rank", "--tree", str(deep))
    assert code == 0 and out.strip() == "5"
    deep.write_text(json.dumps({"nodes": [[0] * 6]}))
    assert run(capsys, "rank", "--tree", str(deep))[0] == 2
    for shape in ("chain", "comb"):
        assert run(capsys, "gen", shape, "--n", "5")[0] == 0
        assert run(capsys, "gen", shape, "--n", "6")[0] == 2
    assert run(capsys, "verify", "branch", "--max-len", "5", "--cases", "2")[0] == 0
    assert run(capsys, "verify", "branch", "--max-len", "6", "--cases", "2")[0] == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "rank", "--tree", "no-such-file.json")
    assert code == 2 and "error" in err


def test_malformed_tree_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": "bogus"}')
    code, _, err = run(capsys, "rank", "--tree", str(bad))
    assert code == 2 and "nodes" in err


def test_malformed_vector_exits_2(tmp_path, capsys):
    t = tmp_path / "t.json"
    run(capsys, "gen", "chain", "--n", "3", "--out", str(t))
    x = tmp_path / "x.json"
    x.write_text('{"entries": [[[9, 9], "1"]]}')
    code, _, err = run(capsys, "ground", "--tree", str(t), "--vector", str(x))
    assert code == 2 and "not in the tree" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["bogus-subcommand"])
    assert e.value.code == 2
    capsys.readouterr()


def test_prefix_closure_note(tmp_path, capsys):
    t = tmp_path / "t.json"
    t.write_text('{"nodes": [[0, 1]]}')
    code, out, err = run(capsys, "rank", "--tree", str(t))
    assert code == 0 and out.strip() == "2"
    assert "closure" in err
