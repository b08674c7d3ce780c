import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from baire_lab import cli, verify
from baire_lab.cli import (
    CASES_MAX, DEPTH_MAX, EXPONENT_MAX, GRID_BITS_MAX, PAIRS_MAX, PAIRS_NMAX, main)
from baire_lab.trees import comb_tree, random_tree, star_tree, tree_to_json_dict
from baire_lab.verify import run_hi_suite


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
        # gen random takes no --n: it draws its 12-node default tree
        size = [] if shape == "random" else ["--n", "4"]
        code, _, _ = run(capsys, "gen", shape, *size, "--out", str(t))
        assert code == 0
        nodes = json.loads(t.read_text())["nodes"]
        if shape == "random":
            assert nodes == tree_to_json_dict(random_tree(0, 12, 3))["nodes"]
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


def test_baire_exponents_are_bounded(tmp_path, capsys):
    t = tmp_path / "t.json"
    run(capsys, "gen", "chain", "--n", "3", "--out", str(t))
    x = tmp_path / "x.json"
    write_vector(x, [[[], "1"], [[0], "2"], [[0, 0], "3/2"]])
    baire = ["baire", "--tree", str(t), "--vector", str(x)]
    # a zero denominator was an internal ZeroDivisionError, and --p 1e400
    # ran for more than 30 s
    for flags in (["--p", "1/0"], ["--base", "l1/0"], ["--p", "1e400"],
                  ["--base", "l1e400"], ["--p", "abc"], ["--base", "l"]):
        code, out, err = run(capsys, *baire, *flags)
        assert code == 2 and out == "", flags
        assert err.startswith("error: %s " % flags[0]) and "not a rational" in err, flags
    # a base that is neither sup nor lQ
    assert run(capsys, *baire, "--base", "x3") == (2, "", "error: unknown base norm token 'x3'\n")
    # on this 3-node chain, --p 1001/1000 --base l2 took 4.6 s and
    # --base l3001/1000 took 27 s
    for flags in (["--p", "1001/1000", "--base", "l2"], ["--base", "l3001/1000"],
                  ["--p", str(EXPONENT_MAX + 1)], ["--p", "%d/%d" % (EXPONENT_MAX + 2, EXPONENT_MAX + 1)],
                  ["--base", "l%d/%d" % (EXPONENT_MAX + 2, EXPONENT_MAX + 1)]):
        code, out, err = run(capsys, *baire, *flags)
        assert code == 2 and out == "", flags
        assert err.startswith("error: %s " % flags[0]) and "at most %d" % EXPONENT_MAX in err, flags
    # the bound itself, and every exponent the benchmark and README use
    at_bound = ["--p", "%d/%d" % (EXPONENT_MAX, EXPONENT_MAX - 1),
                "--base", "l%d/%d" % (EXPONENT_MAX - 1, EXPONENT_MAX - 2)]
    assert run(capsys, *baire, *at_bound)[0] == 0
    for p in ("0", "1", "3/2", "2", "1.5"):
        for base in ("sup", "l1", "l2", "l3/2"):
            assert run(capsys, *baire, "--p", p, "--base", base)[0] == 0, (p, base)


def test_json_output_bytes(tmp_path, capsys):
    # files and stdout are written chunk by chunk, but the bytes are those
    # of json.dumps(..., indent=2) and a newline
    t = tmp_path / "t.json"
    assert run(capsys, "gen", "comb", "--n", "6", "--out", str(t))[0] == 0
    want = json.dumps(tree_to_json_dict(comb_tree(6)), indent=2) + "\n"
    assert t.read_text() == want
    assert run(capsys, "gen", "comb", "--n", "6") == (0, want, "")
    rep = tmp_path / "rep.json"
    assert run(capsys, "verify", "branch", "--cases", "3", "--out", str(rep))[0] == 0
    text = rep.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    # --json output takes the same path
    x = tmp_path / "x.json"
    write_vector(x, [[[0], "1/3"], [[0, 0], "-2"], [[1], "3/2"]])
    code, out, _ = run(capsys, "baire", "--tree", str(t), "--vector", str(x), "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert json.loads(out)["family"]


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
    # past the support cap of 14 the norm is refused, not computed
    run(capsys, "gen", "star", "--n", "15", "--out", str(t))
    write_vector(x, [[[i], "1"] for i in range(15)])
    for extra in ([], ["--iterate", "2"]):
        code, out, err = run(capsys, "tsirelson", "--tree", str(t), "--vector", str(x), *extra)
        assert code == 2 and out == "", extra
        assert err == "error: support cap exceeded: |supp| = 15 > 14\n", extra


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


def test_hi_witness_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "hi", "witness", "--pairs", "2:4,2:8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,ground,lower,upper,ratio"
    assert lines[1] == "2,4,1,2,4,2"
    assert lines[2] == "2,8,1,4,8,4"
    # the table is a function of the pairs alone: there is no tree to give
    t = tmp_path / "t.json"
    t.write_text(json.dumps(tree_to_json_dict(star_tree(4))))
    code, out, err = _outcome(capsys, ["hi", "witness", "--tree", str(t), "--pairs", "2:4"])
    assert (code, out) == (2, "") and "unrecognized arguments: --tree" in err


# the pair lists of the other tests, the pins and the benchmark's cli_verify
@pytest.mark.parametrize("pairs", ["2:4,2:8", "2:4,4:16", "2:4,2:8,4:16", "2:6,4:8",
                                   "2:%d" % PAIRS_NMAX])
def test_hi_witness_prints_the_hi_suite(capsys, monkeypatch, pairs):
    # hi witness and verify hi share one table: the CSV is the report's
    # record fields, and the exit code its verdict
    report = run_hi_suite(cli._parse_pairs(pairs))
    columns = ["m", "n", "ground", "lower", "upper", "ratio"]
    code, out, err = run(capsys, "hi", "witness", "--pairs", pairs)
    assert (code, err) == (0 if report.passed else 1, "")
    assert out.splitlines() == [",".join(columns)] + [
        ",".join(str(record[key]) for key in columns) for record in report.records]
    # a failing record fails the command, with the table still printed
    witness = verify.strict_singularity_witness
    monkeypatch.setattr(verify, "strict_singularity_witness",
                        lambda n, m: dict(witness(n, m), ground=0))
    code, out, err = run(capsys, "hi", "witness", "--pairs", pairs)
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == ",".join(columns)
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["0"] * len(report.records)


def test_hi_pairs_n_is_bounded(capsys):
    # a 10**8-leaf star would never return; both commands refuse it first
    for argv in (["hi", "witness", "--pairs"], ["verify", "hi", "--pairs"]):
        for pairs in ("2:100000000", "2:4,2:%d" % (PAIRS_NMAX + 1)):
            code, out, err = run(capsys, *argv, pairs)
            assert code == 2 and out == "", (argv, pairs)
            assert err.startswith("error: pair 2:") and "at most %d" % PAIRS_NMAX in err
    # an empty list is malformed, not a request for the default pairs
    for argv in (["hi", "witness", "--pairs"], ["verify", "hi", "--pairs"]):
        code, out, err = run(capsys, *argv, "")
        assert code == 2 and out == "", argv
        assert err.startswith("error: pairs must look like")
    code, out, _ = run(capsys, "hi", "witness", "--pairs", "2:%d" % PAIRS_NMAX)
    assert code == 0
    assert out.strip().splitlines()[1] == "2,%d,1,%d,%d,%d" % (
        PAIRS_NMAX, PAIRS_NMAX // 2, PAIRS_NMAX, PAIRS_NMAX // 2)


def test_pair_count_is_bounded(capsys, monkeypatch):
    # one pair past the bound is refused before any witness is built
    def never_run(*args, **kwargs):
        raise AssertionError("a refused pair list was run")

    with monkeypatch.context() as m:
        m.setattr(cli, "run_hi_suite", never_run)
        for argv in (["hi", "witness"], ["verify", "hi"]):
            code, out, err = run(capsys, *argv, "--pairs", ",".join(["2:1"] * (PAIRS_MAX + 1)))
            assert (code, out) == (2, "") and err == (
                "error: %d pairs are too many: at most %d\n" % (PAIRS_MAX + 1, PAIRS_MAX))
    code, out, _ = run(capsys, "hi", "witness", "--pairs", ",".join(["2:1"] * PAIRS_MAX))
    assert code == 0 and len(out.splitlines()) == PAIRS_MAX + 1


def test_grid_is_bounded(tmp_path, capsys):
    # a grid of GRID_BITS_MAX bits loads (3 * 2**(GRID_BITS_MAX - 2)), one
    # bit more is refused, though each denominator alone is under the bound
    t = tmp_path / "t.json"
    t.write_text(json.dumps(tree_to_json_dict(star_tree(2))))
    x = tmp_path / "x.json"
    write_vector(x, [[[0], "1/%d" % 2**(GRID_BITS_MAX - 2)], [[1], "1/3"]])
    assert run(capsys, "ground", "--tree", str(t), "--vector", str(x))[0] == 0
    write_vector(x, [[[0], "1/%d" % 2**(GRID_BITS_MAX - 1)], [[1], "1/3"]])
    code, out, err = run(capsys, "ground", "--tree", str(t), "--vector", str(x))
    assert (code, out) == (2, "") and err == (
        "error: invalid vector in %s: the lcm of its denominators passes %d bits\n"
        % (x, GRID_BITS_MAX))


def test_numerators_are_bounded(tmp_path, capsys):
    # a 14-leaf star of 4,300-digit integers: each token is under the
    # int-to-str limit but their printed sum is not, so every command
    # refuses the file as it loads, ground too
    t, x = tmp_path / "t.json", tmp_path / "x.json"
    t.write_text(json.dumps(tree_to_json_dict(star_tree(14))))
    write_vector(x, [[[i], "9" * 4300] for i in range(14)])
    refused = "error: invalid vector in %s: the numerator of node %s passes %d bits\n"
    for argv in (["baire", "--p", "1", "--base", "l1"], ["tsirelson", "--variant", "standard"],
                 ["ground"]):
        code, out, err = run(capsys, *argv, "--tree", str(t), "--vector", str(x))
        assert (code, out, err) == (2, "", refused % (x, [0], GRID_BITS_MAX)), argv
    # every numerator and the grid at the bound: 2**1024 - 5 is prime to
    # 3 * 2**1022, so each value is reduced and both have 1,024 bits
    value = Fraction(2**GRID_BITS_MAX - 5, 3 * 2**(GRID_BITS_MAX - 2))
    assert value.numerator.bit_length() == value.denominator.bit_length() == GRID_BITS_MAX
    write_vector(x, [[[i], str(value)] for i in range(14)])
    for argv in (["baire", "--p", "8", "--base", "l1"], ["baire", "--p", "7/2", "--base", "l8"],
                 ["tsirelson", "--variant", "standard"], ["tsirelson", "--variant", "incomparable"],
                 ["ground"]):
        code, out, err = run(capsys, *argv, "--tree", str(t), "--vector", str(x))
        assert code == 0 and out and err == "", argv
    # one bit more, on a negative integer entry, is refused
    write_vector(x, [[[0], "1"], [[1], "-%d" % 2**GRID_BITS_MAX]])
    code, out, err = run(capsys, "ground", "--tree", str(t), "--vector", str(x))
    assert (code, out, err) == (2, "", refused % (x, [1], GRID_BITS_MAX))


def test_internal_error_exits_2_without_traceback(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli, "cmd_rank", boom)
    code, out, err = run(capsys, "rank", "--tree", "t.json")
    assert code == 2 and out == ""
    assert err == "error: internal: RuntimeError: unexpected state\n"


class ClosedPipe:
    """A stream whose reader has gone: writes raise, or only the flush does
    and the writes are kept in text."""

    def __init__(self, at_flush=False):
        self.at_flush = at_flush
        self.text = ""

    def write(self, s):
        if not self.at_flush:
            raise BrokenPipeError(32, "Broken pipe")
        self.text += s
        return len(s)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_streams_exit_2(tmp_path, monkeypatch):
    # `baire-lab ... 2>&1 | head -c 3` closes stdout and stderr at once:
    # the error line cannot be written either, and the exit code stays 2
    t = tmp_path / "t.json"
    t.write_text(json.dumps(tree_to_json_dict(star_tree(3))))
    argv = ["rank", "--tree", str(t), "--json"]
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "stderr", ClosedPipe())
    assert main(argv) == 2
    # a pipe that closes only by the last write's flush gives 2 as well
    err = ClosedPipe(at_flush=True)
    monkeypatch.setattr(sys, "stdout", ClosedPipe(at_flush=True))
    monkeypatch.setattr(sys, "stderr", err)
    assert main(argv) == 2
    assert err.text == "error: internal: BrokenPipeError: [Errno 32] Broken pipe\n"


# each command's library entry point on cli, and a command line that reaches it
ENTRY_POINTS = [
    ("baire_norm_report", ["baire", "--tree", "{t}", "--vector", "{x}"]),
    ("tsirelson_norm", ["tsirelson", "--tree", "{t}", "--vector", "{x}"]),
    ("tsirelson_iterate", ["tsirelson", "--tree", "{t}", "--vector", "{x}", "--iterate", "1"]),
    ("ground_norm", ["ground", "--tree", "{t}", "--vector", "{x}"]),
    ("rank", ["rank", "--tree", "{t}"]),
    ("chain_tree", ["gen", "chain", "--n", "3"]),
    ("tree_to_json_dict", ["gen", "chain", "--n", "3"]),
    ("schedule", ["hi", "schedule", "--jmax", "2"]),
    ("run_hi_suite", ["hi", "witness", "--pairs", "2:4"]),
    ("run_branch_isometry", ["verify", "branch", "--cases", "2"]),
    ("run_tsirelson_suite", ["verify", "tsirelson", "--cases", "2"]),
    ("run_hi_suite", ["verify", "hi", "--pairs", "2:4"]),
]


# hi witness and verify hi share run_hi_suite; the id tells them apart
ENTRY_IDS = [name + "-hi-witness" if argv[:2] == ["hi", "witness"] else name
             for name, argv in ENTRY_POINTS]


@pytest.mark.parametrize("name, argv", ENTRY_POINTS, ids=ENTRY_IDS)
def test_library_value_error_exits_2(tmp_path, monkeypatch, capsys, name, argv):
    # main maps every ValueError a command raises to an input error, with
    # the library's message as it is
    t, x = tmp_path / "t.json", tmp_path / "x.json"
    t.write_text(json.dumps(tree_to_json_dict(comb_tree(3))))
    write_vector(x, [[[0], "1"]])

    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, name, boom)
    code, out, err = run(capsys, *[a.format(t=t, x=x) for a in argv])
    assert (code, out, err) == (2, "", "error: boom\n")


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


def test_verify_hi_twice_reads_its_rows_from_the_cache(tmp_path, capsys):
    # the second of two identical calls computes no row and writes the
    # same digest
    from baire_lab import hi

    argv = ["verify", "hi", "--pairs", "2:4,2:8,4:16", "--out"]
    hi._row.cache_clear()
    digests = []
    for k in range(2):
        rep = tmp_path / ("rep%d.json" % k)
        assert run(capsys, *argv, str(rep))[:2] == (0, "hi_suite: pass\n")
        digests.append(json.loads(rep.read_text())["digest"])
        info = hi._row.cache_info()
        assert (info.misses, info.hits) == (3, 3 * k)
    assert digests[0] == digests[1]


def test_json_booleans_are_not_naturals(tmp_path, capsys):
    # JSON true and false are Python bools, which subclass int: a node
    # [true] would be read as (1,) and printed back as [true]
    t = tmp_path / "t.json"
    t.write_text(json.dumps({"nodes": [[True], [False, True]]}))
    x = tmp_path / "x.json"
    write_vector(x, [[[0], "1"]])
    for sub in ("rank", "baire", "tsirelson"):
        argv = [sub, "--tree", str(t)] + ([] if sub == "rank" else ["--vector", str(x)])
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", sub
        assert err.startswith("error: invalid tree in ") and "naturals" in err, sub
    run(capsys, "gen", "star", "--n", "3", "--out", str(t))
    # nor is 1.0, which would match the node (1,) and be echoed as [1.0]
    for node in ([True], [False], [1.0]):
        write_vector(x, [[node, "5"], [[2], "2"]])
        code, out, err = run(capsys, "tsirelson", "--tree", str(t), "--vector", str(x))
        assert code == 2 and out == "", node
        assert err.startswith("error: invalid vector in ") and "naturals" in err, node


def test_verify_input_errors_exit_2(capsys):
    # bad flag values are input errors, not internal errors or empty passes
    code, out, err = run(capsys, "verify", "branch", "--max-len", "0")
    assert code == 2 and out == ""
    assert err == "error: max_len must be >= 1\n"
    for suite in ("branch", "tsirelson"):
        code, out, err = run(capsys, "verify", suite, "--cases", "-3")
        assert code == 2 and out == "", suite
        assert err == "error: --cases must be >= 0\n"
        # every record is held until the report is written, so the count
        # is bounded; the refused run is never started
        code, out, err = run(capsys, "verify", suite, "--cases", str(CASES_MAX + 1))
        assert code == 2 and out == "", suite
        assert err == "error: --cases %d is too large: at most %d\n" % (CASES_MAX + 1, CASES_MAX)
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
    def never_built(*args, **kwargs):
        raise AssertionError("a refused gen call built a tree")

    with monkeypatch.context() as m:
        for name in ("chain_tree", "star_tree", "comb_tree", "random_tree"):
            m.setattr(cli, name, never_built)
        for argv in (["gen", "chain", "--n"], ["gen", "comb", "--n"],
                     ["gen", "star", "--n"], ["gen", "random", "--max-nodes"],
                     ["verify", "branch", "--max-len"]):
            code, out, err = run(capsys, *argv, str(DEPTH_MAX + 1))
            assert code == 2 and out == "", argv
            assert err.startswith("error: ") and "at most %d" % DEPTH_MAX in err
        # a label below 0 is not a natural, and no branch leaves no child to draw
        for argv in (["star", "--base-label", "-3"], ["random", "--max-branch", "0"]):
            code, out, err = run(capsys, "gen", *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error: %s must be >= " % argv[1]) and "internal" not in err
    # the lower bound of a size is the builders' own
    assert run(capsys, "gen", "chain", "--n", "0") == (2, "", "error: chain_tree needs n >= 1\n")
    # the bound itself is allowed (checked on a small bound: a 3,000-entry
    # node takes about 1 s to build)
    monkeypatch.setattr(cli, "DEPTH_MAX", 5)
    deep.write_text(json.dumps({"nodes": [[0] * 5]}))
    code, out, err = run(capsys, "rank", "--tree", str(deep))
    assert code == 0 and out.strip() == "5"
    deep.write_text(json.dumps({"nodes": [[0] * 6]}))
    assert run(capsys, "rank", "--tree", str(deep))[0] == 2
    for shape, flag in (("chain", "--n"), ("comb", "--n"), ("star", "--n"),
                        ("random", "--max-nodes")):
        assert run(capsys, "gen", shape, flag, "5")[0] == 0
        assert run(capsys, "gen", shape, flag, "6")[0] == 2
    # what gen writes at the bound, its own loader reads back
    code, out, _ = run(capsys, "gen", "random", "--max-nodes", "5", "--max-branch", "1",
                       "--out", str(deep))
    assert (code, out) == (0, "")
    assert run(capsys, "rank", "--tree", str(deep))[1].strip() == "4"
    assert run(capsys, "verify", "branch", "--max-len", "5", "--cases", "2")[0] == 0
    assert run(capsys, "verify", "branch", "--max-len", "6", "--cases", "2")[0] == 2


def test_unwritable_out_exits_2(tmp_path, capsys):
    # a failed --out write is an input error, like a failed read
    path = str(tmp_path / "no-such-dir" / "out.json")
    for argv in (["gen", "chain", "--n", "3"], ["verify", "hi", "--pairs", "2:4"]):
        code, out, err = run(capsys, *argv, "--out", path)
        assert code == 2 and out == "", argv
        assert err.startswith("error: cannot write %s: " % path) and "internal" not in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "rank", "--tree", "no-such-file.json")
    assert code == 2 and "error" in err


def test_malformed_tree_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": "bogus"}')
    code, _, err = run(capsys, "rank", "--tree", str(bad))
    assert code == 2 and "nodes" in err
    bad.write_text('{"nodes": [[0]')
    code, out, err = run(capsys, "rank", "--tree", str(bad))
    assert (code, out) == (2, "") and err.startswith("error: malformed JSON in %s: " % bad)


def test_malformed_vector_exits_2(tmp_path, capsys):
    t = tmp_path / "t.json"
    run(capsys, "gen", "chain", "--n", "3", "--out", str(t))
    x = tmp_path / "x.json"
    x.write_text('{"entries": [[[9, 9], "1"]]}')
    code, _, err = run(capsys, "ground", "--tree", str(t), "--vector", str(x))
    assert code == 2 and "not in the tree" in err
    x.write_text('{"values": []}')
    code, out, err = run(capsys, "ground", "--tree", str(t), "--vector", str(x))
    assert (code, out) == (2, "") and err == 'error: vector file %s needs an "entries" key\n' % x


def test_vector_node_listed_twice_exits_2(tmp_path, capsys):
    # a repeated node was read as the last of its values, without a word
    t = tmp_path / "t.json"
    run(capsys, "gen", "chain", "--n", "3", "--out", str(t))
    x = tmp_path / "x.json"
    write_vector(x, [[[0], "1"], [[0], "2"]])
    code, out, err = run(capsys, "ground", "--tree", str(t), "--vector", str(x))
    assert (code, out) == (2, "")
    assert err == "error: invalid vector in %s: node [0] is listed twice\n" % x


def test_vector_strings_in_exponent_notation_exit_2(tmp_path, capsys):
    # strings in exponent notation are refused unparsed: "1e5000" passes
    # the int-to-str digit limit, and "1e9999999" takes about 15 s to parse
    t = tmp_path / "t.json"
    run(capsys, "gen", "chain", "--n", "3", "--out", str(t))
    x = tmp_path / "x.json"
    for value in ("1e5000", "1e9999999", "2E-3"):
        write_vector(x, [[[0], value]])
        code, out, err = run(capsys, "ground", "--tree", str(t), "--vector", str(x))
        assert code == 2 and out == "", value
        assert err.startswith("error: invalid vector in ") and "exponent" in err
    # JSON numbers keep their meaning, exponent or not
    x.write_text('{"entries": [[[0], 0.0000001], [[0, 0], 1e2]]}')
    code, out, _ = run(capsys, "ground", "--tree", str(t), "--vector", str(x), "--json")
    assert code == 0 and json.loads(out)["value"] == "1000000001/10000000"


def test_a_huge_grid_is_refused_as_an_invalid_vector(tmp_path, capsys):
    # a 14-leaf star whose values are 1/(a 4,000-digit integer), each under
    # the digit limit; unbounded, the STANDARD norm's denominator passed it
    # when printed, and the CLI exited 2 naming sys.set_int_max_str_digits,
    # not the file
    rng = random.Random(0)
    t = tmp_path / "t.json"
    t.write_text(json.dumps(tree_to_json_dict(star_tree(14))))
    x = tmp_path / "x.json"
    write_vector(x, [[[i], "1/%d" % rng.randrange(10**3999, 10**4000)] for i in range(14)])
    code, out, err = run(capsys, "tsirelson", "--variant", "standard",
                         "--tree", str(t), "--vector", str(x))
    assert code == 2 and out == ""
    assert "4300" not in err and "set_int_max_str_digits" not in err, err
    assert err.startswith("error: invalid vector in %s: " % x), err


LABELS = st.integers(0, 2)
NODE = st.lists(LABELS, max_size=3)
JUNK = st.one_of(
    st.integers(-2, 2), st.none(), st.booleans(), st.text(max_size=2),
    st.lists(st.none(), max_size=2),
)
VALUES = st.one_of(
    st.integers(-10, 10),
    st.fractions(max_denominator=9).map(str),
    st.text(alphabet="0123456789/.-+eE_ x", max_size=8),
    st.floats(allow_nan=True, allow_infinity=True),
    JUNK,
)
PAIRS = st.one_of(
    st.text(alphabet="0123456789:, -+_", max_size=8),
    st.lists(st.tuples(st.integers(1, 5), st.integers(0, 9)), min_size=1, max_size=3).map(
        lambda pairs: ",".join("%d:%d" % pair for pair in pairs)
    ),
)


@st.composite
def tree_and_entries(draw):
    """Tree nodes and vector entries, mostly well formed, often not."""
    nodes = draw(st.lists(NODE, max_size=8))
    known = [n[:i] for n in nodes for i in range(len(n) + 1)] or [[]]
    node = st.one_of(st.sampled_from(known), st.sampled_from(known), NODE,
                     st.lists(st.one_of(LABELS, JUNK), max_size=3), JUNK)
    entries = draw(st.one_of(
        st.lists(st.one_of(st.tuples(node, VALUES), JUNK), max_size=5), JUNK
    ))
    nodes = draw(st.one_of(st.just(nodes), st.just(nodes), st.lists(node, max_size=4), JUNK))
    return nodes, entries


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    files=tree_and_entries(),
    pairs=PAIRS,
    command=st.sampled_from(["baire", "tsirelson", "ground", "rank", "hi"]),
)
def test_loaders_never_fail_internally(tmp_path, capsys, files, pairs, command):
    # whatever the files and --pairs hold, the CLI exits 0, or 2 with an
    # error line; never with a traceback or an internal error
    t, x = tmp_path / "t.json", tmp_path / "x.json"
    t.write_text(json.dumps({"nodes": files[0]}))
    x.write_text(json.dumps({"entries": files[1]}))
    if command == "rank":
        argv = ["rank", "--tree", str(t)]
    elif command == "hi":
        argv = ["hi", "witness", "--pairs=" + pairs]
    else:
        argv = [command, "--tree", str(t), "--vector", str(x)]
    code, _, err = run(capsys, *argv)
    assert code in (0, 2), (argv, err)
    assert "error: internal" not in err, err
    assert code == 0 or err.splitlines()[-1].startswith("error: "), err


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


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_reuse_matches_a_fresh_parser(tmp_path, capsys):
    # main keeps one parser per process; a run of calls through it, usage
    # errors and --help included, prints what a freshly built parser does
    t, x = tmp_path / "t.json", tmp_path / "x.json"
    t.write_text(json.dumps(tree_to_json_dict(star_tree(3))))
    write_vector(x, [[[0], "1"], [[1], "3/2"], [[2], "1/2"]])
    calls = [
        ["rank", "--bogus"],
        ["--help"],
        ["tsirelson", "--tree", str(t), "--vector", str(tmp_path / "missing.json")],
        ["verify", "hi", "--pairs", "2:4", "--out", str(tmp_path / "rep.json")],
        ["tsirelson", "--tree", str(t), "--vector", str(x), "--json"],
    ]
    main(["rank", "--tree", str(t)])
    capsys.readouterr()
    parser = cli._parser()
    info = cli._parser.cache_info()
    cached = [_outcome(capsys, argv) for argv in calls]
    assert cli._parser() is parser
    assert cli._parser.cache_info() == info._replace(hits=info.hits + len(calls) + 1)
    assert [code for code, _, _ in cached] == [2, 0, 2, 0, 0]
    assert cached[2][2].startswith("error: cannot read ")
    for argv, (code, out, _) in zip(calls, cached):
        cli._parser.cache_clear()
        assert _outcome(capsys, argv)[:2] == (code, out), argv
        assert cli._parser.cache_info().misses == 1
        assert cli._parser() is not parser


# every command with valid arguments
PARSE_OK = [
    ["baire", "--tree", "t", "--vector", "x", "--p", "2", "--base", "sup", "--json"],
    ["tsirelson", "--tree", "t", "--vector", "x", "--variant", "standard", "--iterate", "2"],
    ["ground", "--vector", "x", "--tree", "t", "--json"],
    ["rank", "--tree", "t"],
    ["gen", "random", "--seed", "3", "--max-nodes", "9", "--out", "o"],
    ["gen", "star", "--n", "3", "--base-label", "2"],
    ["hi", "witness", "--pairs", "2:4,4:16"],
    ["hi", "schedule", "--jmax", "2", "--json"],
    ["verify", "hi", "--pairs", "2:4", "--out", "o"],
    ["verify", "branch", "--seed", "1", "--cases", "3", "--max-len", "5"],
    ["verify", "tsirelson", "--seed", "1", "--cases", "3"],
]
# help, and each kind of usage error: an unrecognized argument, a missing
# one, an invalid choice, an unknown command and none
PARSE_EXITS = [
    ["--help"],
    ["baire", "-h"],
    ["hi", "witness", "--tree", "t", "--pairs", "2:4"],
    ["gen", "random", "--n", "4"],
    ["verify", "hi", "--cases", "3"],
    ["baire", "--vector", "x"],
    ["tsirelson", "--tree", "t", "--vector", "x", "--variant", "bogus"],
    ["bogus-subcommand"],
    [],
]


def _parsed(capsys, parse, argv):
    try:
        result = ("namespace", vars(parse(argv)))
    except SystemExit as e:
        result = ("exit", e.code)
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", PARSE_OK + PARSE_EXITS, ids=" ".join)
def test_dispatch_parses_as_the_full_parser(capsys, argv):
    # main parses with the command's own parser: the namespace, or the exit
    # code and every printed byte, is the full parser's
    full = _parsed(capsys, cli.build_parser().parse_args, list(argv))
    assert _parsed(capsys, cli._parse, list(argv)) == full
    assert (full[0][0] == "exit") == (argv in PARSE_EXITS)


# the flags each gen shape and each verify suite reads, with a value each
OWN_FLAGS = {
    ("gen", "chain"): {"--n": "3", "--out": "o"},
    ("gen", "comb"): {"--n": "3", "--out": "o"},
    ("gen", "star"): {"--n": "3", "--base-label": "2", "--out": "o"},
    ("gen", "random"): {"--seed": "1", "--max-nodes": "5", "--max-branch": "2", "--out": "o"},
    ("verify", "branch"): {"--seed": "1", "--cases": "2", "--max-len": "5", "--out": "o"},
    ("verify", "tsirelson"): {"--seed": "1", "--cases": "2", "--out": "o"},
    ("verify", "hi"): {"--pairs": "2:4", "--out": "o"},
}


def test_each_command_takes_only_its_own_flags(capsys, monkeypatch):
    # a flag of a sibling shape or suite is refused by the parser, before
    # any tree is built or any suite is run
    def never_run(*args, **kwargs):
        raise AssertionError("a refused call built a tree or ran a suite")

    for name in ("chain_tree", "star_tree", "comb_tree", "random_tree",
                 "run_branch_isometry", "run_tsirelson_suite", "run_hi_suite"):
        monkeypatch.setattr(cli, name, never_run)
    refused = []
    for (command, leaf), own in OWN_FLAGS.items():
        values = {flag: value for (c, _), flags in OWN_FLAGS.items() if c == command
                  for flag, value in flags.items()}
        for flag in sorted(values.keys() - own.keys()):
            argv = [command, leaf, flag, values[flag]]
            refused.append(argv)
            code, out, err = _outcome(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert err.endswith("error: unrecognized arguments: %s %s\n" % tuple(argv[2:])), argv
        # the leaf's own flags are all read
        args = cli._parse([command, leaf, *(a for pair in own.items() for a in pair)])
        for flag, value in own.items():
            assert str(getattr(args, flag[2:].replace("-", "_"))) == value, (leaf, flag)
    assert len(refused) == 19


def test_json_output_builds_no_text(tmp_path, capsys, monkeypatch):
    # the text lines of tsirelson dump the witness with json.dumps
    t, x = tmp_path / "t.json", tmp_path / "x.json"
    t.write_text(json.dumps(tree_to_json_dict(star_tree(3))))
    write_vector(x, [[[0], "1"], [[1], "3/2"], [[2], "1/2"]])
    argv = ["tsirelson", "--tree", str(t), "--vector", str(x), "--json"]
    expected = run(capsys, *argv)

    def no_dumps(*args, **kwargs):
        raise AssertionError("json.dumps ran")

    monkeypatch.setattr(json, "dumps", no_dumps)
    assert run(capsys, *argv) == expected and expected[0] == 0


def test_hi_witness_makes_no_digest(tmp_path, capsys, monkeypatch):
    def no_sha256(*args, **kwargs):
        raise AssertionError("sha256 ran")

    with monkeypatch.context() as m:
        m.setattr(verify.hashlib, "sha256", no_sha256)
        code, out, err = run(capsys, "hi", "witness", "--pairs", "2:4,2:8")
    assert (code, err) == (0, "") and out.splitlines()[1] == "2,4,1,2,4,2"
    rep = tmp_path / "rep.json"
    assert run(capsys, "verify", "hi", "--out", str(rep))[:2] == (0, "hi_suite: pass\n")
    assert json.loads(rep.read_text())["digest"] == (
        "04c4cc04685ca7bac989cf0a116c7d2944a3cf3a017bdb90c70eec5e09a8db63")


def test_module_help_lists_every_subcommand():
    # a one-shot run goes through python -m, where no parser is cached
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "baire_lab.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "{baire,tsirelson,ground,rank,gen,hi,verify}" in proc.stdout


def test_deeply_nested_json_is_malformed(tmp_path, capsys):
    # nesting past the recursion limit was an internal RecursionError
    t, x = tmp_path / "t.json", tmp_path / "x.json"
    run(capsys, "gen", "chain", "--n", "3", "--out", str(t))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    x.write_text('{"entries": ' + "[" * 100_000)
    for argv, path in ((["rank", "--tree", str(deep)], deep),
                       (["ground", "--tree", str(t), "--vector", str(x)], x)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: malformed JSON in %s: " % path) and "internal" not in err


def test_prefix_closure_is_bounded(tmp_path, capsys, monkeypatch):
    # 8 distinct 3,000-deep branches, a 72 KB file, took about 2.5 s and 300 MB
    # to load; their closure has 8 * 3,000**2 / 2 entries, past DEPTH_MAX**2
    # and refused before anything is built
    def never_built(*args, **kwargs):
        raise AssertionError("a refused tree file was built")

    branches = tmp_path / "branches.json"
    branches.write_text(json.dumps({"nodes": [[i] + [0] * (DEPTH_MAX - 1) for i in range(8)]}))
    with monkeypatch.context() as m:
        # the builder the loader calls
        m.setattr(cli, "tree_from_paths", never_built)
        code, out, err = run(capsys, "rank", "--tree", str(branches))
    entries = 8 * DEPTH_MAX * (DEPTH_MAX + 1) // 2
    assert code == 2 and out == ""
    assert err == ("error: tree in %s is too large: its prefix closure has %d entries,"
                   " at most %d are allowed\n" % (branches, entries, DEPTH_MAX**2))
    # gen comb --n DEPTH_MAX has exactly DEPTH_MAX**2 closure entries and
    # loads; one more entry is refused (checked on a small bound)
    monkeypatch.setattr(cli, "DEPTH_MAX", 30)
    comb = tmp_path / "comb.json"
    assert run(capsys, "gen", "comb", "--n", "30", "--out", str(comb))[0] == 0
    assert run(capsys, "rank", "--tree", str(comb))[:2] == (0, "30\n")
    data = json.loads(comb.read_text())
    comb.write_text(json.dumps({"nodes": data["nodes"] + [[2]]}))
    code, out, err = run(capsys, "rank", "--tree", str(comb))
    assert code == 2 and out == "" and "has 901 entries, at most 900 " in err
