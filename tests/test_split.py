import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "split.py")
sys.path.insert(0, os.path.dirname(TOOL))
import split  # noqa: E402


def test_command_of_keeps_the_subcommand_of_verify_hi_and_gen():
    assert split.command_of(["verify", "branch", "--cases", "20"]) == "verify branch"
    assert split.command_of(["hi", "witness", "--pairs", "2:4"]) == "hi witness"
    assert split.command_of(["gen", "comb", "--n", "3"]) == "gen comb"
    assert split.command_of(["tsirelson", "--tree", "t.json"]) == "tsirelson"


def test_table_orders_by_share():
    lines = split.table({"calls": {"rank": [0.001, 0.001], "verify hi": [0.003, 0.005]},
                         "rounds": [0.005, 0.005]})
    assert lines[0].split() == ["command", "calls", "median_ms", "p90_ms", "share"]
    assert lines[1].split()[:3] == ["verify", "hi", "2"]
    assert lines[1].endswith("80.0%") and lines[2].endswith("20.0%")
    assert lines[3] == "round: 0.005 s mean over 2 rounds"


def test_cache_table_lists_each_cache_by_name():
    lines = split.cache_table({"verify._kept_chain": [80, 0, 10, 64], "hi._row": [10, 2, 5, 128],
                               "cli._parser": [3, 0, 1, None]})
    assert [line.split() for line in lines] == [
        ["cache", "hits", "misses", "currsize", "maxsize"], ["cli._parser", "3", "0", "1", "None"],
        ["hi._row", "10", "2", "5", "128"], ["verify._kept_chain", "80", "0", "10", "64"]]


def test_cache_infos_reads_module_level_caches():
    from baire_lab import cli, hi  # noqa: F401  (cli brings its parser cache)

    hi.strict_singularity_witness(4, 2)
    infos = split.cache_infos()
    info = hi._row.cache_info()
    assert infos["hi._row"] == (info.hits, info.misses, info.currsize, info.maxsize)
    assert infos["hi._row"][3] == hi.ROWS_KEPT and infos["cli._parser"][3] is None
    assert "cli._parser" in infos and "tsirelson._built" in infos
    assert "cli.build_parser" not in infos  # a plain function is no cache


def test_split_of_this_checkout():
    # one block of calls: 11 single commands and 5 verify calls per round
    proc = subprocess.run([sys.executable, TOOL, ROOT, "--seed", "1", "--seconds", "0.05",
                           "--rounds", "2"],
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    end = [line.startswith("round: ") for line in lines].index(True)
    rows = {" ".join(line.split()[:-4]): line.split()[-4:] for line in lines[1:end]}
    assert sorted(rows) == sorted([
        "tsirelson", "baire", "ground", "rank", "gen chain", "gen comb", "hi witness",
        "verify branch", "verify hi", "verify tsirelson"])
    assert sum(int(row[0]) for row in rows.values()) == 2 * 16
    assert int(rows["tsirelson"][0]) == 2 * 3 and int(rows["baire"][0]) == 2 * 3
    # each share is rounded to 0.1%, so the ten sum to 100% within 0.5%
    shares = [float(row[3].rstrip("%")) for row in rows.values()]
    assert abs(sum(shares) - 100) <= 0.5
    assert lines[end].endswith("mean over 2 rounds")
    # the caches' traffic over the timed rounds: the warm-up round computed
    # every strict-singularity row and short chain, so the timed rounds
    # only hit them, and the parser is built once
    assert lines[end + 1].split() == ["cache", "hits", "misses", "currsize", "maxsize"]
    caches = {line.split()[0]: [int(v) for v in line.split()[1:4]] for line in lines[end + 2:]}
    bounds = {line.split()[0]: line.split()[4] for line in lines[end + 2:]}
    assert bounds["cli._parser"] == "None" and bounds["hi._row"] == "128"
    assert {"cli._parser", "hi._row", "verify._kept_chain", "tsirelson._built"} <= set(caches)
    for name in ("cli._parser", "hi._row", "verify._kept_chain"):
        hits, misses, size = caches[name]
        assert hits > 0 and misses == 0 and size > 0, name
    assert caches["cli._parser"][0] == 2 * 16


def test_rounds_must_be_positive():
    proc = subprocess.run([sys.executable, TOOL, ROOT, "--seed", "1", "--seconds", "0.05",
                           "--rounds", "0"],
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 2 and "--rounds must be >= 1" in proc.stderr
