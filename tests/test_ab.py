import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab.py")
sys.path.insert(0, os.path.dirname(TOOL))
import ab  # noqa: E402

LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.25}
A = [100.0 + i for i in range(10)]  # median 104.5, quartiles 102.25 and 106.75


def verdict(a, b, spec=LOWER):
    return ab.compare(a, b, spec)["verdict"]


def test_each_verdict():
    # B leads by 10, past A's quartile spread of 4.5, in every pair
    assert verdict(A, [v - 10 for v in A]) == "better"
    assert verdict(A, [v + 10 for v in A], HIGHER) == "better"
    # B trails by 30, past 0.25 x 104.5
    assert verdict(A, [v + 30 for v in A]) == "worse"
    assert verdict(A, [v - 30 for v in A], HIGHER) == "worse"
    assert verdict(A, A) == "no difference"
    # ahead in every pair, but by less than A's quartile spread
    assert verdict(A, [v - 1 for v in A]) == "no difference"
    # a quartile spread of 55 against a bound of 25 cannot tell, unless B is apart
    wide = [50.0, 60, 70, 80, 90, 110, 120, 130, 140, 150]
    assert verdict(wide, [v + 1 for v in wide]) == "unresolved"
    assert verdict(wide, [v - 60 for v in wide]) == "better"
    assert verdict(wide[:9], [v - 100 for v in wide[:9]]) == "no difference"
    # B's best run only equals A's worst
    assert verdict(wide[:9], [v - 90 for v in wide[:9]]) == "unresolved"
    m = ab.compare(A, [v - 10 for v in A], LOWER)
    assert (m["a_median"], m["a_q1"], m["a_q3"], m["b_median"], m["b_wins"]) == (
        104.5, 102.25, 106.75, 94.5, 10)


def test_ties_count_for_neither_and_ten_pairs_are_needed():
    # 9 wins and a tie is 9 of 10; 8 wins and 2 ties is not
    b = [v - 10 for v in A[:9]] + A[9:]
    assert ab.compare(A, b, LOWER)["b_wins"] == 9 and verdict(A, b) == "better"
    b = [v - 10 for v in A[:8]] + A[8:]
    assert ab.compare(A, b, LOWER)["b_wins"] == 8 and verdict(A, b) == "no difference"
    assert verdict(A[:9], [v - 10 for v in A[:9]]) == "no difference"


def result(failed, ok=True):
    # a bench/run.py result line, with the tool's "ok" (correct and exit 0)
    return {"ok": ok, "attempted": 100, "failed": failed,
            "metrics": {"case_p50_ms": {"value": 1.0}}}


def test_failures_set_the_exit_code(capsys):
    specs = [dict(LOWER, name="case_p50_ms")]
    assert ab.report("w", specs, ([result(1), result(1)], [result(1), result(1)])) == 0
    assert ab.report("w", specs, ([result(1), result(1)], [result(1), result(2)])) == 1
    assert "larger share" in capsys.readouterr().err
    assert ab.report("w", specs, ([result(0), result(0)], [result(0), result(0, ok=False)])) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "w, 2 pairs: failed share A 0.000000, B 0.000000"


def test_all_runs_every_workload_and_exits_with_the_worst_code(monkeypatch, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    ran = []

    def fake_run(checkout, workload, args, cache):
        ran.append(workload)
        # B's runs of the second workload are not correct
        ok = checkout != "B" or workload != workloads[1]
        return dict(result(0, ok), metrics={m["name"]: {"value": 1.0}
                                            for m in benchmark["end_to_end"]})

    monkeypatch.setattr(ab, "run", fake_run)
    assert ab.main([ROOT, "B", "--workload", "all", "--seed", "1", "--seconds", "1"]) == 1
    assert ran == [w for w in workloads for _ in range(20)]
    blocks = [json.loads(line) for line in capsys.readouterr().out.splitlines()
              if line.startswith("{")]
    assert [block["workload"] for block in blocks] == workloads


def tool(*argv):
    return subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--seed", "1", *argv],
                          capture_output=True, text=True, timeout=120, check=False)


def test_a_against_itself():
    # one block per workload: its header, one line per metric, its JSON line
    workloads = ["standard_certify", "cli_verify"]
    proc = tool("--workload", ",".join(workloads), "--seconds", "0.05", "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert len(lines) == len(workloads) * (len(names) + 2)
    assert not any(line.endswith("better") for line in lines)
    for workload, at in zip(workloads, range(0, len(lines), len(names) + 2)):
        assert lines[at].startswith("%s, 2 pairs: " % workload)
        assert [line.split(":")[0] for line in lines[at + 1:at + 1 + len(names)]] == names
        last = json.loads(lines[at + 1 + len(names)])
        assert last["workload"] == workload
        assert list(last["metrics"]) == names and last["pairs"] == 2


def test_an_unknown_workload_shows_run_py_message():
    proc = tool("--workload", "nope", "--seconds", "1")
    assert proc.returncode == 2 and "invalid choice: 'nope'" in proc.stderr
