"""A/B verdict on the committed benchmark, from alternating bench/run.py pairs.

    python3 tools/ab.py A B --workload W --seed N --seconds S --pairs K

A and B are checkouts of this repository, for instance `git archive`
copies of the parent commit (A) and of the change (B).  W is a workload
of bench/run.py, a comma-separated list of them, or all, the workloads
of A's BENCHMARK.json; each runs its K pairs in turn.  Pair k runs each
checkout's own bench/run.py in a fresh process, A first when k is even.
Every run has PYTHONDONTWRITEBYTECODE=1 and its side's own empty
PYTHONPYCACHEPREFIX, so every import compiles from source and neither side
reads a stale __pycache__ (a cache on one side alone moves setup_s).

The metrics, their directions and bounds are A's BENCHMARK.json
end_to_end list.  Each gets one line: A's median and quartiles, B's
median, the pairs B won and the verdict, the first that holds of
  better         K >= 10, B wins at least 9 in 10 pairs (a tie counts for
                 neither), and B's median leads A's by more than A's
                 quartile spread;
  worse          B's median trails A's by more than bound x |A's median|;
  unresolved     A's quartile spread is wider than that, unless every B run
                 beats every A run;
  no difference  otherwise.
A workload's block ends with one JSON object of the same data.  Exit code
1 if a run is not correct or exits non-zero, or if B fails a larger share
of a workload's operations than A; 2 if a run prints no result line (its
stderr is shown, and no further run starts).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from statistics import median, quantiles


def compare(a, b, spec):
    """One metric's summary and verdict: a and b hold its value in each
    pair, and spec is its entry in BENCHMARK.json's end_to_end list."""
    sign = 1 if spec["better"] == "higher" else -1
    q1, _, q3 = quantiles(a, n=4, method="inclusive")
    ma, mb = median(a), median(b)
    lead, spread, bound = sign * (mb - ma), q3 - q1, spec["bound"] * abs(ma)
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    if len(a) >= 10 and 10 * wins >= 9 * len(a) and lead > spread:
        verdict = "better"
    elif -lead > bound:
        verdict = "worse"
    elif spread > bound and min(sign * y for y in b) <= max(sign * x for x in a):
        verdict = "unresolved"
    else:
        verdict = "no difference"
    return {"a_median": ma, "a_q1": q1, "a_q3": q3, "b_median": mb, "b_wins": wins,
            "verdict": verdict}


def run(checkout, workload, args, cache):
    """One fresh bench/run.py process of checkout: its result line, with
    "ok" set when the run was correct and exited 0."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache),
    )
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write("%s: no result line, exit %d\n%s" % (checkout, proc.returncode, proc.stderr))
        raise SystemExit(2)
    result["ok"] = proc.returncode == 0 and result["correct"] is True
    return result


def report(workload, specs, runs):
    """Print the verdict of runs, (A's results, B's results) in pair
    order; returns the exit code."""
    shares = [sum(r["failed"] for r in side) / sum(r["attempted"] for r in side) for side in runs]
    print("%s, %d pairs: failed share A %.6f, B %.6f" % (workload, len(runs[0]), *shares))
    metrics = {}
    for spec in specs:
        name = spec["name"]
        m = metrics[name] = compare(*[[r["metrics"][name]["value"] for r in side] for side in runs],
                                    spec)
        print("%s: A %.6g [%.6g, %.6g], B %.6g, B won %d of %d: %s" % (
            name, m["a_median"], m["a_q1"], m["a_q3"], m["b_median"], m["b_wins"],
            len(runs[0]), m["verdict"]))
    print(json.dumps({"workload": workload, "pairs": len(runs[0]),
                      "failed_share": dict(zip("AB", shares)), "metrics": metrics}))
    code = 0
    for side, results in zip("AB", runs):
        if not all(r["ok"] for r in results):
            print("%s: a run was not correct or exited non-zero" % side, file=sys.stderr)
            code = 1
    if shares[1] > shares[0]:
        print("B fails a larger share of operations than A", file=sys.stderr)
        code = 1
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="checkout A, the baseline")
    parser.add_argument("b", help="checkout B, the candidate")
    parser.add_argument("--workload", required=True,
                        help="workloads of bench/run.py, comma-separated, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for quartiles")
    with open(os.path.join(args.a, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    if args.workload == "all":
        workloads = [w["name"] for w in benchmark["workloads"]]
    else:
        workloads = args.workload.split(",")
    code = 0
    with tempfile.TemporaryDirectory() as cache_a, tempfile.TemporaryDirectory() as cache_b:
        for workload in workloads:
            runs = ([], [])
            sides = [(args.a, cache_a, runs[0]), (args.b, cache_b, runs[1])]
            for k in range(args.pairs):
                for checkout, cache, results in sides if k % 2 == 0 else sides[::-1]:
                    results.append(run(checkout, workload, args, cache))
            code = max(code, report(workload, benchmark["end_to_end"], runs))
    return code


if __name__ == "__main__":
    sys.exit(main())
