"""Where cli_verify's call time goes, command by command.

    python3 tools/split.py CHECKOUT --seed N --seconds S --rounds R

CHECKOUT is a checkout of this repository.  In a fresh process, with
PYTHONDONTWRITEBYTECODE=1, the tool builds that checkout's own cli_verify
cases (bench/workloads.py, --seed and --seconds as bench/run.py takes
them) in a temporary directory and imports baire_lab from the checkout's
src/.  It runs every case once as a warm-up round and checks the
outputs with the workload's own checks, then times R more rounds, one
case at a time, with a garbage collection before each case, as
bench/run.py does.  The times are plain perf_counter seconds, not scaled
to a reference machine.

One line per command follows, largest share first: the command (with
its subcommand for verify, hi and gen), its call count over the R rounds,
the median and the 90th percentile of one call in ms (inclusive
quantiles, so it never lies past the slowest call), and its share of
the summed call time.  A line gives the mean time of one round.  Then
comes one line per functools cache of the imported baire_lab modules
(a module-level function with cache_info, under its module's short name):
its hits and misses over the R timed rounds, its size after them and its
bound (maxsize, None for an unbounded cache), so a claim that calls reuse
a cached result shows its traffic and how much it may keep.  The exit
code is 1 if the warm-up outputs fail the checks.
"""

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles

# commands whose first argument names what they run
SUBCOMMANDS = ("verify", "hi", "gen")


def command_of(argv):
    """The command of one cli_verify call, with its subcommand if it has one."""
    return " ".join(argv[:2]) if argv[0] in SUBCOMMANDS else argv[0]


def cache_infos():
    """{module.name: (hits, misses, currsize, maxsize)} of every functools
    cache defined at module level in the imported baire_lab modules."""
    infos = {}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("baire_lab."):
            continue
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module_name:
                info = value.cache_info()
                infos["%s.%s" % (module_name[len("baire_lab."):], name)] = (
                    info.hits, info.misses, info.currsize, info.maxsize)
    return infos


def measure(checkout, seed, seconds, rounds):
    """Run in the fresh process: time checkout's cli_verify cases and print
    one JSON object, {"correct": bool, "calls": {command: [seconds]},
    "rounds": [seconds], "caches": {cache: [hits, misses, currsize, maxsize]}},
    with each cache's hits and misses counted over the timed rounds."""
    bench = os.path.join(checkout, "bench")
    sys.path[:0] = [os.path.join(checkout, "src"), bench]
    import run  # the checkout's bench/run.py

    workload = run.WORKLOADS["cli_verify"]
    with tempfile.TemporaryDirectory() as out:
        data = workload.make_inputs(seed, seconds, out)
        lab = run.import_lab()
        cases = workload.build(lab, data, lambda: None)
        commands = [command_of(argv) for block in data for argv, _ in block["argv"]]
        if len(commands) != len(cases):
            raise SystemExit("%d cases but %d calls" % (len(cases), len(commands)))
        outputs = [workload.keep(case, workload.run(lab, case)) for case in cases]
        try:
            workload.check(data, outputs)
            correct = True
        except run.checks.CheckFailed as e:
            print("wrong output: %s" % e, file=sys.stderr)
            correct = False
        calls = {}
        totals = []
        before = cache_infos()
        for _ in range(rounds):
            total = 0.0
            for command, case in zip(commands, cases):
                gc.collect()
                t0 = time.perf_counter()
                workload.run(lab, case)
                elapsed = time.perf_counter() - t0
                calls.setdefault(command, []).append(elapsed)
                total += elapsed
            totals.append(total)
        # the warm-up imported every module, so each cache is in before
        caches = {
            name: [hits - before[name][0], misses - before[name][1], size, maxsize]
            for name, (hits, misses, size, maxsize) in cache_infos().items()
        }
    print(json.dumps({"correct": correct, "calls": calls, "rounds": totals, "caches": caches}))


def table(result):
    """The printed lines of one measure() result."""
    calls = result["calls"]
    grand = sum(sum(times) for times in calls.values())
    lines = ["%-16s %6s %10s %10s %7s" % ("command", "calls", "median_ms", "p90_ms", "share")]
    for command, times in sorted(calls.items(), key=lambda item: -sum(item[1])):
        p90 = quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
        lines.append("%-16s %6d %10.3f %10.3f %6.1f%%" % (
            command, len(times), 1e3 * median(times), 1e3 * p90, 100 * sum(times) / grand))
    rounds = result["rounds"]
    lines.append("round: %.3f s mean over %d rounds" % (sum(rounds) / len(rounds), len(rounds)))
    return lines


def cache_table(caches):
    """The printed lines of one measure() result's caches, by name."""
    lines = ["%-24s %8s %8s %8s %8s" % ("cache", "hits", "misses", "currsize", "maxsize")]
    for name, (hits, misses, size, maxsize) in sorted(caches.items()):
        lines.append("%-24s %8d %8d %8d %8s" % (name, hits, misses, size, maxsize))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="a checkout of this repository")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    checkout = os.path.abspath(args.checkout)
    code = "import sys; sys.path.insert(0, %r); import split; split.measure(%r, %d, %r, %d)" % (
        os.path.dirname(os.path.abspath(__file__)), checkout, args.seed, args.seconds, args.rounds)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=False, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write("%s: no result line, exit %d\n%s" % (checkout, proc.returncode, proc.stderr))
        return 2
    sys.stderr.write(proc.stderr)
    print("\n".join(table(result) + cache_table(result["caches"])))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
