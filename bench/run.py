"""Benchmark for baire-lab, standard library only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, and the spans are written to bench-out/.  The exit
code is 0 only if every output passed its checks.  --workload all runs
the four workloads one after another, each in a fresh process.

Every end-to-end time is scaled to a reference machine speed by a
calibration kernel timed right before and after each piece of work
(speed.py); the unscaled figures go to standard error.

Run it from anywhere; it imports baire_lab from the src/ directory next
to bench/ and writes only under bench-out/ next to it.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench-out")
PACKAGE = "baire_lab"
SUBMODULES = ("trees", "vectors", "baire", "tsirelson", "hi", "verify", "cli")

import checks  # noqa: E402  (bench/ is on sys.path as the script's directory)
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_lab():
    """A fresh import of baire_lab, dropping any earlier one."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    modules = {m: importlib.import_module("%s.%s" % (PACKAGE, m)) for m in SUBMODULES}
    return types.SimpleNamespace(**modules)


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    data = workload.make_inputs(seed, seconds, OUT)

    setups = []
    tracer = None
    built = lab = None
    for r in range(workload.setup_repeats):
        built = lab = None
        gc.collect()
        if trace and r == workload.setup_repeats - 1:
            tracer = Tracer()
        clock = speed.Segments()
        clock.start()
        lab = import_lab()
        if tracer is not None:
            tracer.install(PACKAGE)
        clock.tick()
        built = workload.build(lab, data, clock.tick)
        clock.stop()
        setups.append(clock)
    if not os.path.dirname(os.path.abspath(lab.trees.__file__)).startswith(SRC):
        raise SystemExit("baire_lab was imported from %s, not from %s" % (lab.trees.__file__, SRC))

    gc.collect()
    gc.freeze()
    times = []
    scaled = []
    kernels = []
    outputs = []
    failed = 0
    for i, case in enumerate(built):
        gc.collect()
        before = speed.kernel_seconds()
        if tracer is not None:
            tracer.current_case = i
            span = tracer.open("bench.case")
        t0 = time.perf_counter()
        out = workload.run(lab, case)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        after = speed.kernel_seconds()
        times.append(elapsed)
        scaled.append(speed.scaled(elapsed, before, after))
        kernels += (before, after)
        failed += out is RecursionError
        outputs.append(workload.keep(case, out))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc.unfreeze()

    correct = True
    try:
        workload.check(data, outputs)
    except checks.CheckFailed as e:
        print("%s: wrong output: %s" % (name, e), file=sys.stderr)
        correct = False

    cases_per_s = len(scaled) / sum(scaled)
    print("%s: kernel median %.4f ms (reference %.4f); unscaled cases_per_s %.4f, "
          "case_p50_ms %.4f, setup_s %.4f" % (
              name, 1e3 * statistics.median(kernels), 1e3 * speed.REFERENCE_S,
              len(times) / sum(times), 1e3 * statistics.median(times),
              statistics.median(c.raw for c in setups)),
          file=sys.stderr)
    if tracer is None:
        metrics = {
            "cases_per_s": (cases_per_s, "1/s"),
            "case_p50_ms": (1e3 * statistics.median(scaled), "ms"),
            "case_p90_ms": (1e3 * statistics.quantiles(scaled, n=10)[-1], "ms"),
            "setup_s": (statistics.median(c.scaled for c in setups), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        metrics = tracer.per_layer(workload.trace_variant, workload.sizes(data))
        path = os.path.join(OUT, "trace-%s.tsv.gz" % name)
        tracer.write(path)
        print("%s: traced cases_per_s %.4f, %d spans in %s"
              % (name, cases_per_s, len(tracer.start), path), file=sys.stderr)
    return {
        "correct": correct,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in a fresh process; the last line maps name to result."""
    results = {}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        last = proc.stdout.strip().splitlines()[-1:] or ["null"]
        results[name] = json.loads(last[0])
        print(name, last[0], flush=True)
        code = code or proc.returncode
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print("no %s package under %s" % (PACKAGE, SRC), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
