"""Interleaved A/B timing of one benchmark workload on two checkouts.

    python3 tools/interleave_ab.py A B --workload standard_certify --seed 1 --seconds 5 --passes 5

A and B are checkouts of this repository (two copies of the tree, for
instance a `git archive` of the parent commit and the working tree).  Each
checkout's src/baire_lab is copied into a temporary directory under its
own package name, baire_lab_a and baire_lab_b, with the package's import
statements renamed to match, so both versions live in this one process.
Each pass imports each side afresh, dropping the last import, and no
bytecode is written or read, so every import compiles the sources: the
import that bench/run.py's setup_s includes, under
PYTHONDONTWRITEBYTECODE=1 or with no __pycache__.  The workload
(bench/workloads.py of checkout A, so both sides run the same inputs) then
builds its cases for each side on that import, alternating which side
imports and builds first from pass to pass, with gc.collect() before each
import.
Every pass then runs every case on A and on B, alternating which side goes
first from case to case and from pass to pass, with gc.collect() before
each run.  The report is each side's fastest build (workload.build, the
set-up that bench/run.py times as setup_s) and their ratio B / A; each
side's median build and the number of passes in which B built faster,
since one lucky build sets a side's minimum; each side's import time in
every pass, in pass order; then the sum over cases
of each case's minimum over the passes, for each side, and the ratio
B / A of those sums; a ratio below 1 means B is faster.
Each side's outputs of the first pass go through the workload's checks,
and the exit code is 1 if either side fails them.

Bench pairs (two separate bench/run.py processes) drift with the machine
between the runs; here both sides see the same drift case by case, so a
few percent is resolved in a few passes.  An A/A run (the same checkout
twice) shows the method's own bias, which should read about 1.000.

Standard library only.  It runs bench/ code but changes nothing there.
"""

import argparse
import gc
import os
import re
import shutil
import sys
import tempfile
import time
import types
from importlib import import_module
from operator import lt
from statistics import median

PACKAGE = "baire_lab"
_IMPORT = re.compile(r"^(\s*(?:from|import)\s+)%s\b" % PACKAGE, re.M)


def copy_side(checkout, name, scratch):
    """Copy checkout's src/baire_lab to scratch/name with its imports
    renamed; returns the names of its submodules."""
    target = os.path.join(scratch, name)
    shutil.copytree(os.path.join(checkout, "src", PACKAGE), target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    modules = []
    for file in sorted(os.listdir(target)):
        if not file.endswith(".py"):
            continue
        path = os.path.join(target, file)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(_IMPORT.sub(r"\g<1>" + name, text))
        if file != "__init__.py":
            modules.append(file[:-3])
    return modules


def import_side(name, modules):
    """A fresh import of the copy `name`, dropping any earlier one: a
    namespace of its submodules, as bench/run.py builds."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    return types.SimpleNamespace(**{m: import_module("%s.%s" % (name, m)) for m in modules})


def interleave(workload, data, sides, passes):
    """Per-case minimum seconds of each side over `passes` passes, each
    side's import and build seconds of every pass, and each side's outputs
    of the first pass.  sides lists (name, modules) of each copy."""
    best = None
    imports = [[] for _ in sides]
    build = [[] for _ in sides]
    outputs = [[] for _ in sides]
    for p in range(passes):
        built = [None] * len(sides)
        labs = [None] * len(sides)
        for side in (0, 1) if p % 2 == 0 else (1, 0):
            gc.collect()
            t0 = time.perf_counter()
            labs[side] = import_side(*sides[side])
            t1 = time.perf_counter()
            built[side] = workload.build(labs[side], data, lambda: None)
            imports[side].append(t1 - t0)
            build[side].append(time.perf_counter() - t1)
        if best is None:
            best = [[float("inf")] * len(built[0]) for _ in labs]
        # as bench/run.py does: the set-up's objects are left out of every
        # collection, so gc.collect() before a run costs little
        gc.collect()
        gc.freeze()
        for i in range(len(built[0])):
            order = (0, 1) if (i + p) % 2 == 0 else (1, 0)
            for side in order:
                case = built[side][i]
                gc.collect()
                t0 = time.perf_counter()
                out = workload.run(labs[side], case)
                best[side][i] = min(best[side][i], time.perf_counter() - t0)
                if p == 0:
                    outputs[side].append(workload.keep(case, out))
        gc.unfreeze()
    return best, imports, build, outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="checkout A, the baseline")
    parser.add_argument("b", help="checkout B, the candidate")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the case list as bench/run.py does")
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")

    # nothing is written next to either checkout's sources
    sys.dont_write_bytecode = True
    bench = os.path.join(os.path.abspath(args.a), "bench")
    sys.path.insert(0, bench)
    try:
        workloads = import_module("workloads")
        checks = import_module("checks")
    finally:
        sys.path.remove(bench)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; one of %s"
                     % (args.workload, ", ".join(sorted(workloads.WORKLOADS))))
    workload = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory() as scratch:
        sys.path.insert(0, scratch)
        try:
            sides = []
            for checkout, side in ((args.a, "a"), (args.b, "b")):
                name = "%s_%s" % (PACKAGE, side)
                sides.append((name, copy_side(os.path.abspath(checkout), name, scratch)))
            data = workload.make_inputs(args.seed, args.seconds, os.path.join(scratch, "out"))
            best, imports, build, outputs = interleave(workload, data, sides, args.passes)
        finally:
            sys.path.remove(scratch)
        code = 0
        for side, out in zip("AB", outputs):
            try:
                workload.check(data, out)
            except checks.CheckFailed as e:
                print("%s: wrong output: %s" % (side, e), file=sys.stderr)
                code = 1

    sums = [sum(side) for side in best]
    print("%s: %d cases, %d passes" % (args.workload, len(best[0]), args.passes))
    fastest = [min(side) for side in build]
    print("set-up: A min build %.6f s, B min build %.6f s, B / A %.4f"
          % (fastest[0], fastest[1], fastest[1] / fastest[0]))
    print("set-up: A median build %.6f s, B median build %.6f s, B faster in %d of %d passes"
          % (median(build[0]), median(build[1]), sum(map(lt, build[1], build[0])), args.passes))
    print("import per pass: A %s s, B %s s"
          % tuple(" ".join("%.6f" % t for t in side) for side in imports))
    print("A sum of case minima %.3f ms" % (1e3 * sums[0]))
    print("B sum of case minima %.3f ms" % (1e3 * sums[1]))
    print("B / A %.4f (cases_per_s %+.1f%%)" % (sums[1] / sums[0], 100 * (sums[0] / sums[1] - 1)))
    return code


if __name__ == "__main__":
    sys.exit(main())
