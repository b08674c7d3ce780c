import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "interleave_ab.py")


def test_interleave_ab_runs_a_against_itself():
    # A/A on a tiny standard_certify list: both sides build and run the
    # same cases under their own package names, and pass the checks
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--workload", "standard_certify",
         "--seed", "1", "--seconds", "0.05", "--passes", "2"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "standard_certify: 5 cases, 2 passes"
    # each side's fastest build of the two passes, and their ratio
    setup = re.fullmatch(r"set-up: A min build (\S+) s, B min build (\S+) s, B / A (\S+)",
                         lines[1])
    builds = [float(setup.group(1)), float(setup.group(2))]
    assert all(v > 0 for v in builds)
    # the builds are printed to 1 us, the ratio from the unrounded times
    assert abs(float(setup.group(3)) - builds[1] / builds[0]) < 0.05
    # each side's median build, at or above its fastest, and the passes in
    # which B built faster
    spread = re.fullmatch(r"set-up: A median build (\S+) s, B median build (\S+) s,"
                          r" B faster in (\d+) of 2 passes", lines[2])
    medians = [float(spread.group(1)), float(spread.group(2))]
    assert all(m >= b for m, b in zip(medians, builds)) and 0 <= int(spread.group(3)) <= 2
    # each side's fresh import in each pass, in pass order: every import
    # compiles the sources, so it takes time, and the set-up of a pass is
    # its import and its build
    imports = re.fullmatch(r"import per pass: A (\S+) (\S+) s, B (\S+) (\S+) s", lines[3])
    assert imports and all(float(v) > 0 for v in imports.groups())
    sums = [float(re.fullmatch(r"%s sum of case minima (\S+) ms" % side, line).group(1))
            for side, line in zip("AB", lines[4:6])]
    assert all(v > 0 for v in sums)
    ratio = float(re.match(r"B / A (\S+) ", lines[6]).group(1))
    # the sums are printed to 1 us, the ratio from the unrounded sums
    assert abs(ratio - sums[1] / sums[0]) < 0.01


def test_interleave_ab_refuses_an_unknown_workload():
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--workload", "nope", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 2 and "unknown workload 'nope'" in proc.stderr
