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
    sums = [float(re.fullmatch(r"%s sum of case minima (\S+) ms" % side, line).group(1))
            for side, line in zip("AB", lines[1:3])]
    assert all(v > 0 for v in sums)
    ratio = float(re.match(r"B / A (\S+) ", lines[3]).group(1))
    # the sums are printed to 1 us, the ratio from the unrounded sums
    assert abs(ratio - sums[1] / sums[0]) < 0.01


def test_interleave_ab_refuses_an_unknown_workload():
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--workload", "nope", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 2 and "unknown workload 'nope'" in proc.stderr
