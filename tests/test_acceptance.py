"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget."""

import random
import time
from fractions import Fraction

from baire_lab.baire import (
    ZERO,
    BaireParams,
    baire_norm,
    baire_norm_oracle_report,
    baire_norm_report,
)
from baire_lab.hi import DESK_PAIRS, dg_lower_bound, dg_upper_bound, ground_norm, schedule
from baire_lab.tsirelson import (
    INCOMPARABLE,
    STANDARD,
    check_fixed_point,
    tsirelson_iterate,
    tsirelson_norm,
)
from baire_lab.vectors import BaseNorm, TreeVector, linear_combination
from baire_lab.verify import (
    _case_blocks,
    run_branch_isometry,
    run_hi_suite,
    run_tsirelson_suite,
)
from util import random_case

L1 = BaseNorm.ell(1)


def _report(name, ok, elapsed, limit):
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print("criterion %s: %s (%.1fs / limit %ds)" % (name, verdict, elapsed, limit))
    assert ok
    assert elapsed < limit, "time budget exceeded: %.1fs" % elapsed


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    params = [BaireParams(p, L1) for p in (ZERO, 1, 2)]
    ok = True
    for seed in range(500):
        _, x = random_case(seed, max_nodes=10, max_support=8)
        for pr in params:
            got = baire_norm_report(x, pr).power
            want = baire_norm_oracle_report(x, pr, cap=8).power
            if got != want:
                ok = False
    _report("1 oracle-equivalence", ok, time.monotonic() - start, 60)


def test_criterion_2_branch_isometry():
    start = time.monotonic()
    report = run_branch_isometry(20, cases=100, seed=20)
    exact = all(rec["expected"][0] == rec["expected"][1] for rec in report.records)
    _report("2 branch-isometry", report.passed and exact, time.monotonic() - start, 10)


def test_criterion_3_fixed_point_and_stabilization():
    start = time.monotonic()
    rng = random.Random(3)
    ok = True
    for _ in range(200):
        while True:
            tree, x = random_case(rng.randrange(2**32), max_nodes=16, max_support=12)
            if x.support:
                break
        m = len(x.support)
        for variant in (INCOMPARABLE, STANDARD):
            value = tsirelson_norm(x, variant)
            if not check_fixed_point(x, variant):
                ok = False
            if tsirelson_iterate(x, variant, m) != value:
                ok = False
    _report("3 tsirelson-fixed-point", ok, time.monotonic() - start, 120)


def test_criterion_4_lemma_inequality():
    start = time.monotonic()
    report = run_tsirelson_suite(100, seed=4)
    ok = all(rec["checks"]["lemma"] for rec in report.records)
    _report("4 block-lemma-inequality", ok, time.monotonic() - start, 120)


def test_criterion_5_sandwich_18():
    start = time.monotonic()
    report = run_tsirelson_suite(100, seed=5)
    ok = True
    for rec in report.records:
        checks = rec["checks"]
        if not (checks["left"] and checks["domination"] and checks["right_18"]):
            ok = False
        if not checks["index_vector_norms_equal"]:
            ok = False
    _report("5 sandwich-18", ok, time.monotonic() - start, 180)


def test_criterion_6_hi_ratio_law():
    start = time.monotonic()
    report = run_hi_suite(DESK_PAIRS)
    ratios = [Fraction(rec["ratio"]) for rec in report.records]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    _report("6 hi-ratio-law", report.passed and increasing, time.monotonic() - start, 30)


def test_criterion_7_schedule_exactness():
    start = time.monotonic()
    s = schedule(3)
    ok = s.m == [2, 32, 32**5] and s.n[1] == 20**15 and s.n[0] == 4
    _report("7 schedule-exactness", ok, time.monotonic() - start, 1)


def test_criterion_8_bracketing_and_unconditionality():
    start = time.monotonic()
    ok = True
    p1 = BaireParams(1, L1)
    p0 = BaireParams(ZERO, L1)
    # suites 1-3 style cases: sign flips never change any norm, interval
    # values always bracket, and ground <= dg_lower <= l1 holds
    for seed in range(0, 500, 10):
        tree, x = random_case(seed, max_nodes=10, max_support=8)
        flipped = TreeVector(tree, {t: -v for t, v in x.entries.items()})
        if baire_norm(x, p1) != baire_norm(flipped, p1):
            ok = False
        if baire_norm(x, p0) != baire_norm(flipped, p0):
            ok = False
        if x.support:
            if tsirelson_norm(x, INCOMPARABLE) != tsirelson_norm(flipped, INCOMPARABLE):
                ok = False
            if ground_norm(x) != ground_norm(flipped):
                ok = False
            lower, _ = dg_lower_bound(x, 1, [(2, 4)])
            if not (ground_norm(x) <= lower <= dg_upper_bound(x)):
                ok = False
        v2 = baire_norm(x, BaireParams(2, BaseNorm.ell(2)))
        if v2.lower > v2.upper:
            ok = False
    # suite 4-5 style cases
    for case in range(20):
        tree, blocks, coeffs = _case_blocks(case * 31 + 7)
        combo = linear_combination(tree, blocks, coeffs)
        flipped = TreeVector(tree, {t: -v for t, v in combo.entries.items()})
        for variant in (INCOMPARABLE, STANDARD):
            if tsirelson_norm(combo, variant) != tsirelson_norm(flipped, variant):
                ok = False
    # suite 6 rows: bracketing recorded in the report
    report = run_hi_suite(DESK_PAIRS)
    for rec in report.records:
        if not (
            Fraction(rec["ground"])
            <= Fraction(rec["lower"])
            <= Fraction(rec["upper"])
        ):
            ok = False
    _report("8 invariants", ok, time.monotonic() - start, 120)
