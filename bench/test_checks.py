"""Tests of the benchmark's own checkers, on hand-worked examples.

Each checker must accept a worked example and reject it with one value
changed, so a check that can never fail shows up here.  Run with

    python3 bench/test_checks.py        (or: python3 -m pytest bench/test_checks.py)
"""

import hashlib
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

STAR = {(), (2,), (3,), (4,)}  # labels 2..4: enumeration indices 3, 4, 5
ONES = {(2,): F(1), (3,): F(1), (4,): F(1)}
CHAIN = {(), (0,), (0, 0)}
PAIR = {(), (0,), (1,)}


def rejects(fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def leaf(node, value):
    return {"value": value, "node": list(node)}


def test_enumeration_index():
    # over {0..4}: () is 0, the five one-letter nodes follow, then (0, 0)
    assert [checks.enumeration_index(t, 4) for t in [(), (0,), (4,), (0, 0), (1, 2)]] == [0, 1, 5, 6, 13]


def test_brute_tsirelson_three_singletons():
    # the family {(2,)}, {(3,)}, {(4,)} is admissible (3 <= index 3): 3/2
    assert checks.brute_tsirelson(STAR, ONES, True) == [F(1), F(3, 2)]
    # labels 1..3 have indices 2..4: no family of three singletons fits
    shifted = {(1,): F(1), (2,): F(1), (3,): F(1)}
    assert checks.brute_tsirelson({(), (1,), (2,), (3,)}, shifted, False) == [F(1)]


def test_brute_tsirelson_variants_differ_on_comparable_nodes():
    # (2,) and (2, 2) are comparable, so only STANDARD may split them
    tree = {(), (2,), (3,), (2, 2)}
    x = {(2,): F(1), (3,): F(1), (2, 2): F(1)}
    assert checks.brute_tsirelson(tree, x, False)[-1] == F(3, 2)
    assert checks.brute_tsirelson(tree, x, True)[-1] == F(1)


def test_tsirelson_case():
    witness = {"value": "3/2", "family": [leaf((2,), "1"), leaf((3,), "1"), leaf((4,), "1")]}
    checks.check_tsirelson_case(ONES, F(3, 2), F(3, 2), True, witness, True)
    assert rejects(checks.check_tsirelson_case, ONES, F(3, 2), F(1), True, witness, True)
    assert rejects(checks.check_tsirelson_case, ONES, F(3, 2), F(3, 2), False, witness, True)
    assert rejects(checks.check_tsirelson_case, ONES, F(4), F(4), True, dict(witness, value="4"), True)
    assert rejects(checks.check_tsirelson_case, ONES, F(2), F(2), True, witness, True)


def test_replay_witness():
    good = {"value": "3/2", "family": [leaf((2,), "1"), leaf((3,), "1"), leaf((4,), "1")]}
    assert sorted(checks.replay_witness(good, ONES, True)) == [(2,), (3,), (4,)]
    bad_leaf = {"value": "3/2", "family": [leaf((2,), "2"), leaf((3,), "1"), leaf((4,), "1")]}
    assert rejects(checks.replay_witness, bad_leaf, ONES, True)
    lone = {"value": "1/2", "family": [leaf((2,), "1")]}
    assert rejects(checks.replay_witness, lone, ONES, True)
    reused = {"value": "1", "family": [leaf((2,), "1"), leaf((2,), "1")]}
    assert rejects(checks.replay_witness, reused, ONES, True)
    x = {(2,): F(1), (2, 2): F(1)}
    comparable = {"value": "1", "family": [leaf((2,), "1"), leaf((2, 2), "1")]}
    checks.replay_witness(comparable, x, False)
    assert rejects(checks.replay_witness, comparable, x, True)


def test_brute_baire():
    with localcontext() as ctx:
        ctx.prec = checks.DIGITS
        chain_x = {(0,): F(3), (0, 0): F(4)}
        # one segment is all a chain allows: the l2 norm of (3, 4)
        assert checks.brute_baire(chain_x, "l2", F(1)) == 5
        pair_x = {(0,): F(3), (1,): F(4)}
        assert checks.brute_baire(pair_x, "l1", F(1)) == 7
        assert checks.brute_baire(pair_x, "l1", F(2)) == 5
        assert checks.brute_baire(pair_x, "l1", F(0)) == 4
        assert checks.brute_baire({**pair_x, (1,): F(5)}, "l1", F(1)) == 8


def test_check_family():
    pair = checks.TreeIndex(PAIR)
    checks.check_family(pair, [[(0,)], [(1,)]])
    assert rejects(checks.check_family, pair, [[(0,)], [(), (1,)]])
    chain = checks.TreeIndex(CHAIN)
    checks.check_family(chain, [[(0,), (0, 0)]])
    assert rejects(checks.check_family, chain, [[(0,)], [(0, 0)]])
    assert rejects(checks.check_family, chain, [[(), (0, 0)]])
    assert rejects(checks.check_family, chain, [[(0,), (0, 1)]])


def test_baire_group():
    x = {(0,): F(3), (1,): F(4)}
    with localcontext() as ctx:
        ctx.prec = checks.DIGITS
        p32 = (Decimal(27).sqrt() + 8) ** (Decimal(2) / 3)
    lo, hi = F(p32) - F(1, 10**30), F(p32) + F(1, 10**30)
    both = [[(0,)], [(1,)]]
    results = {F(1): (F(7), F(7), both), F(3, 2): (lo, hi, both), F(2): (F(5), F(5), both),
               F(0): (F(4), F(4), [[(1,)]])}
    index = checks.TreeIndex(PAIR)
    checks.check_baire_group(index, x, "l1", results, False, F(4))
    for p, changed in ((F(1), F(8)), (F(2), F(6)), (F(0), F(3))):
        bad = dict(results)
        bad[p] = (changed, changed, results[p][2])
        assert rejects(checks.check_baire_group, index, x, "l1", bad, False, F(4))
    assert rejects(checks.check_baire_group, index, x, "l1", results, False, F(5))
    # on a chain the value must be the base norm of all the coefficients
    chain_x = {(0,): F(3), (0, 0): F(4)}
    seg = [[(0,), (0, 0)]]
    chain_results = {F(1): (F(5), F(5), seg), F(0): (F(5), F(5), seg)}
    checks.check_baire_group(checks.TreeIndex(CHAIN), chain_x, "l2", chain_results, True, F(7))
    chain_results[F(1)] = (F(6), F(6), seg)
    assert rejects(checks.check_baire_group, checks.TreeIndex(CHAIN), chain_x, "l2",
                   chain_results, True, F(7))


def test_check_dg():
    x = {(0,): F(1), (1,): F(-1)}
    parts = (("ground", (((0,), F(1)),)), ("ground", (((1,), F(-1)),)))
    provenance = ("even_op", 1, 2, parts)
    entries = {(0,): F(1), (1,): F(-1)}
    checks.check_dg(PAIR, x, F(2), entries, provenance)
    assert rejects(checks.check_dg, PAIR, x, F(3), entries, provenance)
    assert rejects(checks.check_dg, PAIR, x, F(2), {(0,): F(1), (1,): F(1)}, provenance)
    assert rejects(checks.check_dg, PAIR, x, F(2), entries, ("even_op", 1, 1, parts))
    swapped = ("even_op", 1, 2, parts[::-1])
    assert rejects(checks.check_dg, PAIR, x, F(2), entries, swapped)


def test_hi_row():
    checks.check_hi_row(2, 4, F(1), F(2), F(4), F(2))
    assert rejects(checks.check_hi_row, 2, 4, F(1), F(1), F(4), F(1))
    assert rejects(checks.check_hi_row, 2, 4, F(1), F(2), F(3), F(2))
    assert rejects(checks.check_hi_row, 2, 4, F(1), F(2), F(4), F(1))


def _report(experiment, records):
    payload = json.dumps([experiment, {}, records], sort_keys=True, separators=(",", ":"))
    return {"experiment": experiment, "params": {}, "records": records, "passed": True,
            "digest": hashlib.sha256(payload.encode()).hexdigest()}


def test_check_report():
    record = {"case": 0, "lemma_lhs": "1", "lemma_rhs": "3/2", "index_standard": "1",
              "combo_incomparable": "3/2", "combo_standard": "2"}
    checks.check_report(_report("tsirelson_suite", [record]))
    tampered = _report("tsirelson_suite", [record])
    tampered["records"] = [dict(record, lemma_rhs="2")]
    assert rejects(checks.check_report, tampered)
    assert rejects(checks.check_report, _report("tsirelson_suite", [dict(record, lemma_lhs="2")]))
    assert rejects(checks.check_report, _report("tsirelson_suite", [dict(record, combo_standard="19")]))
    row = {"case": 0, "m": 2, "n": 4, "ground": "1", "lower": "2", "upper": "4", "ratio": "2"}
    checks.check_report(_report("hi_suite", [row]))
    assert rejects(checks.check_report, _report("hi_suite", [dict(row, ratio="3")]))
    branch = {"case": 0, "computed": "5", "expected": ["5", "5"]}
    checks.check_report(_report("branch_isometry", [branch]))
    assert rejects(checks.check_report, _report("branch_isometry", [dict(branch, computed="6")]))


def test_ground_and_rank():
    x = {(): F(1), (0,): F(-2), (0, 0): F(3), (1,): F(4)}
    tree = CHAIN | PAIR
    assert checks.chain_max(tree, x) == 6
    checks.check_rank(tree, 2)
    assert rejects(checks.check_rank, tree, 3)
    checks.check_tree_shape([[0, 0], [], [0]], CHAIN)
    assert rejects(checks.check_tree_shape, [[], [0]], CHAIN)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    print("%d checker tests passed" % len(tests))
