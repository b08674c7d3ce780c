import json
from fractions import Fraction

import pytest

from baire_lab.tsirelson import verify_lemma_II1, verify_sandwich18
from baire_lab.trees import tree_from_json_dict
from baire_lab.vectors import BaseNorm, TreeVector
from baire_lab.verify import (
    run_branch_isometry,
    run_hi_suite,
    run_tsirelson_suite,
)


def test_branch_isometry_trivial_length_one():
    r = run_branch_isometry(1, cases=10, seed=0)
    assert r.passed and len(r.records) == 10


def test_branch_isometry_l1():
    r = run_branch_isometry(20, cases=100, seed=0)
    assert r.passed
    # exact both sides: every expected bracket collapses
    for rec in r.records:
        assert rec["expected"][0] == rec["expected"][1]


def test_branch_isometry_l2_intervals():
    r = run_branch_isometry(10, cases=50, seed=1, p=2, base=BaseNorm.ell(2))
    assert r.passed


def test_branch_isometry_validates():
    with pytest.raises(ValueError):
        run_branch_isometry(0)


def test_tsirelson_suite_vacuous():
    r = run_tsirelson_suite(0, seed=1)
    assert r.passed and r.records == []


def test_tsirelson_suite_runs_and_is_deterministic():
    a = run_tsirelson_suite(25, seed=1)
    b = run_tsirelson_suite(25, seed=1)
    assert a.passed
    assert a.digest == b.digest
    c = run_tsirelson_suite(25, seed=2)
    assert c.digest != a.digest
    # pinned: report bytes must not drift across refactors
    assert a.digest == (
        "adccec93cbbb34146a427c4b23a8571a781950c91c472e0f60df1ef63e1301b7"
    )
    assert c.digest == (
        "b3e5a6053031da30bef73690d9a39190ac0eccc8adcee56d99a74da009e1f51e"
    )


def test_tsirelson_suite_records_are_rational_strings():
    r = run_tsirelson_suite(5, seed=3)
    for rec in r.records:
        for key in ("lemma_lhs", "lemma_rhs", "combo_incomparable"):
            Fraction(rec[key])  # parses, no floats


def test_tsirelson_failure_bundle_replays():
    # fabricate a failing record by corrupting a passing case, then check
    # the replay path reproduces the verifier verdict
    r = run_tsirelson_suite(3, seed=4)
    rec = r.records[0]
    assert "replay" not in rec  # passing cases carry no bundle
    # a replay bundle from a hand-built report round-trips through JSON
    from baire_lab.verify import _case_blocks, vector_to_json_dict
    from baire_lab.trees import tree_to_json_dict

    tree, blocks, coeffs = _case_blocks(rec["case_seed"])
    bundle = json.loads(
        json.dumps(
            {
                "tree": tree_to_json_dict(tree),
                "blocks": [vector_to_json_dict(b) for b in blocks],
                "coeffs": [str(c) for c in coeffs],
            }
        )
    )
    tree2, _ = tree_from_json_dict(bundle["tree"])
    blocks2 = [
        TreeVector(tree2, {tuple(n): Fraction(v) for n, v in b["entries"]})
        for b in bundle["blocks"]
    ]
    coeffs2 = [Fraction(c) for c in bundle["coeffs"]]
    assert verify_lemma_II1(tree2, blocks2, coeffs2).ok
    assert verify_sandwich18(tree2, blocks2, coeffs2).ok


def test_hi_suite_table():
    r = run_hi_suite([(2, 4), (2, 8), (2, 16)])
    assert r.passed
    assert [rec["ratio"] for rec in r.records] == ["2", "4", "8"]


def test_hi_suite_degenerate_pair():
    r = run_hi_suite([(4, 4)])
    assert r.passed and r.records[0]["ratio"] == "1"


def test_hi_suite_validates():
    with pytest.raises(ValueError):
        run_hi_suite([])


def test_report_json_shape():
    r = run_hi_suite([(2, 4)])
    d = r.to_json_dict()
    assert set(d) == {
        "experiment",
        "params",
        "records",
        "passed",
        "wall_time_seconds",
        "digest",
    }
    json.dumps(d)  # serializable
