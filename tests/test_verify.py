import json
from fractions import Fraction

import pytest

from baire_lab import verify
from baire_lab.hi import DESK_PAIRS
from baire_lab.tsirelson import verify_lemma_II1, verify_sandwich18
from baire_lab.trees import chain_tree, tree_from_json_dict
from baire_lab.vectors import BaseNorm, NormValue, TreeVector
from baire_lab.verify import (
    _case_blocks,
    run_branch_isometry,
    run_hi_suite,
    run_tsirelson_suite,
)


def test_branch_isometry_trivial_length_one():
    r = run_branch_isometry(1, cases=10, seed=0)
    assert r.passed and len(r.records) == 10


# pinned: report bytes must not drift across refactors of the base norm
# layer (BaseNorm's terms, power sums and roots) or the Baire DP
BRANCH_DIGESTS = {
    0: "8f25dc12fc5f9e865d0cdd19acb04a6a71c155a1965d6a519e0f65af8be27dcf",
    1: "f3db8b241639d215a09abd1e09dab330b858ac4d61130113ff63b49ca4f7fedc",
    2: "c48131606ac22ccc0b499f885c563fab137f3b84442d0af3143143514cbefd82",
}


def test_branch_isometry_l1():
    for seed, digest in BRANCH_DIGESTS.items():
        r = run_branch_isometry(20, cases=100, seed=seed)
        assert r.passed
        # exact both sides: every expected bracket collapses
        for rec in r.records:
            assert rec["expected"][0] == rec["expected"][1]
        assert r.digest == digest, seed


def test_branch_isometry_l2_intervals():
    r = run_branch_isometry(10, cases=50, seed=1, p=2, base=BaseNorm.ell(2))
    assert r.passed
    assert r.digest == (
        "b6ef4153f5051c40b944c8cf43d0e719b8e0fb8fe6672c5580f70cb281537f40"
    )


def test_branch_isometry_builds_each_short_chain_once(monkeypatch):
    # once per process: after a clear, a run builds each short length it
    # draws once, and a later run builds none of them again
    built = []

    def counted(n):
        built.append(n)
        return chain_tree(n)

    monkeypatch.setattr(verify, "chain_tree", counted)
    verify._kept_chain.cache_clear()
    r = run_branch_isometry(12, cases=60, seed=4)
    lengths = [rec["length"] for rec in r.records]
    assert sorted(built) == sorted(set(lengths)) and len(built) < len(lengths)
    assert r.digest == run_branch_isometry(12, cases=60, seed=4).digest
    assert sorted(built) == sorted(set(lengths))
    assert verify._kept_chain.cache_info().currsize == len(set(lengths))
    # a chain longer than CHAIN_KEPT_MAX is built for each case that draws it
    verify._kept_chain.cache_clear()
    built.clear()
    r = run_branch_isometry(verify.CHAIN_KEPT_MAX + 3, cases=300, seed=1)
    lengths = [rec["length"] for rec in r.records]
    long = [n for n in lengths if n > verify.CHAIN_KEPT_MAX]
    assert len(set(long)) < len(long)
    assert sorted(built) == sorted([n for n in set(lengths) if n <= verify.CHAIN_KEPT_MAX] + long)
    # every short length fits: the second run builds only the long ones again
    built.clear()
    assert run_branch_isometry(verify.CHAIN_KEPT_MAX + 3, cases=300, seed=1).digest == r.digest
    assert sorted(built) == sorted(long)


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


def _canonical(s):
    """True iff s is a rational as str(Fraction) writes it: a float, or a
    string not in lowest terms, fails the round trip."""
    return str(Fraction(s)) == s


def test_tsirelson_suite_records_are_rational_strings():
    # every rational field of the three suites, not only the Tsirelson one
    for rec in run_tsirelson_suite(5, seed=3).records:
        for key in ("lemma_lhs", "lemma_rhs", "index_standard", "combo_incomparable",
                    "combo_standard"):
            assert _canonical(rec[key]), key
    for p, base in ((1, BaseNorm.ell(1)), (2, BaseNorm.ell(2)), (0, BaseNorm.ell(2))):
        r = run_branch_isometry(6, cases=10, seed=3, p=p, base=base)
        assert _canonical(r.params["p"])
        for rec in r.records:
            computed = rec["computed"]
            for s in (computed if isinstance(computed, list) else [computed]) + rec["expected"]:
                assert _canonical(s), rec
    for rec in run_hi_suite([(2, 4), (3, 9)]).records:
        for key in verify.WITNESS_COLUMNS:
            assert _canonical(rec[key]), key


def test_tsirelson_failure_bundle_replays():
    # fabricate a failing record by corrupting a passing case, then check
    # the replay path reproduces the verifier verdict
    r = run_tsirelson_suite(3, seed=4)
    rec = r.records[0]
    assert "replay" not in rec  # passing cases carry no bundle
    # a replay bundle from a hand-built report round-trips through JSON
    from baire_lab.verify import vector_to_json_dict
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


def test_failure_bundles_are_each_cases_own(monkeypatch):
    # every case fails, so a replay bundle is built for each one, last in
    # its record, from that case's own inputs
    norm, sandwich = verify.baire_norm, verify.verify_sandwich18
    witness = verify.strict_singularity_witness
    monkeypatch.setattr(verify, "baire_norm", lambda x, p: NormValue(norm(x, p).upper + 1))
    for rec in run_branch_isometry(8, cases=12, seed=0).records:
        tree, _ = tree_from_json_dict(rec["replay"]["tree"])
        values = [Fraction(v) for _, v in rec["replay"]["vector"]["entries"]]
        assert len(tree) == rec["length"]
        assert [str(e) for e in BaseNorm.ell(1).aggregate_abs(values)] == rec["expected"]

    def failing_sandwich(tree, blocks, coeffs):
        rep = sandwich(tree, blocks, coeffs)
        rep.checks["right_18"] = False
        return rep

    monkeypatch.setattr(verify, "verify_sandwich18", failing_sandwich)
    for rec in run_tsirelson_suite(6, seed=4).records:
        _, _, coeffs = _case_blocks(rec["case_seed"])
        assert rec["replay"]["coeffs"] == [str(c) for c in coeffs]
    monkeypatch.setattr(verify, "strict_singularity_witness",
                        lambda n, m: dict(witness(n, m), ground=0))
    records = run_hi_suite([(2, 4), (2, 8), (3, 9)]).records
    assert all(list(rec)[0] == "case" and list(rec)[-1] == "replay" for rec in records)
    assert [(rec["replay"]["m"], rec["replay"]["n"], len(rec["replay"]["tree"]["nodes"]))
            for rec in records] == [(2, 4, 5), (2, 8, 9), (3, 9, 10)]


def test_hi_suite_table():
    r = run_hi_suite([(2, 4), (2, 8), (2, 16)])
    assert r.passed
    assert [rec["ratio"] for rec in r.records] == ["2", "4", "8"]
    assert run_hi_suite(DESK_PAIRS).digest == (
        "04c4cc04685ca7bac989cf0a116c7d2944a3cf3a017bdb90c70eec5e09a8db63"
    )


def test_hi_suite_degenerate_pair():
    r = run_hi_suite([(4, 4)])
    assert r.passed and r.records[0]["ratio"] == "1"


def test_hi_suite_validates():
    with pytest.raises(ValueError):
        run_hi_suite([])
    with pytest.raises(ValueError):
        run_hi_suite(iter([]))
    # any iterable of pairs: params and records both see every pair
    r = run_hi_suite(iter([(2, 4)]))
    assert r.params == {"pairs": [[2, 4]]} and len(r.records) == 1


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
