"""End-to-end experiment runners with reproducible reports.

Each runner builds its cases deterministically from a seed, computes the
relevant exact quantities, and packages everything into an
ExperimentReport.  Values are serialized as rational strings ("3/2"),
never floats; failing cases carry a replayable input bundle so the exact
failure can be re-fed through the CLI.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

from baire_lab.baire import ZERO, BaireParams, baire_norm
from baire_lab.hi import strict_singularity_witness
from baire_lab.trees import chain_tree, random_tree, star_tree, tree_to_json_dict
from baire_lab.tsirelson import INCOMPARABLE, tsirelson_norm, verify_sandwich18
from baire_lab.vectors import BaseNorm, TreeVector


def rational_str(value):
    return str(Fraction(value))


def norm_value_json(v):
    if v.is_exact:
        return rational_str(v.exact)
    return [rational_str(v.lower), rational_str(v.upper)]


def vector_to_json_dict(x):
    entries = sorted(x.entries.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return {"entries": [[list(node), rational_str(val)] for node, val in entries]}


class ExperimentReport:
    """Per-case records plus a digest binding (experiment, params, records)."""

    def __init__(self, experiment, params, records, passed, wall_time):
        self.experiment = experiment
        self.params = params
        self.records = records
        self.passed = passed
        self.wall_time = wall_time
        payload = json.dumps(
            [experiment, params, records], sort_keys=True, separators=(",", ":")
        )
        self.digest = hashlib.sha256(payload.encode()).hexdigest()

    def to_json_dict(self):
        return {
            "experiment": self.experiment,
            "params": self.params,
            "records": self.records,
            "passed": self.passed,
            "wall_time_seconds": self.wall_time,
            "digest": self.digest,
        }

    def __repr__(self):
        return "ExperimentReport(%s, passed=%r, %d records)" % (
            self.experiment,
            self.passed,
            len(self.records),
        )


def _random_fraction(rng, lo=-8, hi=8, den=8):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def run_branch_isometry(max_len, cases=100, seed=0, p=1, base=None):
    """On chain trees every segment family is a single segment, so the Baire
    norm must equal the plain base norm of the coefficient list."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if base is None:
        base = BaseNorm.ell(1)
    params = BaireParams(p, base)
    rng = random.Random(seed)
    records = []
    passed = True
    start = time.monotonic()
    for case in range(cases):
        length = rng.randint(1, max_len)
        tree = chain_tree(length)
        entries = {
            node: _random_fraction(rng) for node in tree.nodes if rng.random() < 0.8
        }
        x = TreeVector(tree, entries)
        got = baire_norm(x, params)
        exp_lo, exp_hi = base.aggregate_abs(list(x.entries.values()))
        if got.is_exact and exp_lo == exp_hi:
            ok = got.exact == exp_lo
        else:
            ok = got.lower <= exp_hi and exp_lo <= got.upper
        record = {
            "case": case,
            "length": length,
            "computed": norm_value_json(got),
            "expected": [rational_str(exp_lo), rational_str(exp_hi)],
            "ok": ok,
        }
        if not ok:
            passed = False
            record["replay"] = {
                "tree": tree_to_json_dict(tree),
                "vector": vector_to_json_dict(x),
                "p": "0" if params.p is ZERO else rational_str(params.p),
                "base": repr(base),
            }
        records.append(record)
    return ExperimentReport(
        "branch_isometry",
        {
            "max_len": max_len,
            "cases": cases,
            "seed": seed,
            "p": "0" if params.p is ZERO else rational_str(params.p),
            "base": repr(base),
        },
        records,
        passed,
        time.monotonic() - start,
    )


def _case_blocks(case_seed):
    """Deterministic (tree, normalized blocks, coeffs) for one suite case.

    Blocks sit on consecutive leaf groups (leaves are pairwise
    incomparable and enumeration-sorted, so the windows increase), and
    each is scaled to exact norm 1.
    """
    for attempt in range(64):
        tree = random_tree(
            seed=case_seed * 97 + attempt, max_nodes=11, max_branch=3
        )
        leaves = [t for t in sorted(tree.leaves(), key=tree.index) if t != ()]
        if len(leaves) >= 2:
            break
    else:
        raise RuntimeError("could not generate a usable tree")
    rng = random.Random(case_seed)
    count = rng.randint(2, min(3, len(leaves)))
    cuts = sorted(rng.sample(range(1, len(leaves)), count - 1))
    groups = [
        leaves[a:b] for a, b in zip([0] + cuts, cuts + [len(leaves)])
    ]
    blocks = []
    for group in groups:
        group = group[:2]  # keep supports small; windows stay increasing
        entries = {
            t: Fraction(rng.randint(1, 6), rng.randint(1, 6))
            * rng.choice([1, -1])
            for t in group
        }
        b = TreeVector(tree, entries)
        b = b.scale(1 / tsirelson_norm(b, INCOMPARABLE))
        blocks.append(b)
    coeffs = [
        Fraction(rng.randint(1, 4), rng.randint(1, 4)) * rng.choice([1, -1])
        for _ in blocks
    ]
    return tree, blocks, coeffs


def run_tsirelson_suite(cases, seed):
    """Block-sequence inequality checks over seeded random trees."""
    rng = random.Random(seed)
    records = []
    passed = True
    start = time.monotonic()
    for case in range(cases):
        case_seed = rng.randrange(2**32)
        tree, blocks, coeffs = _case_blocks(case_seed)
        sandwich = verify_sandwich18(tree, blocks, coeffs)
        q = sandwich.quantities
        record = {
            "case": case,
            "case_seed": case_seed,
            "blocks": len(blocks),
            # Lemma II.1 compares exactly these two INCOMPARABLE norms
            "lemma_lhs": rational_str(q["index_incomparable"]),
            "lemma_rhs": rational_str(q["combo_incomparable"]),
            "index_standard": rational_str(q["index_standard"]),
            "combo_incomparable": rational_str(q["combo_incomparable"]),
            "combo_standard": rational_str(q["combo_standard"]),
            "checks": sandwich.checks,
            "ok": sandwich.ok,
        }
        if not sandwich.ok:
            passed = False
            record["replay"] = {
                "tree": tree_to_json_dict(tree),
                "blocks": [vector_to_json_dict(b) for b in blocks],
                "coeffs": [rational_str(c) for c in coeffs],
            }
        records.append(record)
    return ExperimentReport(
        "tsirelson_suite",
        {"cases": cases, "seed": seed},
        records,
        passed,
        time.monotonic() - start,
    )


def run_hi_suite(pairs):
    """Strict-singularity witness table over (m, n) pairs."""
    if not pairs:
        raise ValueError("pairs must be nonempty")
    records = []
    passed = True
    start = time.monotonic()
    for case, (m, n) in enumerate(pairs):
        tree = star_tree(n)
        row = strict_singularity_witness(tree, n, m)
        ok = row["ground"] == 1 and row["lower"] >= Fraction(n, m)
        record = {
            "case": case,
            "m": m,
            "n": n,
            "ground": rational_str(row["ground"]),
            "lower": rational_str(row["lower"]),
            "upper": rational_str(row["upper"]),
            "ratio": rational_str(row["ratio"]),
            "ok": ok,
        }
        if not ok:
            passed = False
            record["replay"] = {"tree": tree_to_json_dict(tree), "m": m, "n": n}
        records.append(record)
    return ExperimentReport(
        "hi_suite",
        {"pairs": [[m, n] for m, n in pairs]},
        records,
        passed,
        time.monotonic() - start,
    )
