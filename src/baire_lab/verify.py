"""End-to-end experiment runners with reproducible reports.

Each runner builds its cases deterministically from a seed, computes the
relevant exact quantities, and packages everything into an
ExperimentReport.  Values are serialized as rational strings ("3/2"),
never floats: every value a record holds is already a Fraction (a norm
value's bounds, a vector's entries, Tsirelson norms, strict-singularity
rows, BaireParams.p), so str(value) writes it in lowest terms.  Failing
cases carry a replayable input bundle so the exact failure can be re-fed
through the CLI.
"""

import hashlib
import json
import random
import time
from fractions import Fraction
from functools import cached_property, lru_cache

from baire_lab.baire import BaireParams, baire_norm
from baire_lab.hi import strict_singularity_witness
from baire_lab.trees import chain_tree, make_tree, star_tree, tree_to_json_dict
from baire_lab.tsirelson import INCOMPARABLE, tsirelson_norm, verify_sandwich18
from baire_lab.vectors import BaseNorm, TreeVector


def norm_value_json(v):
    if v.is_exact:
        return str(v.exact)
    return [str(v.lower), str(v.upper)]


def vector_to_json_dict(x):
    return {"entries": [[list(node), str(val)] for node, val in x.entries.items()]}


class ExperimentReport:
    """Per-case records plus a digest binding (experiment, params, records).

    The report passes when every record is ok, so one without records
    passes vacuously.  The digest is made on its first read, which
    to_json_dict does, so a caller that reads only the records (hi
    witness) skips the sorted dump and the sha256.
    """

    def __init__(self, experiment, params, records, wall_time):
        self.experiment = experiment
        self.params = params
        self.records = records
        self.passed = all(r["ok"] for r in records)
        self.wall_time = wall_time

    @cached_property
    def digest(self):
        payload = json.dumps(
            [self.experiment, self.params, self.records], sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

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


def _run(experiment, params, cases):
    """The ExperimentReport of `experiment` over `cases`, timed.

    cases yields, per case, its record fields, "ok" last, and a function
    that builds the case's replay bundle.  The runner numbers the records
    from 0 in "case" and calls the function only for a failing case,
    before the next case is drawn, so it sees that case's own values.
    """
    records = []
    start = time.monotonic()
    for case, (fields, replay) in enumerate(cases):
        record = {"case": case, **fields}
        if not record["ok"]:
            record["replay"] = replay()
        records.append(record)
    return ExperimentReport(experiment, params, records, time.monotonic() - start)


# run_branch_isometry builds each chain tree of at most this many nodes
# once per process and keeps it (_kept_chain); a longer one is built per
# case, since a chain's node tuples grow with the square of its length
# (about 50 KB at 100 nodes, 36 MB at 3,000), and the kept chains up to 64
# hold about 0.5 MB in all
CHAIN_KEPT_MAX = 64


@lru_cache(maxsize=CHAIN_KEPT_MAX)
def _kept_chain(length):
    """chain_tree(length), kept for every later run: no runner changes a
    tree, so one tree serves every case and every run that draws its
    length."""
    return chain_tree(length)


def run_branch_isometry(max_len, cases=100, seed=0, p=1, base=None):
    """On chain trees every segment family is a single segment, so the Baire
    norm must equal the plain base norm of the coefficient list."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if base is None:
        base = BaseNorm.ell(1)
    params = BaireParams(p, base)
    # p and the base as text, in params and in every replay bundle
    norm = {"p": str(params.p), "base": repr(base)}
    rng = random.Random(seed)

    def records():
        for _ in range(cases):
            length = rng.randint(1, max_len)
            tree = _kept_chain(length) if length <= CHAIN_KEPT_MAX else chain_tree(length)
            x = TreeVector(tree, {
                node: Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                for node in tree.nodes if rng.random() < 0.8
            })
            got = baire_norm(x, params)
            exp_lo, exp_hi = base.aggregate_abs(list(x.entries.values()))
            yield {
                "length": length,
                "computed": norm_value_json(got),
                "expected": [str(exp_lo), str(exp_hi)],
                # an exact value overlaps an exact bracket only by equality
                "ok": got.lower <= exp_hi and exp_lo <= got.upper,
            }, lambda: {"tree": tree_to_json_dict(tree), "vector": vector_to_json_dict(x), **norm}

    return _run(
        "branch_isometry",
        {"max_len": max_len, "cases": cases, "seed": seed, **norm},
        records(),
    )


def _case_blocks(case_seed):
    """Deterministic (tree, normalized blocks, coeffs) for one suite case.

    Block i is a top node, a root child's label followed by i random
    labels, and one child of it: its two nodes are comparable.  Each block
    sits under its own root child, so the blocks are pairwise completely
    incomparable.  Block i ends at depth i + 2, where block i + 1 starts
    under a larger root label, so the windows increase.  The tree is the
    prefix closure of the blocks, and each block is scaled to exact norm 1.
    """
    rng = random.Random(case_seed)
    labels = sorted(rng.sample(range(4), rng.randint(2, 3)))
    supports = []
    for i, label in enumerate(labels):
        top = (label,) + tuple(rng.randrange(3) for _ in range(i))
        supports.append((top, top + (rng.randrange(3),)))
    tree = make_tree([bottom for _, bottom in supports])
    blocks = []
    for support in supports:
        entries = {
            t: Fraction(rng.randint(1, 6), rng.randint(1, 6))
            * rng.choice([1, -1])
            for t in support
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
    """Block-sequence inequality checks over seeded cases of two to three
    blocks, each a node and one of its children (_case_blocks)."""
    rng = random.Random(seed)

    def records():
        for _ in range(cases):
            case_seed = rng.randrange(2**32)
            tree, blocks, coeffs = _case_blocks(case_seed)
            sandwich = verify_sandwich18(tree, blocks, coeffs)
            q = sandwich.quantities
            yield {
                "case_seed": case_seed,
                "blocks": len(blocks),
                # Lemma II.1 compares exactly these two INCOMPARABLE norms
                "lemma_lhs": str(q["index_incomparable"]),
                "lemma_rhs": str(q["combo_incomparable"]),
                "index_standard": str(q["index_standard"]),
                "combo_incomparable": str(q["combo_incomparable"]),
                "combo_standard": str(q["combo_standard"]),
                "checks": sandwich.checks,
                "ok": sandwich.ok,
            }, lambda: {
                "tree": tree_to_json_dict(tree),
                "blocks": [vector_to_json_dict(b) for b in blocks],
                "coeffs": [str(c) for c in coeffs],
            }

    return _run("tsirelson_suite", {"cases": cases, "seed": seed}, records())


WITNESS_COLUMNS = ("ground", "lower", "upper", "ratio")


def run_hi_suite(pairs):
    """Strict-singularity witness table over (m, n) pairs: per pair, the
    witness's WITNESS_COLUMNS as rational strings, ok when ground == 1
    and lower >= n/m."""
    pairs = list(pairs)  # read twice: for params and for the records
    if not pairs:
        raise ValueError("pairs must be nonempty")

    def records():
        for m, n in pairs:
            row = strict_singularity_witness(n, m)
            fields = {key: str(row[key]) for key in WITNESS_COLUMNS}
            ok = row["ground"] == 1 and row["lower"] >= Fraction(n, m)
            yield ({"m": m, "n": n, **fields, "ok": ok},
                   lambda: {"tree": tree_to_json_dict(star_tree(n)), "m": m, "n": n})

    return _run("hi_suite", {"pairs": [[m, n] for m, n in pairs]}, records())
