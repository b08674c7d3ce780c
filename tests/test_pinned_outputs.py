"""One sha256 over the outputs of the Tsirelson engines and the Baire DP and
oracle, so that a change meant to keep every output byte shows here.

The canonical form is one JSON line per record, dumped with sort_keys and
no spaces, each fraction as str(Fraction), each node as a list:

- for seeds 0..SEEDS-1, (tree, x) = random_case(seed, max_nodes=12,
  max_support=8), and for each variant in (standard, incomparable):
  ["tsirelson", seed, variant, norm, witness tree, check_fixed_point,
  [iterate m for m = 0..|supp|]];
- for the same cases, each base in (l1, sup, l2) and each p in
  (0, 1, 3/2): ["baire", seed, base, p, oracle report, DP report];
- for each vector i of benchmark_size_vectors() and each of the 16
  (base, p) pairs of the baire_trees benchmark, bases (sup, l1, l2, l3/2)
  by p in (0, 1, 3/2, 2): ["baire_dp", i, base, p, DP report].

A report is [value lower, value upper, power lower, power upper, family],
the family a list of segment chains from the top down.
"""

import hashlib
import json
from fractions import Fraction

from baire_lab.baire import BaireParams, baire_norm_oracle_report, baire_norm_report
from baire_lab.tsirelson import (
    INCOMPARABLE,
    STANDARD,
    check_fixed_point,
    tsirelson_iterate,
    tsirelson_norm,
    tsirelson_witness_tree,
)
from baire_lab.vectors import BaseNorm
from util import benchmark_size_vectors, random_case

SEEDS = 300

DIGEST = "6eeeb37b186ec3b8fcd0974fe2c73c06e60eefc08e164115e5082bdfa4ad8d60"


def _report(r):
    return [
        str(r.value.lower), str(r.value.upper), str(r.power.lower), str(r.power.upper),
        [[list(t) for t in seg.chain] for seg in r.family],
    ]


def records():
    for seed in range(SEEDS):
        _, x = random_case(seed, max_nodes=12, max_support=8)
        for variant in (STANDARD, INCOMPARABLE):
            yield [
                "tsirelson", seed, variant,
                str(tsirelson_norm(x, variant)),
                tsirelson_witness_tree(x, variant),
                check_fixed_point(x, variant),
                [str(tsirelson_iterate(x, variant, m)) for m in range(len(x.entries) + 1)],
            ]
        for token in ("l1", "sup", "l2"):
            for p in ("0", "1", "3/2"):
                params = BaireParams(Fraction(p), BaseNorm.parse(token))
                yield [
                    "baire", seed, token, p,
                    _report(baire_norm_oracle_report(x, params)),
                    _report(baire_norm_report(x, params)),
                ]
    for i, x in enumerate(benchmark_size_vectors()):
        for token in ("sup", "l1", "l2", "l3/2"):
            for p in ("0", "1", "3/2", "2"):
                params = BaireParams(Fraction(p), BaseNorm.parse(token))
                yield ["baire_dp", i, token, p, _report(baire_norm_report(x, params))]


def digest():
    h = hashlib.sha256()
    for record in records():
        h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_outputs_pinned():
    assert digest() == DIGEST
