"""Walkthrough: the implicit Tsirelson-type norm and its block inequalities.

The norm is the least fixed point of

    |x| = max( sup |x|, 1/2 max over admissible families sum |E_i x| )

where a family E_1 < ... < E_k is admissible when k is at most the
enumeration index of the first set's minimum.  Low indices choke the
recursion; high indices let it split freely.
"""

import json
from fractions import Fraction

from baire_lab import (
    INCOMPARABLE,
    STANDARD,
    TreeVector,
    star_tree,
    tsirelson_iterate,
    tsirelson_norm,
)
from baire_lab.tsirelson import tsirelson_witness_tree, verify_sandwich18
from baire_lab.vectors import unit_vector


def main():
    print("-- the admissibility choke --")
    for base in (0, 6):
        t = star_tree(6, base_label=base)
        x = TreeVector(t, {(base + i,): 1 for i in range(6)})
        print(
            "6 unit leaves starting at index %d: |x| = %s"
            % (t.index((base,)), tsirelson_norm(x, INCOMPARABLE))
        )

    print()
    print("-- iterates climb to the fixed point --")
    t = star_tree(6, base_label=6)
    x = TreeVector(t, {(6 + i,): 1 for i in range(6)})
    for m in range(4):
        print("iterate %d: %s" % (m, tsirelson_iterate(x, INCOMPARABLE, m)))

    print()
    print("-- witness derivation tree --")
    small = star_tree(3, base_label=3)
    y = TreeVector(small, {(3 + i,): Fraction(1, i + 1) for i in range(3)})
    print(json.dumps(tsirelson_witness_tree(y, INCOMPARABLE), indent=2))

    print()
    print("-- block sequence inequalities --")
    t = star_tree(5, base_label=5)
    blocks = [unit_vector(t, (5 + i,)) for i in range(5)]
    coeffs = [1, Fraction(1, 2), 1, Fraction(1, 3), 1]
    sandwich = verify_sandwich18(t, blocks, coeffs)
    q = sandwich.quantities
    # Lemma II.1 is the sandwich's "lemma" check
    print("index-vector norm %s <= block-combination norm %s : %s"
          % (q["index_incomparable"], q["combo_incomparable"], sandwich.checks["lemma"]))
    print("sandwich: %s <= %s <= 18 * %s : %s"
          % (q["index_standard"], q["combo_incomparable"], q["index_standard"],
             sandwich.ok))
    print("variants on the combination: incomparable %s, standard %s"
          % (q["combo_incomparable"], q["combo_standard"]))


if __name__ == "__main__":
    main()
