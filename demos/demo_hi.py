"""Walkthrough: ground norm vs norming-set lower bounds.

The ground norm only sees signed sums along chains.  The norming set
additionally closes under (1/m)(f_1 + ... + f_n) averaging, which is
what separates the two norms on sums of incomparable unit vectors: the
ground norm stays at 1 while the averaged functionals reach n/m.
"""

from fractions import Fraction

from baire_lab import (
    TreeVector,
    dg_lower_bound,
    dg_upper_bound,
    ground_norm,
    schedule,
    star_tree,
    strict_singularity_witness,
)
from baire_lab.hi import DESK_PAIRS


def main():
    print("-- ground norm is blind to incomparable spread --")
    for n in (4, 8, 16):
        t = star_tree(n)
        x = TreeVector(t, {(i,): 1 for i in range(n)})
        lower, witness = dg_lower_bound(x, 1, [(2, n)])
        print(
            "n=%2d: ground %s, averaged lower bound %s, l1 upper bound %s"
            % (n, ground_norm(x), lower, dg_upper_bound(x))
        )
        if n == 4:
            print("   witness provenance:", witness.provenance[:3], "...")

    print()
    print("-- the desk-scale ratio table --")
    print("m, n, ground, lower, upper, ratio")
    for m, n in DESK_PAIRS:
        row = strict_singularity_witness(n, m)
        print(
            "%d, %2d, %s, %s, %s, %s"
            % (m, n, row["ground"], row["lower"], row["upper"], row["ratio"])
        )
    print("the ratio column grows without bound as n/m does: no uniform")
    print("equivalence between the two norms survives along this sequence")

    print()
    print("-- the exact growth schedule --")
    s = schedule(3)
    print("m:", s.m)
    print("n_1 = %d, n_2 = %d (= 20^15)" % (s.n[0], s.n[1]))
    print("n_3 has %d decimal digits" % len(str(s.n[2])))


if __name__ == "__main__":
    main()
