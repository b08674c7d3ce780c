"""Block sequences: the one validator, seeded generation, and a lower
bound on the unconditionality constant.

FiniteBlockSequence is the one check of what a block sequence is: the
Tsirelson block checks, the Baire block profile and the generator here
all build one.

Every norm argument is a plain callable x -> Fraction | NormValue, such
as ground_norm or partial(tsirelson_norm, variant=INCOMPARABLE).
"""

import itertools
import random
from fractions import Fraction

from baire_lab.hi import ground_norm
from baire_lab.trees import completely_incomparable
from baire_lab.vectors import NormValue, TreeVector, linear_combination

UNCONDITIONAL_CAP = 12


def _value(norm, x):
    v = norm(x)
    return v if isinstance(v, NormValue) else NormValue(v)


class FiniteBlockSequence:
    """The one validated block sequence: nonzero blocks on one tree,
    pairwise completely incomparable, in increasing enumeration-index
    windows (each block's last support node comes before the next block's
    first).  starts holds the first support node of each block."""

    def __init__(self, blocks):
        if not blocks:
            raise ValueError("empty block sequence")
        tree = blocks[0].tree
        # each support as ascending arena ids, which is enumeration order;
        # equal trees number their nodes alike
        ids = []
        for i, b in enumerate(blocks):
            if b.tree != tree:
                raise ValueError("block %d lives on a different tree" % i)
            if not b.entries:
                raise ValueError("block %d is zero" % i)
            ids.append(sorted(b.entry_ids()))
        supports = [[tree.order[v] for v in block_ids] for block_ids in ids]
        for i in range(len(blocks) - 1):
            if ids[i][-1] >= ids[i + 1][0]:
                raise ValueError(
                    "blocks %d and %d do not occupy increasing index windows"
                    % (i, i + 1)
                )
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if not completely_incomparable(supports[i], supports[j]):
                    raise ValueError(
                        "blocks %d and %d have comparable supports" % (i, j)
                    )
        self.tree = tree
        self.blocks = list(blocks)
        self.starts = [s[0] for s in supports]

    def __len__(self):
        return len(self.blocks)

    def combine(self, coeffs):
        return linear_combination(self.tree, self.blocks, coeffs)


def generate_incomparable_blocks(tree, count, seed, norm=ground_norm):
    """Deterministic-in-seed semi-normalized blocks on disjoint leaf groups.

    Leaves are pairwise incomparable, so grouping them by enumeration
    order yields completely incomparable supports in increasing windows.
    Each block is divided by the midpoint of its norm's bounds, so its norm
    is exactly 1 when the norm is rational (the bounds meet), and lands in
    [1/2, 2] otherwise.
    """
    if count < 1:
        raise ValueError("empty block sequence")
    leaves = tree.leaves()
    if len(leaves) < count:
        raise ValueError(
            "tree supports at most %d incomparable blocks, need %d"
            % (len(leaves), count)
        )
    rng = random.Random(seed)
    per_block = max(1, len(leaves) // count)
    blocks = []
    for i in range(count):
        group = leaves[i * per_block : (i + 1) * per_block]
        if i == count - 1:
            group = leaves[i * per_block :]
        entries = {}
        for t in group:
            entries[t] = Fraction(rng.randint(1, 8), rng.randint(1, 8)) * rng.choice(
                [1, -1]
            )
        block = TreeVector(tree, entries)
        value = _value(norm, block)
        blocks.append(block.scale(2 / (value.lower + value.upper)))
    return FiniteBlockSequence(blocks)


def unconditionality_constant_lower(A, norm, trials=5, seed=0):
    """Lower bound for the unconditionality constant of a block sequence:
    max of |sum eps_i a_i A_i| / |sum a_i A_i| over sign patterns in
    {-1, 0, 1}^n and sampled coefficients.  Every norm here is
    1-unconditional, so anything above 1 flags a defect."""
    n = len(A)
    if n > UNCONDITIONAL_CAP:
        raise ValueError(
            "sign-pattern enumeration cap exceeded: %d > %d" % (n, UNCONDITIONAL_CAP)
        )
    rng = random.Random(seed)
    samples = [tuple([Fraction(1)] * n)]
    for _ in range(trials):
        samples.append(
            tuple(
                Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(n)
            )
        )
    best = Fraction(0)
    for coeffs in samples:
        base = _value(norm, A.combine(coeffs))
        if base.upper == 0:
            continue
        for signs in itertools.product((-1, 0, 1), repeat=n):
            flipped = [s * c for s, c in zip(signs, coeffs)]
            if not any(flipped):
                continue
            value = _value(norm, A.combine(flipped))
            ratio = value.lower / base.upper
            if ratio > best:
                best = ratio
    return best
