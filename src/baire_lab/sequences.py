"""Block sequences: the one validator.

FiniteBlockSequence is the one check of what a block sequence is; the
Tsirelson block checks of verify_sandwich18 build one.
"""

from baire_lab.trees import completely_incomparable
from baire_lab.vectors import linear_combination


class FiniteBlockSequence:
    """The one validated block sequence: nonzero blocks on one tree,
    pairwise completely incomparable, in increasing enumeration-index
    windows (each block's last support node comes before the next block's
    first).  starts holds the first support node of each block."""

    def __init__(self, blocks):
        if not blocks:
            raise ValueError("empty block sequence")
        tree = blocks[0].tree
        for i, b in enumerate(blocks):
            if b.tree != tree:
                raise ValueError("block %d lives on a different tree" % i)
            if not b.entries:
                raise ValueError("block %d is zero" % i)
        # each support in enumeration order, with its ascending arena ids;
        # equal trees number their nodes alike
        supports = [list(b.entries) for b in blocks]
        for i in range(len(blocks) - 1):
            if blocks[i].ids[-1] >= blocks[i + 1].ids[0]:
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

    def combine(self, coeffs):
        return linear_combination(self.tree, self.blocks, coeffs)
