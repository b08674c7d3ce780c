"""Shared seeded generators for the test suite."""

import random
from fractions import Fraction

from baire_lab import baire, tsirelson
from baire_lab.trees import comb_tree, random_tree
from baire_lab.vectors import TreeVector


def random_case(seed, max_nodes=10, max_support=8, max_branch=3):
    """Deterministic (tree, vector) pair with |supp| <= max_support."""
    rng = random.Random(seed)
    tree = random_tree(seed=rng.randrange(2**32), max_nodes=max_nodes,
                       max_branch=max_branch)
    nodes = list(tree.nodes)
    k = rng.randint(1, min(max_support, len(nodes)))
    supp = rng.sample(nodes, k)
    entries = {
        t: Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        for t in supp
    }
    return tree, TreeVector(tree, entries)


def leaves(tree):
    """The leaves of a tree, in enumeration order."""
    return [t for t, kids in zip(tree.order, tree.kids) if not kids]


def sweep_case(seed, n):
    """The Tsirelson sweep case of support size n: n nodes of a 2n-node
    random tree with positive entries of numerator and denominator <= 9."""
    rng = random.Random(seed)
    tree = random_tree(seed, 2 * n, 3)
    supp = rng.sample(tree.order, n)
    return TreeVector(tree, {t: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for t in supp})


def benchmark_size_vectors():
    """700-entry vectors on 1,000-node trees, the sizes the Baire DP and
    ground_norm run at in the benchmark: four random trees and the
    500-tooth comb."""
    rng = random.Random(5)
    for tree in [random_tree(s, 1000, 3) for s in range(4)] + [comb_tree(500)]:
        supp = rng.sample(tree.order, 700)
        yield TreeVector(tree, {
            t: Fraction(rng.randint(1, 9), rng.randint(1, 6)) * rng.choice([1, -1]) for t in supp
        })


#: the (start, width) windows of benchmark_size_vectors() and the ops that
#: HI_DIGEST pins and the hi work guard runs
HI_WINDOWS = ((0, 20), (150, 25), (300, 30))

HI_OPS = ((2, 4), (4, 16))


def window_vector(x, start, width):
    """x kept to its support nodes start..start + width - 1 in enumeration
    order, the windows the hi tests cut from benchmark_size_vectors()."""
    supp = list(x.entries)[start:start + width]
    return TreeVector(x.tree, {t: x.entries[t] for t in supp})


def random_nonroot_case(seed, max_nodes=16, max_support=12, max_branch=3):
    """Like random_case but keeps the root out of the support."""
    rng = random.Random(seed)
    while True:
        tree = random_tree(seed=rng.randrange(2**32), max_nodes=max_nodes,
                           max_branch=max_branch)
        nodes = list(tree.nodes)[1:]
        if nodes:
            break
    k = rng.randint(1, min(max_support, len(nodes)))
    supp = rng.sample(nodes, k)
    entries = {
        t: Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        for t in supp
    }
    return tree, TreeVector(tree, entries)


def clear_reuse_slots():
    """Empty the Tsirelson engine cache and the Baire chain cache, so that
    the next call on any vector is a cold one.  Each holds one entry keyed
    on the last vector, which the same vector hits by identity and an
    equal one by TreeVector.__eq__: a best-of-N timing loop on one vector
    calls this before each timed call, or it times only cache hits."""
    tsirelson._built.cache_clear()
    baire._chains.cache_clear()
