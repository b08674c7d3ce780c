import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire_lab.trees import chain_tree, comparable, random_tree, star_tree
from baire_lab.tsirelson import (
    INCOMPARABLE,
    STANDARD,
    _Ctx,
    _StdEngine,
    check_fixed_point,
    tsirelson_iterate,
    tsirelson_norm,
    tsirelson_witness_tree,
    verify_lemma_II1,
    verify_sandwich18,
)
from baire_lab.vectors import TreeVector, unit_vector
from util import random_nonroot_case


def naive_norm(x, variant, level):
    """Independent reference: enumerate every admissible family directly."""
    tree = x.tree
    idx = {t: tree.index(t) for t in x.support}

    @functools.lru_cache(maxsize=None)
    def norm(supp, lev):
        # supp is a tuple of support nodes sorted by enumeration index
        if not supp:
            return Fraction(0)
        best = max(abs(x[t]) for t in supp)
        if lev == 0:
            return best
        n = len(supp)
        for r in range(2, n + 1):
            for sub in itertools.combinations(supp, r):
                for k in range(2, r + 1):
                    for cuts in itertools.combinations(range(1, r), k - 1):
                        bounds = (0,) + cuts + (r,)
                        blocks = [sub[a:b] for a, b in zip(bounds, bounds[1:])]
                        if k > idx[blocks[0][0]]:
                            continue
                        if variant == INCOMPARABLE and any(
                            comparable(s, t)
                            for A, B in itertools.combinations(blocks, 2)
                            for s in A
                            for t in B
                        ):
                            continue
                        total = sum(norm(b, lev - 1) for b in blocks)
                        if total / 2 > best:
                            best = total / 2
        return best

    return norm(tuple(sorted(x.support, key=idx.__getitem__)), level)


def test_unknown_variant():
    t = star_tree(2)
    with pytest.raises(ValueError):
        tsirelson_norm(unit_vector(t, (0,)), "bogus")


def test_empty_support():
    t = star_tree(2)
    assert tsirelson_norm(TreeVector(t, {}), INCOMPARABLE) == 0


def test_support_cap():
    t = star_tree(15)
    x = TreeVector(t, {(i,): 1 for i in range(15)})
    with pytest.raises(ValueError):
        tsirelson_norm(x, INCOMPARABLE)


def test_chain_degenerates_to_sup():
    # on a chain every pair of nodes is comparable, so the INCOMPARABLE
    # variant never finds a family; the STANDARD variant agrees because
    # low enumeration indices block every split
    t = chain_tree(6)
    x = TreeVector(t, {(0,) * i: Fraction(i + 1, 2) for i in range(6)})
    assert tsirelson_norm(x, INCOMPARABLE) == 3
    assert tsirelson_norm(x, STANDARD) == naive_norm(x, STANDARD, 8)


def test_star_all_ones_large_indices():
    # with indices past n, an n-leaf star of ones splits fully: value n/2
    for n in (4, 6):
        t = star_tree(n, base_label=n)
        x = TreeVector(t, {(n + i,): 1 for i in range(n)})
        assert tsirelson_norm(x, INCOMPARABLE) == Fraction(n, 2)
        assert tsirelson_norm(x, STANDARD) == Fraction(n, 2)


def test_star_small_indices():
    # leaf (0) has index 1 and can never start a family
    t = star_tree(6)
    x = TreeVector(t, {(i,): 1 for i in range(6)})
    assert tsirelson_norm(x, INCOMPARABLE) == Fraction(3, 2)


def test_iterate_zero_is_sup():
    for seed in range(10):
        _, x = random_nonroot_case(seed, max_support=6)
        assert tsirelson_iterate(x, INCOMPARABLE, 0) == x.sup()


def test_iterates_monotone_and_stabilize():
    for seed in range(20):
        _, x = random_nonroot_case(seed, max_support=8)
        for variant in (INCOMPARABLE, STANDARD):
            vals = [tsirelson_iterate(x, variant, m) for m in range(len(x.support) + 1)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == tsirelson_norm(x, variant)


def test_matches_naive_enumeration():
    for seed in range(30):
        _, x = random_nonroot_case(seed, max_nodes=9, max_support=8)
        for variant in (INCOMPARABLE, STANDARD):
            got = tsirelson_norm(x, variant)
            assert got == naive_norm(x, variant, len(x.support) + 1), (
                seed,
                variant,
                sorted(x.entries.items()),
            )


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_naive_agreement_property(seed):
    _, x = random_nonroot_case(seed, max_nodes=8, max_support=5)
    for variant in (INCOMPARABLE, STANDARD):
        assert tsirelson_norm(x, variant) == naive_norm(x, variant, 6)


def test_incomparable_at_most_standard():
    # the standard variant drops the incomparability restriction, so it
    # maximizes over strictly more families
    for seed in range(20):
        _, x = random_nonroot_case(seed, max_support=8)
        assert tsirelson_norm(x, INCOMPARABLE) <= tsirelson_norm(x, STANDARD)


def test_fixed_point_holds():
    for seed in range(20):
        _, x = random_nonroot_case(seed, max_support=8)
        for variant in (INCOMPARABLE, STANDARD):
            assert check_fixed_point(x, variant)


def test_norm_dominates_sup_and_below_half_l1():
    for seed in range(20):
        _, x = random_nonroot_case(seed, max_support=8)
        v = tsirelson_norm(x, INCOMPARABLE)
        assert x.sup() <= v <= max(x.sup(), x.l1() / 2)


def test_witness_tree_replays():
    def leaves(node):
        if "node" in node:
            return [tuple(node["node"])]
        return [t for member in node["family"] for t in leaves(member)]

    def replay(node, x, variant):
        """Value of a witness node, checking every family node on the way."""
        tree = x.tree
        if "node" in node:
            value = abs(x[tuple(node["node"])])
        else:
            members = node["family"]
            groups = [sorted(leaves(m), key=tree.index) for m in members]
            flat = [t for g in groups for t in g]
            # k >= 2 disjoint members E_1 < ... < E_k with k <= min E_1
            assert len(members) >= 2
            assert len(set(flat)) == len(flat)
            for a, b in zip(groups, groups[1:]):
                assert tree.index(a[-1]) < tree.index(b[0])
            assert len(members) <= tree.index(groups[0][0])
            if variant == INCOMPARABLE:
                for a, b in itertools.combinations(groups, 2):
                    assert not any(comparable(s, t) for s in a for t in b)
            value = sum(replay(m, x, variant) for m in members) / 2
        assert Fraction(node["value"]) == value
        return value

    for seed in range(15):
        _, x = random_nonroot_case(seed, max_support=8)
        for variant in (INCOMPARABLE, STANDARD):
            wt = tsirelson_witness_tree(x, variant)
            assert replay(wt, x, variant) == tsirelson_norm(x, variant)


def _tie_case(seed):
    """Values from {1, 2, 3, 4} on a star with shifted labels or on a
    random tree: many equal run sums."""
    rng = random.Random(seed)
    if seed % 2:
        tree = star_tree(rng.randint(2, 9), base_label=rng.randint(0, 9))
    else:
        tree = random_tree(seed=rng.randrange(2**32), max_nodes=14,
                           max_branch=rng.randint(2, 4))
    nodes = sorted(tree.nodes, key=tree.index)
    supp = rng.sample(nodes, rng.randint(1, min(9, len(nodes))))
    return TreeVector(tree, {t: rng.choice([1, 2, 3, 4]) for t in supp})


def test_run_count_lemma():
    # partition(l, j, k) strictly increases in k up to the admissible
    # maximum, so best_split tries only that k and still returns the first
    # optimal (l, k) of a scan over every k: the witnesses do not move
    cases = [random_nonroot_case(seed, max_support=9)[1] for seed in range(150)]
    cases += [_tie_case(seed) for seed in range(150)]
    for x in cases:
        eng = _StdEngine(_Ctx(x))
        n, idx = eng.ctx.n, eng.ctx.idx
        for level in (None, 0, 1, 2):
            sums = {}
            for l, j in itertools.combinations(range(n + 1), 2):
                kmax = min(idx[l], j - l)
                run = [eng.partition(l, j, k, level) for k in range(1, kmax + 1)]
                assert all(a < b for a, b in zip(run, run[1:])), (x.entries, l, j, level)
                sums[l, j] = run
            for i, j in itertools.combinations(range(n + 1), 2):
                scan = (Fraction(0), None)
                for l in range(i, j):
                    for k in range(2, len(sums[l, j]) + 1):
                        if sums[l, j][k - 1] > scan[0]:
                            scan = (sums[l, j][k - 1], (l, k))
                assert eng.best_split(i, j, level) == scan


def _unit_blocks(n, base_label):
    t = star_tree(n, base_label=base_label)
    blocks = [unit_vector(t, (base_label + i,)) for i in range(n)]
    return t, blocks


def test_lemma_II1_unit_blocks():
    t, blocks = _unit_blocks(4, 6)
    rep = verify_lemma_II1(t, blocks, [1, Fraction(1, 2), 1, Fraction(1, 3)])
    assert rep.ok
    # unit blocks at their own start nodes: equality
    assert rep.quantities["lhs"] == rep.quantities["rhs"]


def test_sandwich18_unit_blocks():
    t, blocks = _unit_blocks(4, 6)
    rep = verify_sandwich18(t, blocks, [1, 1, 1, 1])
    assert rep.ok
    assert rep.checks["index_vector_norms_equal"]
    assert rep.checks["right_18"]
    # the "lemma" check is Lemma II.1 on the same two INCOMPARABLE norms
    lemma = verify_lemma_II1(t, blocks, [1, 1, 1, 1])
    assert rep.checks["lemma"] == lemma.ok
    assert rep.quantities["index_incomparable"] == lemma.quantities["lhs"]
    assert rep.quantities["combo_incomparable"] == lemma.quantities["rhs"]


def test_block_sequence_validation():
    t = star_tree(4)
    blocks = [unit_vector(t, (0,)), unit_vector(t, (1,))]
    # fine as-is
    assert verify_lemma_II1(t, blocks, [1, 1]).ok
    with pytest.raises(ValueError):
        verify_lemma_II1(t, list(reversed(blocks)), [1, 1])  # windows decrease
    with pytest.raises(ValueError):
        verify_lemma_II1(t, [blocks[0].scale(2), blocks[1]], [1, 1])  # not normalized
    t2 = chain_tree(3)
    comp = [unit_vector(t2, (0,)), unit_vector(t2, (0, 0))]
    with pytest.raises(ValueError):
        verify_lemma_II1(t2, comp, [1, 1])  # comparable supports
