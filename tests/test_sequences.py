import hashlib
from fractions import Fraction
from functools import partial

import pytest

from baire_lab.baire import ZERO, BaireParams, baire_norm
from baire_lab.hi import dg_lower_bound, ground_norm
from baire_lab.sequences import (
    FiniteBlockSequence,
    generate_incomparable_blocks,
    unconditionality_constant_lower,
)
from baire_lab.trees import chain_tree, random_tree, star_tree
from baire_lab.tsirelson import INCOMPARABLE, STANDARD, tsirelson_norm
from baire_lab.vectors import BaseNorm, TreeVector, linear_combination, unit_vector

TSIRELSON = partial(tsirelson_norm, variant=INCOMPARABLE)
# an interval norm's ratios fall short of 1 by the rounding of its bounds
NEAR_ONE = 1 - Fraction(1, 2**40)


def baire(p, base):
    return partial(baire_norm, params=BaireParams(p, base))


def test_norms_are_plain_callables():
    # each package norm plugs in directly, returning a Fraction or a NormValue
    t = star_tree(6)
    p1 = BaireParams(1, BaseNorm.ell(1))
    p2 = BaireParams(2, BaseNorm.ell(2))
    norms = [
        ground_norm,
        TSIRELSON,
        lambda x: baire_norm(x, p1),
        lambda x: baire_norm(x, p2),
        lambda x: dg_lower_bound(x, 1, [(2, 4)])[0],
    ]
    for norm in norms:
        seq = generate_incomparable_blocks(t, 3, seed=4, norm=norm)
        for b in seq.blocks:
            v = norm(b)
            assert v == 1 or (Fraction(1, 2) <= v.lower and v.upper <= 2)
        assert NEAR_ONE < unconditionality_constant_lower(seq, norm, trials=2) <= 1
    # the l_2-based Baire norm is the interval case: its blocks are not exact
    interval = generate_incomparable_blocks(t, 3, seed=4, norm=norms[3])
    assert not all(baire_norm(b, p2).is_exact for b in interval.blocks)


def test_empty_block_sequence_rejected():
    with pytest.raises(ValueError, match="empty block sequence"):
        FiniteBlockSequence([]).combine([])
    with pytest.raises(ValueError, match="empty block sequence"):
        generate_incomparable_blocks(star_tree(4), 0, seed=1)


def test_block_sequence_window_validation():
    t = star_tree(3)
    b0, b1, b2 = (unit_vector(t, (i,)) for i in range(3))
    seq = FiniteBlockSequence([b0, linear_combination(t, [b1, b2], [1, 1])])
    assert seq.tree == t and seq.starts == [(0,), (1,)]
    c = chain_tree(2)
    cases = [
        ([], "empty block sequence"),
        ([b0, unit_vector(star_tree(4), (1,))], "block 1 lives on a different tree"),
        ([b0, TreeVector(t, {})], "block 1 is zero"),
        ([b1, b0], "blocks 0 and 1 do not occupy increasing index windows"),
        ([linear_combination(t, [b0, b2], [1, 1]), b1],
         "blocks 0 and 1 do not occupy increasing index windows"),
        ([unit_vector(c, ()), unit_vector(c, (0,))],
         "blocks 0 and 1 have comparable supports"),
    ]
    for blocks, message in cases:
        with pytest.raises(ValueError) as e:
            FiniteBlockSequence(blocks)
        assert str(e.value) == message


def test_combine():
    t = star_tree(3)
    seq = FiniteBlockSequence([unit_vector(t, (0,)), unit_vector(t, (1,))])
    z = seq.combine([2, Fraction(-1, 2)])
    assert z[(0,)] == 2 and z[(1,)] == Fraction(-1, 2)
    # a coefficient list of the wrong length is refused, not zipped
    for coeffs in ([5], [1, 2, 3]):
        with pytest.raises(ValueError, match="length mismatch"):
            seq.combine(coeffs)


def test_generate_incomparable_blocks():
    t = star_tree(6)
    seq = generate_incomparable_blocks(t, 3, seed=11)
    assert len(seq) == 3
    for b in seq.blocks:
        assert Fraction(1, 2) <= ground_norm(b) <= 2
    # supports sit in increasing windows, starting at seq.starts
    for b, start in zip(seq.blocks, seq.starts):
        assert start == min(b.support, key=t.index)
    for a, b in zip(seq.blocks, seq.blocks[1:]):
        assert max(map(t.index, a.support)) < min(map(t.index, b.support))


def test_generate_is_deterministic():
    t = random_tree(seed=3, max_nodes=12, max_branch=3)
    a = generate_incomparable_blocks(t, 2, seed=5)
    b = generate_incomparable_blocks(t, 2, seed=5)
    assert [x.entries for x in a.blocks] == [x.entries for x in b.blocks]


def test_generate_reports_max_count():
    t = chain_tree(4)  # one leaf only
    with pytest.raises(ValueError) as e:
        generate_incomparable_blocks(t, 2, seed=0)
    assert "at most 1" in str(e.value)


def test_generated_blocks_are_pinned():
    # sha256 of the sorted entries of every generated block, so that any
    # change to the sampling or the rescale of generation shows here
    trees = [star_tree(6), random_tree(seed=3, max_nodes=30, max_branch=4)]
    norms = [ground_norm, TSIRELSON, baire(1, BaseNorm.ell(1)),
             baire(2, BaseNorm.ell(2))]
    h = hashlib.sha256()
    for tree in trees:
        for norm in norms:
            for seed in range(10):
                seq = generate_incomparable_blocks(tree, 3, seed, norm)
                for b in seq.blocks:
                    h.update(repr(sorted(b.entries.items())).encode())
    assert h.hexdigest() == (
        "3af1acc32ffc6fba814505adc3fabe4db7f1f976a1cb3567b63c738691ab565e"
    )


def test_unconditionality_is_one_for_these_norms():
    # every norm in the package is 1-unconditional: sign flips and
    # coordinate deletions never increase the value.  Exact norms give
    # exactly 1; interval norms compare a lower bound with an upper bound,
    # so they give 1 less a rounding
    t = star_tree(6)
    exact = [ground_norm, TSIRELSON, partial(tsirelson_norm, variant=STANDARD),
             baire(1, BaseNorm.ell(1)), baire(ZERO, BaseNorm.ell(1))]
    interval = [baire(2, BaseNorm.ell(2)), baire(Fraction(3, 2), BaseNorm.sup()),
                baire(1, BaseNorm.ell(Fraction(3, 2)))]
    for seed in range(3):
        for norm in exact:
            seq = generate_incomparable_blocks(t, 3, seed, norm)
            assert unconditionality_constant_lower(seq, norm) == 1
        for norm in interval:
            seq = generate_incomparable_blocks(t, 3, seed, norm)
            assert NEAR_ONE < unconditionality_constant_lower(seq, norm) <= 1


def test_unconditionality_cap():
    t = star_tree(13, base_label=13)
    blocks = [unit_vector(t, (13 + i,)) for i in range(13)]
    seq = FiniteBlockSequence(blocks)
    with pytest.raises(ValueError):
        unconditionality_constant_lower(seq, ground_norm)
