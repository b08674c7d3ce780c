from fractions import Fraction
from functools import partial

import pytest

from baire_lab.baire import BaireParams, baire_norm
from baire_lab.hi import dg_lower_bound, ground_norm
from baire_lab.sequences import (
    FiniteBlockSequence,
    equivalence_ratio_bounds,
    generate_incomparable_blocks,
    unconditionality_constant_lower,
)
from baire_lab.trees import chain_tree, random_tree, star_tree
from baire_lab.tsirelson import INCOMPARABLE, tsirelson_norm
from baire_lab.vectors import BaseNorm, TreeVector, unit_vector

TSIRELSON = partial(tsirelson_norm, variant=INCOMPARABLE)


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
        k, witness = equivalence_ratio_bounds(seq, norm, seq, norm, trials=2, seed=0)
        assert witness is not None and Fraction(1, 2) <= k <= 1
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
    seq = FiniteBlockSequence([b0, b1.add(b2)])
    assert seq.tree == t and seq.starts == [(0,), (1,)]
    c = chain_tree(2)
    cases = [
        ([], "empty block sequence"),
        ([b0, unit_vector(star_tree(4), (1,))], "block 1 lives on a different tree"),
        ([b0, TreeVector(t, {})], "block 1 is zero"),
        ([b1, b0], "blocks 0 and 1 do not occupy increasing index windows"),
        ([b0.add(b2), b1], "blocks 0 and 1 do not occupy increasing index windows"),
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


def test_equivalence_self_is_one():
    t = star_tree(5)
    seq = generate_incomparable_blocks(t, 3, seed=1)
    k, witness = equivalence_ratio_bounds(
        seq, ground_norm, seq, ground_norm, trials=4, seed=2
    )
    assert k == 1 and witness is not None


def test_equivalence_is_symmetric():
    t = star_tree(6)
    A = generate_incomparable_blocks(t, 3, seed=1)
    B = generate_incomparable_blocks(t, 3, seed=9)
    ga, gb = ground_norm, TSIRELSON
    k1, _ = equivalence_ratio_bounds(A, ga, B, gb, trials=5, seed=7)
    k2, _ = equivalence_ratio_bounds(B, gb, A, ga, trials=5, seed=7)
    assert k1 == k2
    assert k1 >= 1  # scaling mismatch always shows up in some direction


def test_equivalence_detects_scaling():
    t = star_tree(4)
    b = [unit_vector(t, (i,)) for i in range(2)]
    A = FiniteBlockSequence(b)
    B = FiniteBlockSequence([x.scale(3) for x in b])
    k, _ = equivalence_ratio_bounds(A, ground_norm, B, ground_norm, trials=0, seed=0)
    assert k >= 3


def test_equivalence_length_mismatch():
    t = star_tree(4)
    A = FiniteBlockSequence([unit_vector(t, (0,))])
    B = FiniteBlockSequence([unit_vector(t, (0,)), unit_vector(t, (1,))])
    with pytest.raises(ValueError):
        equivalence_ratio_bounds(A, ground_norm, B, ground_norm, 1, 0)


def test_unconditionality_is_one_for_these_norms():
    # every norm in the package is 1-unconditional: sign flips and
    # coordinate deletions never increase the value
    t = star_tree(5)
    seq = generate_incomparable_blocks(t, 3, seed=2)
    for norm in (ground_norm, TSIRELSON):
        assert unconditionality_constant_lower(seq, norm, trials=2) == 1


def test_unconditionality_cap():
    t = star_tree(13, base_label=13)
    blocks = [unit_vector(t, (13 + i,)) for i in range(13)]
    seq = FiniteBlockSequence(blocks)
    with pytest.raises(ValueError):
        unconditionality_constant_lower(seq, ground_norm)
