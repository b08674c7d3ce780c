import itertools
from fractions import Fraction
from functools import partial

import pytest

from baire_lab.baire import ZERO, BaireParams, baire_norm
from baire_lab.hi import ground_norm
from baire_lab.sequences import FiniteBlockSequence
from baire_lab.trees import chain_tree, star_tree
from baire_lab.tsirelson import INCOMPARABLE, STANDARD, tsirelson_norm
from baire_lab.vectors import BaseNorm, TreeVector, linear_combination, unit_vector


def baire(p, base):
    return partial(baire_norm, params=BaireParams(p, base))


def test_empty_block_sequence_rejected():
    with pytest.raises(ValueError, match="empty block sequence"):
        FiniteBlockSequence([]).combine([])


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


def test_unconditionality_is_one_for_these_norms():
    # every norm in the package is 1-unconditional: on completely
    # incomparable blocks, sign flips and block deletions never increase
    # the value, and flips alone keep it.  Interval norms compare the lower
    # bound after with the upper bound before
    t = star_tree(6)
    seq = FiniteBlockSequence([
        TreeVector(t, {(0,): 3, (1,): Fraction(-1, 2)}),
        TreeVector(t, {(2,): Fraction(5, 4), (3,): 2}),
        TreeVector(t, {(4,): Fraction(-7, 3), (5,): 1}),
    ])
    exact = [ground_norm, partial(tsirelson_norm, variant=INCOMPARABLE),
             partial(tsirelson_norm, variant=STANDARD),
             lambda x: baire_norm(x, BaireParams(1, BaseNorm.ell(1))).exact,
             lambda x: baire_norm(x, BaireParams(ZERO, BaseNorm.ell(1))).exact]
    interval = [baire(2, BaseNorm.ell(2)), baire(Fraction(3, 2), BaseNorm.sup()),
                baire(1, BaseNorm.ell(Fraction(3, 2)))]
    for coeffs in ([1, 1, 1], [Fraction(2, 3), 5, Fraction(-1, 4)]):
        x = seq.combine(coeffs)
        for signs in itertools.product((-1, 0, 1), repeat=3):
            y = seq.combine([s * c for s, c in zip(signs, coeffs)])
            for norm in exact:
                if all(signs):
                    assert norm(y) == norm(x), (coeffs, signs, norm)
                else:
                    assert norm(y) <= norm(x), (coeffs, signs, norm)
            for norm in interval:
                assert norm(y).lower <= norm(x).upper, (coeffs, signs, norm)
