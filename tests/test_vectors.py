import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire_lab.trees import chain_tree, random_tree, star_tree
from baire_lab.vectors import (
    ROOT_BITS,
    BaseNorm,
    NormValue,
    TreeVector,
    base_norm_of_segment,
    integer_nth_root,
    linear_combination,
    nth_root_bounds,
    unit_vector,
)

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=16)
positive_fractions_st = st.fractions(
    min_value=0, max_value=100, max_denominator=32
)


@given(st.integers(0, 10**30), st.integers(2, 7))
@settings(max_examples=200)
def test_integer_nth_root_floor(x, n):
    r = integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n


@given(positive_fractions_st, st.integers(2, 5))
@settings(max_examples=200)
def test_nth_root_bounds_bracket(value, n):
    lo, hi = nth_root_bounds(value, n)
    assert lo**n <= value <= hi**n
    if hi > lo:
        assert hi - lo <= lo / 2**ROOT_BITS


def test_nth_root_exact_on_perfect_powers():
    lo, hi = nth_root_bounds(Fraction(9, 4), 2)
    assert lo == hi == Fraction(3, 2)
    lo, hi = nth_root_bounds(Fraction(27), 3)
    assert lo == hi == 3


def test_norm_value_exactness():
    v = NormValue(Fraction(3, 2))
    assert v.is_exact and v.exact == Fraction(3, 2)
    assert v == Fraction(3, 2)
    w = NormValue(1, 2)
    assert not w.is_exact
    with pytest.raises(ValueError):
        w.exact
    assert w.contains(Fraction(3, 2))
    assert w.overlaps(NormValue(2, 3))
    assert not w.overlaps(NormValue(3, 4))


def test_base_norm_parse():
    assert BaseNorm.parse("sup") == BaseNorm.sup()
    assert BaseNorm.parse("l1") == BaseNorm.ell(1)
    assert BaseNorm.parse("l3/2") == BaseNorm.ell(Fraction(3, 2))
    with pytest.raises(ValueError):
        BaseNorm.parse("linf")
    with pytest.raises(ValueError):
        BaseNorm.ell(Fraction(1, 2))


def test_aggregate_abs_exact_kinds():
    vals = [Fraction(1, 2), Fraction(-2), Fraction(0)]
    lo, hi = BaseNorm.ell(1).aggregate_abs(vals)
    assert lo == hi == Fraction(5, 2)
    lo, hi = BaseNorm.sup().aggregate_abs(vals)
    assert lo == hi == 2


def test_aggregate_abs_l2_interval():
    lo, hi = BaseNorm.ell(2).aggregate_abs([3, 4])
    assert lo == hi == 5  # perfect square stays exact
    lo, hi = BaseNorm.ell(2).aggregate_abs([1, 1])
    assert lo < hi
    assert lo**2 <= 2 <= hi**2


def test_tree_vector_drops_zeros_and_validates():
    t = star_tree(3)
    x = TreeVector(t, {(0,): 1, (1,): 0})
    assert x.support == {(0,)}
    assert x[(1,)] == 0
    with pytest.raises(ValueError):
        TreeVector(t, {(5,): 1})


def test_tree_vector_algebra():
    t = star_tree(3)
    x = unit_vector(t, (0,))
    y = unit_vector(t, (0,), Fraction(-1))
    assert (x.add(y)).support == frozenset()
    assert x.scale(Fraction(2, 3))[(0,)] == Fraction(2, 3)
    with pytest.raises(ValueError):
        x.add(unit_vector(star_tree(4), (0,)))


def test_linear_combination_matches_chained_add_scale():
    for seed in range(40):
        rng = random.Random(seed)
        tree = random_tree(seed=seed, max_nodes=9, max_branch=3)
        nodes = sorted(tree.nodes)
        vectors = [
            TreeVector(tree, {
                t: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for t in rng.sample(nodes, rng.randint(0, len(nodes)))
            })
            for _ in range(rng.randint(1, 4))
        ]
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in vectors]
        chained = TreeVector(tree, {})
        for v, c in zip(vectors, coeffs):
            chained = chained.add(v.scale(c))
        assert linear_combination(tree, vectors, coeffs) == chained
    t = star_tree(3)
    with pytest.raises(ValueError):
        linear_combination(t, [unit_vector(t, (0,)), unit_vector(star_tree(4), (0,))], [1, 1])


def test_restrict():
    t = chain_tree(3)
    x = TreeVector(t, {(): 1, (0,): 2, (0, 0): 3})
    r = x.restrict([(0,), (0, 0)])
    assert r.l1() == 5
    with pytest.raises(ValueError):
        x.restrict([(7,)])


@given(st.dictionaries(st.integers(0, 3), fractions_st, max_size=4))
def test_l1_sup_consistency(entries):
    t = star_tree(4)
    x = TreeVector(t, {(k,): v for k, v in entries.items()})
    assert x.sup() <= x.l1()
    assert (x.sup() == 0) == (not x.support)


def test_base_norm_of_segment():
    t = chain_tree(3)
    x = TreeVector(t, {(): 1, (0, 0): -2})
    v = base_norm_of_segment(x, [(), (0,), (0, 0)], BaseNorm.ell(1))
    assert v == 3
    v = base_norm_of_segment(x, [(0,)], BaseNorm.ell(1))
    assert v == 0
