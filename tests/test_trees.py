import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire_lab.trees import (
    FiniteTree,
    Segment,
    chain_tree,
    comb_tree,
    comparable,
    completely_incomparable,
    enumeration_index,
    is_prefix,
    make_tree,
    maximal_chains,
    random_tree,
    rank,
    star_tree,
    tree_from_json_dict,
    tree_to_json_dict,
)

nodes_st = st.lists(st.integers(0, 4), max_size=5).map(tuple)


def test_is_prefix_basics():
    assert is_prefix((), (0, 1))
    assert is_prefix((0,), (0, 1))
    assert not is_prefix((1,), (0, 1))
    assert is_prefix((0, 1), (0, 1))


def test_completely_incomparable():
    assert completely_incomparable([(0,)], [(1,)])
    assert not completely_incomparable([(0,)], [(0, 1)])
    # sets sharing no comparable pair, despite a common ancestor
    assert completely_incomparable([(0, 0)], [(0, 1), (1,)])


def test_enumeration_index_binary_alphabet():
    # alphabet {0, 1}: (), (0), (1), (00), (01), (10), (11), ...
    assert enumeration_index((), 1) == 0
    assert enumeration_index((0,), 1) == 1
    assert enumeration_index((1,), 1) == 2
    assert enumeration_index((0, 0), 1) == 3
    assert enumeration_index((1, 1), 1) == 6


def test_enumeration_index_rejects_out_of_alphabet():
    with pytest.raises(ValueError):
        enumeration_index((2,), 1)


@given(nodes_st, nodes_st)
def test_enumeration_order_is_length_lex(s, t):
    # the enumeration order never depends on the alphabet bound
    for bound in (0, 4, 7):
        # clamp entries into the alphabet (bound 0 is the unary, base-1 case)
        sb, tb = (tuple(min(e, bound) for e in u) for u in (s, t))
        lt = enumeration_index(sb, bound) < enumeration_index(tb, bound)
        assert lt == ((len(sb), sb) < (len(tb), tb))


@given(nodes_st, nodes_st)
def test_enumeration_extends_prefix_order(s, t):
    if is_prefix(s, t) and s != t:
        assert enumeration_index(s, 4) < enumeration_index(t, 4)


def test_tree_requires_prefix_closure():
    with pytest.raises(ValueError):
        FiniteTree([(), (0, 1)])
    with pytest.raises(ValueError, match=r"missing \(0, 0\)"):
        FiniteTree([(), (0,), (0, 0, 0)])
    # deep: 3,000 nodes build and sort by enumeration index quickly
    deep = chain_tree(3000).sorted_nodes()
    assert [len(t) for t in deep] == list(range(3000))


def test_make_tree_closes():
    t = make_tree([(0, 1)])
    assert (0,) in t and () in t and len(t) == 3


def test_children_sorted():
    t = make_tree([(2,), (0,), (1, 0)])
    assert t.children(()) == [(0,), (1,), (2,)]
    assert t.children((1,)) == [(1, 0)]


def test_leaves_and_chains():
    t = comb_tree(3)
    leaves = set(t.leaves())
    assert (1,) in leaves
    chains = maximal_chains(t)
    assert all(ch.chain[0] == () for ch in chains)
    assert len(chains) == len(leaves)


def test_segment_validation():
    t = chain_tree(4)
    Segment(t, [(0,), (0, 0)])
    with pytest.raises(ValueError):
        Segment(t, [(), (0, 0)])  # not convex
    t2 = star_tree(2)
    with pytest.raises(ValueError):
        Segment(t2, [(0,), (1,)])  # not a chain


def test_rank_values():
    assert rank(make_tree([()])) == 0
    assert rank(chain_tree(5)) == 4
    assert rank(star_tree(3)) == 1
    assert rank(comb_tree(4)) == 4
    with pytest.raises(ValueError):
        rank(FiniteTree([]))
    # 3,000 nodes deep: building stays fast and rank does not recurse
    assert rank(chain_tree(3000)) == 2999
    assert rank(comb_tree(1500)) == 1500


def _reference_random_tree(seed, max_nodes, max_branch):
    """The original generator, which re-sorts the node set on every draw."""
    rng = random.Random(seed)
    nodes = {()}
    while len(nodes) < max_nodes:
        parent = rng.choice(sorted(nodes))
        nodes.add(parent + (rng.randrange(max_branch),))
    return FiniteTree(nodes)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_random_tree_is_valid_and_deterministic(seed):
    a = random_tree(seed=seed, max_nodes=10, max_branch=3)
    b = random_tree(seed=seed, max_nodes=10, max_branch=3)
    assert a == b
    assert a == _reference_random_tree(seed, 10, 3)
    assert random_tree(seed, 40, 2) == _reference_random_tree(seed, 40, 2)
    assert len(a) <= 10
    # prefix closure is FiniteTree's invariant; reconstruct to re-check
    assert FiniteTree(a.nodes) == a


def test_json_round_trip():
    t = make_tree([(0, 1), (2,)])
    data = tree_to_json_dict(t)
    back, added = tree_from_json_dict(data)
    assert back == t and added == 0


def test_json_reports_closure():
    _, added = tree_from_json_dict({"nodes": [[0, 1]]})
    assert added == 2


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        tree_from_json_dict({"nodes": "bogus"})
    with pytest.raises(ValueError):
        tree_from_json_dict({"nodes": [["a"]]})
    with pytest.raises(ValueError):
        tree_from_json_dict([])
