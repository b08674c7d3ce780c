import itertools
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
    random_tree,
    rank,
    segments_from_ids,
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


def test_enumeration_index_is_count_of_shorter_plus_rank():
    # the bijective numeral against the count of shorter sequences plus the
    # lexicographic rank among those of the same length, in closed form
    for bound in (0, 1, 2, 5):
        base = bound + 1
        for length in range(5):
            for node in itertools.product(range(base), repeat=length):
                shorter = length if base == 1 else (base**length - 1) // (base - 1)
                lex = 0
                for entry in node:
                    lex = lex * base + entry
                assert enumeration_index(node, bound) == shorter + lex, (node, bound)


def test_enumeration_index_rejects_out_of_alphabet():
    with pytest.raises(ValueError):
        enumeration_index((2,), 1)


def test_labels_outside_the_naturals_are_refused():
    # star_tree(3, base_label=-2) gave (-1,) the root's index 0 and (-2,)
    # index -1, below its length
    with pytest.raises(ValueError, match="base_label >= 0"):
        star_tree(3, base_label=-2)
    for entry in (-1, 1.0, "1"):
        with pytest.raises(ValueError, match="is not a natural"):
            enumeration_index((0, entry), 4)
    # FiniteTree refuses a non-natural last entry when it is built; 1.5
    # gave the alphabet bound 1.5 and index((1,)) 2.0, and "a" a TypeError
    # from the sort
    for nodes in ([(-2,), (-1,), (0,)], [(1.5,), (0,), (1,), (0, 0)], [("a",), (0,), (1,)],
                  [(0,), (0, True)]):
        with pytest.raises(ValueError, match="^node entry .* is not a natural$"):
            make_tree(nodes)
    with pytest.raises(ValueError, match="^node entry -1 is not a natural$"):
        FiniteTree([(), (0,), (0, -1)])


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
    deep = chain_tree(3000).order
    assert [len(t) for t in deep] == list(range(3000))


def test_make_tree_closes():
    t = make_tree([(0, 1)])
    assert (0,) in t and () in t and len(t) == 3


def _assert_arena(tree):
    """The arena against the enumeration index and the prefix definitions."""
    order = tree.order
    assert order == sorted(tree.nodes, key=tree.index)
    assert all(tree.id_of[t] == i for i, t in enumerate(order))
    assert tree.parent[0] is None
    for i in range(1, len(order)):
        assert tree.parent[i] < i and order[tree.parent[i]] == order[i][:-1]

    def children(t):
        return sorted(s for s in tree.nodes if len(s) == len(t) + 1 and is_prefix(t, s))

    for t in order:
        assert tree.children(t) == children(t)
    assert tree.leaves() == [t for t in order if not children(t)]


def test_children_sorted():
    t = make_tree([(2,), (0,), (1, 0)])
    assert t.children(()) == [(0,), (1,), (2,)]
    assert t.children((1,)) == [(1, 0)]
    for tree in (t, chain_tree(40), comb_tree(30), star_tree(12, base_label=3), make_tree([()])):
        _assert_arena(tree)


def test_leaves_and_chains():
    t = comb_tree(3)
    leaves = set(t.leaves())
    assert (1,) in leaves
    assert len(leaves) == sum(not kids for kids in t.kids)
    # segments_from_ids(tree, (root id, leaf id) pairs): the prefixes of each leaf, in order
    for tree in (t, comb_tree(40), random_tree(7, 80, 3)):
        chains = segments_from_ids(tree, [(0, tree.id_of[leaf]) for leaf in tree.leaves()])
        assert all(ch.chain[0] == () for ch in chains)
        expected = [[leaf[:i] for i in range(len(leaf) + 1)] for leaf in tree.leaves()]
        assert [ch.chain for ch in chains] == expected
        assert chains == [Segment(tree, c) for c in expected]


def test_segment_validation():
    t = chain_tree(4)
    Segment(t, [(0,), (0, 0)])
    with pytest.raises(ValueError):
        Segment(t, [(), (0, 0)])  # not convex
    t2 = star_tree(2)
    with pytest.raises(ValueError):
        Segment(t2, [(0,), (1,)])  # not a chain
    t3 = make_tree([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="not in the tree"):
        Segment(t3, [(0,), (0, 1)])  # bottom outside the tree
    with pytest.raises(ValueError):
        Segment(t3, [(), (0,), (1,)])  # two nodes of one depth
    with pytest.raises(ValueError):
        Segment(t3, [(), (0, 0)])  # a gap
    with pytest.raises(ValueError):
        Segment(t3, [(0,), (1, 0)])  # consecutive depths, not one chain
    assert Segment(t3, []).chain == []
    seg = Segment(t3, [(0, 0), (), (0,), (0, 0)])  # unsorted, a duplicate
    assert seg.chain == [(), (0,), (0, 0)] and len(seg) == 3


def test_segment_from_ids():
    t = make_tree([(0, 0), (1, 0)])
    ids = t.id_of
    pairs = [((), (0, 0)), ((0,), (0, 0)), ((1, 0), (1, 0)), ((), ())]
    segs = segments_from_ids(t, [(ids[top], ids[bottom]) for top, bottom in pairs])
    assert segments_from_ids(t, []) == []
    for (top, bottom), seg in zip(pairs, segs, strict=True):
        ref = Segment(t, [bottom[:i] for i in range(len(top), len(bottom) + 1)])
        assert seg.chain == ref.chain and seg.nodes == ref.nodes and len(seg) == len(ref)
        assert seg == ref and hash(seg) == hash(ref)
    # a top that is not an ancestor of the bottom: a sibling branch, a
    # deeper node, a node of the same depth, a later id
    for top, bottom in [((1,), (0, 0)), ((0, 0), (0,)), ((1, 0), (0, 0)), ((0, 0), (1, 0))]:
        with pytest.raises(ValueError, match="not a convex chain"):
            segments_from_ids(t, [(ids[(0,)], ids[(0, 0)]), (ids[top], ids[bottom])])


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
    """The original generator: every draw picks a parent from the sorted
    node set.  The set is sorted again only when a draw adds a node, which
    gives the same draws as sorting before every draw."""
    rng = random.Random(seed)
    nodes = {()}
    order = [()]
    while len(nodes) < max_nodes:
        parent = rng.choice(order)
        nodes.add(parent + (rng.randrange(max_branch),))
        if len(nodes) > len(order):
            order = sorted(nodes)
    return FiniteTree(nodes)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_tree_is_valid_and_deterministic(seed):
    a = random_tree(seed=seed, max_nodes=10, max_branch=3)
    b = random_tree(seed=seed, max_nodes=10, max_branch=3)
    assert a == b
    assert a == _reference_random_tree(seed, 10, 3)
    assert random_tree(seed, 40, 2) == _reference_random_tree(seed, 40, 2)
    assert random_tree(seed, 200, 1) == _reference_random_tree(seed, 200, 1)
    assert len(a) <= 10
    # prefix closure is FiniteTree's invariant; reconstruct to re-check
    assert FiniteTree(a.nodes) == a
    _assert_arena(a)
    _assert_arena(random_tree(seed, 40, 2))


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
    # JSON true and false are not naturals, though bool subclasses int
    for node in ([True], [0, False]):
        with pytest.raises(ValueError, match="not a list of naturals"):
            tree_from_json_dict({"nodes": [node]})
    with pytest.raises(ValueError):
        tree_from_json_dict([])


def test_nodes_is_a_view_of_the_arena():
    t = make_tree([(2,), (0, 1), (0, 0)])
    assert t.nodes == t.id_of.keys()
    assert list(t.nodes) == t.order == [(), (0,), (2,), (0, 0), (0, 1)]
    # set operators, membership, len and equality still work
    assert t.nodes - {()} == {(0,), (2,), (0, 0), (0, 1)}
    assert t.nodes & {(0,), (5,)} == {(0,)}
    assert (0, 1) in t.nodes and (1,) not in t.nodes and len(t.nodes) == len(t) == 5
    same = FiniteTree(reversed(t.order))
    assert same == t and same is not t and hash(same) == hash(t)
    assert t != make_tree([(2,), (0, 1)]) and t != chain_tree(5)
