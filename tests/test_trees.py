import itertools
import random
import re
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire_lab import trees
from baire_lab.trees import (
    FiniteTree,
    Segment,
    chain_tree,
    closure_entries,
    comb_tree,
    comparable,
    completely_incomparable,
    enumeration_index,
    is_prefix,
    make_tree,
    node_from_json,
    paths_from_json_dict,
    random_tree,
    rank,
    segments_from_ids,
    star_tree,
    tree_from_json_dict,
    tree_from_paths,
    tree_to_json_dict,
)
from baire_lab.vectors import TreeVector

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


def test_tree_builders_need_a_node():
    for build in (chain_tree, star_tree, comb_tree):
        for n in (0, -1):
            with pytest.raises(ValueError, match="^%s needs n >= 1$" % build.__name__):
                build(n)
    with pytest.raises(ValueError, match="^random_tree needs max_nodes >= 1$"):
        random_tree(seed=0, max_nodes=0, max_branch=3)


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
    # deep: a 3,000-node chain is one path, whose trie is built in one walk
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
    assert random_tree(seed, 1, 3) == _reference_random_tree(seed, 1, 3)
    assert random_tree(seed, 25, 5) == _reference_random_tree(seed, 25, 5)
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
    # the first refused node is named, whatever kind of fault a later one has
    for nodes, bad in (([[0], [1, -1], "x", [True]], [1, -1]), ([[0], "x", [1, -1]], "x"),
                       ([[], [0, 1.0], [2]], [0, 1.0]), ([[0, [1]]], [0, [1]])):
        with pytest.raises(ValueError, match="^node %s is not a list of naturals$"
                           % re.escape(repr(bad))):
            tree_from_json_dict({"nodes": nodes})
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


# The sort-based construction that the trie replaced, kept as the reference:
# the prefix closure as a set of prefix tuples, each node's last entry
# checked, the nodes sorted by (length, lex), and every parent found by
# slicing off the last entry.


def _reference_closure(paths):
    closed = set()
    for p in paths:
        p = tuple(p)
        # closed stays prefix-closed, so stop at the first prefix present
        for i in range(len(p), -1, -1):
            if p[:i] in closed:
                break
            closed.add(p[:i])
    return closed


def _reference_arena(nodes):
    """(order, parent, id_of, alphabet_bound, kids) of a prefix-closed node
    collection, or the ValueError of FiniteTree(nodes)."""
    distinct = {tuple(n) for n in nodes}
    lasts = [t[-1] for t in distinct if t]
    if not set(map(type, lasts)) <= {int} or min(lasts, default=0) < 0:
        bad = next(e for e in lasts if type(e) is not int or e < 0)
        raise ValueError("node entry %r is not a natural" % (bad,))
    order = []
    for _, level in groupby(sorted(distinct, key=len), len):
        order.extend(sorted(level))
    id_of = dict(zip(order, range(len(order))))
    try:
        parent = [id_of[t[:-1]] if t else None for t in order]
    except KeyError:
        missing = next(t[:-1] for t in order if t and t[:-1] not in id_of)
        raise ValueError("tree is not prefix-closed: missing %r" % (missing,)) from None
    kids = [[] for _ in order]
    for i, up in enumerate(parent[1:], 1):
        kids[up].append(i)
    return order, parent, id_of, max(lasts, default=0), kids


def _arena(tree):
    return tree.order, tree.parent, tree.id_of, tree.alphabet_bound, tree.kids


def _outcome(build, arg):
    """What build(arg) gives: the arena, with the closure count when build
    returns one, or the message of its ValueError."""
    try:
        out = build(arg)
    except ValueError as e:
        return "ValueError: %s" % e
    if isinstance(out, tuple) and isinstance(out[0], FiniteTree):
        return _arena(out[0]), out[1]
    return _arena(out) if isinstance(out, FiniteTree) else out


def _reference_tree_from_paths(paths):
    arena = _reference_arena(_reference_closure(paths))
    return arena, len(arena[0]) - len({tuple(p) for p in paths})


def _assert_matches_reference(paths, finite_tree=True):
    """tree_from_paths and make_tree against the reference, and unless told
    not to, FiniteTree on the reference closure, in the set's order."""
    ref = _outcome(_reference_tree_from_paths, paths)
    assert _outcome(tree_from_paths, paths) == ref
    assert _outcome(make_tree, paths) == (ref if isinstance(ref, str) else ref[0])
    if finite_tree and not isinstance(ref, str):
        assert _outcome(FiniteTree, _reference_closure(paths)) == ref[0]


def _as_given(path, as_list):
    return list(path) if as_list else tuple(path)


# short paths meet the root walk, long ones (past 12 labels) the walk from
# where a path leaves the last long one
short_paths = st.lists(st.tuples(st.lists(st.integers(0, 3), max_size=5), st.booleans()),
                       max_size=12)
long_paths = st.lists(st.tuples(st.lists(st.sampled_from((0, 0, 0, 1)), max_size=40),
                                st.booleans()), max_size=12)


@given(st.one_of(short_paths, long_paths), st.data())
@settings(max_examples=200, deadline=None)
def test_trie_matches_the_sort_based_reference(drawn, data):
    # tuples and lists, duplicated, shuffled, missing prefixes, empty
    paths = [_as_given(p, as_list) for p, as_list in drawn]
    if paths:
        paths += data.draw(st.lists(st.sampled_from(paths), max_size=4))
    paths = data.draw(st.permutations(paths))
    _assert_matches_reference(paths)
    # FiniteTree on a shuffled part of the closure: the same arena or the
    # same "missing" message
    closed = sorted(_reference_closure(paths))
    kept = data.draw(st.permutations([t for t, keep in zip(
        closed, data.draw(st.lists(st.booleans(), min_size=len(closed), max_size=len(closed))))
        if keep]))
    assert _outcome(FiniteTree, kept) == _outcome(_reference_arena, kept)


def _listed(tree):
    return [list(t) for t in tree.order]


def test_shapes_match_the_reference():
    for n in (1, 2, 13, 14, 40, 300):
        chain = [(0,) * i for i in range(n)]
        comb = chain + [(0,) * i + (1,) for i in range(n)]
        star = [(i,) for i in range(n)]
        for nodes in (chain, comb, star):
            # every prefix listed: in enumeration order, in the benchmark's
            # order (spine first), reversed, as lists; then the leaves alone
            enum, _, _, _, kids = _reference_arena(_reference_closure(nodes))
            leaves = [t for t, k in zip(enum, kids) if not k]
            for paths in (enum, nodes, enum[::-1], [list(t) for t in nodes], leaves):
                _assert_matches_reference(paths)
        assert _arena(chain_tree(n)) == _reference_arena(chain)
        assert _arena(comb_tree(n)) == _reference_arena(comb + [(0,) * (n - 1) + (1,)])
        assert _arena(star_tree(n, base_label=3)) == _reference_arena([()] + [(3 + i,) for i in range(n)])


BAD_LABELS = (-1, -7, 1.5, "1", "a", 1.0, 0.0, True, False)


@given(st.one_of(short_paths, long_paths), st.sampled_from(BAD_LABELS), st.data())
@settings(max_examples=200, deadline=None)
def test_label_refusals_match_the_reference(drawn, bad, data):
    # one non-natural value put in at some places; 1.0, 0.0, True and False
    # equal a natural, and make_tree refuses them exactly where the
    # reference does: where no earlier path put that natural.  FiniteTree
    # checks each label where it first enters the trie, the reference only
    # each node's last entry, so on a node set that lists a deeper node
    # first, a value equal to a natural can meet one check and not the
    # other; the others are refused by both wherever they stand
    paths = [list(p) for p, _ in drawn]
    for p in paths:
        for j in data.draw(st.lists(st.integers(0, len(p)), max_size=2)):
            p.insert(j, bad)
    paths = [_as_given(p, as_list) for p, (_, as_list) in zip(paths, drawn)]
    _assert_matches_reference(paths, finite_tree=bad not in (0, 1))


def test_pinned_refusals_match_the_reference():
    # the refusals pinned above, through both constructions
    for nodes in ([(-2,), (-1,), (0,)], [(1.5,), (0,), (1,), (0, 0)], [("a",), (0,), (1,)],
                  [(0,), (0, True)]):
        ref = _outcome(_reference_arena, _reference_closure(nodes))
        assert ref.startswith("ValueError: node entry ")
        assert _outcome(make_tree, nodes) == ref
        assert _outcome(tree_from_paths, nodes) == ref
    for nodes in ([(), (0, -1)], [(), (0, 1)], [(), (0,), (0, 0, 0)], [(0,)], [(1, 0), (0,)]):
        ref = _outcome(_reference_arena, nodes)
        assert ref.startswith("ValueError: ")
        assert _outcome(FiniteTree, nodes) == ref


def test_nodes_are_the_trees_own_int_tuples():
    # every node is built from the trie's int labels: a node given as a
    # tuple or a list stands in the tree as an equal tuple the tree made,
    # and id_of is keyed by those same tuples
    t = make_tree([(0, 1), [2, 0], (2, 0, 0), tuple([0, 1])])
    assert t.order == [(), (0,), (2,), (0, 1), (2, 0), (2, 0, 0)]
    assert all(type(n) is tuple and all(type(e) is int for e in n) for n in t.order)
    assert all(n is m for n, m in zip(t.id_of, t.order))
    # an equal label of another type is not new, so the trie takes it as
    # the natural already there, unchecked, and the node holds that natural
    t = make_tree([(7, 1), (7, 1.0, 0), (7, True)])
    assert t.order == [(), (7,), (7, 1), (7, 1, 0)] and len(t) == 4
    assert all(type(e) is int for n in t.order for e in n)
    assert t.alphabet_bound == 7
    t = FiniteTree([(), (0,), (0, 1, 0), (0, 1.0)])
    assert t.order == [(), (0,), (0, 1), (0, 1, 0)]
    assert all(type(e) is int for n in t.order for e in n)


# a float or a bool equal to each of the naturals 0 and 1
EQUAL_LABELS = {0: (0.0, False), 1: (1.0, True)}


@given(st.one_of(short_paths, long_paths), st.data())
@settings(max_examples=200, deadline=None)
def test_every_node_and_vector_key_is_the_trees_own_int_tuple(drawn, data):
    # tuple and list paths, then copies of some of them with 1.0, 0.0, True
    # or False in place of an equal natural; each copy comes after the path
    # it copies, so the trie holds its labels already and takes them
    # unchecked
    paths = [_as_given(p, as_list) for p, as_list in drawn]
    copies = []
    for p in data.draw(st.lists(st.sampled_from(paths), max_size=4)) if paths else []:
        c = list(p)
        for j in data.draw(st.lists(st.integers(0, len(c) - 1), max_size=3)) if c else []:
            if c[j] in EQUAL_LABELS:
                c[j] = data.draw(st.sampled_from(EQUAL_LABELS[c[j]]))
        copies.append(_as_given(c, data.draw(st.booleans())))
    tree, _ = tree_from_paths(paths + copies)
    assert tree == make_tree(paths)
    assert all(type(t) is tuple and all(type(e) is int for e in t) for t in tree.order)
    assert all(t is u for t, u in zip(tree.id_of, tree.order))
    x = TreeVector(tree, {tuple(c): k for k, c in enumerate(copies, 1)})
    assert len(x.ids) == len({tuple(c) for c in copies})
    assert all(t is tree.order[i] for t, i in zip(x.entries, x.ids))


@given(st.one_of(short_paths, long_paths), st.sampled_from(("lists", "tuples", "mixed")),
       st.data())
@settings(max_examples=200, deadline=None)
def test_closure_entries_counts_the_closure(drawn, kind, data):
    # lists, tuples or both mixed, duplicated, shuffled, missing prefixes,
    # empty; mixed input raised TypeError from the sort
    paths = [_as_given(p, as_list if kind == "mixed" else kind == "lists") for p, as_list in drawn]
    if paths:
        paths += data.draw(st.lists(st.sampled_from(paths), max_size=4))
    paths = data.draw(st.permutations(paths))
    assert closure_entries(paths) == sum(map(len, make_tree(paths).order))


def test_trie_follows_long_paths_of_mixed_types(monkeypatch):
    # a list slice never equals a tuple slice: with lists and tuples
    # alternating, every long path of a comb was walked from the root
    order = comb_tree(200).order
    common = trees._common_prefix

    def prefixes(paths):
        found = []

        def recorded(p, q):
            found.append(common(p, q))
            return found[-1]

        with monkeypatch.context() as m:
            m.setattr(trees, "_common_prefix", recorded)
            return make_tree(paths), found

    tree, found = prefixes(order)
    assert tree == comb_tree(200) and max(found) == 198
    assert prefixes([list(t) if i % 2 else t for i, t in enumerate(order)]) == (tree, found)
    assert prefixes([list(t) for t in order]) == (tree, found)


def test_closure_entries_of_the_shapes():
    # every prefix listed, shuffled, and the leaves alone: the comb of n
    # teeth has n**2 closure entries, the chain of n nodes n(n - 1)/2
    rng = random.Random(0)
    for n in (1, 2, 13, 14, 40):
        for tree, entries in ((comb_tree(n), n * n), (chain_tree(n), n * (n - 1) // 2)):
            listed = _listed(tree)
            rng.shuffle(listed)
            assert closure_entries(listed) == entries
            assert closure_entries(tree.leaves()) == entries
    assert closure_entries([]) == closure_entries([()]) == 0


# The per-node loader that the two-pass check replaced, kept as the
# reference: every node through node_from_json, in order.


def _reference_paths_from_json_dict(data):
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise ValueError('tree JSON needs a "nodes" list')
    return [node_from_json(t) for t in data["nodes"]]


# what a JSON file can hold where a node or an entry should be
json_scalars = st.one_of(st.integers(-3, 5), st.sampled_from((1.0, 0.0, -1.5, True, False, None)),
                         st.text(max_size=2))
json_entries = st.one_of(st.integers(0, 5), json_scalars,
                         st.lists(st.integers(0, 3), max_size=2))
json_nodes = st.one_of(st.lists(st.integers(0, 5), max_size=6),
                       st.lists(json_entries, max_size=4), json_scalars,
                       st.dictionaries(st.text(max_size=1), st.integers(0, 3), max_size=1))


@given(st.lists(json_nodes, max_size=8), st.lists(st.lists(st.integers(0, 5), max_size=6), max_size=8),
       st.data())
@settings(max_examples=300, deadline=None)
def test_paths_from_json_dict_matches_the_per_node_reference(drawn, valid, data):
    # valid nodes, empty ones, and nodes holding negatives, 1.0, bools,
    # strings, None, nested lists, or no list at all, mixed in at random
    # places: the same list of the same list objects, or the same message
    nodes = data.draw(st.permutations(valid + drawn))
    for d in ({"nodes": nodes}, {"nodes": valid}):
        try:
            ref = _reference_paths_from_json_dict(d)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                paths_from_json_dict(d)
            assert str(got.value) == str(e)
        else:
            out = paths_from_json_dict(d)
            assert out == ref and all(a is b for a, b in zip(out, ref))
            assert out is not d["nodes"]


def test_a_valid_tree_file_makes_no_call_per_node(monkeypatch):
    # the two passes check every node of a valid file: node_from_json runs
    # only to name the first refused node of a file that fails
    calls = []

    def counted(t):
        calls.append(t)
        return node_from_json(t)

    monkeypatch.setattr(trees, "node_from_json", counted)
    nodes = _listed(comb_tree(40)) + [[]]
    assert paths_from_json_dict({"nodes": nodes}) == nodes
    tree, added = tree_from_json_dict({"nodes": nodes})
    assert tree == comb_tree(40) and added == 0 and calls == []
    with pytest.raises(ValueError, match="not a list of naturals"):
        paths_from_json_dict({"nodes": nodes + [[0, -1]]})
    assert len(calls) == len(nodes) + 1
