"""Finite trees on N: prefix order, enumeration, segments, rank, generators.

A node is a tuple of naturals; the empty tuple () is the root.  A tree is a
finite prefix-closed set of nodes.  Every norm in this package is indexed by
such a tree, and admissibility conditions refer to the canonical
(length, lexicographic) enumeration over the tree's own alphabet bound.
"""

import bisect
import random


def is_prefix(s, t):
    """True iff s is an initial segment of t (s = t allowed)."""
    return len(s) <= len(t) and t[: len(s)] == s


def comparable(s, t):
    return is_prefix(s, t) or is_prefix(t, s)


def completely_incomparable(a, b):
    """True iff no node of a is comparable with any node of b."""
    return all(not comparable(s, t) for s in a for t in b)


def enumeration_index(node, alphabet_bound):
    """Canonical (length, then lexicographic) index over alphabet {0..B}.

    Shorter sequences come first, so the index is compatible with the
    prefix order: s a strict prefix of t implies index(s) < index(t).
    The root () always has index 0.
    """
    base = alphabet_bound + 1
    n = len(node)
    # count of strictly shorter sequences: 1 + base + ... + base**(n-1)
    shorter = n if base == 1 else (base**n - 1) // (base - 1)
    # lexicographic rank among sequences of the same length, by Horner
    lex = 0
    for entry in node:
        if entry > alphabet_bound:
            raise ValueError(
                "node entry %d exceeds alphabet bound %d" % (entry, alphabet_bound)
            )
        lex = lex * base + entry
    return shorter + lex


class FiniteTree:
    """Immutable prefix-closed finite set of nodes.

    Construct through make_tree, which takes the prefix closure of its
    input.  The per-tree alphabet bound (max entry occurring anywhere in
    the tree) fixes the canonical enumeration used by index().
    """

    def __init__(self, nodes):
        nodes = frozenset(tuple(n) for n in nodes)
        # every parent present implies every prefix present, by induction
        for t in nodes:
            if t and t[:-1] not in nodes:
                raise ValueError("tree is not prefix-closed: missing %r" % (t[:-1],))
        if nodes and () not in nodes:
            raise ValueError("nonempty tree must contain the root ()")
        self.nodes = nodes
        self.alphabet_bound = max((max(t) for t in nodes if t), default=0)
        self._children = {}
        for t in nodes:
            self._children.setdefault(t, [])
            if t:
                self._children.setdefault(t[:-1], []).append(t)
        for kids in self._children.values():
            kids.sort()

    def __contains__(self, node):
        return tuple(node) in self.nodes

    def __len__(self):
        return len(self.nodes)

    def __eq__(self, other):
        return isinstance(other, FiniteTree) and self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self):
        return "FiniteTree(%d nodes)" % len(self.nodes)

    def children(self, node):
        return self._children[tuple(node)]

    def index(self, node):
        """Enumeration index of a node under this tree's alphabet bound."""
        return enumeration_index(tuple(node), self.alphabet_bound)

    def sorted_nodes(self):
        """All nodes in enumeration order."""
        return sorted(self.nodes, key=self.index)

    def leaves(self):
        return [t for t in self.nodes if not self._children[t]]


def make_tree(paths):
    """Prefix closure of the given paths, as a FiniteTree."""
    closed = set()
    for p in paths:
        p = tuple(p)
        # closed stays prefix-closed, so stop at the first prefix present
        for i in range(len(p), -1, -1):
            if p[:i] in closed:
                break
            closed.add(p[:i])
    return FiniteTree(closed)


class Segment:
    """A chain of a tree that is convex for the prefix order.

    The constructor validates both total comparability and convexity
    inside the ambient tree.
    """

    def __init__(self, tree, nodes):
        nodes = frozenset(tuple(n) for n in nodes)
        for t in nodes:
            if t not in tree.nodes:
                raise ValueError("segment node %r is not in the tree" % (t,))
        chain = sorted(nodes, key=len)
        for s, t in zip(chain, chain[1:]):
            if not is_prefix(s, t):
                raise ValueError("segment is not totally ordered: %r, %r" % (s, t))
        if chain:
            top, bottom = chain[0], chain[-1]
            for i in range(len(top), len(bottom)):
                if bottom[:i] not in nodes:
                    raise ValueError("segment is not convex: missing %r" % (bottom[:i],))
        self.tree = tree
        self.nodes = nodes
        self.chain = chain

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.chain)

    def __eq__(self, other):
        return isinstance(other, Segment) and self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self):
        return "Segment(%r)" % (self.chain,)


def maximal_chains(tree):
    """All root-to-leaf paths of the tree, as Segments."""
    chains = []
    for leaf in sorted(tree.leaves(), key=tree.index):
        chains.append(Segment(tree, [leaf[:i] for i in range(len(leaf) + 1)]))
    return chains


def rank(tree):
    """Finite ordinal rank: 0 for {()}, else 1 + max rank of child subtrees.

    For a prefix-closed tree that is the length of its longest node.
    """
    if not tree.nodes:
        raise ValueError("empty tree has no rank")
    return max(len(t) for t in tree.nodes)


def chain_tree(n):
    """Single branch with n nodes: (), (0), (0,0), ..."""
    if n < 1:
        raise ValueError("chain_tree needs n >= 1")
    return make_tree([(0,) * (n - 1)])


def star_tree(n, base_label=0):
    """Root plus n incomparable children (b), (b+1), ..., (b+n-1).

    base_label shifts the children's enumeration indices, which is what
    admissibility experiments tune (k <= E_1 needs large indices).
    """
    if n < 1:
        raise ValueError("star_tree needs n >= 1")
    return make_tree([(base_label + i,) for i in range(n)])


def comb_tree(n):
    """A chain of n nodes with one extra leaf hanging off each chain node."""
    if n < 1:
        raise ValueError("comb_tree needs n >= 1")
    paths = [(0,) * (n - 1)]
    for i in range(n - 1):
        paths.append((0,) * i + (1,))
    paths.append((0,) * (n - 1) + (1,))
    return make_tree(paths)


def random_tree(seed, max_nodes, max_branch):
    """Deterministic-in-seed random tree with at most max_nodes nodes."""
    if max_nodes < 1:
        raise ValueError("random_tree needs max_nodes >= 1")
    rng = random.Random(seed)
    nodes = {()}
    order = [()]  # the nodes, kept sorted so each choice matches the seed
    while len(nodes) < max_nodes:
        parent = rng.choice(order)
        child = parent + (rng.randrange(max_branch),)
        if child not in nodes:
            nodes.add(child)
            bisect.insort(order, child)
    return FiniteTree(nodes)


def tree_to_json_dict(tree):
    return {"nodes": [list(t) for t in sorted(tree.nodes, key=tree.index)]}


def tree_from_json_dict(data):
    """Read {"nodes": [[...], ...]}; closure is applied and reported.

    Returns (tree, closure_added) where closure_added counts nodes the
    prefix closure had to add.
    """
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise ValueError('tree JSON needs a "nodes" list')
    raw = []
    for t in data["nodes"]:
        if not isinstance(t, list) or not all(
            isinstance(e, int) and e >= 0 for e in t
        ):
            raise ValueError("tree node %r is not a list of naturals" % (t,))
        raw.append(tuple(t))
    tree = make_tree(raw)
    return tree, len(tree.nodes) - len(set(raw))
