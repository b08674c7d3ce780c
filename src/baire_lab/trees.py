"""Finite trees on N: prefix order, enumeration, segments, rank, generators.

A node is a tuple of naturals; the empty tuple () is the root.  A tree is a
finite prefix-closed set of nodes.  Every norm in this package is indexed by
such a tree, and admissibility conditions refer to the canonical
(length, lexicographic) enumeration over the tree's own alphabet bound.

A FiniteTree also keeps its nodes as an arena: it numbers them 0..N-1 once,
in enumeration order, and keeps the parent and the children of each node as
ids.  A parent is shorter than its children, so it comes first: parent[i] < i
for every id i > 0, the root is id 0, and a pass over descending ids sees
every node after all of its descendants (bottom-up).  Tuples are hashed only
where a caller's node meets the arena, through id_of: once per entry when a
TreeVector is built, and once per node when a Segment is given its nodes.
Walks along the tree read integer lists, and a Segment made from two ids
(segments_from_ids) hashes no tuple until its node set is asked for.

The arena is built from a trie of the input paths, keyed by label: every
prefix of a path is a trie node and every trie node is such a prefix, so
the trie's nodes are the prefix closure.  A walk of the trie gives the
arena with no prefix set, no sort of tuples and no parent lookup.  Each
node is its parent's tuple plus its trie label, so every node is a tuple
of ints that the tree made, not the input's tuple or list; a TreeVector
keys its entries by these same tuples.

A tree file, {"nodes": [[...], ...]}, is checked by paths_from_json_dict
in two passes over the whole file, not one call per node: one in C that
each node is a list, then one generator over all of their entries that
each is a natural (an int, not a bool, and >= 0).  Only a file that fails
is walked node by node, by node_from_json, to name its first refused node.
The trie then checks only the labels that make new trie nodes, which is
what a caller that gives paths directly (make_tree, FiniteTree) relies on.

Breadth-first lemma.  Walk the trie breadth-first from the root, a queue
of nodes, and at each node append its children in ascending label order.
Then the queue lists the nodes in enumeration order, parent[i] (the
position of the node being visited when i was appended) is < i, and the
children of a node hold consecutive ascending ids.  Proof: by induction
on the depth d, the depth-d nodes stand in the queue consecutively, in
lexicographic order, after every shallower node.  This holds at d = 0,
the root alone.  The depth-(d+1) nodes are exactly the children of the
depth-d nodes, appended while those are visited; by hypothesis that is
after every node of depth <= d was appended, and in the depth-d nodes'
lexicographic order.  For s < s' of depth d, s + (a,) < s' + (b,)
lexicographically whatever a and b are, and s + (a,) < s + (b,) iff
a < b; so visiting s before s', each with its labels ascending, appends
the depth-(d+1) nodes in lexicographic order, and each node's children in
one run.  Length first, then lexicographic, is the enumeration order; a
node is appended only while its parent is visited, after the parent was
appended, so parent[i] < i.
"""

import bisect
import random
from functools import cached_property
from itertools import islice, repeat


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

    The index is the bijective base-b numeral of the entries plus one,
    b = B + 1: for a node e_1 ... e_d,

        sum_i (e_i + 1) * b**(d - i) = sum_{k<d} b**k + sum_i e_i * b**(d - i),

    the count of the strictly shorter sequences plus the lexicographic rank
    among those of length d.  Shorter sequences come first, so the index
    is compatible with the prefix order: s a strict prefix of t implies
    index(s) < index(t).  The root () always has index 0, and every entry
    adds at least 1, so index(t) >= len(t); an entry that is not a natural
    would break that, and is refused.
    """
    base = alphabet_bound + 1
    index = 0
    for entry in node:
        # type, not isinstance, as in node_from_json: a bool is no label
        if type(entry) is not int or entry < 0:
            raise ValueError("node entry %r is not a natural" % (entry,))
        if entry > alphabet_bound:
            raise ValueError(
                "node entry %d exceeds alphabet bound %d" % (entry, alphabet_bound)
            )
        index = index * base + entry + 1
    return index


class FiniteTree:
    """Immutable prefix-closed finite set of nodes, with its arena.

    FiniteTree(nodes) takes a prefix-closed collection of nodes and refuses
    any other; make_tree takes the prefix closure of its input.  Both build
    the arena from the trie of their input (see the module docstring).  The
    per-tree alphabet bound (max entry occurring anywhere in the tree) fixes
    the canonical enumeration used by index().

    The arena, read-only: order[i] is the node with id i, in enumeration
    order; id_of maps a node to its id, and its keys, in enumeration
    order, are the node set (nodes); parent[i] is the id of its parent
    (None for the root); kids[i] lists the ids of its children, ascending,
    which is their sorted order.  kids is built on first use, since only
    walks down the tree need it.

    Every entry of every node must be a natural, as enumeration_index
    checks it; the trie refuses any other label where it first goes in,
    before it can sway the alphabet bound and with it every index.  A later
    label equal to a trie label, as 1.0 or True to 1, is not new and goes
    unchecked.  Every node is built from the trie's labels, so it is a
    tuple of ints whatever the input gave, and no input tuple or list is
    kept: make_tree([(7, 1), (7, 1.0, 0)]) holds (7, 1, 0).
    """

    def __init__(self, nodes):
        ends, trie_of = self._build(nodes)
        if len(ends) < len(trie_of):
            # the trie holds a prefix that no input node is: report the
            # parent of the first input node, in enumeration order, whose
            # parent is not an input node
            given = [t in ends for t in trie_of]
            missing = next(self.order[up] for i, up in enumerate(islice(self.parent, 1, None), 1)
                           if given[i] and not given[up])
            raise ValueError("tree is not prefix-closed: missing %r" % (missing,))

    def _build(self, paths):
        """Fill the arena with the prefix closure of the paths, walking
        their trie breadth-first with each node's labels sorted (the
        breadth-first lemma).  Returns the trie's ends (see _trie) and
        trie_of, the trie node of each id."""
        below, ends = _trie(paths)
        # without a path there is no root either: the empty tree
        order, parent, trie_of = ([()], [None], [0]) if ends else ([], [], [])
        # the walk reaches every trie node; one int object per id, shared
        # by parent and id_of
        ids = list(range(len(below)))
        bound = 0
        # trie_of grows as it is read: it is the walk's queue
        for i, t in zip(ids, trie_of):
            kids = below[t]
            if kids:
                node = order[i]
                for label in sorted(kids):
                    order.append(node + (label,))
                    parent.append(i)
                    trie_of.append(kids[label])
                if label > bound:
                    bound = label
        self.order = order
        self.id_of = dict(zip(order, ids))
        self.parent = parent
        self.alphabet_bound = bound
        return ends, trie_of

    @property
    def nodes(self):
        """The nodes, a read-only view of id_of, in enumeration order."""
        return self.id_of.keys()

    def __contains__(self, node):
        return tuple(node) in self.id_of

    def __len__(self):
        return len(self.order)

    def __eq__(self, other):
        # equal node sets have equal enumeration orders
        return isinstance(other, FiniteTree) and self.order == other.order

    def __hash__(self):
        return hash(tuple(self.order))

    def __repr__(self):
        return "FiniteTree(%d nodes)" % len(self.order)

    @cached_property
    def kids(self):
        """kids[i] lists the ids of the children of id i, ascending."""
        kids = [[] for _ in self.order]
        for i, up in enumerate(islice(self.parent, 1, None), 1):
            kids[up].append(i)
        return kids

    def children(self, node):
        """The children of a node, in sorted order."""
        order = self.order
        return [order[k] for k in self.kids[self.id_of[tuple(node)]]]

    def nearest_ancestors(self, ids):
        """For nonempty ascending ids, the position in ids of the nearest
        proper ancestor of each id among them, or None.

        Walks parent ids up from each id; ids fall along the walk, and none
        below the first id is among them, so the walk stops there.
        """
        pos = {v: i for i, v in enumerate(ids)}
        parent, first = self.parent, ids[0]
        up = []
        for v in ids:
            while v > first:
                v = parent[v]
                if v in pos:
                    up.append(pos[v])
                    break
            else:
                up.append(None)
        return up

    def index(self, node):
        """Enumeration index of a node under this tree's alphabet bound."""
        return enumeration_index(tuple(node), self.alphabet_bound)


def make_tree(paths):
    """Prefix closure of the given paths, as a FiniteTree."""
    return tree_from_paths(paths)[0]


# a path of at most this many labels is walked from the trie's root, which
# costs about what finding where it leaves the last long path would
_SHORT_PATH = 12


def _trie(paths):
    """The trie of the paths: below[t] maps each label under trie node t to
    its trie node, 0 is the root, and ends is the set of the trie nodes a
    path ends at, one per distinct path.

    Every path is walked by one loop, which makes each new trie node
    inline and checks its label to be a natural where it first goes in.
    A long path starts that walk where it leaves the last long path, so a
    file that lists every prefix of a deep node costs slice comparisons in
    C, not one dict lookup per entry.  trail[d] is the trie node of the
    last long path's first d labels; it is cut back to where the next long
    path leaves that one, and extended along it only as far as that, with
    lookups of nodes the trie holds already.  A list slice never equals a
    tuple slice, so the last long path takes the type of the next one.
    """
    below = [{}]
    ends = set()
    trail, last = [0], ()
    for p in paths:
        t = 0
        if len(p) > _SHORT_PATH:
            if type(p) is not type(last):
                last = tuple(last) if type(p) is tuple else list(last)
            k = _common_prefix(p, last)
            del trail[k + 1:]
            t = trail[-1]
            for label in p[len(trail) - 1:k]:
                t = below[t][label]
                trail.append(t)
            last, p = p, p[k:]
        for label in p:
            kids = below[t]
            t = kids.get(label)
            if t is None:
                # type, not isinstance, as in enumeration_index: a bool is
                # no label
                if type(label) is not int or label < 0:
                    raise ValueError("node entry %r is not a natural" % (label,))
                t = kids[label] = len(below)
                below.append({})
        ends.add(t)
    return below, ends


def closure_entries(paths):
    """The entries of all nodes of the prefix closure of the paths, counted
    without building it: in sorted order, each path adds its prefixes
    longer than its common prefix with the path before it.

    A list never equals or sorts with a tuple, so paths of more than one
    type are compared as tuples; paths of one type are read as given."""
    paths = list(paths)
    if len(set(map(type, paths))) > 1:
        paths = list(map(tuple, paths))
    total, last = 0, ()
    for p in sorted(paths):
        common = _common_prefix(p, last)
        total += (len(p) * (len(p) + 1) - common * (common + 1)) // 2
        last = p
    return total


def _common_prefix(p, q):
    """The length of the longest common prefix of p and q, in O(log) slice
    comparisons, each in C.

    The search gallops down from the shorter length, then bisects: in a
    file that lists every prefix, consecutive paths share all but their
    last label or two, and the first or second comparison settles it.
    """
    lo = hi = min(len(p), len(q))
    step = 0
    # the common prefix is at most hi; p[:lo] == q[:lo] once the loop ends;
    # the label at lo - 1 is tested first, as it often settles a probe
    while lo and (p[lo - 1] != q[lo - 1] or p[:lo] != q[:lo]):
        hi = lo - 1
        lo = max(hi - step, 0)
        step = 2 * step + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if p[lo:mid] == q[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


class Segment:
    """A chain of a tree that is convex for the prefix order.

    chain lists its nodes from the top down, as the tree's own tuples;
    nodes, their frozenset, is built on first use, and equality and hashing
    go through it.  Segment(tree, nodes) validates any node collection in
    one pass: sorted by length, the nodes are the prefixes of the deepest,
    one per depth, and the deepest is in the (prefix-closed) tree.  That
    costs O(L * d) for L nodes of depth up to d, since every node is
    hashed and compared with a prefix of the deepest; segments_from_ids
    takes arena ids instead and hashes nothing.
    """

    def __init__(self, tree, nodes):
        nodes = frozenset(tuple(n) for n in nodes)
        chain = sorted(nodes, key=len)
        if chain:
            top, bottom = chain[0], chain[-1]
            if bottom not in tree.nodes:
                raise ValueError("segment node %r is not in the tree" % (bottom,))
            for depth, t in enumerate(chain, len(top)):
                if len(t) != depth or bottom[:depth] != t:
                    raise ValueError("segment is not a convex chain at %r" % (t,))
        self.tree = tree
        self.nodes = nodes
        self.chain = chain

    @cached_property
    def nodes(self):
        return frozenset(self.chain)

    def __len__(self):
        return len(self.chain)

    def __iter__(self):
        return iter(self.chain)

    def __eq__(self, other):
        return isinstance(other, Segment) and self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self):
        return "Segment(%r)" % (self.chain,)


def segments_from_ids(tree, pairs):
    """The segment from arena id top down to arena id bottom, for each
    (top, bottom) of pairs, in order: one pass, with the tree's arena read
    once.

    The walk up parent ids from the bottom is the convexity check: ids
    fall along it, so it stops at the first id <= top, which is the top
    exactly when the top is an ancestor of the bottom (or the bottom
    itself).  O(L) for L nodes, and no node is hashed.
    """
    order, parent = tree.order, tree.parent
    new = Segment.__new__
    out = []
    for top, u in pairs:
        chain = [order[u]]
        while u > top:
            u = parent[u]
            chain.append(order[u])
        if u != top:
            raise ValueError("segment is not a convex chain at %r" % (order[top],))
        chain.reverse()
        seg = new(Segment)
        seg.tree = tree
        seg.chain = chain
        out.append(seg)
    return out


def rank(tree):
    """Finite ordinal rank: 0 for {()}, else 1 + max rank of child subtrees.

    For a prefix-closed tree that is the length of its longest node, the
    last id of the arena.
    """
    if not tree.nodes:
        raise ValueError("empty tree has no rank")
    return len(tree.order[-1])


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
    if base_label < 0:
        raise ValueError("star_tree needs base_label >= 0")
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
    # the nodes drawn so far, kept sorted so each draw matches the seed
    order = [()]
    seen = {()}
    while len(order) < max_nodes:
        child = rng.choice(order) + (rng.randrange(max_branch),)
        if child not in seen:
            seen.add(child)
            bisect.insort(order, child)
    return FiniteTree(order)


def tree_to_json_dict(tree):
    return {"nodes": [list(t) for t in tree.order]}


def _naturals(nodes):
    """True iff every entry of every node is a natural: one generator for
    all the nodes, with no set-up per node."""
    # type, not isinstance: JSON true and false are bools, an int subclass
    return all(type(e) is int and e >= 0 for t in nodes for e in t)


def node_from_json(t):
    """The JSON list t, checked to be a list of naturals."""
    if not isinstance(t, list) or not _naturals((t,)):
        raise ValueError("node %r is not a list of naturals" % (t,))
    return t


def paths_from_json_dict(data):
    """The nodes listed in {"nodes": [[...], ...]}, each the checked JSON
    list itself: the tree builds its own tuples.  The whole list is checked
    in two passes (see the module docstring); only a file that fails is
    walked node by node, to name its first refused node."""
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise ValueError('tree JSON needs a "nodes" list')
    nodes = data["nodes"]
    if all(map(isinstance, nodes, repeat(list))) and _naturals(nodes):
        return list(nodes)
    return [node_from_json(t) for t in nodes]


def tree_from_paths(paths):
    """The prefix closure of the paths and the count of nodes it added."""
    tree = FiniteTree.__new__(FiniteTree)
    ends, _ = tree._build(paths)
    return tree, len(tree) - len(ends)


def tree_from_json_dict(data):
    """Read {"nodes": [[...], ...]}; closure is applied and reported.

    Returns (tree, closure_added) where closure_added counts nodes the
    prefix closure had to add.
    """
    return tree_from_paths(paths_from_json_dict(data))
