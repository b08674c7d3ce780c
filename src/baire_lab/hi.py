"""Ground norm, norming-set lower/upper bounds, and the growth schedule.

The ground functionals are +-1 sign patterns along chains; their sup is
the ground norm (a max signed chain sum, equal to the 0-Baire norm with
l_1 base).  Lower bounds for the full norming-set norm come from a
bounded-depth search over functionals built from ground functionals by
nested averaging operations (1/m)(f_1 + ... + f_k), k <= n, with
successively supported f_i.  Every functional the search builds is a
member of the norming set by construction, so the bound is certified;
the l_1 norm is the matching certified upper bound (all functional
entries stay in [-1, 1]).

The averaging layer decomposes over enumeration-index windows: the best
value on a window is monotone under window inclusion, so the optimal
k-term combination splits the window into at most k consecutive runs.
That makes the whole search polynomial in the support size.
"""

from fractions import Fraction

from baire_lab.trees import is_prefix
from baire_lab.vectors import TreeVector

#: small admissible (m, n) pairs for desk-scale experiments
DESK_PAIRS = [(2, 4), (2, 8), (2, 16), (4, 64)]


class Schedule:
    """Exact big-integer sequences (m_j), (n_j) plus desk-scale pairs."""

    def __init__(self, m, n, scaled_pairs):
        self.m = m
        self.n = n
        self.scaled_pairs = scaled_pairs

    def __repr__(self):
        return "Schedule(j_max=%d)" % len(self.m)


def schedule(j_max):
    """m_1 = 2, m_{j+1} = m_j**5; n_1 = 4, n_{j+1} = (5 n_j)**s_j with
    s_j = log2(m_{j+1}**3), an integer because every m_j is a power of 2."""
    if j_max < 1:
        raise ValueError("schedule needs j_max >= 1")
    m = [2]
    n = [4]
    for _ in range(j_max - 1):
        m_next = m[-1] ** 5
        s = (3 * m_next.bit_length() - 3)  # log2(m_next**3), m_next = 2**e
        n.append((5 * n[-1]) ** s)
        m.append(m_next)
    return Schedule(m, n, list(DESK_PAIRS))


class Functional:
    """Tree-indexed rational functional with a replayable derivation."""

    def __init__(self, entries, provenance):
        clean = {}
        for node, value in entries.items():
            value = Fraction(value)
            if value:
                if abs(value) > 1:
                    raise ValueError(
                        "functional entry %s at %r leaves [-1, 1]" % (value, node)
                    )
                clean[tuple(node)] = value
        self.entries = clean
        self.provenance = provenance

    def __call__(self, x):
        return sum(
            (v * x[node] for node, v in self.entries.items()), Fraction(0)
        )

    def support(self):
        return frozenset(self.entries)

    def __repr__(self):
        return "Functional(%r)" % (self.provenance,)


def ground_functional(nodes_and_signs):
    """+-1 signs along a chain of nodes."""
    chain = sorted((tuple(n) for n, _ in nodes_and_signs), key=len)
    for s, t in zip(chain, chain[1:]):
        if not is_prefix(s, t):
            raise ValueError("ground functional nodes must form a chain")
    entries = {tuple(n): Fraction(sign) for n, sign in nodes_and_signs}
    for v in entries.values():
        if abs(v) != 1:
            raise ValueError("ground functional signs must be +-1")
    return Functional(
        entries, ("ground", tuple(sorted(entries.items())))
    )


def even_op_functional(m, n, parts):
    """(1/m)(f_1 + ... + f_k) with successively supported parts, k <= n."""
    if not parts:
        raise ValueError("averaging operation needs at least one functional")
    if len(parts) > n:
        raise ValueError("averaging operation allows at most %d functionals" % n)
    # enumeration order agrees with (length, lexicographic) comparison
    enum_key = lambda node: (len(node), node)
    prev_max = None
    entries = {}
    for f in parts:
        supp = sorted(f.support(), key=enum_key)
        if not supp:
            raise ValueError("averaging operation parts must be nonzero")
        if prev_max is not None and enum_key(supp[0]) <= enum_key(prev_max):
            raise ValueError("averaging operation parts must be successively supported")
        prev_max = supp[-1]
        for node, v in f.entries.items():
            entries[node] = entries.get(node, Fraction(0)) + Fraction(v, m)
    return Functional(entries, ("even_op", m, n, tuple(p.provenance for p in parts)))


def ground_norm(x):
    """Max signed chain sum: sup of the ground functionals at x."""
    tree = x.tree
    if not tree.nodes:
        raise ValueError("ground norm of a vector on the empty tree")

    # chain sums only grow downwards, so the best node is a leaf
    best = Fraction(0)
    stack = [((), abs(x[()]))]
    while stack:
        v, total = stack.pop()
        best = max(best, total)
        stack.extend((k, total + abs(x[k])) for k in tree.children(v))
    return best


def _sign(v):
    return 1 if v >= 0 else -1


class _Search:
    """Window DP for the bounded-depth norming-set lower bound."""

    def __init__(self, x, ops):
        tree = x.tree
        self.nodes = sorted(x.support, key=tree.index)
        self.vals = [x[t] for t in self.nodes]
        self.n = len(self.nodes)
        self.ops = ops
        # prefix-order predecessors go backwards in enumeration order
        self.pred = [
            [j for j in range(i) if is_prefix(self.nodes[j], self.nodes[i])]
            for i in range(self.n)
        ]
        self.memo = {}
        self.combo_memo = {}

    def ground(self, i, j):
        """Best ground functional confined to support positions [i, j)."""
        best_val = Fraction(0)
        best_pos = None
        c = {}
        back = {}
        for p in range(i, j):
            prev = [q for q in self.pred[p] if q >= i]
            if prev:
                q = max(prev, key=lambda q: c[q])
                c[p] = abs(self.vals[p]) + c[q]
                back[p] = q
            else:
                c[p] = abs(self.vals[p])
                back[p] = None
            if c[p] > best_val:
                best_val, best_pos = c[p], p
        if best_pos is None:
            return Fraction(0), None
        chain = []
        p = best_pos
        while p is not None:
            chain.append(p)
            p = back[p]
        signs = [(self.nodes[p], _sign(self.vals[p])) for p in chain]
        return best_val, ground_functional(signs)

    def best(self, i, j, depth):
        """Best derivable functional value on window [i, j)."""
        if i >= j:
            return Fraction(0), None
        key = (i, j, depth)
        if key in self.memo:
            return self.memo[key]
        value, witness = self.ground(i, j)
        if depth > 0:
            for m, cap in self.ops:
                total, parts = self._combo(i, j, depth - 1, cap)
                if parts and Fraction(total, m) > value:
                    value = Fraction(total, m)
                    witness = even_op_functional(m, cap, parts)
        self.memo[key] = (value, witness)
        return value, witness

    def _combo(self, i, j, depth, cap):
        """Best sum of <= cap successively windowed functionals on [i, j)."""
        key = (i, j, depth, cap)
        if key in self.combo_memo:
            return self.combo_memo[key]
        best_total = Fraction(0)
        best_parts = []
        whole, wit = self.best(i, j, depth)
        if wit is not None:
            best_total, best_parts = whole, [wit]
        if cap > 1:
            for t in range(i + 1, j):
                head, hwit = self.best(i, t, depth)
                if hwit is None:
                    continue
                tail, tparts = self._combo(t, j, depth, cap - 1)
                if tparts and head + tail > best_total:
                    best_total = head + tail
                    best_parts = [hwit] + tparts
        self.combo_memo[key] = (best_total, best_parts)
        return best_total, best_parts


def dg_lower_bound(x, depth, ops):
    """Certified lower bound for the norming-set norm, with a witness
    functional whose derivation replays to the claimed value."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not ops:
        raise ValueError("ops must be nonempty")
    for m, n in ops:
        if m < 1 or n < 1:
            raise ValueError("ops entries must be positive")
    if not x.support:
        return Fraction(0), Functional({}, ("ground", ()))
    search = _Search(x, list(ops))
    value, witness = search.best(0, search.n, depth)
    assert witness(x) == value, "witness replay mismatch"
    return value, witness


def dg_upper_bound(x):
    """l_1 norm of x: every norming-set functional has entries in [-1, 1]."""
    return x.l1()


def incomparable_nodes(tree, count):
    """The first `count` leaves in enumeration order (leaves are pairwise
    incomparable)."""
    leaves = sorted(tree.leaves(), key=tree.index)
    if len(leaves) < count:
        raise ValueError(
            "tree has only %d pairwise-incomparable leaves, need %d"
            % (len(leaves), count)
        )
    return leaves[:count]


def strict_singularity_witness(tree, n, m):
    """Ratio between the depth-1 norming-set bound and the ground norm on a
    sum of n incomparable unit vectors: the finite shadow of the strict
    singularity of the identity into the ground-norm space."""
    if m < 2:
        raise ValueError("m must be >= 2")
    targets = incomparable_nodes(tree, n)
    x = TreeVector(tree, {t: Fraction(1) for t in targets})
    ground = ground_norm(x)
    lower, witness = dg_lower_bound(x, 1, [(m, n)])
    upper = dg_upper_bound(x)
    return {
        "m": m,
        "n": n,
        "nodes": targets,
        "ground": ground,
        "lower": lower,
        "upper": upper,
        "ratio": lower / ground,
        "witness": witness,
    }
