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
That makes the whole search polynomial in the support size.  The DP
runs in integers over one common denominator (the lcm of the entries'
denominators times lcm(m)**depth), in which every division by m is
exact; the best chain sums of each window start are computed once, and
only the final witness is built as a Functional and replayed.
"""

from fractions import Fraction
from itertools import islice
from math import lcm

from baire_lab.trees import is_prefix
from baire_lab.vectors import TreeVector

#: small admissible (m, n) pairs for desk-scale experiments
DESK_PAIRS = [(2, 4), (2, 8), (2, 16), (4, 64)]


class Schedule:
    """Exact big-integer sequences (m_j), (n_j)."""

    def __init__(self, m, n):
        self.m = m
        self.n = n

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
    return Schedule(m, n)


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
    # |x_t| as integers over one common denominator, by id; parents come
    # first, so one ascending pass turns them into chain sums from the root
    scale = lcm(*(c.denominator for c in x.entries.values()))
    sums = [0] * len(tree.order)
    for v, c in x.entries.items():
        sums[tree.id_of[v]] = abs(c.numerator) * (scale // c.denominator)
    for v, up in enumerate(islice(tree.parent, 1, None), 1):
        sums[v] += sums[up]
    return Fraction(max(sums), scale)


def _sign(v):
    return 1 if v >= 0 else -1


class _Search:
    """Window DP for the bounded-depth norming-set lower bound.

    Values are integers over the common denominator `scale`, the lcm of
    the entries' denominators times lcm(m)**depth: a value at depth d is
    a multiple of lcm(m)**(depth - d), so total // m is exact.  A
    witness is a record, ("ground", i, p) for the best chain ending at
    position p inside windows starting at i, or ("even_op", m, n, parts);
    `functional` builds the Functional of one record.
    """

    def __init__(self, x, ops, depth):
        tree = x.tree
        self.nodes = sorted(x.support, key=tree.index)
        vals = [x[t] for t in self.nodes]
        self.signs = [_sign(v) for v in vals]
        self.n = len(self.nodes)
        self.ops = ops
        self.scale = lcm(*(v.denominator for v in vals)) * lcm(*(m for m, _ in ops)) ** depth
        self.weights = [abs(v.numerator) * (self.scale // v.denominator) for v in vals]
        # the nearest support ancestor: prefix-order predecessors go
        # backwards in enumeration order, the deepest one last
        self.up = [
            max((j for j in range(i) if is_prefix(self.nodes[j], self.nodes[i])), default=None)
            for i in range(self.n)
        ]
        self.grounds = {}
        self.memo = {}
        self.combo_memo = {}

    def _ground_from(self, i):
        """Best ground functionals on the windows [i, j), indexed by j.

        The best chain in [i, j) ending at p climbs from p through nearest
        support ancestors while their positions stay >= i (a deeper
        ancestor always has the larger sum); the first best end wins.
        """
        if i in self.grounds:
            return self.grounds[i]
        c = {}
        best = [None] * (self.n + 1)
        best_val, best_pos = 0, None
        for p in range(i, self.n):
            q = self.up[p]
            c[p] = self.weights[p] + (c[q] if q is not None and q >= i else 0)
            if c[p] > best_val:
                best_val, best_pos = c[p], p
            best[p + 1] = (best_val, ("ground", i, best_pos))
        self.grounds[i] = best
        return best

    def best(self, i, j, depth):
        """Best derivable functional value on window [i, j)."""
        if i >= j:
            return 0, None
        key = (i, j, depth)
        if key in self.memo:
            return self.memo[key]
        value, witness = self._ground_from(i)[j]
        if depth > 0:
            for m, cap in self.ops:
                total, parts = self._combo(i, j, depth - 1, cap)
                if parts and total // m > value:
                    value = total // m
                    witness = ("even_op", m, cap, parts)
        self.memo[key] = (value, witness)
        return value, witness

    def _combo(self, i, j, depth, cap):
        """Best sum of <= cap successively windowed functionals on [i, j)."""
        key = (i, j, depth, cap)
        if key in self.combo_memo:
            return self.combo_memo[key]
        best_total = 0
        best_parts = ()
        whole, wit = self.best(i, j, depth)
        if wit is not None:
            best_total, best_parts = whole, (wit,)
        if cap > 1:
            for t in range(i + 1, j):
                head, hwit = self.best(i, t, depth)
                if hwit is None:
                    continue
                tail, tparts = self._combo(t, j, depth, cap - 1)
                if tparts and head + tail > best_total:
                    best_total = head + tail
                    best_parts = (hwit,) + tparts
        self.combo_memo[key] = (best_total, best_parts)
        return best_total, best_parts

    def functional(self, record):
        if record[0] == "ground":
            _, i, p = record
            chain = []
            while p is not None and p >= i:
                chain.append(p)
                p = self.up[p]
            return ground_functional([(self.nodes[p], self.signs[p]) for p in chain])
        _, m, cap, parts = record
        return even_op_functional(m, cap, [self.functional(r) for r in parts])


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
    search = _Search(x, list(ops), depth)
    total, record = search.best(0, search.n, depth)
    value = Fraction(total, search.scale)
    witness = search.functional(record)
    assert witness(x) == value, "witness replay mismatch"
    return value, witness


def dg_upper_bound(x):
    """l_1 norm of x: every norming-set functional has entries in [-1, 1]."""
    return x.l1()


def incomparable_nodes(tree, count):
    """The first `count` leaves in enumeration order (leaves are pairwise
    incomparable)."""
    leaves = tree.leaves()
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
