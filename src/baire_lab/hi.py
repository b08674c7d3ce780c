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
the witness is built straight from the DP's recorded choices and replayed.

The DP runs bottom-up, one level at a time, on lists.  With best(i, j, d)
the best level-d value on the window [i, j) of support positions (level
0 is the ground functionals), the run-split tables of level d at right
end j are lists over the window start i:

    C_1[i] = best(i, j, d),
    C_c[i] = max(best(i, j, d), max over i < t < j of best(i, t, d) + C_{c-1}[t]),

so C_c[i] = C_c(i, j) is the best sum of at most c successively supported
level-d functionals on [i, j): unfolding the recurrence, the max over the
splits of [i, j) into at most c consecutive runs of the sum of best over
the runs.  An op (m, cap) offers C_cap(i, j) // m to best(i, j, d + 1).
Each entry keeps its head end t, or None when the whole window wins.

Clamp lemma: C_c(i, j) = C_{j-i}(i, j) for every c >= j - i, and the
choices agree too.  By induction on j - i: for j - i = 1 there is no t,
and C_c is best(i, j, d) for every c.  Otherwise, for c >= j - i >= 2,
every tail C_{c-1}(t, j) of the recurrence has c - 1 >= j - i - 1 >= j - t,
so by induction it is C_{j-t}(t, j), the same value and choices whatever
c is; so C_c(i, j) makes the same comparisons for every such c.  Hence a
c-row is computed only for i <= j - c and copies the (c - 1)-row above
that, and every lookup uses min(cap, j - i).

Two builders fill only the entries a later read uses.  Below the top
level, level d + 1 needs best(i, j, d + 1) on every window but only the
values C_cap(i, j), which the doubling gives for every window at once;
head ends are never read there.  The top level needs best(0, n, depth)
alone, and each op the witness takes needs the head ends at one right
end: `_split` builds one table at one right end, reachable entries only.

Doubling lemma: for a, b >= 1,

    C_{a+b}(i, j) = max(C_a(i, j), max over i + a <= t < j of C_a(i, t) + C_b(t, j)).

Every term is the value of a split into at most a + b runs, so the right
side is at most the left.  Conversely, a best split into r <= a + b runs
is counted by C_a(i, j) if r <= a; otherwise its first a runs end at some
t with i + a <= t < j, and the runs before t are worth at most C_a(i, t),
the r - a <= b runs after it at most C_b(t, j).  Where j - i <= a the t
range is empty and C_{a+b}(i, j) = C_a(i, j), the clamp lemma.  So
C_{2a} comes from C_a on the windows longer than a, and C_c for
c = min(cap, n) (the clamp lemma again: no window is longer than n) is
the product of the C_{2^k} over the binary digits of c, the highest
first; each distinct c is built once per level.

Reachability lemma: at right end j let W be the wanted rows min(cap, j),
one per op, and lo(c) = min of w - c over the w in W with w >= c.  Row c
is computed for lo(c) <= i <= j - c (lo(c) <= j - c, as every w <= j)
and copies row c - 1 above j - c.  Every w >= c counts for c - 1 with
one more, so lo(c - 1) <= lo(c) + 1.  By induction on c, row c holds
C_c(i, j) at every i >= lo(c): a computed entry reads row c - 1 at t in
(i, j), and t >= lo(c) + 1 >= lo(c - 1); a copied entry, at i > j - c,
is C_{c-1}(i, j) = C_c(i, j) by the clamp lemma, with i >= lo(c - 1) too.
Every lookup reads a computed entry.  A first lookup is at
c = min(cap, j - i): if cap <= j - i then w = cap = c is in W and
lo(c) = 0; otherwise c = j - i < cap, and w = min(cap, j) has
c <= w <= j, so lo(c) <= w - c <= j - c = i.  A walk step from (c, i)
goes to (c', t) with t > i and c' = min(c - 1, j - t): if c' = j - t
then lo(c') <= j - c' = t, and otherwise lo(c') <= lo(c) + 1 <= t.  The
top level reads each op's row at i = 0, so one table serves it and every
witness lookup at that right end.

Tie rules: the ground functional is tried first and each op in order,
replacing the best so far only when strictly larger; in a table the
whole window wins ties, and among splits the first t with the strictly
largest sum wins (max of the sums, then its first index).  So every
pick and head end is a function of the values alone, and a table built
later at a right end, from the kept level rows, records the same choices
as one built with every entry.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm
from operator import add

from baire_lab.trees import is_prefix, star_tree
from baire_lab.vectors import ZERO, TreeVector, to_fraction

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
    """Tree-indexed rational functional with a replayable derivation.

    Functional(entries, provenance) checks every entry it is given; the
    builders below, whose entries are in [-1, 1] by construction, make
    their entries once and skip that pass (_of).

    Calling it on a vector x replays it: the sum of f_t * x_t over the
    nodes where both are nonzero, made on one integer grid.  Each product
    is an integer over the product of the two denominators, every product
    is lifted to the lcm of those denominators, and the integers are added
    and reduced once, so the value is the Fraction a term-by-term sum
    makes.
    """

    def __init__(self, entries, provenance):
        clean = {}
        for node, value in entries.items():
            value = to_fraction(value, "functional entry %r at %r", value, node)
            if value:
                if abs(value) > 1:
                    raise ValueError(
                        "functional entry %s at %r leaves [-1, 1]" % (value, node)
                    )
                clean[tuple(node)] = value
        self.entries = clean
        self.provenance = provenance

    @classmethod
    def _of(cls, entries, provenance):
        """A functional on entries that already map tuple nodes to nonzero
        Fractions in [-1, 1], kept as given."""
        f = cls.__new__(cls)
        f.entries = entries
        f.provenance = provenance
        return f

    def __call__(self, x):
        get = x.entries.get
        products = [
            (v.numerator * w.numerator, v.denominator * w.denominator)
            for node, v in self.entries.items() if (w := get(node)) is not None
        ]
        den = lcm(*[d for _, d in products])
        return Fraction(sum(a * (den // d) for a, d in products), den)

    def __repr__(self):
        return "Functional(%r)" % (self.provenance,)


# the two signs, shared by every ground functional's entries
_SIGNS = {1: Fraction(1), -1: Fraction(-1)}


def ground_functional(nodes_and_signs):
    """+-1 signs along a chain of nodes."""
    chain = sorted((tuple(n) for n, _ in nodes_and_signs), key=len)
    for s, t in zip(chain, chain[1:]):
        if not is_prefix(s, t):
            raise ValueError("ground functional nodes must form a chain")
    entries = {tuple(n): sign for n, sign in nodes_and_signs}
    for node, sign in entries.items():
        v = _SIGNS.get(sign)
        if v is None:
            v = to_fraction(sign, "ground functional sign %r", sign)
            if abs(v) != 1:
                raise ValueError("ground functional signs must be +-1")
        entries[node] = v
    return Functional._of(
        entries, ("ground", tuple(sorted(entries.items())))
    )


def even_op_functional(m, n, parts):
    """(1/m)(f_1 + ... + f_k) with successively supported parts, k <= n.

    m is an int >= 1, so each entry v / m of a part's entry v stays in
    [-1, 1]; the parts have disjoint supports, so each node takes one.
    """
    if type(m) is not int or m < 1:
        raise ValueError("averaging operation needs an int m >= 1, not %r" % (m,))
    if not parts:
        raise ValueError("averaging operation needs at least one functional")
    if len(parts) > n:
        raise ValueError("averaging operation allows at most %d functionals" % n)
    # enumeration order agrees with (length, lexicographic) comparison
    enum_key = lambda node: (len(node), node)
    prev_max = None
    entries = {}
    for f in parts:
        if not f.entries:
            raise ValueError("averaging operation parts must be nonzero")
        if prev_max is not None and min(map(enum_key, f.entries)) <= prev_max:
            raise ValueError("averaging operation parts must be successively supported")
        prev_max = max(map(enum_key, f.entries))
        for node, v in f.entries.items():
            entries[node] = v / m
    return Functional._of(entries, ("even_op", m, n, tuple(p.provenance for p in parts)))


def ground_norm(x):
    """Max signed chain sum: sup of the ground functionals at x."""
    tree = x.tree
    if not tree.nodes:
        raise ValueError("ground norm of a vector on the empty tree")
    # |x_t| on the vector's integer grid, by id; parents come first, so
    # one ascending pass turns them into chain sums from the root
    mags, scale = x.grid()
    sums = [0] * len(tree.order)
    for v, A in zip(x.ids, mags):
        sums[v] = A
    for v, up in enumerate(islice(tree.parent, 1, None), 1):
        sums[v] += sums[up]
    return Fraction(max(sums), scale)


def _sign(v):
    return 1 if v >= 0 else -1


class _Search:
    """Bottom-up window DP for the bounded-depth norming-set lower bound.

    Values are integers over the common denominator `scale`, the lcm of
    the entries' denominators times lcm(m)**depth: a value at depth d is
    a multiple of lcm(m)**(depth - d), so total // m is exact.

    The run-split tables, the doubling, the lemmas and the tie rules are
    in the module docstring.  best(i, ., d) is one row list per i, kept in
    rows[d] for the tables the witness builds later.  Level d + 1 below
    the top reads the values C_cap(i, j) of every window from `_runs`;
    the top level needs only best(0, n, depth), so its table is built at
    j = n alone.

    The witness is built directly from the recorded choices (`ends`,
    `picks`, `cuts`) along the chosen path only, so `_witness` recurses no
    deeper than `depth`.
    """

    def __init__(self, x, ops, depth):
        # support positions in the order of entries, enumeration order
        self.nodes = list(x.entries)
        self.signs = [_sign(v) for v in x.entries.values()]
        self.n = len(x.ids)
        self.ops = ops
        self.depth = depth
        mags, den = x.grid()
        self.scale = den * lcm(*(m for m, _ in ops)) ** depth
        self.weights = [a * (self.scale // den) for a in mags]
        self.up = x.tree.nearest_ancestors(x.ids)
        # rows[d][i][j] = best(i, j, d); picks[d][i][j]: the index of the op
        # that won best(i, j, d), or -1 for the ground functional;
        # cuts[d][j][c][i]: the head end chosen for C_c[i] at right end j
        # over level-d windows, built by `_split` when first needed
        self.rows = [None] * depth
        self.picks = [None] * (depth + 1)
        self.cuts = [[None] * (self.n + 1) for _ in range(depth)]

    def _ground_from(self, i):
        """Best ground values on the windows [i, j) and the chain ends that
        attain them, two rows indexed by j (0 and None for j <= i).

        The best chain in [i, j) ending at p climbs from p through nearest
        support ancestors while their positions stay >= i (a deeper
        ancestor always has the larger sum); the first best end wins.
        """
        c = {}
        values = [0] * (self.n + 1)
        ends = [None] * (self.n + 1)
        best_val, best_pos = 0, None
        for p in range(i, self.n):
            q = self.up[p]
            c[p] = self.weights[p] + (c[q] if q is not None and q >= i else 0)
            if c[p] > best_val:
                best_val, best_pos = c[p], p
            values[p + 1], ends[p + 1] = best_val, best_pos
        return values, ends

    def run(self):
        """Value and witness functional of best(0, n, depth)."""
        n, ops = self.n, self.ops
        ground, self.ends = zip(*map(self._ground_from, range(n)))
        rows = ground
        for d in range(self.depth):
            # best(i, j, d + 1) from the level-d rows: every window below
            # the top level, only [0, n) at the top
            self.rows[d] = rows
            top = d == self.depth - 1
            width = 1 if top else n
            if not top:
                columns = self._runs(rows)
            up = [row[:] for row in islice(ground, width)]
            picks = [[-1] * (n + 1) for _ in range(width)]
            for j in [n] if top else range(1, n + 1):
                per_op = self._split(d, j) if top else [cols[j] for cols in columns]
                for i in range(min(width, j)):
                    value = up[i][j]
                    for k, (m, _) in enumerate(ops):
                        v = per_op[k][i] // m
                        if v > value:
                            value = v
                            picks[i][j] = k
                    up[i][j] = value
            rows = up
            self.picks[d + 1] = picks
        return rows[0][n], self._witness(0, n, self.depth)

    def _runs(self, rows):
        """Per op, the columns of C_{min(cap, n)} over the level rows `rows`:
        cols[j][i] = C_{min(cap, n)}(i, j), by the doubling lemma."""
        n = self.n
        # powers[k]: C_{2**k} as (rows, columns)
        powers = [(rows, list(zip(*rows)))]
        built = {}
        for c in {min(cap, n) for _, cap in self.ops}:
            while len(powers) < c.bit_length():
                a = 1 << (len(powers) - 1)
                powers.append(_product(powers[-1], powers[-1], a))
            # the highest binary digit first, then each lower one that is set
            high = c.bit_length() - 1
            runs, a = powers[high], 1 << high
            for k in reversed(range(high)):
                if c >> k & 1:
                    runs = _product(runs, powers[k], a)
                    a += 1 << k
            built[c] = runs[1]
        return [built[min(cap, n)] for _, cap in self.ops]

    def _split(self, level, j):
        """Build the run-split table at right end j over the level-`level`
        rows, reachable entries only, record its head ends in
        cuts[level][j], and return, per op, its row C_{min(cap, j)}, which
        the top level reads at i = 0.

        Row c is computed for lo(c) <= i <= j - c and copies row c - 1 above
        that (the reachability lemma); its entries below lo(c) are never
        read.
        """
        rows = self.rows[level]
        want = [min(cap, j) for _, cap in self.ops]
        most = max(want)
        lo = [0] * (most + 1)
        for c in range(most - 1, 0, -1):
            lo[c] = 0 if c in want else lo[c + 1] + 1
        cur = [row[j] for row in islice(rows, j)]
        table = [None, cur]
        cuts = [None, [None] * j]
        for c in range(2, most + 1):
            prev = cur
            cur = prev[:]
            cut = [None] * (j - c + 1)
            for i in range(lo[c], j - c + 1):
                row = rows[i]
                whole = row[j]
                sums = list(map(add, row[i + 1:j], prev[i + 1:j]))
                best = max(sums)
                if best > whole:
                    cur[i] = best
                    cut[i] = i + 1 + sums.index(best)
                else:
                    cur[i] = whole
            table.append(cur)
            cuts.append(cut)
        self.cuts[level][j] = cuts
        return [table[w] for w in want]

    def _witness(self, i, j, d):
        """The Functional of best(i, j, d), from the recorded choices: a ground
        chain climbs from its recorded end, an op's parts follow the head ends
        of C_{min(cap, j - i)}[i] at j."""
        pick = self.picks[d][i][j] if d else -1
        if pick < 0:
            p, chain = self.ends[i][j], []
            while p is not None and p >= i:
                chain.append((self.nodes[p], self.signs[p]))
                p = self.up[p]
            return ground_functional(chain)
        m, cap = self.ops[pick]
        if self.cuts[d - 1][j] is None:
            self._split(d - 1, j)
        cuts = self.cuts[d - 1][j]
        c = min(cap, j - i)
        parts = []
        while True:
            t = cuts[c][i]
            parts.append(self._witness(i, j if t is None else t, d - 1))
            if t is None:
                return even_op_functional(m, cap, parts)
            i, c = t, min(c - 1, j - t)


def _product(a_runs, b_runs, a):
    """The doubling lemma's product of a_runs = C_a and b_runs = C_b, each
    as (rows, columns): C_{a+b} as (rows, columns), computed on the windows
    longer than a and copied from C_a on the rest."""
    rows = []
    b_cols = b_runs[1]
    for i, a_row in enumerate(a_runs[0]):
        row = a_row[:]
        heads = a_row[i + a:]
        for j in range(i + a + 1, len(row)):
            best = max(map(add, heads, b_cols[j][i + a:j]))
            if best > row[j]:
                row[j] = best
        rows.append(row)
    return rows, list(zip(*rows))


def dg_lower_bound(x, depth, ops):
    """Certified lower bound for the norming-set norm, with a witness
    functional whose derivation replays to the claimed value.

    The depth and every m and n of ops are ints (type, not isinstance, as
    for node labels: a bool is refused), checked before any value is read.
    """
    if type(depth) is not int:
        raise ValueError("depth must be an int, not %r" % (depth,))
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not ops:
        raise ValueError("ops must be nonempty")
    for m, n in ops:
        if type(m) is not int or type(n) is not int:
            raise ValueError("ops entries must be ints, not %r" % ((m, n),))
        if m < 1 or n < 1:
            raise ValueError("ops entries must be positive")
    if not x.entries:
        return ZERO, Functional({}, ("ground", ()))
    search = _Search(x, list(ops), depth)
    total, witness = search.run()
    value = Fraction(total, search.scale)
    # raised, not asserted, so that python -O keeps the check
    if witness(x) != value:
        raise AssertionError("witness replay mismatch")
    return value, witness


def dg_upper_bound(x):
    """l_1 norm of x: every norming-set functional has entries in [-1, 1]."""
    return x.l1()


# one call of hi witness or verify hi takes at most cli.PAIRS_MAX = 128
# pairs, so all of its rows stay kept; a row holds about 0.3 KB per leaf
# (62 KB at n = 192, the CLI's largest), so the kept rows of CLI calls
# hold under 8 MB
ROWS_KEPT = 128


@lru_cache(maxsize=ROWS_KEPT)
def _row(n, m):
    """The parts of strict_singularity_witness(n, m) that no caller gets to
    change: the nodes as a tuple, ground, lower, upper, ratio (Fractions),
    and the witness's entries and provenance.  The entries dict is copied
    for every caller and never handed out."""
    tree = star_tree(n)
    targets = tree.order[1:]
    x = TreeVector(tree, {t: Fraction(1) for t in targets})
    ground = ground_norm(x)
    lower, witness = dg_lower_bound(x, 1, [(m, n)])
    upper = dg_upper_bound(x)
    return (tuple(targets), ground, lower, upper, lower / ground,
            witness.entries, witness.provenance)


def strict_singularity_witness(n, m):
    """Ratio between the depth-1 norming-set bound and the ground norm on
    the sum of the unit vectors at the n leaves of star_tree(n): the
    finite shadow of the strict singularity of the identity into the
    ground-norm space.  Its ground, lower, upper and ratio are those of
    unit vectors on any n pairwise incomparable nodes: no node has a
    support ancestor, so the window DP sees only m and n.

    n and m are ints (type, not isinstance: an equal float or a bool is
    refused), checked before the row cache is read.  So the row is a pure
    function of (n, m), computed once per process for each pair (`_row`,
    at most ROWS_KEPT rows, least recently used first out); every call
    gets a fresh dict, node list and witness, so a caller that changes
    what it got changes no later call's row."""
    if type(n) is not int or type(m) is not int:
        raise ValueError("n and m must be ints, not %r" % ((n, m),))
    if m < 2:
        raise ValueError("m must be >= 2")
    nodes, ground, lower, upper, ratio, entries, provenance = _row(n, m)
    return {
        "m": m,
        "n": n,
        "nodes": list(nodes),
        "ground": ground,
        "lower": lower,
        "upper": upper,
        "ratio": ratio,
        "witness": Functional._of(dict(entries), provenance),
    }
