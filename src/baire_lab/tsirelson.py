"""Parametrized Tsirelson norms on tree vectors, computed exactly.

Two variants of the implicit norm

    |x| = max( sup norm, 1/2 max over admissible families sum |E_i x| )

are implemented.  An admissible family is E_1 < ... < E_k in enumeration
order with k <= (enumeration index of min E_1); the INCOMPARABLE variant
additionally requires the sets to be pairwise completely incomparable,
the STANDARD variant (the Tsirelson comparison norm) does not.

Families with k = 1 are dropped: (1/2)|E_1 x| <= (1/2)|x| can never
realize the outer max, and dropping them guarantees termination of the
subset recursion (k >= 2 disjoint nonempty sets are proper subsets).

Each variant has one engine, which computes the fixed point (level None)
and the m-th iterate (level m) alike.  Both engines offer the same surface
(root, value, memo, members, positions, beaten) and are made by `_engine`,
so each public function has one body.

The INCOMPARABLE engine walks the support in enumeration order, growing
one set at a time, pruning with the open-set slack bound and the
skip-dominance lemma, and records the optimal family of every subset.

The STANDARD norm only ever needs contiguous index intervals of the
support: the subset norm is monotone under inclusion, so gap elements
between or after admissible sets can always be absorbed into a neighboring
set without hurting admissibility (checked against an enumeration of every
admissible family in the tests).  Its engine is an interval DP that
records, for each interval, the first optimal family start and size (l, k)
and, for each split into runs, the first optimal cut; the witness tree is
read back from these records.

Run-count lemma: for k < j - l, the best split of [l, j) into k + 1 runs
strictly beats the best into k runs, at every level, so each start l needs
only k = min(idx[l], j - l) and the first optimal (l, k) is the one a scan
over every k finds.  Proof: let |.| be one level and |.|' the level below
(|.| again at the fixed point); both are norms, monotone under inclusion,
with |.|' <= |.|, and support values are positive.  Let R be a run of
length >= 2 with last element r, and R' = R minus r.  If the sup attains
|R|, then |R| < |R'| + x_r.  Else |R| is half the sum of |E_i|' over an
admissible family of R; removing r from the last member lowers its |.|' by
at most x_r and leaves an admissible family of R' (same first set) with
half-sum <= |R'|, or a single set E with |E|'/2 <= |R'|.  So |R| <= |R'| +
x_r/2 < |R'| + x_r, and cutting the last element off a run of length >= 2
in an optimal k-split gives a strictly better (k + 1)-split.

Singleton-start lemma: in the scan of [i, j) over starts l, let l be the
first with idx[l] >= j - l.  Its split is k = j - l, every run a
singleton, whose value is its own at every level (level-collapse lemma
below), so its run-sum is the prefix sum of vals over [l, j).  Every later
start l' has idx[l'] >= j - l' too.  The support is sorted by enumeration
index, so clamped indices never fall along it: if idx[l'] = n, then
idx[l'] >= j - l'; else idx[l] < n as well, neither is clamped, and
idx[l'] > idx[l] >= j - l > j - l'.  So l' also splits into singletons,
and its sum covers a strict subset of the positive values l's covers, so
it is strictly smaller.  Only a strictly better candidate is recorded, so
stopping the scan at l, after taking its candidate if k >= 2, keeps the
best sum and the first optimal (l, k).

l1-incumbent lemma: at every level and at the fixed point the value of a
run is at most its l1: the sup is, and a family value is half a sum of
child values over disjoint members, each at most its own l1 by induction.
So every split of [l, j) into runs has run-sum at most prefix[j] -
prefix[l], the l1 of [l, j), and this bound only falls as l grows.  The
scan of [i, j) starts from an incumbent (f passes 2 * sup of [i, j), and
`beaten` 2 * value) and records only strictly better candidates, so once
the l1 of [l, j) is at most the best sum, no start from l on could be
recorded, and the scan stops.  Every start that could reach the optimum
is scanned, so the first strict improvement on the incumbent, and with it
every value, iterate and first optimal (l, k), is the one of the full
scan.  A start that survives the cut has run-sum prefix[j] - prefix[l] >
best if it splits into singletons, so the singleton start is recorded
without a further test.

Skip-dominance lemma: in the INCOMPARABLE family search, let a set O be
open at a position p that no closed set forbids.  If no later set can
start (count + 2 > maxk), or every later position comparable with p is
already forbidden or comparable with O, then the best completion after
"grow O by p" is at least the best after "skip p", so `_family_search`
returns without searching "skip".  Proof: replay any completion after
skipping p (the same grow, close-and-start and skip decisions at the
positions after p) after growing O by p instead.  Only closing O reads
O's comparability mask, and the forbidden mask changes only when a set
closes.  In the first case no set closes before the end, so the two
traces test every position against the same forbidden mask.  In the
second, once O closes, forbidden | comp(O) | comp[p] and forbidden |
comp(O) agree on every position after p, which are the only ones tested
from then on.  Either way every decision stays admissible, and the grow
family is the skip family with p added to the member that contains O.
Every child value (each iterate level, and the fixed point) is monotone
under inclusion, so the grow sum is at least the skip sum.  The completion
bound (open-set slack lemma) cuts only traces that cannot strictly beat
the best sum so far, and the search records only strictly better sums.
"Grow" is searched before "skip", so when "skip" would start, the best
sum is already at least every grow completion, hence every skip
completion, and "skip" would record nothing: the best sum and the first
optimal family are unchanged.

Open-set slack lemma: in the INCOMPARABLE family search, a trace with
closed sum `total`, open set O and unread suffix S completes to at most
total + l1(O) - slack(O) + l1(S), where slack(O) = min(l1(O) - sup(O),
l1(O) // 2).  At every level and at the fixed point a set E with |E| >= 2
has value <= max(sup E, l1(E)/2) = l1(E) - min(l1(E) - sup E, l1(E)/2):
the value is either the sup or half a sum of child values over disjoint
members, and each child value is at most its own l1.  A singleton E has
value sup E = l1(E) and gives up l1(E) - sup E = 0, so the bound holds for
every nonempty set.  The final set O' of the trace contains O, and adding
positions never shrinks l1 - sup (the sup grows by at most the added
value) or l1/2, so O' gives up at least slack(O); the positions of S not
in O' add at most their values.  Floor division keeps slack(O) at most
the real l1(O)/2, so the bound stays safe on the grid.  For a singleton
O, and before the first set opens (O empty, slack 0), it is the plain
l_1 bound total + l1(O) + l1(S).  The search cuts a trace only when the
bound is <= the best sum so far, so a cut trace could not be recorded,
which needs a strictly better sum: values, witnesses and first optima are
the same as with every trace searched.

Index-clamp lemma: `_Ctx` keeps each support node's enumeration index
clamped at n = |supp|, and no value or recorded first optimum changes.  The
engines read an index only through `count + 2 <= maxk`, `maxk0 >= 2`,
`min(idx[l], j - l)` and `idx[l] >= j - l`.  Since j - l <= n, the last
two are the same with min(idx[l], n).  In the first, count + 1 disjoint
nonempty sets are open or closed and the position about to start a new one
is in none of them, so count + 2 <= n.  In the second, for n >= 2 the
clamp keeps the test, and for n = 1 no family of k >= 2 nonempty sets
exists, so the branch records nothing either way.  Every entry adds at
least 1 to the numeral of `enumeration_index`, so index(t) >= len(t): a
node of depth >= n gets n without computing its index.  `_Ctx` computes
the other indices in its one loop over the support, by Horner's rule
over every entry, so no engine builds an integer longer than n - 1
digits of base B + 1, however deep the node or large its labels.

Level-collapse lemma: on a set A the m-th iterate equals the fixed point
whenever m >= |A| - 1, so both engines answer such a level from the
fixed-point memo.  Proof by induction on |A|: for |A| = 1 no admissible
family exists and both are the sup.  For |A| > 1, every member of an
admissible family is one of k >= 2 disjoint nonempty sets, so it is a
proper subset B (for STANDARD, a strict subinterval) with |B| <= |A| - 1,
and m - 1 >= |B| - 1; by induction the (m - 1)-st iterate of every member
is its fixed-point value, so the outer max at level m is the fixed-point
equation itself.

Two-node lemma: a support of at most two nodes has value sup |x_t| at
every level and at the fixed point (0 for x = 0).  An admissible family
has k >= 2 disjoint nonempty members, so on two nodes its only candidate
is the two singletons, each valued at its own |x_t|, whose half-sum
(|x_s| + |x_t|) / 2 is at most the larger of the two, so the sup wins the
outer max; on fewer nodes there is no family at all.  So
`tsirelson_norm` and `tsirelson_iterate` answer such a support as the
max of its |values|, after the same variant, cap and level checks,
without a `_Ctx` or an engine; the witness tree and `check_fixed_point`
still read an engine.

Antichain lemma: on a support A of pairwise incomparable nodes, the two
variants have the same value on every subset B of A at every level and
at the fixed point.  Two disjoint subsets of A are completely
incomparable, as any two distinct nodes of A are incomparable, and the
members of a family are disjoint; so a family inside B is
INCOMPARABLE-admissible exactly when it is STANDARD-admissible.  By
induction on |B|: at level 0 both values are the sup, and at level m
each is the max of the sup and half the best sum, over the same
families, of the level-(m - 1) values of their members, proper subsets of
B, on which the two variants agree; the fixed point is the level
|B| - 1 (the level-collapse lemma).  No engine uses it: the INCOMPARABLE
engine still searches an antichain, and the tests check it there against
the STANDARD interval DP, which shares none of its code.  Whether the two
engines record the same first optimal family is not proven.

Grid lemma: on a set A every value either engine makes (memo entry,
run sum, family sum) is a sum of support values over 2^d with
d <= |A| - 1.  Induction on |A|: the sup has d = 0, and a family halves a
sum of values on proper subsets B, whose d is at most |B| - 1 <= |A| - 2.
So `_Ctx` fixes one scale, the vector's grid denominator (the lcm of
the support denominators) << (n - 1), and both engines hold every value v
as the integer v * scale.  A family member has at most n - 1 elements, so
its grid value is even and halving a family sum is exact floor division.
`Fraction` is built only on the way out, by `_Ctx.rational`; witness
strings come from `_Ctx.text`, which reduces v / scale by one gcd.

Spreading lemma: moving the support by a map that keeps enumeration order
and comparability and only raises indices, as from star_tree(n, b) to
star_tree(n, b + s), lowers no value of either variant at any level.  The
image of an admissible family keeps its order and incomparabilities, and
k <= idx(min E_1) <= idx(image), so it is admissible; induct on |A|.

Engine reuse: `_engine` checks its input and returns `_built(variant,
x)`, a cache of one entry keyed by (variant, vector), everything an engine
reads, so a hit builds nothing.  A vector is a value, so the same vector
hits by identity and an equal one by TreeVector.__eq__.  So the norm,
witness, fixed-point check and iterates of one vector share one memo, a
scaled vector (which moves the grid) gets a new engine, and one entry
keeps memory flat; the norm and the iterates of a support of at most two
nodes (the two-node lemma) neither read nor evict it.  Sharing is safe
because every memo, `family`, `split` and `part` entry is a pure
function of its key: the order of calls changes no value and no recorded
first optimum.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from math import gcd

from baire_lab.sequences import FiniteBlockSequence
from baire_lab.vectors import ZERO, TreeVector

INCOMPARABLE = "incomparable"
STANDARD = "standard"

DEFAULT_SUPPORT_CAP = 14


class _Ctx:
    """The support in enumeration order, its arena ids, grid values and
    clamped enumeration indices.  vals[i] is |x_t| * scale for the i-th
    support node t (the grid lemma), from one x.grid call that lifts each
    magnitude by 2^(n - 1) as it reads it.  idx[i] is min(index(t), n)
    (the index-clamp lemma), from one loop over the support: a node of
    depth >= n gets n unread, a shorter one its numeral by Horner's rule.
    The nodes are the tree's own tuples, whose every entry is a trie label
    FiniteTree checked to be a natural and the last entry of a prefix, so
    no check of `enumeration_index` can fail here.
    """

    def __init__(self, x):
        self.tree = tree = x.tree
        self.n = n = len(x.ids)
        # support positions in the order of entries, enumeration order
        self.ids = x.ids
        self.nodes = nodes = tuple(x.entries)
        base = tree.alphabet_bound + 1
        idx = []
        for t in nodes:
            if len(t) >= n:
                idx.append(n)
                continue
            index = 0
            for e in t:
                index = index * base + e + 1
            idx.append(index if index < n else n)
        self.idx = tuple(idx)
        self.full = (1 << n) - 1
        self.vals, den = x.grid(n - 1)
        self.scale = den << (n - 1)

    def rational(self, v):
        """The exact value of grid value v."""
        return Fraction(v, self.scale)

    def text(self, v):
        """str(self.rational(v)) for a grid value v >= 0, reduced by one gcd
        with the scale, without building the Fraction."""
        g = gcd(v, self.scale)
        den = self.scale // g
        return str(v // g) if den == 1 else "%d/%d" % (v // g, den)

    def sup_l1(self, mask):
        """The largest and the sum of the grid values in mask."""
        best = total = 0
        for i in range(self.n):
            if (mask >> i) & 1:
                v = self.vals[i]
                total += v
                if v > best:
                    best = v
        return best, total


def _family_search(ctx, comp, mask, childf, incumbent):
    """Best sum of childf over INCOMPARABLE-admissible families inside mask.

    comp[i] is the bitmask of the support positions comparable with i.

    Returns (best_sum, blocks) where the recorded candidate value is the
    plain sum (the caller halves it); blocks is the best family as a list
    of bitmasks, or None if no family beats 2 * incumbent, and then
    best_sum is 2 * incumbent.  incumbent is the value the family must
    strictly exceed after halving, the first best sum the completion bound
    is tested against.  Every value is a grid value.

    A trace is cut as soon as its completion bound (the open-set slack
    lemma) is at most the best sum; the open set's l1 and sup are carried
    down the recursion for it.

    While a set is open, the "skip" branch at a position is cut whenever
    growing the open set by that position provably does at least as well
    (the skip-dominance lemma); growing is searched first, so the first
    optimum found is the same as with every branch searched.
    """
    vals = ctx.vals
    positions = [i for i in range(ctx.n) if (mask >> i) & 1]
    npos = len(positions)
    suffix = [0] * (npos + 1)
    for i in range(npos - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vals[positions[i]]
    # later[pi]: the positions of mask after positions[pi] comparable with it
    later = [comp[p] & mask & ~((2 << p) - 1) for p in positions]

    best = [2 * incumbent, None]
    blocks = []

    def rec(pi, open_mask, open_comp, open_l1, open_sup, count, total, forbidden, maxk):
        # upper bound on any completion of this trace: the open set gives up
        # at least its slack, min(gap, half) (the open-set slack lemma)
        gap = open_l1 - open_sup
        half = open_l1 >> 1
        if total + open_l1 - (gap if gap < half else half) + suffix[pi] <= best[0]:
            return
        if pi == npos:
            if open_mask and count >= 1:
                value = total + childf(open_mask)
                if value > best[0]:
                    best[0] = value
                    best[1] = blocks + [open_mask]
            return
        p = positions[pi]
        bit = 1 << p
        if not (forbidden & bit):
            if open_mask:
                room = count + 2 <= maxk
                # close the open set and start a new one here
                if room:
                    fb = forbidden | open_comp
                    if not (fb & bit):
                        v = childf(open_mask)
                        blocks.append(open_mask)
                        rec(pi + 1, bit, comp[p], vals[p], vals[p], count + 1, total + v, fb, maxk)
                        blocks.pop()
                # grow the open set
                rec(pi + 1, open_mask | bit, open_comp | comp[p], open_l1 + vals[p],
                    vals[p] if vals[p] > open_sup else open_sup, count, total, forbidden, maxk)
                # skip-dominance lemma: skipping p can only win if a new set
                # may still start and p blocks a later position nothing blocks
                if not (room and later[pi] & ~(open_comp | forbidden)):
                    return
            else:
                # open the first set here; k is capped by this node's index
                maxk0 = ctx.idx[p]
                if maxk0 >= 2:
                    rec(pi + 1, bit, comp[p], vals[p], vals[p], 0, 0, forbidden, maxk0)
        # skip this position
        rec(pi + 1, open_mask, open_comp, open_l1, open_sup, count, total, forbidden, maxk)

    rec(0, 0, 0, 0, 0, 0, 0, 0, 0)
    return best[0], best[1]


class _IncEngine:
    """Memoized norm of the INCOMPARABLE variant on support subsets.

    Keys are bitmasks of support positions.  Level None means the implicit
    fixed point, memoized under the bare mask with its optimal family (or
    None) in `family`; an integer means the corresponding iterate,
    memoized under (mask, level); a level >= |mask| - 1 is the fixed point
    by the level-collapse lemma.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.root = ctx.full
        # comp[i]: i's support ancestors, up the chain of nearest ones, and
        # its support descendants, pushed up bottom-up (up[i] < i)
        up = ctx.tree.nearest_ancestors(ctx.ids)
        above, below = [], [1 << i for i in range(ctx.n)]
        for i in range(ctx.n - 1, -1, -1):
            if up[i] is not None:
                below[up[i]] |= below[i]
        for i, u in enumerate(up):
            above.append((1 << i) | (0 if u is None else above[u]))
        self.comp = [a | b for a, b in zip(above, below)]
        self.memo = {}
        self.family = {}

    def f(self, mask, level=None):
        if level is not None and level >= mask.bit_count() - 1:
            level = None
        key = mask if level is None else (mask, level)
        value = self.memo.get(key)
        if value is not None:
            return value
        sup, l1 = self.ctx.sup_l1(mask)
        # a family sums to at most l1, so when l1 <= 2 * sup none beats the
        # sup: the first cut of _family_search, without its set-up
        if level == 0 or l1 <= 2 * sup:
            value = sup
            if level is None:
                self.family[mask] = None
        else:
            child = self.f if level is None else partial(self.f, level=level - 1)
            total, blocks = _family_search(self.ctx, self.comp, mask, child, sup)
            # total is 2 * sup when no family beats the sup
            value = total // 2
            if level is None:
                self.family[mask] = blocks
        self.memo[key] = value
        return value

    def value(self, level=None):
        return self.f(self.root, level)

    def members(self, mask):
        return self.family[mask]

    def positions(self, mask):
        return [i for i in range(self.ctx.n) if (mask >> i) & 1]

    def beaten(self, value):
        found = _family_search(self.ctx, self.comp, self.root, self.f, value)
        return found[1] is not None


class _StdEngine:
    """Interval DP for the STANDARD variant (and its iterates).

    Keys are contiguous position intervals (i, j) of the sorted support.
    Level None means the implicit fixed point, memoized under the bare
    key; an integer means the corresponding iterate, memoized under
    (i, j, level), with a level >= j - i - 1 read as the fixed point by the
    level-collapse lemma.  The memo starts with every singleton, whose
    value at every level is its own.  `split` holds the first optimal
    family start and size (l, k) of each interval whose family beats its
    sup, `part` the best sum and first optimal cut t of each split of
    [s, j) into 1 < parts < j - s runs that `partition` computed.  A split
    into singletons (parts = j - s) is a prefix sum, so it has no `part`
    entry, whether it is a whole family or the tail of a cut walk, and
    `members` reads it as singletons.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.root = (0, ctx.n)
        self.prefix = (0, *accumulate(ctx.vals))
        self.memo = {(t, t + 1): v for t, v in enumerate(ctx.vals)}
        self.part = {}
        self.split = {}

    def f(self, i, j, level):
        if level is not None and level >= j - i - 1:
            level = None
        key = (i, j) if level is None else (i, j, level)
        value = self.memo.get(key)
        if value is not None:
            return value
        value = max(self.ctx.vals[i:j])
        if level != 0:
            best, arg = self.best_split(i, j, None if level is None else level - 1, 2 * value)
            if arg is not None:
                value = best // 2
                self.split[key] = arg
        self.memo[key] = value
        return value

    def best_split(self, i, j, level, incumbent=0):
        """First strict improvement on `incumbent` of the best run-sum over
        admissible (l, k) in [i, j), with its argmax, or (incumbent, None).
        By the run-count lemma only k = min(idx[l], j - l) is tried; the
        scan stops at the first l whose suffix l1 is at most the best sum
        (the l1-incumbent lemma) or with idx[l] >= j - l (the
        singleton-start lemma)."""
        idx, prefix = self.ctx.idx, self.prefix
        best = incumbent
        arg = None
        for l in range(i, j):
            rest = prefix[j] - prefix[l]
            if rest <= best:
                break
            k = j - l
            if idx[l] >= k:
                # the all-singleton sum is rest, which beats best
                if k >= 2:
                    best = rest
                    arg = (l, k)
                break
            k = idx[l]
            if k >= 2:
                cand = self.partition(l, j, k, level)
                if cand > best:
                    best = cand
                    arg = (l, k)
        return best, arg

    def partition(self, s, j, parts, level):
        """Best sum splitting [s, j) into exactly `parts` nonempty runs."""
        if parts == 1:
            return self.f(s, j, level)
        if parts == j - s:
            return self.prefix[j] - self.prefix[s]
        key = (s, j, parts, level)
        found = self.part.get(key)
        if found is None:
            value, cut = 0, None
            for t in range(s + 1, j - parts + 2):
                cand = self.f(s, t, level) + self.partition(t, j, parts - 1, level)
                if cand > value:
                    value = cand
                    cut = t
            found = self.part[key] = (value, cut)
        return found[0]

    def value(self, level=None):
        return self.f(*self.root, level)

    def members(self, key):
        """The recorded optimal family of interval `key` at the fixed point,
        as runs (s, t), or None when the sup wins."""
        split = self.split.get(key)
        if split is None:
            return None
        s, parts = split
        j = key[1]
        runs = []
        while 1 < parts < j - s:
            t = self.part[s, j, parts, None][1]
            runs.append((s, t))
            s, parts = t, parts - 1
        if parts == j - s:
            return runs + [(t, t + 1) for t in range(s, j)]
        return runs + [(s, j)]

    def positions(self, key):
        return range(*key)

    def beaten(self, value):
        return self.best_split(*self.root, None, 2 * value)[1] is not None


def _engine(x, variant, least=1):
    """The engine of `variant` on the support of x, or None if the support
    has fewer than `least` nodes (x = 0 by default).  The checks run outside
    the cache, so a vector over the cap is refused even if a higher cap
    built its engine, and x = 0 evicts nothing.  The norm and the iterates
    pass least = 3 and answer a smaller support by the two-node lemma, so
    such a support evicts nothing either."""
    if variant not in (INCOMPARABLE, STANDARD):
        raise ValueError("unknown variant %r" % (variant,))
    n = len(x.entries)
    if n > DEFAULT_SUPPORT_CAP:
        raise ValueError("support cap exceeded: |supp| = %d > %d" % (n, DEFAULT_SUPPORT_CAP))
    if n < least:
        return None
    return _built(variant, x)


@lru_cache(maxsize=1)
def _built(variant, x):
    return (_IncEngine if variant == INCOMPARABLE else _StdEngine)(_Ctx(x))


def _sup(x):
    """The sup norm of x, 0 for x = 0: the value of a support of at most two
    nodes at every level and at the fixed point (the two-node lemma)."""
    return max(map(abs, x.entries.values()), default=ZERO)


def tsirelson_norm(x, variant):
    """Exact rational value of the implicit Tsirelson norm."""
    eng = _engine(x, variant, 3)
    return _sup(x) if eng is None else eng.ctx.rational(eng.value())


def tsirelson_iterate(x, variant, m):
    """The m-th iterate of the norm recursion; m = 0 is the sup norm and
    m >= |supp| - 1 is the norm.  m is an int (type, not isinstance, as for
    node labels: a bool is refused), checked before anything else."""
    if type(m) is not int:
        raise ValueError("iterate level must be an int, not %r" % (m,))
    if m < 0:
        raise ValueError("iterate level must be >= 0")
    eng = _engine(x, variant, 3)
    return _sup(x) if eng is None else eng.ctx.rational(eng.value(m))


def tsirelson_witness_tree(x, variant):
    """Derivation tree of one optimal admissible-family decomposition."""
    eng = _engine(x, variant)
    if eng is None:
        return {"value": "0"}
    eng.value()
    memo, members, positions = eng.memo, eng.members, eng.positions
    text, vals, nodes = eng.ctx.text, eng.ctx.vals, eng.ctx.nodes

    def build(key):
        value = text(memo[key])
        family = members(key)
        if family is not None:
            return {"value": value, "family": [build(member) for member in family]}
        # a leaf names the first position of largest value
        at = positions(key)
        i = at[0] if len(at) == 1 else max(at, key=vals.__getitem__)
        return {"value": value, "node": list(nodes[i])}

    return build(eng.root)


def check_fixed_point(x, variant):
    """Recompute the outer max of the implicit equation with the converged
    norm filled in, and verify it reproduces the norm exactly."""
    eng = _engine(x, variant)
    if eng is None:
        return True
    value = eng.value()
    # no admissible family may strictly beat the converged value ...
    if eng.beaten(value):
        return False
    # ... and the value must be attained by the sup or by the recorded family
    if value == max(eng.ctx.vals):
        return True
    members = eng.members(eng.root)
    return members is not None and sum(eng.memo[member] for member in members) == 2 * value


class InequalityReport:
    """Computed quantities and pass/fail flags of one block-sequence check."""

    def __init__(self, quantities, checks):
        self.quantities = quantities
        self.checks = checks

    @property
    def ok(self):
        return all(self.checks.values())

    def __repr__(self):
        return "InequalityReport(ok=%r, %r)" % (self.ok, self.quantities)


def verify_sandwich18(tree, blocks, coeffs):
    """The 18-equivalence chain between the block combination and the
    coefficient vector at the window-start nodes, under the comparison norm,
    with Lemma II.1 (index_incomparable <= combo_incomparable) as its
    "lemma" check.  Each block must be normalized."""
    seq = FiniteBlockSequence(blocks)
    if seq.tree != tree:
        raise ValueError("block 0 lives on a different tree")
    combo = seq.combine(coeffs)
    for i, b in enumerate(blocks):
        if tsirelson_norm(b, INCOMPARABLE) != 1:
            raise ValueError("block %d is not normalized" % i)
    index_vec = TreeVector(tree, dict(zip(seq.starts, coeffs)))

    a_std = tsirelson_norm(index_vec, STANDARD)
    a_inc = tsirelson_norm(index_vec, INCOMPARABLE)
    b_inc = tsirelson_norm(combo, INCOMPARABLE)
    b_std = tsirelson_norm(combo, STANDARD)

    checks = {
        # start nodes are pairwise incomparable, so both variants agree
        # there (the antichain lemma in the module docstring)
        "index_vector_norms_equal": a_inc == a_std,
        "lemma": a_inc <= b_inc,
        "left": a_std <= b_inc,
        "domination": b_inc <= b_std,
        "right_18": b_inc <= 18 * a_std,
    }
    return InequalityReport(
        {
            "index_standard": a_std,
            "index_incomparable": a_inc,
            "combo_incomparable": b_inc,
            "combo_standard": b_std,
            "start_nodes": seq.starts,
        },
        checks,
    )


def verify_lemma_II1(tree, blocks, coeffs):
    """Index-vector domination (Lemma II.1): the norm of the coefficient
    vector placed at the window-start nodes is at most the norm of the block
    combination.  A view of the "lemma" check of verify_sandwich18."""
    rep = verify_sandwich18(tree, blocks, coeffs)
    q = rep.quantities
    return InequalityReport(
        {"lhs": q["index_incomparable"], "rhs": q["combo_incomparable"],
         "start_nodes": q["start_nodes"]},
        {"lhs_le_rhs": rep.checks["lemma"]},
    )
