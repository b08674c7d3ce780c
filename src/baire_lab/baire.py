"""l_p-Baire sum norms on tree vectors.

For p a rational >= 1, the p-norm is the sup, over finite families of
pairwise completely incomparable segments, of the l_p aggregate of the
base-norm values of the segments; the 0-variant, p = 0, takes a single
segment.  Its p is stored as ZERO, the package's one zero Fraction
(vectors.ZERO), which this module re-exports.  The production path
is a bottom-up dynamic program; baire_norm_oracle is the normative
brute-force reference.

The DP works in the "p-power domain": each tree node v carries

    f(v) = max( M(v), sum of f over children of v ),

where M(v) is the best p-th power of a single segment hanging down from
v.  This is correct because a segment through v is comparable with every
other node of v's subtree and with all of v's ancestors, so choosing one
freezes the rest of that subtree while leaving sibling subtrees free.

The DP runs on the tree's arena (see trees): it reads the support as
the node ids the vector keeps (TreeVector.ids), every per-node table is a
list indexed by id, and since a parent's id is smaller than its
children's, bottom-up is descending ids.
Each node pushes its chain aggregate and its f to its parent, so only
the walk that collects the family reads a node's children.

Beside each node's best single-chain aggregate the DP records the ids of
the first and last support node of that chain, or None if it meets no
support.  A family segment is built from those two endpoint ids alone:
the ancestors of the last one, up to the first, read off the parent ids,
with no tuple hashed.  The walk that collects the family, and the
0-variant's read at the root, gather the endpoint pairs and build every
segment in one pass (trees.segments_from_ids).
Chain aggregates never decrease toward the root, since a parent adds a
nonnegative term to its best child's aggregate, or with the sup base takes
a max with it.  So the root holds the best single chain, and the
0-variant reads its value and segment there.

Terms, segment power sums and roots are BaseNorm's (see vectors): a
segment's p-th power is its power sum raised to p * root_exponent.

Values are exact rationals or certified intervals, (lower, upper) pairs
with lower == upper on exact paths.  The DP computes them on one integer
grid rather than in Fractions, with vectors.pow_ends applying every
exponent:

- the terms come from one pow_ends call: the vector's |x_t| on its
  integer grid (TreeVector.grid), raised to the base's term_exponent,
  once per distinct |x_t|, on the grid scale that call returns;
- chain aggregates are then sums of integers over scale;
- M(v) comes from one more pow_ends call, on every distinct end of a
  chain aggregate over scale, raised to p * root_exponent
  (BaireParams.chain_exponent, fixed once per parameter set), on a grid of
  its own, and is read through the aggregate's id (see Chain reuse);
- only the root value goes back to Fraction.

Integers over one positive denominator add and compare exactly as the
rationals they stand for, so every sum, argmax and tie-break, and with
them every value and family, is the one the Fraction arithmetic gave.
Inside the DP pairs are (upper, lower), so that tuple order is the DP's
order: chains are compared by their upper end first.  The oracle keeps
Fraction pairs.

Chain reuse: the terms, the chain aggregates and ends, and the
numbering of the distinct aggregates do not depend on p.  _chains
computes them all (agg_id[v] numbers v's aggregate, aggs lists the
distinct ones in id order, agg_ends is the set of their ends) in a cache
of one entry keyed by (vector, base): everything it reads.  Both are
values, so the same vector hits by identity and an equal one by
TreeVector.__eq__.  Each p-case makes one pow_ends call on the end set
and reads M(v) from two int lists indexed by id, so its bottom-up loop
hashes nothing.  A sweep over p on one vector and base makes one chain
pass.  _chains is a pure function of its key, so the order of calls
changes no value and no family, a scaled vector gets a fresh pass, and
segments are built on the calling vector's tree.  Call it positionally:
lru_cache keys f(x, base) and f(x, base=base) apart.
"""

from fractions import Fraction
from functools import lru_cache

from baire_lab.trees import Segment, completely_incomparable, is_prefix, segments_from_ids
from baire_lab.vectors import ZERO, NormValue, pow_bounds, pow_ends

_EXACT_ZERO = (ZERO, ZERO)


def _s_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


class BaireParams:
    """p, a rational >= 1 or 0, plus a base norm.

    p is read through Fraction, and every zero p is stored as ZERO, the
    package's one zero (vectors.ZERO), so `params.p is ZERO` marks the
    0-variant and params.p is always a Fraction.
    The DP's two exponents are fixed once, in __init__: chain_exponent,
    p * base.root_exponent, takes a chain's power sum to its p-th power
    (None for ZERO), and root_exponent takes the DP's power-domain value to
    the norm, 1/p (base.root_exponent for ZERO).
    """

    def __init__(self, p, base):
        try:
            p = Fraction(p)
        except ZeroDivisionError:
            raise ValueError("zero denominator in baire p %r" % (p,)) from None
        if p == 0:
            p = ZERO
        elif p < 1:
            raise ValueError("baire norm needs p >= 1 or p = ZERO")
        self.p = p
        self.base = base
        if p is ZERO:
            self.chain_exponent = None
            self.root_exponent = base.root_exponent
        else:
            self.chain_exponent = p * base.root_exponent
            self.root_exponent = 1 / p

    def __repr__(self):
        return "BaireParams(p=%r, base=%r)" % (self.p, self.base)


class BaireReport:
    """Norm value, its power-domain aggregate, and one optimal family."""

    def __init__(self, value, power, family):
        self.value = value
        self.power = power
        self.family = family


@lru_cache(maxsize=1)
def _chains(x, base):
    """The part of the DP that does not depend on p, for x and the base
    norm: (scale, chain_agg, ends, agg_id, aggs, agg_ends)."""
    sup = base.kind == "sup"
    parent = x.tree.parent
    n = len(parent)

    # one term per distinct |coefficient|, keyed by its integer over the
    # grid denominator, since hashing a Fraction is slow; pairs are
    # (upper, lower) from here on
    nums, den = x.grid()
    scale, terms = pow_ends(set(nums), den, base.term_exponent)
    term = [None] * n
    for i, A in zip(x.ids, nums):
        term[i] = terms[A][::-1]

    # bottom-up over descending ids; before v's turn, its slots hold its
    # best child's aggregate and ends, pushed up by the children
    chain_agg = [(0, 0)] * n  # best single-chain aggregate hanging down from v
    ends = [None] * n  # ids of the first and last support node of that chain, or None
    for v in range(n - 1, -1, -1):
        tail, end = chain_agg[v], ends[v]
        # a node off the support keeps its best child's aggregate, whose
        # M(v) below is then already computed
        here = term[v]
        if here is not None:
            if not sup:
                tail = (here[0] + tail[0], here[1] + tail[1])
            elif tail[0] <= here[0]:
                # sup aggregates are exact; v itself wins ties
                tail, end = (here[0], here[0]), None
            end = (v, end[1] if end else v)
            chain_agg[v] = tail
            ends[v] = end
        up = parent[v]
        # siblings arrive in descending ids, so >= keeps the first best
        # child in sorted order; every aggregate is >= the initial (0, 0)
        if up is not None and tail >= chain_agg[up]:
            chain_agg[up] = tail
            ends[up] = end

    # number the distinct aggregates in id order
    ids = {}
    agg_id = [ids.setdefault(agg, len(ids)) for agg in chain_agg]
    return scale, chain_agg, ends, agg_id, list(ids), {end for agg in ids for end in agg}


def _dp(x, params):
    tree = x.tree
    if not tree.nodes:
        raise ValueError("baire norm of a vector on the empty tree")
    base, p = params.base, params.p
    scale, chain_agg, ends, agg_id, aggs, agg_ends = _chains(x, base)

    if p is ZERO:
        # aggregates never decrease toward the root, so it holds the max
        hi, lo = chain_agg[0]
        family = segments_from_ids(tree, [ends[0]] if ends[0] else [])
        return (Fraction(lo, scale), Fraction(hi, scale)), family

    # p-case: M(v) once per distinct chain aggregate, on a grid of its own
    mscale, bounds = pow_ends(agg_ends, scale, params.chain_exponent)
    seg_hi = [bounds[hi][1] for hi, _ in aggs]
    seg_lo = [bounds[lo][0] for _, lo in aggs]
    parent = tree.parent
    n = len(parent)
    # f(v) = max(M(v), sum of f over its children), the sums pushed up;
    # the last turn, the root's, leaves f(root) in (hi, lo)
    kids_hi = [0] * n
    kids_lo = [0] * n
    pick_chain = [False] * n
    for v in range(n - 1, -1, -1):
        a = agg_id[v]
        m_hi, m_lo = seg_hi[a], seg_lo[a]
        hi, lo = kids_hi[v], kids_lo[v]
        pick_chain[v] = m_hi >= hi
        hi = m_hi if m_hi > hi else hi
        lo = m_lo if m_lo > lo else lo
        up = parent[v]
        if up is not None:
            kids_hi[up] += hi
            kids_lo[up] += lo

    # picked chains in depth-first order, children in sorted order
    kids = tree.kids
    picked = []
    stack = [0]
    while stack:
        v = stack.pop()
        if not pick_chain[v]:
            stack.extend(reversed(kids[v]))
        elif ends[v]:
            picked.append(ends[v])
    family = segments_from_ids(tree, picked)
    return (Fraction(lo, mscale), Fraction(hi, mscale)), family


def baire_norm_report(x, params):
    power, family = _dp(x, params)
    value = NormValue(*pow_bounds(*power, params.root_exponent))
    return BaireReport(value, NormValue(*power), family)


def baire_norm(x, params):
    """Norm value of x under the given Baire parameters."""
    return baire_norm_report(x, params).value


def _candidate_segments(x):
    """Segments with both endpoints in supp(x); every family reduces to these.

    A segment's shortest and longest nodes are its endpoints, so distinct
    pairs (s, t) give distinct segments.  The support is walked in the
    order of entries, enumeration order, so the candidates, and with them
    the first optimal family, do not depend on the order the entries were
    given in.
    """
    supp = list(x.entries)
    out = []
    for s in supp:
        for t in supp:
            if is_prefix(s, t):
                nodes = [t[:i] for i in range(len(s), len(t) + 1)]
                out.append(Segment(x.tree, nodes))
    return out


def baire_norm_oracle_report(x, params, cap=12):
    """Brute force over all families of pairwise incomparable segments."""
    if not x.tree.nodes:
        raise ValueError("baire norm of a vector on the empty tree")
    if len(x.support) > cap:
        raise ValueError("oracle cap exceeded: |supp| = %d > %d" % (len(x.support), cap))
    base, p = params.base, params.p
    segs = _candidate_segments(x)
    # per-segment aggregates, kept in the base norm's own power domain so
    # that exact bases stay exact (no root-then-square round trips)
    aggs = [base.power_sum(x[t] for t in seg) for seg in segs]

    if p is ZERO:
        if not segs:
            return BaireReport(NormValue(0), NormValue(0), [])
        i = max(range(len(segs)), key=lambda i: (aggs[i][1], aggs[i][0]))
        power = aggs[i]
        value = NormValue(*pow_bounds(*power, base.root_exponent))
        return BaireReport(value, NormValue(*power), [segs[i]])

    powers = [pow_bounds(*v, p * base.root_exponent) for v in aggs]
    compat = [
        [completely_incomparable(a.nodes, b.nodes) for b in segs] for a in segs
    ]
    best = [_EXACT_ZERO, []]

    def search(i, chosen, total):
        if total[1] > best[0][1] or (total[1] == best[0][1] and total[0] > best[0][0]):
            best[0] = total
            best[1] = list(chosen)
        for j in range(i, len(segs)):
            if all(compat[j][c] for c in chosen):
                chosen.append(j)
                search(j + 1, chosen, _s_add(total, powers[j]))
                chosen.pop()

    search(0, [], _EXACT_ZERO)
    power = best[0]
    family = [segs[j] for j in best[1]]
    value = NormValue(*pow_bounds(*power, 1 / p))
    return BaireReport(value, NormValue(*power), family)


def baire_norm_oracle(x, params, cap=12):
    return baire_norm_oracle_report(x, params, cap).value
