"""Reference copy of the Baire DP in Fraction arithmetic.

This is the earlier `baire._dp` with the helpers it calls and the body of
`baire_norm_report`, kept verbatim (only `_dp` and the report function are
renamed) as the oracle for the differential test of the integer-grid DP
in `baire_lab.baire`.
"""

from fractions import Fraction

from baire_lab.baire import ZERO, BaireReport
from baire_lab.trees import Segment
from baire_lab.vectors import NormValue, pow_bounds

_EXACT_ZERO = (Fraction(0), Fraction(0))


def _s_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _s_pow(s, exponent):
    if exponent == 1:
        return s
    return pow_bounds(s[0], s[1], exponent)


def _s_max(scalars):
    los = [s[0] for s in scalars]
    his = [s[1] for s in scalars]
    return (max(los), max(his))


def _term_power(value, exponent):
    """|value| ** exponent as a scalar (exponent a positive Fraction)."""
    v = abs(value)
    return pow_bounds(v, v, exponent)


def _trim_to_support(tree, chain, support):
    """Convex hull of chain's support nodes, or None if disjoint from it."""
    hits = [t for t in chain if t in support]
    if not hits:
        return None
    top, bottom = hits[0], hits[-1]
    return Segment(tree, [bottom[: i] for i in range(len(top), len(bottom) + 1)])


def reference_dp(x, params):
    tree = x.tree
    if not tree.nodes:
        raise ValueError("baire norm of a vector on the empty tree")
    base, p = params.base, params.p
    support = x.support
    bottom_up = sorted(tree.nodes, key=len, reverse=True)

    chain_agg = {}  # best single-chain aggregate hanging down from v
    chain_next = {}  # argmax child continuing that chain, or None
    for v in bottom_up:
        kids = tree.children(v)
        if kids:
            tails = [(chain_agg[k], k) for k in kids]
            tail, nxt = max(tails, key=lambda o: (o[0][1], o[0][0]))
        else:
            tail, nxt = _EXACT_ZERO, None
        # a node off the support keeps its best child's aggregate, whose
        # M(v) below is then already memoized
        if base.kind == "sup":
            # sup aggregates are exact; v itself wins ties
            here = abs(x[v])
            if tail[1] <= here:
                tail, nxt = (here, here), None
        elif v in support:
            tail = _s_add(_term_power(x[v], base.q), tail)
        chain_agg[v] = tail
        chain_next[v] = nxt

    def chain_of(v):
        chain = [v]
        while chain_next[chain[-1]] is not None:
            chain.append(chain_next[chain[-1]])
        return chain

    if p is ZERO:
        best_v = ()
        power = chain_agg[best_v]
        root_exp = 1 / base.q if base.kind == "ell" else None
        seg = _trim_to_support(tree, chain_of(best_v), support)
        family = [seg] if seg is not None else []
        return power, root_exp, family

    # p-case: M(v) from chain_agg, then subtree combination
    if base.kind == "sup":
        seg_exp = Fraction(p)
    else:
        seg_exp = p / base.q
    seg_power = {}  # M(v) by chain aggregate
    f = {}
    pick_chain = {}
    for v in bottom_up:
        agg = chain_agg[v]
        m = seg_power.get(agg)
        if m is None:
            m = seg_power[agg] = _s_pow(agg, seg_exp)
        kids = tree.children(v)
        ksum = f[kids[0]] if kids else _EXACT_ZERO
        for k in kids[1:]:
            ksum = _s_add(ksum, f[k])
        f[v] = _s_max([m, ksum])
        pick_chain[v] = m[1] >= ksum[1]

    # picked chains in depth-first order, children in sorted order
    family = []
    stack = [()]
    while stack:
        v = stack.pop()
        if pick_chain[v]:
            seg = _trim_to_support(tree, chain_of(v), support)
            if seg is not None:
                family.append(seg)
        else:
            stack.extend(reversed(tree.children(v)))
    return f[()], 1 / Fraction(p), family


def reference_report(x, params):
    power, root_exp, family = reference_dp(x, params)
    if root_exp is None or root_exp == 1:
        value = NormValue(*power)
    else:
        value = NormValue(*_s_pow(power, root_exp))
    return BaireReport(value, NormValue(*power), family)
