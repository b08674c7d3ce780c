"""l_p-Baire sum norms on tree vectors.

The p-norm is the sup, over finite families of pairwise completely
incomparable segments, of the l_p aggregate of the base-norm values of
the segments; the 0-variant takes a single segment.  The production path
is a bottom-up dynamic program; baire_norm_oracle is the normative
brute-force reference.

The DP works in the "p-power domain": each tree node v carries

    f(v) = max( M(v), sum of f over children of v ),

where M(v) is the best p-th power of a single segment hanging down from
v.  This is correct because a segment through v is comparable with every
other node of v's subtree and with all of v's ancestors, so choosing one
freezes the rest of that subtree while leaving sibling subtrees free.

All arithmetic is on (lower, upper) Fraction pairs; exact paths keep
lower == upper throughout.
"""

from fractions import Fraction

from baire_lab.trees import Segment, completely_incomparable, is_prefix
from baire_lab.vectors import NormValue, linear_combination, pow_bounds


class _Zero:
    def __repr__(self):
        return "ZERO"


ZERO = _Zero()

_EXACT_ZERO = (Fraction(0), Fraction(0))


def _s_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _s_pow(s, exponent):
    if exponent == 1:
        return s
    lo, _ = pow_bounds(s[0], s[0], exponent)
    _, hi = pow_bounds(s[1], s[1], exponent)
    return lo, hi


def _s_max(scalars):
    los = [s[0] for s in scalars]
    his = [s[1] for s in scalars]
    return (max(los), max(his))


class BaireParams:
    """p in [1, oo) rational, or ZERO, plus a base norm."""

    def __init__(self, p, base):
        if p is not ZERO:
            p = Fraction(p)
            if p == 0:
                p = ZERO
            elif p < 1:
                raise ValueError("baire norm needs p >= 1 or p = ZERO")
        self.p = p
        self.base = base

    def __repr__(self):
        return "BaireParams(p=%r, base=%r)" % (self.p, self.base)


class BaireReport:
    """Norm value, its power-domain aggregate, and one optimal family."""

    def __init__(self, value, power, family):
        self.value = value
        self.power = power
        self.family = family


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


def _dp(x, params):
    tree = x.tree
    if not tree.nodes:
        raise ValueError("baire norm of a vector on the empty tree")
    base, p = params.base, params.p

    chain_agg = {}  # best single-chain aggregate hanging down from v
    chain_next = {}  # argmax child continuing that chain, or None
    for v in sorted(tree.nodes, key=len, reverse=True):
        kids = tree.children(v)
        if base.kind == "sup":
            here = (abs(x[v]), abs(x[v]))
            options = [(here, None)] + [(chain_agg[k], k) for k in kids]
            best = max(options, key=lambda o: (o[0][1], o[0][0]))
            chain_agg[v] = _s_max([here] + [chain_agg[k] for k in kids])
            chain_next[v] = best[1] if best[0][1] > here[1] else None
        else:
            here = _term_power(x[v], base.q)
            if kids:
                tails = [(chain_agg[k], k) for k in kids]
                tail, nxt = max(tails, key=lambda o: (o[0][1], o[0][0]))
            else:
                tail, nxt = _EXACT_ZERO, None
            chain_agg[v] = _s_add(here, tail)
            chain_next[v] = nxt

    def chain_of(v):
        chain = [v]
        while chain_next[chain[-1]] is not None:
            chain.append(chain_next[chain[-1]])
        return chain

    if p is ZERO:
        best_v = max(tree.nodes, key=lambda v: (chain_agg[v][1], chain_agg[v][0]))
        power = chain_agg[best_v]
        root_exp = 1 / base.q if base.kind == "ell" else None
        seg = _trim_to_support(tree, chain_of(best_v), x.support)
        family = [seg] if seg is not None else []
        return power, root_exp, family

    # p-case: M(v) from chain_agg, then subtree combination
    if base.kind == "sup":
        seg_exp = Fraction(p)
    else:
        seg_exp = p / base.q
    f = {}
    pick_chain = {}
    for v in sorted(tree.nodes, key=len, reverse=True):
        m = _s_pow(chain_agg[v], seg_exp)
        kids = tree.children(v)
        ksum = _EXACT_ZERO
        for k in kids:
            ksum = _s_add(ksum, f[k])
        f[v] = _s_max([m, ksum])
        pick_chain[v] = m[1] >= ksum[1]

    # picked chains in depth-first order, children in sorted order
    family = []
    stack = [()]
    while stack:
        v = stack.pop()
        if pick_chain[v]:
            seg = _trim_to_support(tree, chain_of(v), x.support)
            if seg is not None:
                family.append(seg)
        else:
            stack.extend(reversed(tree.children(v)))
    return f[()], 1 / Fraction(p), family


def baire_norm_report(x, params):
    power, root_exp, family = _dp(x, params)
    if root_exp is None or root_exp == 1:
        value = NormValue(*power)
    else:
        value = NormValue(*_s_pow(power, root_exp))
    return BaireReport(value, NormValue(*power), family)


def baire_norm(x, params):
    """Norm value of x under the given Baire parameters."""
    return baire_norm_report(x, params).value


def baire_norm_power(x, params):
    """The norm's power-domain aggregate (exact for l_1/sup bases, p integer)."""
    return baire_norm_report(x, params).power


def _candidate_segments(x):
    """Segments with both endpoints in supp(x); every family reduces to these."""
    supp = sorted(x.support, key=len)
    out = []
    for s in supp:
        for t in supp:
            if is_prefix(s, t):
                nodes = [t[:i] for i in range(len(s), len(t) + 1)]
                out.append(Segment(x.tree, nodes))
    seen = set()
    unique = []
    for seg in out:
        if seg.nodes not in seen:
            seen.add(seg.nodes)
            unique.append(seg)
    return unique


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
    aggs = []
    for seg in segs:
        if base.kind == "sup":
            m = max((abs(x[t]) for t in seg), default=Fraction(0))
            aggs.append((m, m))
        else:
            total = _EXACT_ZERO
            for t in seg:
                total = _s_add(total, _term_power(x[t], base.q))
            aggs.append(total)

    if p is ZERO:
        if not segs:
            return BaireReport(NormValue(0), NormValue(0), [])
        i = max(range(len(segs)), key=lambda i: (aggs[i][1], aggs[i][0]))
        power = aggs[i]
        if base.kind == "sup":
            value = NormValue(*power)
        else:
            value = NormValue(*_s_pow(power, 1 / base.q))
        return BaireReport(value, NormValue(*power), [segs[i]])

    seg_exp = Fraction(p) if base.kind == "sup" else Fraction(p) / base.q
    powers = [_s_pow(v, seg_exp) for v in aggs]
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
    value = NormValue(*_s_pow(power, 1 / Fraction(p)))
    return BaireReport(value, NormValue(*power), family)


def baire_norm_oracle(x, params, cap=12):
    return baire_norm_oracle_report(x, params, cap).value


class BlockProfile:
    def __init__(self, norm, profile, flagged):
        self.norm = norm
        self.profile = profile
        self.flagged = flagged


def incomparable_block_profile(blocks, coeffs, params):
    """Norm of a coefficient combination of incomparable blocks, with the
    l_p profile of (coeff * block norm) for ratio monitoring.

    The profile is the value the combination would take if the blocks
    behaved exactly like the l_p basis; the flag trips when the measured
    ratio is certainly outside [1/2, 2].
    """
    if len(blocks) != len(coeffs):
        raise ValueError("blocks and coeffs length mismatch")
    supports = [b.support for b in blocks]
    for b, s in zip(blocks, supports):
        if not s:
            raise ValueError("blocks must be nonzero")
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if not completely_incomparable(supports[i], supports[j]):
                raise ValueError(
                    "blocks %d and %d have comparable supports" % (i, j)
                )
    norm = baire_norm(linear_combination(blocks[0].tree, blocks, coeffs), params)

    terms = []
    for b, c in zip(blocks, coeffs):
        nb = baire_norm(b, params)
        terms.append((abs(Fraction(c)) * nb.lower, abs(Fraction(c)) * nb.upper))
    if params.p is ZERO:
        profile = _s_max(terms) if terms else _EXACT_ZERO
    else:
        total = _EXACT_ZERO
        for t in terms:
            total = _s_add(total, _s_pow(t, Fraction(params.p)))
        profile = _s_pow(total, 1 / Fraction(params.p))
    profile = NormValue(*profile)

    flagged = False
    if profile.lower > 0:
        certainly_low = norm.upper * 2 < profile.lower
        certainly_high = norm.lower > 2 * profile.upper
        flagged = certainly_low or certainly_high
    return BlockProfile(norm, profile, flagged)
