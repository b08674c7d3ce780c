"""Reference copy of the Tsirelson engines without engine reuse.

This is the earlier `tsirelson._engine` with both engines and the bodies
of `tsirelson_norm`, `tsirelson_iterate`, `tsirelson_witness_tree` and
`check_fixed_point`, kept verbatim (only the public functions are
renamed): every call builds a fresh engine and every iterate level is
computed down to level 0, with no level collapse.  It is the oracle for
the differential test of the shared, collapsing engines in
`baire_lab.tsirelson`.
"""

from fractions import Fraction
from functools import partial
from math import lcm

from baire_lab.trees import comparable
from baire_lab.tsirelson import DEFAULT_SUPPORT_CAP, INCOMPARABLE, STANDARD

class _Ctx:
    """Sorted support, absolute values and enumeration indices."""

    def __init__(self, x):
        tree = x.tree
        self.nodes = sorted(x.support, key=tree.index)
        self.vals = [abs(x[t]) for t in self.nodes]
        self.idx = [tree.index(t) for t in self.nodes]
        self.n = len(self.nodes)
        self.full = (1 << self.n) - 1

    def sup(self, mask):
        best = Fraction(0)
        for i in range(self.n):
            if (mask >> i) & 1 and self.vals[i] > best:
                best = self.vals[i]
        return best

    def leaf(self, value, positions):
        """Witness leaf: the first position of largest value."""
        i = max(positions, key=self.vals.__getitem__)
        return {"value": str(value), "node": list(self.nodes[i])}


def _family_search(ctx, comp, mask, childf, incumbent):
    """Best sum of childf over INCOMPARABLE-admissible families inside mask.

    comp[i] is the bitmask of the support positions comparable with i.

    Returns (best_sum, blocks) where the recorded candidate value is the
    plain sum (the caller halves it); blocks is the best family as a list
    of bitmasks, or None if no family beats 2 * incumbent.  incumbent is
    the value the family must strictly exceed after halving, which drives
    the l_1 pruning.

    All arithmetic inside the walk is on integers: every value occurring
    is a sum of support values divided by a power of two no larger than
    2**npos, so scaling by lcm(denominators) << npos clears denominators.
    """
    positions = [i for i in range(ctx.n) if (mask >> i) & 1]
    npos = len(positions)
    if npos < 2:
        return 2 * incumbent, None
    den = 1
    for p in positions:
        den = lcm(den, ctx.vals[p].denominator)
    scale = den << npos
    ivals = {}
    for p in positions:
        v = ctx.vals[p] * scale
        ivals[p] = v.numerator

    def comp_of(block_mask):
        out = 0
        i = 0
        m = block_mask
        while m:
            if m & 1:
                out |= comp[i]
            m >>= 1
            i += 1
        return out

    suffix = [0] * (npos + 1)
    for i in range(npos - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ivals[positions[i]]

    target = 2 * incumbent * scale
    # floor keeps pruning sound when the target is not on the grid
    best = [target.numerator // target.denominator, None]

    cf_cache = {}

    def cf(block_mask):
        r = cf_cache.get(block_mask)
        if r is None:
            v = childf(block_mask) * scale
            assert v.denominator == 1, "child value off the scaling grid"
            r = cf_cache[block_mask] = v.numerator
        return r

    blocks = []

    def rec(pi, open_mask, open_l1, count, total, forbidden, maxk):
        # upper bound on any completion of this trace
        if total + open_l1 + suffix[pi] <= best[0]:
            return
        if pi == npos:
            if open_mask and count >= 1:
                value = total + cf(open_mask)
                if value > best[0]:
                    best[0] = value
                    best[1] = blocks + [open_mask]
            return
        p = positions[pi]
        bit = 1 << p
        if not (forbidden & bit):
            if open_mask:
                # close the open set and start a new one here
                if count + 2 <= maxk:
                    fb = forbidden | comp_of(open_mask)
                    if not (fb & bit):
                        v = cf(open_mask)
                        blocks.append(open_mask)
                        rec(pi + 1, bit, ivals[p], count + 1, total + v, fb, maxk)
                        blocks.pop()
                # grow the open set
                rec(pi + 1, open_mask | bit, open_l1 + ivals[p], count,
                    total, forbidden, maxk)
            else:
                # open the first set here; k is capped by this node's index
                maxk0 = ctx.idx[p]
                if maxk0 >= 2:
                    rec(pi + 1, bit, ivals[p], 0, 0, forbidden, maxk0)
        # skip this position
        rec(pi + 1, open_mask, open_l1, count, total, forbidden, maxk)

    rec(0, 0, 0, 0, 0, 0, 0)
    if best[1] is None:
        return 2 * incumbent, None
    total = Fraction(best[0], scale)
    if total <= 2 * incumbent:
        return 2 * incumbent, None
    return total, best[1]


class _IncEngine:
    """Memoized norm of the INCOMPARABLE variant on support subsets.

    Keys are bitmasks of support positions.  Level None means the implicit
    fixed point, memoized under the bare mask with its optimal family (or
    None) in `family`; an integer means the corresponding iterate,
    memoized under (mask, level).
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.root = ctx.full
        self.comp = [
            sum(1 << j for j, t in enumerate(ctx.nodes) if comparable(s, t))
            for s in ctx.nodes
        ]
        self.memo = {}
        self.family = {}

    def f(self, mask, level=None):
        key = mask if level is None else (mask, level)
        value = self.memo.get(key)
        if value is not None:
            return value
        sup = self.ctx.sup(mask)
        if level == 0:
            value = sup
        else:
            child = self.f if level is None else partial(self.f, level=level - 1)
            total, blocks = _family_search(self.ctx, self.comp, mask, child, sup)
            value = total / 2 if blocks is not None else sup
            if level is None:
                self.family[mask] = blocks
        self.memo[key] = value
        return value

    def value(self, level=None):
        return self.f(self.root, level)

    def members(self, mask):
        return self.family[mask]

    def positions(self, mask):
        return (i for i in range(self.ctx.n) if (mask >> i) & 1)

    def beaten(self, value):
        found = _family_search(self.ctx, self.comp, self.root, self.f, value)
        return found[1] is not None


class _StdEngine:
    """Interval DP for the STANDARD variant (and its iterates).

    Keys are contiguous position intervals (i, j) of the sorted support.
    Level None means the implicit fixed point, memoized under the bare
    key; an integer means the corresponding iterate, memoized under
    (i, j, level).  `split` holds the first optimal family start
    and size (l, k) of each interval whose family beats its sup, `cut`
    the first optimal cut t of each split into runs.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.root = (0, ctx.n)
        self.memo = {}
        self.part_memo = {}
        self.split = {}
        self.cut = {}

    def f(self, i, j, level):
        if i >= j:
            return Fraction(0)
        key = (i, j) if level is None else (i, j, level)
        if key in self.memo:
            return self.memo[key]
        value = max(self.ctx.vals[i:j])
        if level != 0:
            best, arg = self.best_split(i, j, None if level is None else level - 1)
            if best / 2 > value:
                value = best / 2
                self.split[key] = arg
        self.memo[key] = value
        return value

    def best_split(self, i, j, level):
        """Best run-sum over admissible (l, k) in [i, j), with its argmax;
        by the run-count lemma only k = min(idx[l], j - l) is tried."""
        best = Fraction(0)
        arg = None
        for l in range(i, j):
            k = min(self.ctx.idx[l], j - l)
            if k >= 2:
                cand = self.partition(l, j, k, level)
                if cand > best:
                    best = cand
                    arg = (l, k)
        return best, arg

    def partition(self, s, j, parts, level):
        """Best sum splitting [s, j) into exactly `parts` nonempty runs."""
        key = (s, j, parts, level)
        if key in self.part_memo:
            return self.part_memo[key]
        if parts == 1:
            value = self.f(s, j, level)
        else:
            value, cut = Fraction(0), None
            for t in range(s + 1, j - parts + 2):
                cand = self.f(s, t, level) + self.partition(t, j, parts - 1, level)
                if cand > value:
                    value = cand
                    cut = t
            self.cut[key] = cut
        self.part_memo[key] = value
        return value

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
        while parts > 1:
            t = self.cut[s, j, parts, None]
            runs.append((s, t))
            s, parts = t, parts - 1
        runs.append((s, j))
        return runs

    def positions(self, key):
        return range(*key)

    def beaten(self, value):
        return self.best_split(*self.root, None)[0] > 2 * value


def _engine(x, variant, cap):
    """The engine of `variant` on the support of x, or None if x = 0."""
    if variant not in (INCOMPARABLE, STANDARD):
        raise ValueError("unknown variant %r" % (variant,))
    if len(x.support) > cap:
        raise ValueError(
            "support cap exceeded: |supp| = %d > %d" % (len(x.support), cap)
        )
    if not x.support:
        return None
    return (_IncEngine if variant == INCOMPARABLE else _StdEngine)(_Ctx(x))


def reference_norm(x, variant, cap=DEFAULT_SUPPORT_CAP):
    """Exact rational value of the implicit Tsirelson norm."""
    eng = _engine(x, variant, cap)
    return Fraction(0) if eng is None else eng.value()


def reference_iterate(x, variant, m, cap=DEFAULT_SUPPORT_CAP):
    """The m-th iterate of the norm recursion; m = 0 is the sup norm."""
    eng = _engine(x, variant, cap)
    if m < 0:
        raise ValueError("iterate level must be >= 0")
    return Fraction(0) if eng is None else eng.value(m)


def reference_witness_tree(x, variant, cap=DEFAULT_SUPPORT_CAP):
    """Derivation tree of one optimal admissible-family decomposition."""
    eng = _engine(x, variant, cap)
    if eng is None:
        return {"value": "0"}
    eng.value()

    def build(key):
        value = eng.memo[key]
        members = eng.members(key)
        if members is None:
            return eng.ctx.leaf(value, eng.positions(key))
        return {"value": str(value), "family": [build(member) for member in members]}

    return build(eng.root)


def reference_check_fixed_point(x, variant, cap=DEFAULT_SUPPORT_CAP):
    """Recompute the outer max of the implicit equation with the converged
    norm filled in, and verify it reproduces the norm exactly."""
    eng = _engine(x, variant, cap)
    if eng is None:
        return True
    value = eng.value()
    # no admissible family may strictly beat the converged value ...
    if eng.beaten(value):
        return False
    # ... and the value must be attained by the sup or by the recorded family
    if value == eng.ctx.sup(eng.ctx.full):
        return True
    members = eng.members(eng.root)
    return members is not None and sum(eng.memo[member] for member in members) / 2 == value
