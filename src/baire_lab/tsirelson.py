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
one set at a time and pruning with the l_1 upper bound, and records the
optimal family of every subset.

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
"""

from fractions import Fraction
from functools import partial
from math import lcm

from baire_lab.trees import comparable, completely_incomparable
from baire_lab.vectors import TreeVector, linear_combination

INCOMPARABLE = "incomparable"
STANDARD = "standard"

DEFAULT_SUPPORT_CAP = 14


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


def tsirelson_norm(x, variant, cap=DEFAULT_SUPPORT_CAP):
    """Exact rational value of the implicit Tsirelson norm."""
    eng = _engine(x, variant, cap)
    return Fraction(0) if eng is None else eng.value()


def tsirelson_iterate(x, variant, m, cap=DEFAULT_SUPPORT_CAP):
    """The m-th iterate of the norm recursion; m = 0 is the sup norm."""
    eng = _engine(x, variant, cap)
    if m < 0:
        raise ValueError("iterate level must be >= 0")
    return Fraction(0) if eng is None else eng.value(m)


def tsirelson_witness_tree(x, variant, cap=DEFAULT_SUPPORT_CAP):
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


def check_fixed_point(x, variant, cap=DEFAULT_SUPPORT_CAP):
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


class InequalityReport:
    """Computed quantities and pass/fail flags of one block-sequence check."""

    def __init__(self, ok, quantities, checks):
        self.ok = ok
        self.quantities = quantities
        self.checks = checks

    def __repr__(self):
        return "InequalityReport(ok=%r, %r)" % (self.ok, self.quantities)


def _block_sequence_setup(tree, blocks, coeffs, cap):
    """Validate a finite block sequence; return its window-start nodes, the
    coefficient vector placed at them, and the block combination."""
    if not blocks:
        raise ValueError("empty block sequence")
    if len(blocks) != len(coeffs):
        raise ValueError("blocks and coeffs length mismatch")
    supports = []
    for i, b in enumerate(blocks):
        if b.tree != tree:
            raise ValueError("block %d lives on a different tree" % i)
        if not b.support:
            raise ValueError("block %d is zero" % i)
        supports.append(sorted(b.support, key=tree.index))
    for i in range(len(blocks) - 1):
        hi = tree.index(supports[i][-1])
        lo = tree.index(supports[i + 1][0])
        if hi >= lo:
            raise ValueError(
                "blocks %d and %d do not occupy increasing index windows"
                % (i, i + 1)
            )
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if not completely_incomparable(supports[i], supports[j]):
                raise ValueError(
                    "blocks %d and %d have comparable supports" % (i, j)
                )
    for i, b in enumerate(blocks):
        if tsirelson_norm(b, INCOMPARABLE, cap) != 1:
            raise ValueError("block %d is not normalized" % i)
    starts = [s[0] for s in supports]
    index_vec = TreeVector(tree, dict(zip(starts, coeffs)))
    return starts, index_vec, linear_combination(tree, blocks, coeffs)


def verify_lemma_II1(tree, blocks, coeffs, cap=DEFAULT_SUPPORT_CAP):
    """Index-vector domination: the norm of the coefficient vector placed at
    the window-start nodes is at most the norm of the block combination."""
    starts, index_vec, combo = _block_sequence_setup(tree, blocks, coeffs, cap)
    lhs = tsirelson_norm(index_vec, INCOMPARABLE, cap)
    rhs = tsirelson_norm(combo, INCOMPARABLE, cap)
    return InequalityReport(
        lhs <= rhs,
        {"lhs": lhs, "rhs": rhs, "start_nodes": starts},
        {"lhs_le_rhs": lhs <= rhs},
    )


def verify_sandwich18(tree, blocks, coeffs, cap=DEFAULT_SUPPORT_CAP):
    """The 18-equivalence chain between the block combination and the
    coefficient vector at the window-start nodes, under the comparison norm,
    with Lemma II.1 (index_incomparable <= combo_incomparable) as its
    "lemma" check."""
    starts, index_vec, combo = _block_sequence_setup(tree, blocks, coeffs, cap)

    a_std = tsirelson_norm(index_vec, STANDARD, cap)
    a_inc = tsirelson_norm(index_vec, INCOMPARABLE, cap)
    b_inc = tsirelson_norm(combo, INCOMPARABLE, cap)
    b_std = tsirelson_norm(combo, STANDARD, cap)

    checks = {
        # start nodes are pairwise incomparable, so both variants agree there
        "index_vector_norms_equal": a_inc == a_std,
        "lemma": a_inc <= b_inc,
        "left": a_std <= b_inc,
        "domination": b_inc <= b_std,
        "right_18": b_inc <= 18 * a_std,
    }
    return InequalityReport(
        all(checks.values()),
        {
            "index_standard": a_std,
            "index_incomparable": a_inc,
            "combo_incomparable": b_inc,
            "combo_standard": b_std,
            "start_nodes": starts,
        },
        checks,
    )
