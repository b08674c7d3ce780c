"""Reference copy of the window DP in Fraction arithmetic.

This is the earlier `hi._Search` and `hi.dg_lower_bound`, kept verbatim
(only the function is renamed) as the oracle for the differential test
of the integer window DP in `baire_lab.hi`.
"""

from fractions import Fraction

from baire_lab.hi import Functional, _sign, even_op_functional, ground_functional
from baire_lab.trees import is_prefix


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


def reference_dg_lower_bound(x, depth, ops):
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
