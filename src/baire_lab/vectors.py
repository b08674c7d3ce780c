"""Rational vectors on trees, base norms, and certified norm values.

Coefficients live in Q (fractions.Fraction).  The l_1 and sup base norms
stay inside Q; l_q roots for q > 1 leave Q, so those values are returned
as certified rational intervals of relative width at most 2**-ROOT_BITS
(2**-48).
"""

from fractions import Fraction

from baire_lab.trees import Segment

# relative interval width for irrational roots: 2**-ROOT_BITS
ROOT_BITS = 48


def integer_nth_root(x, n):
    """Floor of the n-th root of a nonnegative integer."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r**n > x:
        r -= 1
    return r


def nth_root_bounds(value, n, bits=ROOT_BITS):
    """(lo, hi) rational bounds on value**(1/n), exact when possible.

    value is a nonnegative Fraction.  If value is a perfect n-th power of
    a rational the bounds coincide; otherwise hi - lo <= lo * 2**-bits.
    """
    if n == 1:
        return value, value
    if value == 0:
        return Fraction(0), Fraction(0)
    num, den = value.numerator, value.denominator
    rn, rd = integer_nth_root(num, n), integer_nth_root(den, n)
    if rn**n == num and rd**n == den:
        exact = Fraction(rn, rd)
        return exact, exact
    # directed rounding with a scaled integer root; scale up until the
    # floor root is large enough for the relative-width guarantee
    shift = bits
    while True:
        scaled = (num << (n * shift)) // den
        root = integer_nth_root(scaled, n)
        if root >> bits:
            break
        shift += bits
    lo = Fraction(root, 1 << shift)
    hi = Fraction(root + 1, 1 << shift)
    return lo, hi


def pow_bounds(lo, hi, exponent):
    """Bounds for x**exponent over a nonnegative interval, exponent in Q+."""
    a, b = exponent.numerator, exponent.denominator
    plo, phi = lo**a, hi**a
    rlo, _ = nth_root_bounds(plo, b)
    _, rhi = nth_root_bounds(phi, b)
    return rlo, rhi


class NormValue:
    """Exact rational or certified-interval value of a norm."""

    def __init__(self, lower, upper=None):
        lower = Fraction(lower)
        upper = lower if upper is None else Fraction(upper)
        if lower > upper:
            raise ValueError("interval with lower > upper")
        self.lower = lower
        self.upper = upper

    @property
    def is_exact(self):
        return self.lower == self.upper

    @property
    def exact(self):
        if not self.is_exact:
            raise ValueError("norm value is an interval, not exact")
        return self.lower

    def contains(self, value):
        return self.lower <= value <= self.upper

    def overlaps(self, other):
        return self.lower <= other.upper and other.lower <= self.upper

    def __eq__(self, other):
        if isinstance(other, NormValue):
            return self.lower == other.lower and self.upper == other.upper
        return self.is_exact and self.lower == other

    def __repr__(self):
        if self.is_exact:
            return "NormValue(%s)" % self.lower
        return "NormValue(%s, %s)" % (self.lower, self.upper)


class BaseNorm:
    """The norm applied along a single segment: l_q (rational q >= 1) or sup."""

    def __init__(self, kind, q=None):
        if kind == "ell":
            q = Fraction(q)
            if q < 1:
                raise ValueError("ell_q base norm needs q >= 1")
            self.q = q
        elif kind == "sup":
            self.q = None
        else:
            raise ValueError("unknown base norm kind %r" % (kind,))
        self.kind = kind

    @classmethod
    def ell(cls, q):
        return cls("ell", q)

    @classmethod
    def sup(cls):
        return cls("sup")

    @property
    def is_exact(self):
        """Whether segment values stay in Q (l_1 and sup do)."""
        return self.kind == "sup" or self.q == 1

    def __eq__(self, other):
        return isinstance(other, BaseNorm) and (self.kind, self.q) == (other.kind, other.q)

    def __repr__(self):
        if self.kind == "sup":
            return "BaseNorm.sup()"
        return "BaseNorm.ell(%s)" % self.q

    @staticmethod
    def parse(token):
        if token == "sup":
            return BaseNorm.sup()
        if token.startswith("l"):
            return BaseNorm.ell(Fraction(token[1:]))
        raise ValueError("unknown base norm token %r" % (token,))

    def aggregate_abs(self, values):
        """Combine absolute coefficient values along one segment.

        Returns (lo, hi) bounds; exact kinds return lo == hi.
        """
        values = [abs(Fraction(v)) for v in values]
        if self.kind == "sup":
            m = max(values, default=Fraction(0))
            return m, m
        if self.q == 1:
            s = sum(values, Fraction(0))
            return s, s
        plo = phi = Fraction(0)
        for v in values:
            vlo, vhi = pow_bounds(v, v, self.q)
            plo += vlo
            phi += vhi
        invq = 1 / self.q
        lo, _ = pow_bounds(plo, plo, Fraction(invq))
        _, hi = pow_bounds(phi, phi, Fraction(invq))
        return lo, hi


class TreeVector:
    """Finitely supported rational vector indexed by tree nodes."""

    def __init__(self, tree, entries):
        clean = {}
        for node, value in dict(entries).items():
            node = tuple(node)
            if node not in tree:
                raise ValueError("support node %r is not in the tree" % (node,))
            value = Fraction(value)
            if value:
                clean[node] = value
        self.tree = tree
        self.entries = clean

    @property
    def support(self):
        return frozenset(self.entries)

    def __getitem__(self, node):
        return self.entries.get(tuple(node), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, TreeVector)
            and self.tree == other.tree
            and self.entries == other.entries
        )

    def __repr__(self):
        items = sorted(self.entries.items())
        return "TreeVector(%r)" % (items,)

    def add(self, other):
        if self.tree != other.tree:
            raise ValueError("cannot add vectors on different trees")
        merged = dict(self.entries)
        for node, value in other.entries.items():
            merged[node] = merged.get(node, Fraction(0)) + value
        return TreeVector(self.tree, merged)

    def scale(self, c):
        c = Fraction(c)
        return TreeVector(self.tree, {n: c * v for n, v in self.entries.items()})

    def restrict(self, nodes):
        nodes = {tuple(n) for n in nodes}
        for n in nodes:
            if n not in self.tree:
                raise ValueError("restriction node %r is not in the tree" % (n,))
        return TreeVector(self.tree, {n: v for n, v in self.entries.items() if n in nodes})

    def l1(self):
        return sum((abs(v) for v in self.entries.values()), Fraction(0))

    def sup(self):
        return max((abs(v) for v in self.entries.values()), default=Fraction(0))


def linear_combination(tree, vectors, coeffs):
    """Sum of c * v over (v, c) in zip(vectors, coeffs); each v is on tree."""
    acc = {}
    for v, c in zip(vectors, coeffs):
        if v.tree != tree:
            raise ValueError("cannot combine vectors on different trees")
        c = Fraction(c)
        for node, value in v.entries.items():
            acc[node] = acc.get(node, 0) + c * value
    return TreeVector(tree, acc)


def unit_vector(tree, node, value=1):
    return TreeVector(tree, {tuple(node): Fraction(value)})


def base_norm_of_segment(x, segment, base):
    """Base norm of x along one segment of its tree."""
    if not isinstance(segment, Segment):
        segment = Segment(x.tree, segment)
    elif segment.tree != x.tree:
        raise ValueError("segment belongs to a different tree")
    values = [x[node] for node in segment]
    lo, hi = base.aggregate_abs(values)
    return NormValue(lo, hi)
