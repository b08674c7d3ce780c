"""Rational vectors on trees, base norms, and certified norm values.

Coefficients live in Q (fractions.Fraction).  The l_1 and sup base norms
stay inside Q; l_q roots for q > 1 leave Q, so those values are returned
as certified rational intervals of relative width at most 2**-ROOT_BITS
(2**-48).

BaseNorm owns its power domain: a term is |v|**q (|v| for sup), a
segment's power sum adds its terms (takes their max for sup), and its
norm is the power sum raised to root_exponent, 1/q (1 for sup).  Sums
are made on one integer grid, not one Fraction at a time: power_sum
reads its values as integers over their lcm, as TreeVector.grid does,
and adds ints, exactly for sup and l_1, and through one pow_ends call on
the distinct magnitudes for any other q.  That call gives each magnitude
the bounds a lone pow_bounds call gives it (the lemma in power_sum), so
the sums are the Fractions a term-by-term sum makes.  The Baire oracle
uses these members, and the Baire DP takes its terms from the same
pow_ends call on the vector's grid.  TreeVector.l1 is one sum over that
grid too.

One routine applies every exponent: pow_ends raises integers over one
scale to a rational power, on one integer grid, exactly when the result
is rational.  Its inexact roots come from one integer kernel,
root_floor, as root/2**shift and (root + 1)/2**shift within relative
width 2**-ROOT_BITS.  pow_bounds is pow_ends on the two ends of a
Fraction interval, and nth_root_bounds is pow_bounds at 1/n; the Baire
DP calls pow_ends on integers over its own grid.

pow_ends takes few and short b-th roots by two lemmas, proved in its
docstring and in integer_nth_root's:

- residue filter: A/scale is a rational b-th power exactly when
  A * scale**(b - 1) is an integer b-th power, so an end whose
  A * scale**(b - 1) is not a b-th power modulo a product of small primes
  is inexact without a gcd or a root;
- seeded Newton: integer Newton from any start at or above the floor root
  ends at the floor root, and the floor root never decreases as the
  radicand grows, so the ends are walked in descending order and each
  root starts from the last one at the same shift.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import itemgetter
from types import MappingProxyType

# relative interval width for irrational roots: 2**-ROOT_BITS
ROOT_BITS = 48

# entries in one residue table of pow_ends' filter, at most
RESIDUES_MAX = 2000

_first = itemgetter(0)

# the value of every node off the support, and the package's one zero: a
# Fraction is immutable, so one is shared by every lookup, every empty max
# and the Baire 0-variant's p (baire.ZERO)
ZERO = Fraction(0)


def to_fraction(value, what, *args):
    """Fraction(value), the one reader of rationals from outside the package:
    a zero denominator is a ValueError naming the value, "zero denominator
    in " + what % args, not a ZeroDivisionError."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError("zero denominator in " + what % args) from None


def integer_nth_root(x, n, start=None):
    """Floor of the n-th root of a nonnegative integer x, by integer Newton
    from start, an integer at least that floor, or from the power of two
    above the root when start is None or larger.

    Newton from any r >= R = floor(x**(1/n)) ends at R.  A step takes r to
    r' = ((n - 1) * r + x // r**(n - 1)) // n, which is the floor of
    mean = ((n - 1) * r + x / r**(n - 1)) / n, since (n - 1) * r and n are
    integers.  That is the arithmetic mean of n - 1 copies of r and
    x / r**(n - 1), whose geometric mean is x**(1/n), so r' >= R.  If r > R,
    then r > x**(1/n), so x / r**(n - 1) < r and mean < r, so r' < r.
    Hence the steps decrease strictly while r > R, never pass below R, and
    stop (r' >= r) at r = R.
    The default start 2**ceil(bits/n) is above x**(1/n), since x < 2**bits.
    Square and fourth roots are isqrt's and ignore start.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if n == 2:
        return isqrt(x)
    if n == 4:
        # the floor square root of a floor square root is the floor fourth root
        return isqrt(isqrt(x))
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + n - 1) // n)
    if start is not None and start < r:
        r = start
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


def root_floor(num, den, n, shift=ROOT_BITS, start=None):
    """The floor-root kernel: (root, shift) for positive integers num, den,
    with root = floor(2**shift * (num/den)**(1/n)) at the least shift in
    ROOT_BITS, 2 * ROOT_BITS, ... at which root >= 2**ROOT_BITS.

    num/den need not be in lowest terms, since the floor depends only on
    the rational.  The shift is found without a root: root >= 2**ROOT_BITS
    exactly when num * 2**(n * shift) // den >= 2**(n * ROOT_BITS), that is
    when num << n * (shift - ROOT_BITS) >= den.

    A walk over descending values passes back the (root, shift) this kernel
    gave at the last, larger value, as start and shift.  A smaller value
    needs a shift at least as large, so the search starts there; if the
    shift stays, the radicand is at most the last one, so start is at least
    the floor root here and Newton starts from it (see integer_nth_root).
    """
    if num <= 0 or den <= 0:
        raise ValueError("root_floor needs positive integers")
    while num << (n * (shift - ROOT_BITS)) < den:
        shift += ROOT_BITS
        start = None
    return integer_nth_root((num << (n * shift)) // den, n, start), shift


@lru_cache(maxsize=64)
def residue_table(b):
    """(m, the b-th powers modulo m, 0 among them) for pow_ends' filter:
    m is the product of the least primes q = 1 (mod b), taken in order
    while the table holds at most RESIDUES_MAX entries.

    The b-th powers modulo each q are found by raising every residue.  By
    the Chinese remainder theorem the b-th powers modulo m are the residues
    that are b-th powers modulo every q.
    """
    m, table = 1, [0]
    q = 1
    while True:
        q += b
        if any(q % d == 0 for d in range(2, isqrt(q) + 1)):
            continue
        powers = {pow(x, b, q) for x in range(q)}
        if len(table) * len(powers) > RESIDUES_MAX:
            return m, frozenset(table)
        # the CRT lift of residue r modulo m and t modulo q
        inv = pow(m, -1, q)
        table = [r + m * ((t - r) * inv % q) for r in table for t in powers]
        m *= q


def pow_ends(ends, scale, exponent):
    """Bounds on (A/scale)**exponent for each integer A >= 0 in ends, on
    one integer grid: (mscale, {A: (lo, hi)}) with bounds lo/mscale and
    hi/mscale.  scale > 0, and exponent = a/b > 0 is an int or a Fraction.

    An integer exponent is exact: A**a over scale**a.  Otherwise lo == hi
    when (A/scale)**(a/b) is rational, and lo, hi = root, root + 1 over
    2**shift from root_floor(A**a, scale**a, b) when it is not: the floor
    depends only on the rational, so A/scale needs no reducing, and
    scale**a is computed once.

    Exactness: let g = gcd(A, scale).  In lowest terms (A/scale)**a is
    (A/g)**a / (scale/g)**a, since powers of coprime integers are coprime.
    A positive integer y is a perfect b-th power exactly when b divides
    every exponent in its prime factorization; those of y**a are a times
    those of y, and gcd(a, b) = 1, so y**a is a b-th power exactly when y
    is.  So the value is rational exactly when A/g and scale/g are b-th
    powers, r**b and s**b, and it is then r**a / s**a.  The test on
    scale/g is made once per g; A = 0 has g = scale and is exact.

    Residue filter: A/scale is a rational b-th power exactly when
    N = A * scale**(b - 1) is an integer b-th power.  If A/scale = (r/s)**b
    then N = (r * scale / s)**b, an integer whose b-th root is rational and
    so an integer; if N = t**b then A/scale = (t/scale)**b.  An integer
    b-th power is a b-th power modulo any m, so an end whose N mod m is not
    in residue_table(b) is inexact and skips the gcd test; every exact end,
    A = 0 among them (0 is in every table), still takes it.  A prime of m
    that divides scale filters nothing, since N is 0 modulo it.

    Seeded Newton: the ends are walked in descending order, and each
    inexact one starts from the (root, shift) of the last inexact one, a
    larger value (see root_floor).  The shift band test of root_floor is
    made inline: while A**a << b * (shift - ROOT_BITS) >= scale**a the
    shift stays, and the root is integer_nth_root of the radicand
    root_floor would form, from the last root; root_floor is entered only
    when the band grows, and then finds the new shift.  Its result is the
    same either way.

    mscale is the lcm of the denominators s**a and 2**shift, which need
    not be the reduced ones; a value that leaves as a Fraction reduces,
    so the grid does not show in any output.  The ends are kept grouped
    by denominator, so each bound is lifted to the grid by one multiplier
    mscale // d per distinct denominator d, not one division per end.
    """
    a, b = exponent.numerator, exponent.denominator
    scale_a = scale**a
    if b == 1:
        return scale_a, {A: (A**a,) * 2 for A in ends}
    m, residues = residue_table(b)
    c = pow(scale, b - 1, m)
    den_root = {}  # g -> the b-th root of scale // g, or None
    exact = []  # (A, r**a, rs**a)
    root, shift = None, ROOT_BITS  # root_floor's at the last inexact end
    band, lift, roots = 0, b * shift, []
    inexact = {1 << shift: roots}  # 2**shift -> [(A, root)]
    for A in sorted(ends, reverse=True):
        if A * c % m in residues:
            g = gcd(A, scale)
            if g not in den_root:
                s = scale // g
                r = integer_nth_root(s, b)
                den_root[g] = r if r**b == s else None
            rs = den_root[g]
            if rs is not None:
                r = integer_nth_root(A // g, b)
                if r**b == A // g:
                    exact.append((A, r**a, rs**a))
                    continue
        num = A**a
        if num << band < scale_a:
            # the band grows: root_floor finds the new shift
            root, shift = root_floor(num, scale_a, b, shift, root)
            band, lift = b * (shift - ROOT_BITS), b * shift
            inexact[1 << shift] = roots = []
        else:
            root = integer_nth_root((num << lift) // scale_a, b, root)
        roots.append((A, root))
    if not inexact[1 << ROOT_BITS]:
        del inexact[1 << ROOT_BITS]  # no inexact end in the first band
    dens = {d for _, _, d in exact}.union(inexact)
    mscale = lcm(*dens)
    mult = {d: mscale // d for d in dens}
    bounds = {}
    for A, r, d in exact:
        r *= mult[d]
        bounds[A] = (r, r)
    for d, roots in inexact.items():
        k = mult[d]
        for A, r in roots:
            r *= k
            bounds[A] = (r, r + k)
    return mscale, bounds


def pow_bounds(lo, hi, exponent):
    """Bounds for x**exponent over a nonnegative interval [lo, hi] of
    rationals, exponent in Q+: pow_ends on the two ends over their common
    denominator, so a degenerate interval takes one root."""
    if exponent == 1:
        return lo, hi
    den = lcm(lo.denominator, hi.denominator)
    A = lo.numerator * (den // lo.denominator)
    B = hi.numerator * (den // hi.denominator)
    mscale, bounds = pow_ends({A, B}, den, exponent)
    return Fraction(bounds[A][0], mscale), Fraction(bounds[B][1], mscale)


def nth_root_bounds(value, n):
    """(lo, hi) rational bounds on value**(1/n), exact when possible.

    value is a nonnegative Fraction.  If value is a perfect n-th power of
    a rational the bounds coincide; otherwise hi - lo <= lo * 2**-ROOT_BITS.
    """
    return pow_bounds(value, value, Fraction(1, n))


def _grid(values, shift=0):
    """(mags, den): each |v| * 2**shift of values, ints or Fractions, in
    their order, as an integer over den, the lcm of their denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*[d for _, d in ratios])
    return [abs(a) * ((den // d) << shift) for a, d in ratios], den


class NormValue:
    """Exact rational or certified-interval value of a norm."""

    def __init__(self, lower, upper=None):
        # a Fraction is kept as it is, so the reports' Fractions are not
        # built twice; anything else goes through to_fraction
        if type(lower) is not Fraction:
            lower = to_fraction(lower, "norm bound %r", lower)
        if upper is None:
            upper = lower
        elif type(upper) is not Fraction:
            upper = to_fraction(upper, "norm bound %r", upper)
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

    def __eq__(self, other):
        if isinstance(other, NormValue):
            return self.lower == other.lower and self.upper == other.upper
        return self.is_exact and self.lower == other

    def __repr__(self):
        if self.is_exact:
            return "NormValue(%s)" % self.lower
        return "NormValue(%s, %s)" % (self.lower, self.upper)


class BaseNorm:
    """The norm applied along a single segment: l_q (rational q >= 1) or sup.

    Two exponents are fixed once, in __init__: term_exponent takes |v| to
    its term, q for l_q and the int 1 for sup, and root_exponent takes a
    power sum to the norm, the Fraction 1/q for l_q and Fraction(1) for
    sup.  Every later read is an attribute, so no Fraction is divided per
    call.
    """

    def __init__(self, kind, q=None):
        if kind == "ell":
            q = to_fraction(q, "ell_q base norm q %r", q)
            if q < 1:
                raise ValueError("ell_q base norm needs q >= 1")
            self.q = self.term_exponent = q
            self.root_exponent = 1 / q
        elif kind == "sup":
            self.q = None
            self.term_exponent = 1
            self.root_exponent = Fraction(1)
        else:
            raise ValueError("unknown base norm kind %r" % (kind,))
        self.kind = kind

    @classmethod
    def ell(cls, q):
        return cls("ell", q)

    @classmethod
    def sup(cls):
        return cls("sup")

    def __eq__(self, other):
        return isinstance(other, BaseNorm) and (self.kind, self.q) == (other.kind, other.q)

    def __hash__(self):
        return hash((self.kind, self.q))

    def __repr__(self):
        if self.kind == "sup":
            return "BaseNorm.sup()"
        return "BaseNorm.ell(%s)" % self.q

    @staticmethod
    def parse(token):
        if token == "sup":
            return BaseNorm.sup()
        if token.startswith("l"):
            return BaseNorm.ell(to_fraction(token[1:], "base norm token %r", token))
        raise ValueError("unknown base norm token %r" % (token,))

    def power_sum(self, values):
        """(lo, hi) bounds on the sum of the terms of |v| over values (their
        max for sup): one segment's aggregate in the power domain.  values
        are ints or Fractions.

        The sum is made on one integer grid: each |v| is an integer A over
        den, the lcm of the values' denominators, as TreeVector.grid reads
        a vector's entries.
        Sup and l_1 stay on that grid, exact and without a pow_ends call.
        Any other q makes one pow_ends call on the distinct A, as the Baire
        DP does, and adds the lower and the upper bounds as integers over
        its grid.

        Lemma: pow_ends over a set of ends gives each end the bounds, as
        rationals, that a lone pow_bounds(v, v, q) gives it, so every sum is
        the Fraction a term-by-term sum makes.  Whether (A/den)**q is
        rational, and root_floor's least shift and floor root, depend only
        on the rational A/den, not on how it is written.  The walk over the
        descending ends keeps the last inexact end's shift while the band
        test holds, and that shift is then this end's least one too, since
        a smaller value needs a shift at least as large; otherwise
        root_floor searches up from it.  So every inexact end takes the
        floor root at its own least shift, as it does alone.
        """
        mags, den = _grid(values)
        if self.kind == "sup":
            top = Fraction(max(mags, default=0), den)
            return top, top
        if self.q == 1:
            total = Fraction(sum(mags), den)
            return total, total
        scale, terms = pow_ends(set(mags), den, self.q)
        return (Fraction(sum(terms[A][0] for A in mags), scale),
                Fraction(sum(terms[A][1] for A in mags), scale))

    def aggregate_abs(self, values):
        """Combine absolute coefficient values along one segment.

        Returns (lo, hi) bounds; exact kinds return lo == hi.
        """
        return pow_bounds(*self.power_sum(values), self.root_exponent)


class TreeVector:
    """Finitely supported rational vector indexed by tree nodes, a value.

    The constructor reads a mapping from tree nodes to values to_fraction
    reads; zero values are dropped and a node outside the tree is refused.
    A mapping holds each node once, so reading a repeated node from a file
    is the loader's check (cli._load_vector).

    entries is a read-only mapping from the support nodes, each the tree's
    own tuple (tree.order[id]), not the given key, to their nonzero
    Fractions, in enumeration order, which is ascending arena-id order, and
    ids holds the arena ids of those nodes, as a tuple in the same order.
    Every engine reads the support in that order from them, and the
    |coefficients| on one integer grid from grid().  It hashes by ids, no
    Fraction, so the engines' caches key on the vector itself.
    """

    def __init__(self, tree, entries):
        id_of = tree.id_of
        items = []
        for node, value in entries.items():
            node = tuple(node)
            # the membership test, which also gives the node's id
            i = id_of.get(node)
            if i is None:
                raise ValueError("support node %r is not in the tree" % (node,))
            if not isinstance(value, Fraction):
                value = to_fraction(value, "value %r of node %r", value, node)
            if value:
                items.append((i, value))
        items.sort(key=_first)
        self.tree = tree
        order = tree.order
        self.entries = MappingProxyType({order[i]: value for i, value in items})
        ids = tuple(map(_first, items))
        if len(ids) != len(self.entries):
            # two keys of the mapping named one node; the last value stays
            ids = tuple(dict.fromkeys(ids))
        self.ids = ids

    def grid(self, shift=0):
        """(mags, den): each |x_t| * 2**shift, in the order of entries, as
        an integer over den, the lcm of the entries' denominators."""
        return _grid(self.entries.values(), shift)

    @property
    def support(self):
        return frozenset(self.entries)

    def __getitem__(self, node):
        return self.entries.get(tuple(node), ZERO)

    def __eq__(self, other):
        return (
            isinstance(other, TreeVector)
            and self.tree == other.tree
            and self.entries == other.entries
        )

    def __hash__(self):
        # equal vectors have equal trees, which number their nodes alike
        return hash(self.ids)

    def __repr__(self):
        return "TreeVector(%r)" % (list(self.entries.items()),)

    def scale(self, c):
        c = to_fraction(c, "scale factor %r", c)
        return TreeVector(self.tree, {node: c * v for node, v in self.entries.items()})

    def l1(self):
        mags, den = self.grid()
        return Fraction(sum(mags), den)


def linear_combination(tree, vectors, coeffs):
    """Sum of c * v over (v, c) in zip(vectors, coeffs); each v is on tree."""
    if len(vectors) != len(coeffs):
        raise ValueError(
            "vectors and coeffs length mismatch: %d != %d" % (len(vectors), len(coeffs))
        )
    acc = {}
    for v, c in zip(vectors, coeffs):
        if v.tree != tree:
            raise ValueError("cannot combine vectors on different trees")
        c = to_fraction(c, "coefficient %r", c)
        for node, value in v.entries.items():
            old = acc.get(node)
            acc[node] = c * value if old is None else old + c * value
    return TreeVector(tree, acc)


def unit_vector(tree, node, value=1):
    return TreeVector(tree, {tuple(node): value})

