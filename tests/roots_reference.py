"""Reference copy of the rational root layer of `baire_lab.vectors`.

These are the earlier `integer_nth_root`, `nth_root_bounds` and
`pow_bounds`, kept verbatim as the oracle for the differential test of
the integer root kernel (`root_floor`, under `pow_ends`) and the Fraction
wrappers over it.  `tests/baire_reference.py` takes its roots from
`baire_lab.vectors`, so it cannot check the roots themselves.
"""

from fractions import Fraction

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


def nth_root_bounds(value, n):
    """(lo, hi) rational bounds on value**(1/n), exact when possible.

    value is a nonnegative Fraction.  If value is a perfect n-th power of
    a rational the bounds coincide; otherwise hi - lo <= lo * 2**-ROOT_BITS.
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
    shift = ROOT_BITS
    while True:
        scaled = (num << (n * shift)) // den
        root = integer_nth_root(scaled, n)
        if root >> ROOT_BITS:
            break
        shift += ROOT_BITS
    lo = Fraction(root, 1 << shift)
    hi = Fraction(root + 1, 1 << shift)
    return lo, hi


def pow_bounds(lo, hi, exponent):
    """Bounds for x**exponent over a nonnegative interval, exponent in Q+."""
    a, b = exponent.numerator, exponent.denominator
    plo, phi = lo**a, hi**a
    if plo == phi:
        return nth_root_bounds(plo, b)
    rlo, _ = nth_root_bounds(plo, b)
    _, rhi = nth_root_bounds(phi, b)
    return rlo, rhi
