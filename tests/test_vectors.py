import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire_lab.cli import EXPONENT_MAX
from baire_lab.trees import Segment, chain_tree, random_tree, star_tree
from baire_lab.vectors import (
    ROOT_BITS,
    BaseNorm,
    NormValue,
    TreeVector,
    integer_nth_root,
    linear_combination,
    nth_root_bounds,
    pow_bounds,
    pow_ends,
    root_floor,
    unit_vector,
)
from baire_lab import vectors
from baire_lab.baire import BaireParams, baire_norm_oracle_report, baire_norm_report
from baire_lab.hi import dg_lower_bound, ground_norm
from baire_lab.tsirelson import (
    INCOMPARABLE,
    STANDARD,
    check_fixed_point,
    tsirelson_iterate,
    tsirelson_norm,
    tsirelson_witness_tree,
)
import roots_reference as ref
from util import HI_OPS, clear_reuse_slots, random_case

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=16)
positive_fractions_st = st.fractions(
    min_value=0, max_value=100, max_denominator=32
)


@given(st.integers(0, 10**30), st.integers(2, 7))
@settings(max_examples=200)
def test_integer_nth_root_floor(x, n):
    r = integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n


@given(positive_fractions_st, st.integers(2, 5))
@settings(max_examples=200)
def test_nth_root_bounds_bracket(value, n):
    lo, hi = nth_root_bounds(value, n)
    assert lo**n <= value <= hi**n
    if hi > lo:
        assert hi - lo <= lo / 2**ROOT_BITS


def test_nth_root_exact_on_perfect_powers():
    lo, hi = nth_root_bounds(Fraction(9, 4), 2)
    assert lo == hi == Fraction(3, 2)
    lo, hi = nth_root_bounds(Fraction(27), 3)
    assert lo == hi == 3


def _root_cases(rng):
    """(num, den, n) with num/den in lowest terms: random integers and
    fractions of 0-600 bits, perfect powers and their +-1 neighbours,
    perfect-power rationals, and values below 2**-48, which take more
    than one shift round."""
    for _ in range(600):
        n = rng.randint(1, 8)
        yield rng.getrandbits(rng.randint(0, 600)), 1, n
        num, den = rng.getrandbits(rng.randint(0, 600)), rng.getrandbits(rng.randint(1, 600)) | 1
        yield num, den, n
    for n in range(1, 9):
        for bits in (1, 7, 60, 200):
            r = rng.getrandbits(bits) | 1
            s = rng.getrandbits(bits) | 1
            for num in (r**n - 1, r**n, r**n + 1):
                yield num, 1, n
                yield 1, num or 1, n
            yield r**n, s**n, n
            yield r**n + 1, s**n, n
            yield r**n, s**n + 1, n
        # below 2**-48, down to several shift rounds
        for k in (48, 96, 200, 450):
            yield rng.getrandbits(20) | 1, (1 << (k + 20)) + rng.getrandbits(k), n


def test_root_kernel_matches_reference():
    rng = random.Random(15)
    for num, den, n in _root_cases(rng):
        g = gcd(num, den)
        num, den = num // g, den // g
        value = Fraction(num, den)
        if num:
            assert integer_nth_root(num, n) == ref.integer_nth_root(num, n)
        expected = ref.nth_root_bounds(value, n)
        assert nth_root_bounds(value, n) == expected, (num, den, n)
        if num:
            # the floor needs no lowest terms
            root, shift = root_floor(num, den, n)
            assert root_floor(num * 6, den * 6, n) == (root, shift)
            if expected[0] != expected[1]:
                assert expected == (Fraction(root, 1 << shift), Fraction(root + 1, 1 << shift))
        for a in range(1, 4):
            e = Fraction(a, n)
            assert pow_bounds(value, value, e) == ref.pow_bounds(value, value, e)
            other = value + Fraction(1, rng.randint(1, 2**rng.randint(1, 80)))
            assert pow_bounds(value, other, e) == ref.pow_bounds(value, other, e)
    for n in range(1, 9):
        # a floor of exactly 2**ROOT_BITS ends the shift search
        for k in range(3):
            den = 1 << (ROOT_BITS * n * k)
            assert root_floor(1, den, n) == (1 << ROOT_BITS, ROOT_BITS * (k + 1))


def _pow_ends_cases(rng):
    """(ends, scale, exponent) with ends sharing one scale, for integer
    exponents 1-3 and every a/b in lowest terms with a, b <= EXPONENT_MAX:
    ends not in lowest terms over many distinct gcds with scale, A = 0,
    perfect b-th powers on either side of the fraction and their +-1
    neighbours, and values far below 2**-48, which take more than one
    shift round."""
    span = range(1, EXPONENT_MAX + 1)
    exponents = [Fraction(a) for a in (1, 2, 3)]
    exponents += [Fraction(a, b) for b in span[1:] for a in span if gcd(a, b) == 1]
    for e in exponents:
        b = e.denominator
        for extra in (1, rng.choice((2, 6, 12, 30)), rng.randint(1, 10**4), 1 << rng.randint(200, 500)):
            scale = rng.randint(1, 40) ** b * extra
            ends = {0, 1, 2, scale, rng.getrandbits(rng.randint(1, 300))}
            for _ in range(12):
                g = gcd(scale, rng.randint(1, 10**6))
                t = rng.randint(1, 50)
                ends |= {g * t**b, g * (t**b + 1), g * (t**b - 1), g * rng.randint(1, 10**9)}
            yield ends, scale, e


def test_pow_ends_matches_reference():
    rng = random.Random(19)
    exact = deep = 0
    for ends, scale, e in _pow_ends_cases(rng):
        mscale, bounds = pow_ends(ends, scale, e)
        assert set(bounds) == ends
        for A in ends:
            lo, hi = bounds[A]
            value = Fraction(A, scale)
            expected = ref.pow_bounds(value, value, e)
            assert (Fraction(lo, mscale), Fraction(hi, mscale)) == expected, (A, scale, e)
            exact += A > 0 and lo == hi and e.denominator > 1
            deep += lo != hi and expected[0] < Fraction(1, 1 << ROOT_BITS)
    # both exact roots and multi-round shifts were reached
    assert exact > 100 and deep > 100, (exact, deep)


def _cold_pow_ends(ends, scale, exponent):
    """pow_ends before the residue filter and the seeded walk: the gcd test
    on every end, and each inexact root from a cold start."""
    a, b = exponent.numerator, exponent.denominator
    scale_a = scale**a
    den_root, raw = {}, {}
    for A in ends:
        g = gcd(A, scale)
        if g not in den_root:
            r = ref.integer_nth_root(scale // g, b)
            den_root[g] = r if r**b == scale // g else None
        rs = den_root[g]
        r = ref.integer_nth_root(A // g, b)
        if rs is not None and r**b == A // g:
            raw[A] = (r**a, r**a, rs**a)
        else:
            root, shift = root_floor(A**a, scale_a, b)
            raw[A] = (root, root + 1, 1 << shift)
    mscale = lcm(*{d for _, _, d in raw.values()})
    return mscale, {A: (lo * (mscale // d), hi * (mscale // d)) for A, (lo, hi, d) in raw.items()}


def _reachable_degrees():
    """Every root degree b > 1 the CLI can reach: the denominator of
    p * (1/Q) and of Q, for --p and --base lQ with numerators and
    denominators at most EXPONENT_MAX."""
    span = range(1, EXPONENT_MAX + 1)
    ps = {Fraction(a, b) for a in span for b in span}
    qs = {q for q in ps if q >= 1}
    degrees = {(p / q).denominator for p in ps for q in qs} | {q.denominator for q in qs}
    return sorted(degrees - {1})


def test_integer_nth_root_from_any_start_at_or_above_the_floor():
    rng = random.Random(23)
    for n in range(3, 65):
        for bits in (1, 40, 200, 700):
            x = rng.getrandbits(bits) | 1
            root = ref.integer_nth_root(x, n)
            for start in (root, root + 1, 2 * root, root << 40, x + 1, 1 << (x.bit_length() + 9)):
                assert integer_nth_root(x, n, start) == root, (x, n, start)
            assert integer_nth_root(root**n, n, root + 1) == root
            assert integer_nth_root((root + 1) ** n - 1, n, root + 1) == root


def test_integer_nth_root_rejects_a_negative_radicand():
    with pytest.raises(ValueError, match="^negative radicand$"):
        integer_nth_root(-1, 3)


def test_root_floor_rejects_nonpositive_input():
    # 0 << k < den for every k: the shift search would never end
    for num, den in ((0, 1), (0, 5), (-1, 1), (1, 0), (1, -1)):
        with pytest.raises(ValueError):
            root_floor(num, den, 3)


def test_pow_ends_zero_is_exact_at_every_degree():
    for b in range(2, 65):
        assert 0 in vectors.residue_table(b)[1]
        for a in (1, b + 1):
            for scale in (1, 7, 10**30 + 3):
                mscale, bounds = pow_ends({0, scale}, scale, Fraction(a, b))
                assert bounds == {0: (0, 0), scale: (mscale, mscale)}


def test_pow_ends_dense_ends_match_reference():
    """Hundreds of ends at one shift, interval pairs (A, A + 1), and ends
    on both sides of a shift round, against the reference and against the
    cold walk, grid included."""
    rng = random.Random(29)
    for e in [Fraction(s) for s in ("1/2", "3/2", "1/3", "2/3", "4/3", "3/4", "2/5", "5/7", "7/8")]:
        b = e.denominator
        wide = (1 << (ROOT_BITS * b + 30)) + rng.getrandbits(40)
        for scale in (rng.randint(2, 10**6), rng.randint(1, 40) ** b * 6, rng.getrandbits(96) | 1, wide):
            ends = {rng.randint(scale // 2, 3 * scale) for _ in range(300)}
            ends |= {A + 1 for A in rng.sample(sorted(ends), 50)}
            # a value of 1, and with the wide scale a value of 2**(-ROOT_BITS * b),
            # start a shift round
            for edge in (scale, -(-scale >> (ROOT_BITS * b))):
                ends |= set(range(max(edge - 20, 0), edge + 20))
            ends |= {t**b * scale // 4**b for t in range(1, 40)}
            mscale, bounds = pow_ends(ends, scale, e)
            assert (mscale, bounds) == _cold_pow_ends(ends, scale, e), (scale, e)
            for A in rng.sample(sorted(ends), 60):
                value = Fraction(A, scale)
                lo, hi = bounds[A]
                assert (Fraction(lo, mscale), Fraction(hi, mscale)) == ref.pow_bounds(value, value, e)


def test_pow_ends_across_three_shift_bands():
    """Dense ends with values near 1, near 2**-(ROOT_BITS * b) and below
    2**-(2 * ROOT_BITS * b), exact ends mixed in, against the cold walk,
    grid included: the walk meets shifts ROOT_BITS, 2 * ROOT_BITS and
    3 * ROOT_BITS or more, and lifts each band and the exact ends by its
    own multiplier."""
    rng = random.Random(37)
    for b in (2, 3, 4, 7):
        # scale = s0**b, so t**b / scale = (t / s0)**b is exact for every t
        s0 = (3 << (2 * ROOT_BITS + 9)) + 1
        scale = s0**b
        ends = set()
        for k in (0, 1, 2):
            edge = -(-scale >> (ROOT_BITS * b * k))  # value 2**(-ROOT_BITS * b * k)
            ends |= set(range(max(edge - 40, 1), edge + 40))
            ends |= {rng.randint(edge // 3, edge * 3) for _ in range(60)}
            t = s0 >> (ROOT_BITS * k)
            ends |= {u**b for u in range(max(t - 10, 1), t + 10)}
        ends |= {rng.randint(1, 1 << 40) for _ in range(60)} | {u**b for u in range(1, 30)}
        for a in (1, b + 1):
            e = Fraction(a, b)
            mscale, bounds = pow_ends(ends, scale, e)
            assert (mscale, bounds) == _cold_pow_ends(ends, scale, e), (b, e)
            assert mscale % (1 << (3 * ROOT_BITS)) == 0 and mscale % s0**a == 0, (b, e)
            exact = sum(lo == hi for lo, hi in bounds.values())
            assert 50 < exact < len(ends) - 300, (b, e, exact)
            for A in rng.sample(sorted(ends), 20):
                value = Fraction(A, scale)
                lo, hi = bounds[A]
                assert (Fraction(lo, mscale), Fraction(hi, mscale)) == ref.pow_bounds(value, value, e)


def test_pow_ends_output_does_not_depend_on_the_order_of_ends():
    from itertools import permutations

    rng = random.Random(31)
    scale = 3**6 * 10
    small = [0, scale * 8, scale * 8 + 1, scale // 2, 5]
    dense = [rng.randint(1, 4 * scale) for _ in range(200)] + [scale * 27 // 8]
    for e in (Fraction(1, 3), Fraction(2, 3), Fraction(5, 6), Fraction(3, 2)):
        expected = pow_ends(set(small), scale, e)
        for order in permutations(small):
            assert pow_ends(order, scale, e) == expected
        expected = pow_ends(set(dense), scale, e)
        for _ in range(20):
            rng.shuffle(dense)
            assert pow_ends(dense, scale, e) == expected


def test_residue_filter_is_sound_at_every_reachable_degree():
    """Ends g * t**b over scale g * s**b are exact and their +-1 neighbours
    are not, at every degree the CLI reaches (b <= 64), all equal to the
    reference; no residue table holds more than RESIDUES_MAX entries."""
    degrees = _reachable_degrees()
    assert max(degrees) == EXPONENT_MAX**2 and 49 in degrees
    rng = random.Random(37)
    for b in degrees:
        m, table = vectors.residue_table(b)
        assert m > 1 and len(table) <= vectors.RESIDUES_MAX
        a = next(a for a in (rng.randint(1, 7), 1) if gcd(a, b) == 1)
        e = Fraction(a, b)
        for g in (1, 6, rng.randint(2, 10**6)):
            s = rng.randint(2, 9)
            scale = g * s**b
            exact = {g * t**b for t in rng.sample(range(2, 60), 4)}
            near = {A + d for A in exact for d in (-1, 1)}
            mscale, bounds = pow_ends(exact | near, scale, e)
            for A in exact | near:
                lo, hi = bounds[A]
                assert (lo == hi) == (A in exact), (A, scale, e)
                value = Fraction(A, scale)
                assert (Fraction(lo, mscale), Fraction(hi, mscale)) == ref.pow_bounds(value, value, e)


def test_residue_tables_hold_exactly_the_powers():
    for b in range(2, 65):
        m, table = vectors.residue_table(b)
        if m <= 10**5:
            assert table == {pow(x, b, m) for x in range(m)}, b


def _two_call_pow_bounds(lo, hi, exponent):
    """pow_bounds as it was: one root for each endpoint, always."""
    a, b = exponent.numerator, exponent.denominator
    return nth_root_bounds(lo**a, b)[0], nth_root_bounds(hi**a, b)[1]


def test_pow_bounds_matches_two_call_composition(monkeypatch):
    exponents = [Fraction(e) for e in ("1", "2", "1/2", "3/2", "2/3", "3", "1/3")]
    points = [Fraction(v) for v in ("0", "1", "2", "9/4", "1/7", "5/3", "27", "10/9")]
    calls = []

    def counted(ends, scale, exponent):
        calls.append(len(ends))
        return pow_ends(ends, scale, exponent)

    monkeypatch.setattr(vectors, "pow_ends", counted)
    for e in exponents:
        for lo in points:
            for hi in points:
                if lo > hi:
                    continue
                expected = _two_call_pow_bounds(lo, hi, e)
                calls.clear()
                assert pow_bounds(lo, hi, e) == expected
                # a degenerate interval takes a single root, exponent 1 none
                assert calls == ([] if e == 1 else [1 if lo == hi else 2])
    # the l_q aggregate is one pow_bounds over the summed powers
    lo, hi = BaseNorm.ell(Fraction(3, 2)).aggregate_abs([1, Fraction(1, 3), 2])
    plo = sum(_two_call_pow_bounds(v, v, Fraction(3, 2))[0] for v in (1, Fraction(1, 3), 2))
    phi = sum(_two_call_pow_bounds(v, v, Fraction(3, 2))[1] for v in (1, Fraction(1, 3), 2))
    assert (lo, hi) == _two_call_pow_bounds(plo, phi, Fraction(2, 3))


def _oracle_segment_power(base, values):
    """The Baire oracle's per-segment loop from before BaseNorm.power_sum."""
    if base.kind == "sup":
        m = max((abs(v) for v in values), default=Fraction(0))
        return m, m
    total = (Fraction(0), Fraction(0))
    for v in values:
        lo, hi = pow_bounds(abs(v), abs(v), base.q)
        total = (total[0] + lo, total[1] + hi)
    return total


@pytest.mark.parametrize(
    "base, root_exponent",
    [(BaseNorm.sup(), 1), (BaseNorm.ell(1), 1), (BaseNorm.ell(Fraction(3, 2)), Fraction(2, 3)),
     (BaseNorm.ell(2), Fraction(1, 2)), (BaseNorm.ell(Fraction(7, 6)), Fraction(6, 7))],
)
def test_base_norm_power_domain(base, root_exponent, monkeypatch):
    calls = []

    def counted(ends, scale, exponent):
        calls.append((exponent, len(ends)))
        return pow_ends(ends, scale, exponent)

    monkeypatch.setattr(vectors, "pow_ends", counted)
    assert base.root_exponent == root_exponent
    rng = random.Random(7)
    cases = [[]]
    for _ in range(60):
        size = rng.randint(0, 6)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(size)]
        if values and rng.random() < 0.5:
            # a repeated magnitude, of either sign, and an int among Fractions
            values += [-rng.choice(values), rng.randint(-3, 3)]
        cases.append(values)
    for values in cases:
        expected = _oracle_segment_power(base, values)
        terms = [
            (abs(v), abs(v)) if base.kind == "sup" else pow_bounds(abs(v), abs(v), base.q)
            for v in values
        ]
        calls.clear()
        assert base.power_sum(values) == expected
        # any other q makes one pow_ends call, on the distinct magnitudes
        if base.term_exponent != 1:
            assert calls == [(base.q, len({abs(v) for v in values}))]
        calls.clear()
        assert [base.power_sum([v]) for v in values] == terms
        assert base.power_sum(iter(values)) == expected
        assert all(type(bound) is Fraction for bound in base.power_sum(values))
        plo, phi = expected
        agg = (plo, phi) if root_exponent == 1 else pow_bounds(plo, phi, root_exponent)
        assert base.aggregate_abs(values) == agg
        # exact kinds stay in Q without a single root call
        if root_exponent == 1:
            assert calls == []


def test_pow_ends_on_a_set_gives_each_end_its_lone_bounds():
    """The power_sum lemma: on a set of ends, pow_ends gives each end the
    bounds, as rationals, that it gives the end alone and that pow_bounds
    gives its reduced value, so each inexact end keeps its own least shift
    (the width hi - lo) and its own floor root."""
    rng = random.Random(44)
    shifts = set()
    for ends, scale, e in _pow_ends_cases(rng):
        if e.denominator == 1:
            continue
        mscale, bounds = pow_ends(ends, scale, e)
        for A in ends:
            lone_scale, lone = pow_ends({A}, scale, e)
            got = Fraction(bounds[A][0], mscale), Fraction(bounds[A][1], mscale)
            assert got == (Fraction(lone[A][0], lone_scale), Fraction(lone[A][1], lone_scale))
            value = Fraction(A, scale)
            assert got == pow_bounds(value, value, e), (A, scale, e)
            shifts.add(got[1] - got[0])
    # exact ends and inexact ends at several shifts were reached
    assert 0 in shifts and len(shifts) > 3, shifts


def test_norm_value_exactness():
    v = NormValue(Fraction(3, 2))
    assert v.is_exact and v.exact == Fraction(3, 2)
    assert v == Fraction(3, 2)
    w = NormValue(1, 2)
    assert not w.is_exact
    with pytest.raises(ValueError):
        w.exact
    assert w.lower <= Fraction(3, 2) <= w.upper


def test_base_norm_parse():
    assert BaseNorm.parse("sup") == BaseNorm.sup()
    assert BaseNorm.parse("l1") == BaseNorm.ell(1)
    assert BaseNorm.parse("l3/2") == BaseNorm.ell(Fraction(3, 2))
    with pytest.raises(ValueError):
        BaseNorm.parse("linf")
    with pytest.raises(ValueError):
        BaseNorm.ell(Fraction(1, 2))
    with pytest.raises(ValueError, match=r"^unknown base norm token 'x3'$"):
        BaseNorm.parse("x3")
    with pytest.raises(ValueError, match=r"^unknown base norm kind 'bogus'$"):
        BaseNorm("bogus")
    # a zero denominator was a ZeroDivisionError; every other malformed
    # token is a ValueError
    for token in ("l", "lx", "l0"):
        with pytest.raises(ValueError):
            BaseNorm.parse(token)
    with pytest.raises(ValueError, match=r"^zero denominator in base norm token 'l1/0'$"):
        BaseNorm.parse("l1/0")
    with pytest.raises(ValueError, match=r"^zero denominator in baire p '1/0'$"):
        BaireParams("1/0", BaseNorm.sup())


def test_zero_denominators_in_library_values_are_value_errors():
    # BaseNorm.ell and TreeVector read their values with a bare Fraction(),
    # and "1/0" raised ZeroDivisionError there
    for make in (lambda: BaseNorm.ell("1/0"), lambda: BaseNorm("ell", "3/0")):
        with pytest.raises(ValueError, match=r"^zero denominator in ell_q base norm q '[13]/0'$"):
            make()
    t = star_tree(2)
    with pytest.raises(ValueError, match=r"^zero denominator in value '1/0' of node \(0,\)$"):
        TreeVector(t, {(0,): "1/0"})
    with pytest.raises(ValueError, match=r"^zero denominator in value '2/0' of node \(1,\)$"):
        TreeVector(t, {(0,): 1, (1,): "2/0"})


def test_aggregate_abs_exact_kinds():
    vals = [Fraction(1, 2), Fraction(-2), Fraction(0)]
    lo, hi = BaseNorm.ell(1).aggregate_abs(vals)
    assert lo == hi == Fraction(5, 2)
    lo, hi = BaseNorm.sup().aggregate_abs(vals)
    assert lo == hi == 2


def test_aggregate_abs_l2_interval():
    lo, hi = BaseNorm.ell(2).aggregate_abs([3, 4])
    assert lo == hi == 5  # perfect square stays exact
    lo, hi = BaseNorm.ell(2).aggregate_abs([1, 1])
    assert lo < hi
    assert lo**2 <= 2 <= hi**2


def test_tree_vector_drops_zeros_and_validates():
    t = star_tree(3)
    x = TreeVector(t, {(0,): 1, (1,): 0})
    assert x.support == {(0,)}
    assert x[(1,)] == 0
    with pytest.raises(ValueError):
        TreeVector(t, {(5,): 1})


def test_tree_vector_keeps_fractions_and_converts_the_rest():
    t = star_tree(3)
    half = Fraction(1, 2)
    x = TreeVector(t, {(0,): half, (1,): 3, (2,): "2/6"})
    assert x.entries[(0,)] is half
    assert type(x[(1,)]) is Fraction and x[(1,)] == 3
    assert type(x[(2,)]) is Fraction and x[(2,)] == Fraction(1, 3)
    assert TreeVector(t, {(0,): Fraction(0), (1,): "0"}).support == frozenset()
    y = TreeVector(t, x.entries)
    assert y == x and all(y.entries[k] is v for k, v in x.entries.items())
    # entries are read-only: a change is made on a copy, with ids of its own
    with pytest.raises(TypeError):
        y.entries[(0,)] = Fraction(5)
    with pytest.raises(TypeError):
        del y.entries[(1,)]
    z = TreeVector(t, {**{k: v for k, v in y.entries.items() if k != (1,)}, (0,): Fraction(5)})
    assert x.entries == {(0,): half, (1,): 3, (2,): Fraction(1, 3)}
    assert z[(0,)] == 5 and z.ids == (t.id_of[(0,)], t.id_of[(2,)])
    assert x.ids == y.ids == (t.id_of[(0,)], t.id_of[(1,)], t.id_of[(2,)])


def test_entries_ids_and_grid_in_enumeration_order():
    for seed in range(40):
        tree, x = random_case(seed, max_nodes=12, max_support=8)
        for y in (x, TreeVector(tree, dict(reversed(list(x.entries.items()))))):
            nodes = list(y.entries)
            assert nodes == sorted(y.support, key=tree.index)
            assert list(y.ids) == sorted(y.ids)
            assert y.ids == tuple(tree.id_of[t] for t in nodes)
            mags, den = y.grid()
            assert den == lcm(*(v.denominator for v in y.entries.values()))
            assert [Fraction(a, den) for a in mags] == [abs(v) for v in y.entries.values()]
            # the shift lifts every magnitude by 2**shift on the same den
            assert y.grid(3) == ([a << 3 for a in mags], den)
    # two keys that name one node keep it once, with the last value
    t = star_tree(2)
    x = TreeVector(t, {(1,): 3, (0,): 1, range(1): 2})
    assert list(x.entries.items()) == [((0,), 2), ((1,), 3)]
    assert x.ids == (t.id_of[(0,)], t.id_of[(1,)])
    assert TreeVector(t, {}).grid() == ([], 1)


def _outputs(x):
    """Every engine's output on x, from cold reuse slots: the Baire DP and
    oracle reports, both Tsirelson variants (norm, witness, fixed-point
    check, every iterate), the ground norm and the norming-set bound."""
    clear_reuse_slots()
    out = []
    for token in ("l1", "sup", "l2"):
        for p in (0, 1, Fraction(3, 2)):
            params = BaireParams(p, BaseNorm.parse(token))
            for r in (baire_norm_report(x, params), baire_norm_oracle_report(x, params)):
                out.append((r.value, r.power, [seg.chain for seg in r.family]))
    for variant in (STANDARD, INCOMPARABLE):
        out.append((
            tsirelson_norm(x, variant),
            tsirelson_witness_tree(x, variant),
            check_fixed_point(x, variant),
            [tsirelson_iterate(x, variant, m) for m in range(len(x.entries) + 1)],
        ))
    out.append(ground_norm(x))
    value, witness = dg_lower_bound(x, 2, HI_OPS)
    out.append((value, list(witness.entries.items()), witness.provenance))
    return out


def test_outputs_do_not_depend_on_entry_order():
    for seed in range(40):
        tree, x = random_case(seed, max_nodes=12, max_support=8)
        twin = TreeVector(tree, dict(reversed(list(x.entries.items()))))
        assert _outputs(twin) == _outputs(x), seed


def test_tree_vector_algebra():
    t = star_tree(3)
    x = unit_vector(t, (0,))
    y = unit_vector(t, (0,), Fraction(-1))
    assert linear_combination(t, [x, y], [1, 1]).support == frozenset()
    assert x.scale(Fraction(2, 3))[(0,)] == Fraction(2, 3)
    with pytest.raises(ValueError, match="^cannot combine vectors on different trees$"):
        linear_combination(t, [x, unit_vector(star_tree(4), (0,))], [1, 1])
    # entries are in enumeration order, whatever order the terms came in
    x = TreeVector(t, {(0,): Fraction(1, 2), (1,): 3})
    y = TreeVector(t, {(2,): 1, (0,): Fraction(-1, 2)})
    assert list(linear_combination(t, [x, y], [1, 1]).entries.items()) == [((1,), 3), ((2,), 1)]
    assert list(x.scale(-2).entries.items()) == [((0,), -1), ((1,), -6)]


def test_linear_combination_matches_chained_add_scale():
    for seed in range(40):
        rng = random.Random(seed)
        tree = random_tree(seed=seed, max_nodes=9, max_branch=3)
        nodes = sorted(tree.nodes)
        vectors = [
            TreeVector(tree, {
                t: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for t in rng.sample(nodes, rng.randint(0, len(nodes)))
            })
            for _ in range(rng.randint(1, 4))
        ]
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in vectors]
        chained = TreeVector(tree, {})
        for v, c in zip(vectors, coeffs):
            chained = linear_combination(tree, [chained, v.scale(c)], [1, 1])
        assert linear_combination(tree, vectors, coeffs) == chained
    t = star_tree(3)
    with pytest.raises(ValueError):
        linear_combination(t, [unit_vector(t, (0,)), unit_vector(star_tree(4), (0,))], [1, 1])
    # zip would drop the vectors without a coefficient: 5 * b0 for [5]
    for coeffs in ([5], [1, 2, 3], []):
        with pytest.raises(ValueError, match="length mismatch"):
            linear_combination(t, [unit_vector(t, (0,)), unit_vector(t, (1,))], coeffs)


def _fraction_by_fraction_combination(tree, vectors, coeffs):
    """The reference sum: every term added to a running Fraction from 0."""
    acc = {}
    for v, c in zip(vectors, coeffs):
        for node, value in v.entries.items():
            acc[node] = acc.get(node, 0) + Fraction(c) * value
    return TreeVector(tree, acc)


def test_grid_sums_match_fraction_by_fraction_sums():
    for seed in range(60):
        rng = random.Random(seed)
        tree = random_tree(seed=seed, max_nodes=9, max_branch=3)
        nodes = sorted(tree.nodes)
        vectors = [
            TreeVector(tree, {
                t: Fraction(rng.randint(-6, 6), rng.randint(1, 9))
                for t in rng.sample(nodes, rng.randint(0, len(nodes)))
            })
            for _ in range(rng.randint(1, 4))
        ]
        # a vector and its negative cancel on their whole support
        vectors.append(vectors[0].scale(-1))
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in vectors]
        coeffs[-1] = coeffs[0]
        got = linear_combination(tree, vectors, coeffs)
        expected = _fraction_by_fraction_combination(tree, vectors, coeffs)
        assert got == expected and got.ids == expected.ids
        for v, c in zip(vectors, coeffs):
            scaled = v.scale(c)
            assert scaled == _fraction_by_fraction_combination(tree, [v], [c])
            assert scaled.ids == (v.ids if c else ())
            assert v.l1() == sum((abs(w) for w in v.entries.values()), Fraction(0))
            assert type(v.l1()) is Fraction
    t = star_tree(3)
    x = TreeVector(t, {(0,): Fraction(1, 2), (2,): -3})
    for zero in (0, Fraction(0), "0"):
        assert x.scale(zero) == TreeVector(t, {}) and x.scale(zero).ids == ()
    assert x.scale("2/3") == TreeVector(t, {(0,): Fraction(1, 3), (2,): -2})
    assert TreeVector(t, {}).l1() == 0


@given(st.dictionaries(st.integers(0, 3), fractions_st, max_size=4))
def test_l1_sup_consistency(entries):
    t = star_tree(4)
    x = TreeVector(t, {(k,): v for k, v in entries.items()})
    assert max(map(abs, x.entries.values()), default=Fraction(0)) <= x.l1()
    assert (x.l1() == 0) == (not x.support)


def test_base_norm_of_segment():
    t = chain_tree(3)
    x = TreeVector(t, {(): 1, (0, 0): -2})
    v = BaseNorm.ell(1).aggregate_abs([x[node] for node in Segment(t, [(), (0,), (0, 0)])])
    assert v == (3, 3)
    v = BaseNorm.ell(1).aggregate_abs([x[node] for node in Segment(t, [(0,)])])
    assert v == (0, 0)
