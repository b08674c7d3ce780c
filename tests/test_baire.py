import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire_lab import baire, tsirelson
from baire_lab.baire import (
    ZERO,
    BaireParams,
    baire_norm,
    baire_norm_oracle,
    baire_norm_oracle_report,
    baire_norm_report,
)
from baire_lab.hi import dg_lower_bound, ground_norm
from baire_lab.trees import (
    FiniteTree,
    Segment,
    chain_tree,
    comb_tree,
    comparable,
    make_tree,
    random_tree,
    star_tree,
)
from baire_lab.sequences import FiniteBlockSequence
from baire_lab.tsirelson import (
    INCOMPARABLE,
    STANDARD,
    check_fixed_point,
    tsirelson_iterate,
    tsirelson_norm,
    tsirelson_witness_tree,
)
from baire_lab.vectors import (
    BaseNorm,
    NormValue,
    TreeVector,
    linear_combination,
    pow_bounds,
    unit_vector,
)
from baire_lab.verify import run_branch_isometry
from baire_reference import reference_report
from util import benchmark_size_vectors, clear_reuse_slots, random_case, sweep_case

L1 = BaseNorm.ell(1)
P1 = BaireParams(1, L1)
P2 = BaireParams(2, BaseNorm.ell(2))
P0 = BaireParams(ZERO, L1)


def test_params_validation():
    # every zero p is the one shared zero, a plain Fraction
    for p in (0, "0", "0/7", Fraction(0), ZERO):
        assert BaireParams(p, L1).p is ZERO, p
    assert type(ZERO) is Fraction and ZERO == 0
    assert run_branch_isometry(3, cases=2, p=0).params["p"] == "0"
    with pytest.raises(ValueError):
        BaireParams(Fraction(1, 2), L1)


def test_empty_tree_rejected():
    with pytest.raises(ValueError):
        baire_norm(TreeVector(FiniteTree([]), {}), P1)


def test_single_node():
    t = make_tree([()])
    x = TreeVector(t, {(): Fraction(-3, 2)})
    assert baire_norm(x, P1) == Fraction(3, 2)
    assert baire_norm(x, P0) == Fraction(3, 2)


def test_chain_collapses_to_base_norm():
    # all nodes of a chain are comparable: only one-segment families exist
    t = chain_tree(4)
    x = TreeVector(t, {(): 1, (0,): Fraction(1, 2), (0, 0, 0): 2})
    assert baire_norm(x, P1) == Fraction(7, 2)
    assert baire_norm(x, P0) == Fraction(7, 2)
    assert baire_norm_report(x, P2).power == Fraction(21, 4)


def test_star_sums_over_leaves():
    t = star_tree(3)
    x = TreeVector(t, {(0,): 1, (1,): 1, (2,): 1})
    assert baire_norm(x, P1) == 3
    assert baire_norm(x, P0) == 1
    assert baire_norm_report(x, P2).power == 3


def test_root_value_blocks_splitting():
    # a nonzero root is comparable with everything, so either the root's
    # segment is taken alone or it is dropped
    t = star_tree(2)
    x = TreeVector(t, {(): 5, (0,): 1, (1,): 1})
    assert baire_norm(x, P1) == 6  # segment {(), (0,)} beats the split
    y = TreeVector(t, {(): Fraction(1, 2), (0,): 1, (1,): 1})
    assert baire_norm(y, P1) == 2


def test_sup_base():
    t = comb_tree(3)
    params = BaireParams(1, BaseNorm.sup())
    x = TreeVector(t, {(1,): 2, (0, 1): 3, (0, 0): 1})
    # three pairwise incomparable leaves, sup per segment
    assert baire_norm(x, params) == 6
    # on a tie the chain stops at the upper node
    y = TreeVector(chain_tree(3), {(): 1, (0,): 1, (0, 0): 1})
    assert [seg.chain for seg in baire_norm_report(y, params).family] == [[()]]


def test_zero_family_is_independent_of_node_order():
    # every chain through the support ties at sup 1; the root's is the
    # one reported, whatever order the tree's nodes were built in
    nodes = [(), (0,), (0, 0), (0, 0, 0), (1,), (1, 0), (1, 0, 0), (1, 0, 0, 1)]
    support = [(), (0,), (0, 0, 0), (1,), (1, 0, 0)]
    params = BaireParams(ZERO, BaseNorm.sup())
    rng = random.Random(0)
    for _ in range(20):
        rng.shuffle(nodes)
        x = TreeVector(FiniteTree(nodes), {t: 1 for t in support})
        report = baire_norm_report(x, params)
        assert report.value == 1
        assert [seg.chain for seg in report.family] == [[()]], nodes


def test_report_family_is_valid_witness():
    for seed in range(25):
        tree, x = random_case(seed)
        for params in (P1, P0):
            report = baire_norm_report(x, params)
            total = Fraction(0)
            for seg in report.family:
                total += sum(abs(x[t]) for t in seg)
            if params.p is ZERO:
                total = max(
                    (sum(abs(x[t]) for t in seg) for seg in report.family),
                    default=Fraction(0),
                )
            assert total == report.value.exact


def test_deep_comb_family():
    # the best family takes every tooth, so the witness walk descends
    # the whole 1,500-deep spine; spine children come first, so the
    # deepest tooth is collected first
    t = comb_tree(1500)
    teeth = [(0,) * i + (1,) for i in range(1500)]
    report = baire_norm_report(TreeVector(t, {s: 1 for s in teeth}), P1)
    assert report.value.exact == 1500
    assert [seg.chain for seg in report.family] == [[s] for s in reversed(teeth)]


def test_family_segments_equal_validated_segments():
    # a family segment is built from two arena ids; it must be the segment
    # the public constructor validates from its chain
    rng = random.Random(17)
    cases = [random_case(seed)[1] for seed in range(30)]
    for tree, count in ((comb_tree(60), 90), (comb_tree(2000), 2800)):
        supp = rng.sample(sorted(tree.nodes), count)
        cases.append(TreeVector(tree, {t: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                       for t in supp}))
    for x in cases:
        for params in (P1, P0, BaireParams(Fraction(3, 2), BaseNorm.ell(2))):
            for seg in baire_norm_report(x, params).family:
                ref = Segment(x.tree, seg.chain)
                assert seg == ref and hash(seg) == hash(ref)
                assert seg.nodes == ref.nodes and len(seg) == len(ref)
                assert seg.chain == ref.chain


def test_in_place_changes_are_seen():
    # entries are read-only, so a change is made on a copy, which keeps the
    # arena ids of its own entries; a changed value, an added entry and a
    # deleted one must each be seen, as by a fresh vector on cold slots
    tree = comb_tree(12)
    x = TreeVector(tree, {(0,) * i + (1,): i + 1 for i in range(0, 12, 2)})
    matrix = [
        BaireParams(p, BaseNorm.parse(base))
        for base in ("l1", "l2") for p in (0, 1, Fraction(3, 2))
    ]

    def results(y):
        reports = [baire_norm_report(y, params) for params in matrix]
        value, witness = dg_lower_bound(y, 1, [(2, 4)])
        return (
            [(r.value, r.power, [seg.chain for seg in r.family]) for r in reports],
            ground_norm(y),
            (value, witness.provenance),
        )

    changes = [
        lambda e: {**e, (1,): Fraction(-7, 2)},
        lambda e: {**e, (0,) * 11: Fraction(50)},
        lambda e: {t: v for t, v in e.items() if t != (0, 0, 1)},
    ]
    with pytest.raises(TypeError):
        x.entries[(1,)] = Fraction(-7, 2)
    with pytest.raises(TypeError):
        del x.entries[(0, 0, 1)]
    before = results(x)
    for change in changes:
        x = TreeVector(tree, change(x.entries))
        after = results(x)
        clear_reuse_slots()
        assert after == results(TreeVector(tree, dict(x.entries)))
        assert after != before
        before = after


def _cold(x, params):
    clear_reuse_slots()
    return _fingerprint(baire_norm_report(x, params))


SWEEP = [
    BaireParams(Fraction(p), BaseNorm.parse(base))
    for base in ("sup", "l1", "l2", "l3/2") for p in ("0", "1", "3/2", "2")
]


def _traffic(f):
    info = f.cache_info()
    return info.misses, info.hits


def _twin(x):
    """An equal vector on an equal tree, sharing no object with x."""
    twin = TreeVector(FiniteTree(list(x.tree.order)), dict(x.entries))
    assert twin == x and hash(twin) == hash(x) and twin.tree is not x.tree
    return twin


def test_chain_slot_call_order():
    # the 16 (base, p) reports of a vector share one chain pass per base;
    # the order of the calls, and evictions between them, change no byte
    other = TreeVector(star_tree(2), {(0,): 1})
    orders = [SWEEP, SWEEP[::-1], SWEEP[::4] + SWEEP[1::4] + SWEEP[2::4] + SWEEP[3::4]]
    for i, x in enumerate(benchmark_size_vectors()):
        want = {id(params): _cold(x, params) for params in SWEEP}
        for order in orders:
            for params in order:
                assert _fingerprint(baire_norm_report(x, params)) == want[id(params)], (i, params)
        for params in random.Random(i).sample(SWEEP, len(SWEEP)):
            baire_norm_report(other, params)  # evict the chain slot
            assert _fingerprint(baire_norm_report(x, params)) == want[id(params)], (i, params)


def test_chain_slot_sees_the_base():
    _, x = random_case(3, max_nodes=12, max_support=8)
    tokens = ["l1", "l2", "l1", "sup", "l1", "l3", "l3/2", "l3"]
    for p in (ZERO, 1, Fraction(3, 2)):
        want = {token: _cold(x, BaireParams(p, BaseNorm.parse(token))) for token in tokens}
        assert len({str(v) for v in want.values()}) == 5
        for token in tokens:
            got = _fingerprint(baire_norm_report(x, BaireParams(p, BaseNorm.parse(token))))
            assert got == want[token], (p, token)


def test_chain_slot_hits_on_equal_tree_and_base():
    # the key holds values: an equal tree, entries dict and base hit the
    # caches, and the segments are built on the calling vector's tree
    x = next(benchmark_size_vectors())
    twin = _twin(x)
    for token in ("sup", "l2"):
        for p in (ZERO, Fraction(3, 2)):
            want = _cold(twin, BaireParams(p, BaseNorm.parse(token)))
            _cold(x, BaireParams(p, BaseNorm.parse(token)))
            misses, hits = _traffic(baire._chains)
            report = baire_norm_report(twin, BaireParams(p, BaseNorm.parse(token)))
            assert _traffic(baire._chains) == (misses, hits + 1)
            assert _fingerprint(report) == want
            assert all(seg.tree is twin.tree for seg in report.family)


def test_chain_slot_sees_the_scale():
    # x / 2 has the terms of x on a grid twice as fine
    star = TreeVector(star_tree(3), {(0,): 1, (1,): 2})
    for x in [star] + [random_case(seed, max_nodes=12)[1] for seed in range(6)]:
        half = x.scale(Fraction(1, 2))
        for params in SWEEP:
            want = _cold(half, params)
            full = baire_norm_report(x, params).value
            got = baire_norm_report(half, params)
            assert _fingerprint(got) == want, (x, params)
            assert got.value.lower <= full.upper / 2 and full.lower / 2 <= got.value.upper
    assert baire_norm(star, P1) == 3
    assert baire_norm(star.scale(Fraction(1, 2)), P1) == Fraction(3, 2)


def test_chain_slot_numbers_the_aggregates_once_per_sweep(monkeypatch):
    # a p-sweep on one vector and base makes one chain pass, which numbers
    # the chain aggregates, and one pow_ends call per p-case, each on the
    # cached end set; a changed copy then gets a fresh pass and a fresh table
    ends = []
    pow_ends = baire.pow_ends

    def counted_pow(agg_ends, scale, exponent):
        ends.append(agg_ends)
        return pow_ends(agg_ends, scale, exponent)

    x = next(benchmark_size_vectors())
    node = next(iter(x.entries))
    changed = TreeVector(x.tree, {**x.entries, node: Fraction(13, 7)})
    base = BaseNorm.parse("l3/2")
    sweep = [BaireParams(p, base) for p in (ZERO, 1, Fraction(3, 2), 2)]
    want = [[_cold(y, params) for params in sweep] for y in (x, changed)]
    with pytest.raises(TypeError):
        x.entries[node] = Fraction(13, 7)
    with pytest.raises(TypeError):
        del x.entries[node]
    clear_reuse_slots()
    monkeypatch.setattr(baire, "pow_ends", counted_pow)
    for k, y in enumerate((x, changed)):
        for params, fingerprint in zip(sweep, want[k]):
            assert _fingerprint(baire_norm_report(y, params)) == fingerprint, (k, params)
        # the chain pass's term call, then one call per p-case
        assert baire._chains.cache_info().misses == k + 1 and len(ends) == 4 * (k + 1)
        _, chain_agg, _, agg_id, aggs, agg_ends = baire._chains(y, base)
        assert [aggs[a] for a in agg_id] == chain_agg
        assert all(e is agg_ends for e in ends[4 * k + 1:])
        assert agg_ends == {end for agg in aggs for end in agg}
        assert sorted(set(agg_id)) == list(range(len(aggs)))


def test_chain_slot_keeps_the_empty_tree_check():
    x = TreeVector(star_tree(2), {(0,): 1})
    for params in (P0, P1):
        baire_norm(x, params)
        slot = baire._chains.cache_info()
        with pytest.raises(ValueError, match="empty tree"):
            baire_norm(TreeVector(FiniteTree([]), {}), params)
        assert baire._chains.cache_info() == slot


def test_report_divides_no_fraction(monkeypatch):
    # the exponents are fixed once per parameter set, in BaseNorm and
    # BaireParams, so a report, cold or warm, divides no Fraction: not 1/q,
    # not p * (1/q), not 1/p.  Its values are those made before the patch
    params = [BaireParams(p, BaseNorm.parse(token))
              for token in ("l1", "l2", "l3/2") for p in (ZERO, 1, Fraction(3, 2), 2)]
    rng = random.Random(45)
    vectors = [random_case(rng.randrange(2**32))[1] for _ in range(6)]
    vectors += [TreeVector(chain_tree(12), {(0,) * d: Fraction(d + 1, 3) for d in range(12)})]
    want = [_cold(x, p) for x in vectors for p in params]

    def refused(*args):
        raise AssertionError("a Fraction was divided")

    monkeypatch.setattr(Fraction, "__truediv__", refused)
    monkeypatch.setattr(Fraction, "__rtruediv__", refused)
    with pytest.raises(AssertionError, match="divided"):
        1 / Fraction(2)
    assert [_cold(x, p) for x in vectors for p in params] == want
    assert [_fingerprint(baire_norm_report(x, p)) for x in vectors for p in params] == want


def test_norm_value_keeps_fractions():
    # a Fraction end is kept by identity; any other end goes through
    # Fraction() as before
    a, b = Fraction(1, 3), Fraction(5, 2)
    v = NormValue(a, b)
    assert v.lower is a and v.upper is b
    w = NormValue(a)
    assert w.lower is a and w.upper is a
    for lower, upper in ((1, 2), ("1/3", "5/2"), (1, "5/2"), (a, 3), ("1/3", b)):
        got = NormValue(lower, upper)
        assert (got.lower, got.upper) == (Fraction(lower), Fraction(upper))
        assert type(got.lower) is Fraction and type(got.upper) is Fraction
    assert NormValue(a, "5/2").lower is a
    assert NormValue("1/3", b).upper is b
    with pytest.raises(ValueError, match="lower > upper"):
        NormValue(b, a)


def test_cache_traffic(monkeypatch):
    # (a) the four Tsirelson calls on one vector build one engine, and
    # (c) an equal vector on an equal tree then hits it
    x = sweep_case(0, 10)
    for variant in (INCOMPARABLE, STANDARD):
        clear_reuse_slots()
        tsirelson_norm(x, variant)
        tsirelson_witness_tree(x, variant)
        check_fixed_point(x, variant)
        tsirelson_iterate(x, variant, 1)
        assert _traffic(tsirelson._built) == (1, 3), variant
        tsirelson_norm(_twin(x), variant)
        assert _traffic(tsirelson._built) == (1, 4), variant
    # (b) a base-major sweep makes one chain pass per base, and (c) an
    # equal vector on an equal tree hits it
    y = next(benchmark_size_vectors())
    clear_reuse_slots()
    for params in SWEEP:
        baire_norm_report(y, params)
    assert _traffic(baire._chains) == (4, 12)
    baire_norm_report(_twin(y), SWEEP[-1])
    assert _traffic(baire._chains) == (4, 13)
    # (d) the cap is checked outside the cache: an engine built under a
    # raised cap is not handed out once the cap is back
    star = TreeVector(star_tree(15, base_label=15), {(15 + i,): 1 for i in range(15)})
    for variant in (INCOMPARABLE, STANDARD):
        monkeypatch.setattr(tsirelson, "DEFAULT_SUPPORT_CAP", 15)
        assert tsirelson_norm(star, variant) == Fraction(15, 2)
        monkeypatch.setattr(tsirelson, "DEFAULT_SUPPORT_CAP", 14)
        info = tsirelson._built.cache_info()
        with pytest.raises(ValueError, match=r"^support cap exceeded: \|supp\| = 15 > 14$"):
            tsirelson_norm(star, variant)
        assert tsirelson._built.cache_info() == info


@pytest.mark.parametrize("params", [P1, P2, P0], ids=["p1", "p2", "p0"])
def test_oracle_equivalence_seeded(params):
    for seed in range(60):
        _, x = random_case(seed, max_support=6)
        got = baire_norm_report(x, params).power
        want = baire_norm_oracle_report(x, params, cap=8).power
        assert got == want, (seed, sorted(x.entries.items()))


MATRIX_BASES = ["sup", "l1", "l2", "l3/2"]
MATRIX_PS = ["0", "1", "3/2", "2", "3"]


def _agree(got, want):
    """Equal when both are exact, else the intervals overlap."""
    if got.is_exact and want.is_exact:
        return got == want
    return got.lower <= want.upper and want.lower <= got.upper


@pytest.mark.parametrize("p", MATRIX_PS)
@pytest.mark.parametrize("base", MATRIX_BASES)
def test_dp_matches_oracle_matrix(base, p):
    # exact results are equal; certified intervals (roots) overlap
    params = BaireParams(Fraction(p), BaseNorm.parse(base))
    for seed in range(100):
        _, x = random_case(seed, max_support=6)
        got = baire_norm_report(x, params)
        want = baire_norm_oracle_report(x, params, cap=8)
        assert _agree(got.value, want.value), (seed, got.value, want.value)
        assert _agree(got.power, want.power), (seed, got.power, want.power)


REFERENCE_BASES = ["sup", "l1", "l2", "l3", "l3/2", "l5/2"]
REFERENCE_PS = ["0", "1", "3/2", "2", "3", "5/3"]
REFERENCE_MATRIX = [(b, p) for b in REFERENCE_BASES for p in REFERENCE_PS]


def _fingerprint(report):
    ends = (report.value.lower, report.value.upper, report.power.lower, report.power.upper)
    return [(f.numerator, f.denominator) for f in ends], [seg.chain for seg in report.family]


def _assert_matches_reference(x, matrix):
    for base, p in matrix:
        params = BaireParams(Fraction(p), BaseNorm.parse(base))
        got = _fingerprint(baire_norm_report(x, params))
        assert got == _fingerprint(reference_report(x, params)), (base, p)


def _reference_vectors(seed):
    """Small-denominator, tie-heavy and distinct-large-denominator
    vectors on one seeded random tree."""
    rng = random.Random(seed)
    tree = random_tree(seed=seed, max_nodes=16, max_branch=3)
    supp = rng.sample(sorted(tree.nodes), rng.randint(1, len(tree.nodes)))
    dens = rng.sample(range(2, 10**4), len(supp))
    return [
        TreeVector(tree, {t: rng.choice([-1, 1]) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
                          for t in supp}),
        TreeVector(tree, {t: rng.choice([-2, -1, 1, 2]) for t in supp}),
        TreeVector(tree, {t: Fraction(rng.randint(1, 10**4), d) for t, d in zip(supp, dens)}),
    ]


def test_dp_matches_fraction_reference():
    # the integer grid must give the same value, power and family, byte
    # for byte, as the Fraction DP it replaced, ties included
    for seed in range(10):
        for x in _reference_vectors(seed):
            _assert_matches_reference(x, REFERENCE_MATRIX)


def test_dp_matches_fraction_reference_deep():
    rng = random.Random(500)
    matrix = [("sup", "3/2"), ("l1", "1"), ("l2", "0"), ("l5/2", "5/3")]
    for tree in (chain_tree(500), comb_tree(500)):
        nodes = sorted(tree.nodes)
        small = {t: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for t in rng.sample(nodes, 350)}
        ties = {t: rng.choice([1, 2]) for t in rng.sample(nodes, 350)}
        for entries in (small, ties):
            _assert_matches_reference(TreeVector(tree, entries), matrix)
    # 2,000 deep: bottom-up over arena ids and segments rebuilt from their
    # endpoint ids, one exact and one interval pair
    tree = comb_tree(2000)
    nodes = sorted(tree.nodes)
    small = {t: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for t in rng.sample(nodes, 2800)}
    ties = {t: rng.choice([1, 2]) for t in rng.sample(nodes, 2800)}
    for entries in (small, ties):
        _assert_matches_reference(TreeVector(tree, entries), [("l1", "1"), ("l5/2", "5/3")])


def test_dp_matches_fraction_reference_on_nested_intervals():
    # under l_{3/2}, the eight 2s from (0,) down and the single 8 at (1,)
    # both weigh 16*sqrt(2), but the sum of eight roots is a wider interval
    # around the single root; the root's chain continues into the branch
    # with the higher upper end
    tree = make_tree([(0,) * 8, (1,)])
    entries = {(0,) * i: 2 for i in range(9)}
    entries[(1,)] = 8
    x = TreeVector(tree, entries)
    report = baire_norm_report(x, BaireParams(ZERO, BaseNorm.parse("l3/2")))
    assert [seg.chain for seg in report.family] == [[(0,) * i for i in range(9)]]
    _assert_matches_reference(x, [(b, p) for b in ("l3/2", "l5/2") for p in REFERENCE_PS])


# the interval pairs of the benchmark's matrix, and the slowest pair the
# CLI accepts at EXPONENT_MAX (p = 8/7, l_{7/6}, M(v) to the power 48/49)
ROOT_MATRIX = [
    ("sup", "3/2"), ("l1", "3/2"), ("l2", "1"), ("l2", "3/2"),
    ("l3/2", "1"), ("l3/2", "2"), ("l7/6", "8/7"),
]


def test_dp_roots_match_fraction_reference():
    # M(v) is rooted on integers, per distinct aggregate end: distinct
    # denominators up to 10**4 make a large grid and many gcds, perfect
    # powers take the exact branch, and entries near 2**-100 make M(v)
    # take several shift rounds
    rng = random.Random(15)
    tree = comb_tree(60)
    nodes = sorted(tree.nodes)
    dens = rng.sample(range(2, 10**4), len(nodes))
    powers = [1, 4, 8, 9, 27, 64, Fraction(1, 4), Fraction(1, 8), Fraction(9, 4), Fraction(27, 8)]
    vectors = [
        {t: Fraction(rng.randint(1, 10**4), d) for t, d in zip(nodes, dens)},
        {t: rng.choice(powers) for t in rng.sample(nodes, 80)},
        {t: Fraction(rng.randint(1, 9), rng.randint(1, 9) << rng.randint(90, 110))
         for t in rng.sample(nodes, 80)},
    ]
    for entries in vectors:
        _assert_matches_reference(TreeVector(tree, entries), ROOT_MATRIX)


def test_oracle_cap():
    t = star_tree(9)
    x = TreeVector(t, {(i,): 1 for i in range(9)})
    with pytest.raises(ValueError):
        baire_norm_oracle(x, P1, cap=8)


def test_homogeneity_and_unconditionality():
    for seed in range(15):
        tree, x = random_case(seed)
        n = baire_norm_report(x, P1).power.exact
        assert baire_norm_report(x.scale(-3), P1).power.exact == 3 * n
        flipped = TreeVector(
            tree, {t: -v if i % 2 else v for i, (t, v) in enumerate(sorted(x.entries.items()))}
        )
        assert baire_norm_report(flipped, P1).power.exact == n


def test_triangle_inequality_p1_exact():
    for seed in range(15):
        tree, x = random_case(seed * 2)
        _, y = random_case(seed * 2 + 1)
        y = TreeVector(tree, {t: v for t, v in y.entries.items() if t in tree})
        s = linear_combination(tree, [x, y], [1, 1])
        assert (
            baire_norm(s, P1).exact
            <= baire_norm(x, P1).exact + baire_norm(y, P1).exact
        )


def test_triangle_inequality_p2_exact_in_power_domain():
    # values are square roots of exact rationals; sqrt(a) + sqrt(b) >= sqrt(c)
    # iff c <= a + b or 4ab >= (c - a - b)^2
    for seed in range(15):
        tree, x = random_case(seed * 2)
        _, y = random_case(seed * 2 + 1)
        y = TreeVector(tree, {t: v for t, v in y.entries.items() if t in tree})
        a = baire_norm_report(x, P2).power.exact
        b = baire_norm_report(y, P2).power.exact
        c = baire_norm_report(linear_combination(tree, [x, y], [1, 1]), P2).power.exact
        assert c <= a + b or 4 * a * b >= (c - a - b) ** 2


def test_monotone_under_support_restriction():
    for seed in range(15):
        tree, x = random_case(seed)
        keep = sorted(x.entries.items())[::2]
        r = TreeVector(tree, dict(keep))
        assert baire_norm_report(r, P1).power.exact <= baire_norm_report(x, P1).power.exact


def test_monotone_in_p_at_benchmark_sizes():
    # each family's l_p aggregate decreases in p, and the 0-variant's single
    # segment is a family: |x|_p >= |x|_p' >= |x|_0 for 1 <= p <= p'; an
    # interval passes when it can be at least the other
    ps = [1, Fraction(5, 4), Fraction(3, 2), 2, 3]
    for x in benchmark_size_vectors():
        for token in ("sup", "l1", "l2", "l3/2"):
            base = BaseNorm.parse(token)
            values = [baire_norm(x, BaireParams(p, base)) for p in ps + [ZERO]]
            for big, small in zip(values, values[1:]):
                assert big.upper >= small.lower, (token, big, small)


def test_homogeneity_signs_and_restriction_at_benchmark_sizes():
    # |cx| = |c| |x|, flipping every other sign changes nothing, and
    # restricting to every other support node raises nothing, for the Baire
    # norm at every (base, p) and for ground_norm; a restriction passes when
    # its lower end is at most the full vector's upper end
    c = Fraction(-7, 3)
    norms = [
        partial(baire_norm, params=BaireParams(p, BaseNorm.parse(token)))
        for token in ("sup", "l1", "l2", "l3/2")
        for p in (ZERO, 1, Fraction(3, 2), 2)
    ] + [lambda y: NormValue(ground_norm(y))]
    for x in benchmark_size_vectors():
        entries = sorted(x.entries.items())
        flipped = TreeVector(x.tree, {t: -v if i % 2 else v for i, (t, v) in enumerate(entries)})
        restricted = TreeVector(x.tree, dict(entries[::2]))
        for norm in norms:
            v = norm(x)
            scaled = NormValue(abs(c) * v.lower, abs(c) * v.upper)
            assert _agree(norm(x.scale(c)), scaled), (norm, v)
            assert _agree(norm(flipped), v), (norm, v)
            assert norm(restricted).lower <= v.upper, (norm, v)


def test_zero_variant_bounded_by_p_variant():
    for seed in range(15):
        _, x = random_case(seed)
        assert baire_norm(x, P0).exact <= baire_norm(x, P1).exact


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_dp_matches_oracle_property(seed):
    _, x = random_case(seed, max_support=5)
    assert baire_norm_report(x, P1).power == baire_norm_oracle_report(x, P1, cap=8).power


def _block_profile(blocks, coeffs, params):
    """The norm of sum c_i b_i, and the l_p profile of (|c_i| |b_i|): the l_p
    sum of the block norms (their max for p = 0) by pow_bounds.

    The two are equal, or overlap where they are intervals.  A segment is
    a chain, and a chain meets at most one of several completely
    incomparable supports, so every family of x = sum c_i b_i splits into
    families for the single c_i b_i: |x| is at most the profile.
    Conversely, segments trimmed to the supports of different blocks are
    completely incomparable: if s_1 <= u <= w <= t_2, with u on a segment
    from s_1 to t_1 in block 1's support and w on one from s_2 to t_2 in
    block 2's, then s_1 and t_2 would be comparable (and likewise with 1
    and 2 swapped).  So the optimal families of the blocks together are a
    family of x.
    """
    norm = baire_norm(FiniteBlockSequence(blocks).combine(coeffs), params)
    terms = []
    for b, c in zip(blocks, coeffs):
        v = baire_norm(b, params)
        terms.append((abs(c) * v.lower, abs(c) * v.upper))
    if params.p is ZERO:
        return norm, NormValue(max(lo for lo, _ in terms), max(hi for _, hi in terms))
    powers = [pow_bounds(*t, params.p) for t in terms]
    total = sum(lo for lo, _ in powers), sum(hi for _, hi in powers)
    return norm, NormValue(*pow_bounds(*total, 1 / params.p))


def test_block_profile_star():
    t = star_tree(4, base_label=0)
    blocks = [unit_vector(t, (i,)) for i in range(4)]
    norm, profile = _block_profile(blocks, [1, 1, 1, 1], P1)
    assert norm == 4 and profile == 4


def _random_block_sequence(seed):
    """Seeded blocks that hold chains: nodes are taken in enumeration
    order, and each joins the last block, opens a new one, or is skipped,
    so that blocks stay completely incomparable in increasing windows."""
    rng = random.Random(seed)
    tree = random_tree(seed=seed, max_nodes=16, max_branch=3)
    groups = []
    for t in sorted(tree.nodes, key=tree.index)[1:]:
        earlier = [s for g in groups[:-1] for s in g]
        if any(comparable(s, t) for s in earlier):
            continue
        current = groups[-1] if groups else []
        r = rng.random()
        if current and r < 0.3:
            current.append(t)
        elif not groups or (r < 0.5 and not any(comparable(s, t) for s in current)):
            groups.append([t])
    blocks = [
        TreeVector(tree, {
            t: Fraction(rng.randint(1, 6), rng.randint(1, 6)) * rng.choice([1, -1])
            for t in g
        })
        for g in groups
    ]
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in blocks]
    return blocks, coeffs


def test_block_profile_equals_norm():
    # a chain meets at most one completely incomparable support, so the
    # norm of sum c_i b_i is the l_p aggregate of |c_i| |b_i| (see
    # _block_profile)
    bases = [BaseNorm.sup(), L1, BaseNorm.ell(2), BaseNorm.ell(Fraction(3, 2))]
    ps = [ZERO, 1, Fraction(3, 2), 2, 3]
    exact = chained = 0
    for seed in range(40):
        blocks, coeffs = _random_block_sequence(seed)
        chained += len(blocks) > 1 and any(
            comparable(s, t) for b in blocks for s in b.support for t in b.support if s != t
        )
        for base in bases:
            for p in ps:
                norm, profile = _block_profile(blocks, coeffs, BaireParams(p, base))
                if norm.is_exact and profile.is_exact:
                    exact += 1
                    assert norm.exact == profile.exact, (seed, base, p)
                else:
                    assert norm.lower <= profile.upper and profile.lower <= norm.upper
    assert exact >= 200 and chained >= 15
