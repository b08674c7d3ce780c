import functools
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire_lab import tsirelson
from baire_lab.baire import BaireParams, baire_norm, baire_norm_oracle
from baire_lab.hi import ground_norm
from baire_lab.trees import (
    FiniteTree,
    chain_tree,
    comb_tree,
    comparable,
    make_tree,
    random_tree,
    star_tree,
)
from baire_lab.tsirelson import (
    DEFAULT_SUPPORT_CAP,
    INCOMPARABLE,
    STANDARD,
    _Ctx,
    _engine,
    _IncEngine,
    _StdEngine,
    check_fixed_point,
    tsirelson_iterate,
    tsirelson_norm,
    tsirelson_witness_tree,
    verify_lemma_II1,
    verify_sandwich18,
)
from baire_lab.vectors import BaseNorm, TreeVector, unit_vector
from tsirelson_reference import _engine as reference_engine
from tsirelson_reference import (
    reference_check_fixed_point,
    reference_iterate,
    reference_norm,
    reference_witness_tree,
)
from util import clear_reuse_slots, leaves, random_case, random_nonroot_case, sweep_case


def naive_iterates(x, variant):
    """Independent reference: the m-th iterate as a function of m, by
    enumerating every admissible family directly."""
    tree = x.tree
    idx = {t: tree.index(t) for t in x.support}

    @functools.lru_cache(maxsize=None)
    def norm(supp, lev):
        # supp is a tuple of support nodes sorted by enumeration index
        if not supp:
            return Fraction(0)
        best = max(abs(x[t]) for t in supp)
        if lev == 0:
            return best
        n = len(supp)
        for r in range(2, n + 1):
            for sub in itertools.combinations(supp, r):
                for k in range(2, r + 1):
                    for cuts in itertools.combinations(range(1, r), k - 1):
                        bounds = (0,) + cuts + (r,)
                        blocks = [sub[a:b] for a, b in zip(bounds, bounds[1:])]
                        if k > idx[blocks[0][0]]:
                            continue
                        if variant == INCOMPARABLE and any(
                            comparable(s, t)
                            for A, B in itertools.combinations(blocks, 2)
                            for s in A
                            for t in B
                        ):
                            continue
                        total = sum(norm(b, lev - 1) for b in blocks)
                        if total / 2 > best:
                            best = total / 2
        return best

    supp = tuple(sorted(x.support, key=idx.__getitem__))
    return lambda level: norm(supp, level)


def naive_norm(x, variant, level):
    return naive_iterates(x, variant)(level)


def test_unknown_variant():
    t = star_tree(2)
    with pytest.raises(ValueError):
        tsirelson_norm(unit_vector(t, (0,)), "bogus")


def test_empty_support():
    t = star_tree(2)
    assert tsirelson_norm(TreeVector(t, {}), INCOMPARABLE) == 0
    for variant in (INCOMPARABLE, STANDARD):
        assert check_fixed_point(TreeVector(t, {}), variant) is True


def test_support_cap():
    t = star_tree(15)
    x = TreeVector(t, {(i,): 1 for i in range(15)})
    with pytest.raises(ValueError):
        tsirelson_norm(x, INCOMPARABLE)


def test_chain_degenerates_to_sup():
    # on a chain every pair of nodes is comparable, so the INCOMPARABLE
    # variant never finds a family; the STANDARD variant agrees because
    # low enumeration indices block every split
    t = chain_tree(6)
    x = TreeVector(t, {(0,) * i: Fraction(i + 1, 2) for i in range(6)})
    assert tsirelson_norm(x, INCOMPARABLE) == 3
    assert tsirelson_norm(x, STANDARD) == naive_norm(x, STANDARD, 8)


def test_star_all_ones_large_indices():
    # with indices past n, an n-leaf star of ones splits fully: value n/2
    for n in (4, 6):
        t = star_tree(n, base_label=n)
        x = TreeVector(t, {(n + i,): 1 for i in range(n)})
        assert tsirelson_norm(x, INCOMPARABLE) == Fraction(n, 2)
        assert tsirelson_norm(x, STANDARD) == Fraction(n, 2)


def test_star_small_indices():
    # leaf (0) has index 1 and can never start a family
    t = star_tree(6)
    x = TreeVector(t, {(i,): 1 for i in range(6)})
    assert tsirelson_norm(x, INCOMPARABLE) == Fraction(3, 2)


def test_labels_outside_the_naturals_are_refused():
    # the tree is refused before any vector is built on it: with (-2,) and
    # (-1,), (-1,) had the root's index 0 and (-2,) index -1, and both
    # variants gave the all-ones vector the value 1; with (1.5,), both
    # computed with base 2.5 and float indices on a support avoiding it
    for nodes in ([(-2,), (-1,), (0,)], [(1.5,), (0,), (1,), (0, 0)]):
        with pytest.raises(ValueError, match="is not a natural"):
            make_tree(nodes)


def test_a_label_after_the_clamp_reads_as_its_natural():
    # 1.0 == 1, so the tree's trie takes the 1.0 of (7, 1.0, 0) as the
    # label 1 that (7, 1) put there, and the tree's node is (7, 1, 0); a
    # vector keyed (7, 1.0, 0) is keyed by that node, so both variants give
    # it the norm of the vector keyed (7, 1, 0), as baire_norm and
    # ground_norm do.  The node is shorter than the support size 4, and its
    # first entry already takes the numeral to 8 >= 4
    support = [(7, 1.0, 0), (0,), (1,), (2,)]
    t = make_tree([(7, 1)] + support)
    assert (7, 1, 0) in t.order
    x = TreeVector(t, {node: 1 for node in support})
    assert all(type(e) is int for node in x.entries for e in node)
    ints = [(7, 1, 0), (0,), (1,), (2,)]
    y = TreeVector(make_tree([(7, 1)] + ints), {node: 1 for node in ints})
    for variant in (INCOMPARABLE, STANDARD):
        assert tsirelson_norm(x, variant) == reference_norm(y, variant)
        witness = json.dumps(tsirelson_witness_tree(x, variant))
        assert witness == json.dumps(reference_witness_tree(y, variant))
    params = BaireParams(2, BaseNorm.ell(1))
    assert baire_norm(x, params) == baire_norm_oracle(y, params)
    assert ground_norm(x) == ground_norm(y)


def test_witness_leaf_names_the_first_position_of_largest_value():
    # 2, 3, 3, 1 down a chain: no family strictly beats the sup 3, which
    # two nodes attain, and the leaf names the first, (0, 0)
    x = TreeVector(chain_tree(5), {(0,) * d: v for d, v in zip(range(1, 5), (2, 3, 3, 1))})
    for variant in (INCOMPARABLE, STANDARD):
        assert tsirelson_norm(x, variant) == 3
        assert tsirelson_witness_tree(x, variant) == {"value": "3", "node": [0, 0]}


def test_iterate_zero_is_sup():
    for seed in range(10):
        _, x = random_nonroot_case(seed, max_support=6)
        sup = max(map(abs, x.entries.values()), default=Fraction(0))
        assert tsirelson_iterate(x, INCOMPARABLE, 0) == sup


def test_iterates_monotone_and_stabilize():
    for seed in range(20):
        _, x = random_nonroot_case(seed, max_support=8)
        for variant in (INCOMPARABLE, STANDARD):
            vals = [tsirelson_iterate(x, variant, m) for m in range(len(x.support) + 1)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == tsirelson_norm(x, variant)


def test_matches_naive_enumeration():
    # the engines answer levels >= |supp| - 1 from the fixed-point memo (the
    # level-collapse lemma); the oracle computes every level in full
    for seed in range(30):
        _, x = random_nonroot_case(seed, max_nodes=9, max_support=8)
        n = len(x.support)
        for variant in (INCOMPARABLE, STANDARD):
            naive = naive_iterates(x, variant)
            case = (seed, variant, sorted(x.entries.items()))
            assert tsirelson_norm(x, variant) == naive(n + 1), case
            for m in (n - 1, n, n + 1):
                assert tsirelson_iterate(x, variant, m) == naive(m), case + (m,)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_naive_agreement_property(seed):
    _, x = random_nonroot_case(seed, max_nodes=8, max_support=5)
    for variant in (INCOMPARABLE, STANDARD):
        assert tsirelson_norm(x, variant) == naive_norm(x, variant, 6)


def test_incomparable_at_most_standard():
    # the standard variant drops the incomparability restriction, so it
    # maximizes over strictly more families
    for seed in range(20):
        _, x = random_nonroot_case(seed, max_support=8)
        assert tsirelson_norm(x, INCOMPARABLE) <= tsirelson_norm(x, STANDARD)


def test_fixed_point_holds():
    for seed in range(20):
        _, x = random_nonroot_case(seed, max_support=8)
        for variant in (INCOMPARABLE, STANDARD):
            assert check_fixed_point(x, variant)
    # a converged value moved off the fixed point fails the check: with 3 at
    # every node of a 6-leaf star a family wins (9/2 > 3), so one grid step
    # below is beaten, one above is attained by nothing, and the sup alone
    # is attained by the sup but beaten by the family
    t = star_tree(6)
    x = TreeVector(t, {node: 3 for node in t.nodes})
    try:
        for variant in (INCOMPARABLE, STANDARD):
            assert tsirelson_norm(x, variant) == Fraction(9, 2)
            eng = tsirelson._built(variant, x)
            value = eng.memo[eng.root]
            for wrong in (value - 1, value + 1, max(eng.ctx.vals)):
                eng.memo[eng.root] = wrong
                assert not check_fixed_point(x, variant), (variant, wrong)
            eng.memo[eng.root] = value
            assert check_fixed_point(x, variant)
    finally:
        tsirelson._built.cache_clear()


def test_norm_dominates_sup_and_below_half_l1():
    for seed in range(20):
        _, x = random_nonroot_case(seed, max_support=8)
        v = tsirelson_norm(x, INCOMPARABLE)
        sup = max(map(abs, x.entries.values()), default=Fraction(0))
        assert sup <= v <= max(sup, x.l1() / 2)


def test_open_set_slack_law():
    # the open-set slack lemma's premise, oracle-free: on a support A with
    # |A| >= 2 every iterate level 0..|A| - 1 and the fixed point are at most
    # max(sup, l1 / 2), in both variants
    cases = [random_case(seed)[1] for seed in range(200)]
    cases += [sweep_case(seed, n) for n in range(2, 15) for seed in range(3)]
    for x in cases:
        n = len(x.entries)
        if n < 2:
            continue
        cap = max(max(map(abs, x.entries.values())), x.l1() / 2)
        for variant in (INCOMPARABLE, STANDARD):
            levels = [tsirelson_iterate(x, variant, m) for m in range(n)]
            assert max(levels + [tsirelson_norm(x, variant)]) <= cap, (variant, x)


def _witness_leaves(node):
    if "node" in node:
        return [tuple(node["node"])]
    return [t for member in node["family"] for t in _witness_leaves(member)]


def _replay(node, x, variant):
    """Value of a witness node, checking every family node on the way."""
    tree = x.tree
    if "node" in node:
        value = abs(x[tuple(node["node"])])
    else:
        members = node["family"]
        groups = [sorted(_witness_leaves(m), key=tree.index) for m in members]
        flat = [t for g in groups for t in g]
        # k >= 2 disjoint members E_1 < ... < E_k with k <= min E_1
        assert len(members) >= 2
        assert len(set(flat)) == len(flat)
        for a, b in zip(groups, groups[1:]):
            assert tree.index(a[-1]) < tree.index(b[0])
        assert len(members) <= tree.index(groups[0][0])
        if variant == INCOMPARABLE:
            for a, b in itertools.combinations(groups, 2):
                assert not any(comparable(s, t) for s in a for t in b)
        value = sum(_replay(m, x, variant) for m in members) / 2
    assert Fraction(node["value"]) == value
    return value


def test_witness_tree_replays():
    for seed in range(15):
        _, x = random_nonroot_case(seed, max_support=8)
        for variant in (INCOMPARABLE, STANDARD):
            wt = tsirelson_witness_tree(x, variant)
            assert _replay(wt, x, variant) == tsirelson_norm(x, variant)


def _tie_case(seed):
    """Values from {1, 2, 3, 4} on a star with shifted labels or on a
    random tree: many equal run sums."""
    rng = random.Random(seed)
    if seed % 2:
        tree = star_tree(rng.randint(2, 9), base_label=rng.randint(0, 9))
    else:
        tree = random_tree(seed=rng.randrange(2**32), max_nodes=14,
                           max_branch=rng.randint(2, 4))
    nodes = sorted(tree.nodes, key=tree.index)
    supp = rng.sample(nodes, rng.randint(1, min(9, len(nodes))))
    return TreeVector(tree, {t: rng.choice([1, 2, 3, 4]) for t in supp})


def _split_cases():
    """Random signed supports and tie-heavy ones, up to 9 nodes."""
    cases = [random_nonroot_case(seed, max_support=9)[1] for seed in range(150)]
    return cases + [_tie_case(seed) for seed in range(150)]


def test_run_count_lemma():
    # partition(l, j, k) strictly increases in k up to the admissible
    # maximum, so best_split tries only that k and still returns the first
    # optimal (l, k) of a scan over every k: the witnesses do not move
    for x in _split_cases():
        eng = _StdEngine(_Ctx(x))
        n, idx = eng.ctx.n, eng.ctx.idx
        for level in (None, 0, 1, 2):
            sums = {}
            for l, j in itertools.combinations(range(n + 1), 2):
                kmax = min(idx[l], j - l)
                run = [eng.partition(l, j, k, level) for k in range(1, kmax + 1)]
                assert all(a < b for a, b in zip(run, run[1:])), (x.entries, l, j, level)
                sums[l, j] = run
            for i, j in itertools.combinations(range(n + 1), 2):
                scan = (Fraction(0), None)
                for l in range(i, j):
                    for k in range(2, len(sums[l, j]) + 1):
                        if sums[l, j][k - 1] > scan[0]:
                            scan = (sums[l, j][k - 1], (l, k))
                assert eng.best_split(i, j, level) == scan


def test_l1_incumbent_cut_keeps_the_first_improvement():
    # best_split(i, j, level, incumbent) cuts the start scan once the
    # suffix l1 is at most the best sum (the l1-incumbent lemma); it must
    # still return the first strict improvement on the incumbent of a scan
    # over every start and every k, or (incumbent, None)
    for x in _split_cases():
        eng = _StdEngine(_Ctx(x))
        n, idx, vals = eng.ctx.n, eng.ctx.idx, eng.ctx.vals
        for level in (None, 0, 1, 2):
            for i, j in itertools.combinations(range(n + 1), 2):
                scan = [
                    (eng.partition(l, j, k, level), (l, k))
                    for l in range(i, j)
                    for k in range(2, min(idx[l], j - l) + 1)
                ]
                top = max((c for c, _ in scan), default=0)
                for incumbent in (0, 2 * max(vals[i:j]), top):
                    want = (incumbent, None)
                    for cand, arg in scan:
                        if cand > want[0]:
                            want = (cand, arg)
                    got = eng.best_split(i, j, level, incumbent)
                    assert got == want, (x.entries, i, j, level, incumbent)


def _outputs(x, variant, order, norm, witness, check, iterate, levels=None):
    """Norm, witness JSON, fixed-point check and the iterates at `levels`
    (by default every level 0..|supp| + 1) of x, with the four calls made
    in `order`."""
    if levels is None:
        levels = range(len(x.support) + 2)
    calls = {
        "norm": lambda: norm(x, variant),
        "witness": lambda: json.dumps(witness(x, variant)),
        "check": lambda: check(x, variant),
        "iterate": lambda: [iterate(x, variant, m) for m in levels],
    }
    return {name: calls[name]() for name in order}


_SHARED = (tsirelson_norm, tsirelson_witness_tree, check_fixed_point, tsirelson_iterate)
_REFERENCE = (reference_norm, reference_witness_tree, reference_check_fixed_point,
              reference_iterate)


def _deep_vectors():
    """Supports that reach deeper than their size: five nodes of
    chain_tree(40) down to depth 39, and paths up to 30 deep with labels
    near 10**50, whose indices have about 1,500 digits."""
    rng = random.Random(21)
    chain = chain_tree(40)
    for _ in range(4):
        depths = rng.sample(range(39), 4) + [39]
        yield TreeVector(chain, {(0,) * d: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                 for d in depths})
    for _ in range(8):
        paths = [
            tuple(10**50 + rng.randrange(4) for _ in range(rng.randint(1, 30)))
            for _ in range(rng.randint(2, 5))
        ]
        tree = make_tree(paths)
        supp = rng.sample(tree.order, rng.randint(2, min(7, len(tree))))
        yield TreeVector(tree, {
            t: Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1]) for t in supp
        })


def test_engines_read_no_index_past_the_support_size(monkeypatch):
    # the index-clamp lemma: an index is read only as a bound on k <= n,
    # and a node of depth >= n has index >= n, so no engine asks for it
    asked = []
    index = FiniteTree.index

    def recording(tree, node):
        asked.append(tuple(node))
        return index(tree, node)

    cases = list(_deep_vectors())
    want = {
        (i, variant): _outputs(x, variant, ("norm", "witness", "check", "iterate"), *_REFERENCE)
        for i, x in enumerate(cases)
        for variant in (INCOMPARABLE, STANDARD)
    }
    monkeypatch.setattr(FiniteTree, "index", recording)
    for i, x in enumerate(cases):
        n = len(x.entries)
        for variant in (INCOMPARABLE, STANDARD):
            clear_reuse_slots()  # x's engine is built inside the recording
            asked.clear()
            got = _outputs(x, variant, ("norm", "witness", "check", "iterate"), *_SHARED)
            assert got == want[i, variant], (i, variant)
            assert all(len(t) < n for t in asked), (i, variant, max(map(len, asked)))


def test_ctx_index_is_clamped_at_the_support_size():
    cases = list(_deep_vectors())
    cases += [random_case(seed, max_nodes=16, max_support=12)[1] for seed in range(60)]
    for x in cases:
        if not x.entries:
            continue
        ctx = _Ctx(x)
        tree = x.tree
        assert ctx.idx == tuple(min(tree.index(t), ctx.n) for t in ctx.nodes)
        # the grid values, lifted by 2**(n - 1) (the grid lemma)
        mags, den = x.grid()
        assert ctx.vals == [a << (ctx.n - 1) for a in mags]
        assert ctx.scale == den << (ctx.n - 1)
        assert [Fraction(v, ctx.scale) for v in ctx.vals] == [abs(v) for v in x.entries.values()]


def _shape_cases():
    """Vectors of support 4, 8 and 12 on a chain (no two nodes
    incomparable), stars with low and raised indices (every two leaves
    incomparable) and a comb (a mix)."""
    rng = random.Random(12)
    for tree in (chain_tree(16), star_tree(12), star_tree(11, 3), comb_tree(8)):
        for n in (4, 8, 12):
            supp = rng.sample(tree.order, n)
            yield TreeVector(tree, {
                t: Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
                for t in supp
            })


def test_matches_reference_engines():
    # criterion 3's distribution, then chains, stars and combs, where the
    # skip-dominance cut fires most: every iterate level, the norm, the
    # check and the witness JSON agree with fresh, non-collapsing engines.
    # The reference builds a fresh engine per level, so above support 8
    # the shapes ask it for levels 1, 2 and n - 2 only
    rng = random.Random(10)
    cases = []
    for _ in range(25):
        while True:
            _, x = random_case(rng.randrange(2**32), max_nodes=16, max_support=12)
            if x.support:
                break
        cases.append((x, None))
    for x in _shape_cases():
        n = len(x.entries)
        cases.append((x, None if n <= 8 else (1, 2, n - 2)))
    order = ("norm", "witness", "check", "iterate")
    for x, levels in cases:
        for variant in (INCOMPARABLE, STANDARD):
            want = _outputs(x, variant, order, *_REFERENCE, levels=levels)
            assert _outputs(x, variant, order, *_SHARED, levels=levels) == want, (variant, x)


def test_two_node_supports_match_the_reference_without_an_engine():
    # the two-node lemma: every support of at most two nodes of a small
    # random tree, with mixed signs, has the reference's value at the fixed
    # point and at levels 0..3, in both variants, and the norm, the
    # iterates, the witness and the check neither build nor read an engine;
    # the input checks still raise first, and the witness and the check
    # agree with the reference
    rng = random.Random(45)
    levels = (None, 0, 1, 2, 3)
    vectors = []
    for seed in range(8):
        tree, _ = random_case(rng.randrange(2**32), max_nodes=8)
        nodes = list(tree.nodes)
        for size in (0, 1, 2):
            for supp in itertools.combinations(nodes, size):
                vectors.append(TreeVector(tree, {
                    t: Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
                    for t in supp
                }))
    assert {len(x.entries) for x in vectors} == {0, 1, 2}
    want = {
        (i, variant, m): reference_norm(x, variant) if m is None else reference_iterate(
            x, variant, m)
        for i, x in enumerate(vectors)
        for variant in (INCOMPARABLE, STANDARD)
        for m in levels
    }
    slot = tsirelson._built.cache_info()
    for i, x in enumerate(vectors):
        for variant in (INCOMPARABLE, STANDARD):
            for m in levels:
                got = tsirelson_norm(x, variant) if m is None else tsirelson_iterate(x, variant, m)
                assert type(got) is Fraction and got == want[i, variant, m], (x, variant, m)
        with pytest.raises(ValueError, match=r"^unknown variant 'bogus'$"):
            tsirelson_norm(x, "bogus")
        for variant in (INCOMPARABLE, "bogus"):
            with pytest.raises(ValueError, match=r"^iterate level must be >= 0$"):
                tsirelson_iterate(x, variant, -1)
            with pytest.raises(ValueError, match=r"^iterate level must be an int, not True$"):
                tsirelson_iterate(x, variant, True)
        with pytest.raises(ValueError, match=r"^unknown variant 'bogus'$"):
            tsirelson_iterate(x, "bogus", 0)
    assert tsirelson._built.cache_info() == slot
    for x in vectors:
        for variant in (INCOMPARABLE, STANDARD):
            assert tsirelson_witness_tree(x, variant) == reference_witness_tree(x, variant)
            assert check_fixed_point(x, variant) is reference_check_fixed_point(x, variant) is True
    assert tsirelson._built.cache_info() == slot


def test_antichain_incomparable_engine_matches_standard(monkeypatch):
    # the antichain lemma: on pairwise incomparable supports the two
    # variants agree at every level and at the fixed point.  The STANDARD
    # interval DP shares no code with the INCOMPARABLE family search, so it
    # is an independent oracle here, past the support cap (both engines are
    # built directly, up to n = 20): stars with small labels, the hard case
    # for the search, and leaves of random trees, whose indices are large.
    # Values of one order of magnitude, with mixed signs, let families win
    rng = random.Random(46)
    stars = [star_tree(n) for n in (3, 5, 8, 11, 14, 17, 20)] + [star_tree(n, 3) for n in (12, 18)]
    supports = [(tree, tree.order[1:]) for tree in stars]
    for seed, n in zip(range(8), (4, 7, 10, 13, 16, 18, 20, 20)):
        tree = random_tree(seed, 80, 4)
        found = [t for t in leaves(tree) if t != ()]
        supports.append((tree, sorted(rng.sample(found, n), key=tree.id_of.__getitem__)))
    for tree, nodes in supports:
        assert not any(comparable(s, t) for s, t in itertools.combinations(nodes, 2))
        x = TreeVector(tree, {
            t: Fraction(rng.randint(4, 9), rng.randint(1, 2)) * rng.choice([1, -1]) for t in nodes
        })
        engines = {INCOMPARABLE: _IncEngine(_Ctx(x)), STANDARD: _StdEngine(_Ctx(x))}
        monkeypatch.setattr(tsirelson, "_engine", lambda x, variant: engines[variant])
        n = len(nodes)
        for m in (0, 1, 2, 3, n - 2):
            assert (tsirelson_iterate(x, INCOMPARABLE, m)
                    == tsirelson_iterate(x, STANDARD, m)), (n, m)
        assert tsirelson_norm(x, INCOMPARABLE) == tsirelson_norm(x, STANDARD), n
        assert check_fixed_point(x, INCOMPARABLE) is check_fixed_point(x, STANDARD) is True


def test_incomparable_search_work_is_bounded():
    # the skip-dominance cut leaves 147 memo entries on this case; without
    # it the fixed point fills 5,674
    eng = _IncEngine(_Ctx(sweep_case(13, 14)))
    eng.value()
    assert len(eng.memo) <= 600


def test_incomparable_search_work_is_bounded_above_the_cap():
    # the open-set slack bound leaves 307 memo entries on this case; with
    # the plain l_1 bound the fixed point fills 1,085
    eng = _IncEngine(_Ctx(sweep_case(0, 18)))
    eng.value()
    assert len(eng.memo) <= 600


def test_shared_engine_call_order():
    # one engine serves every call on the same vector; the order of the
    # calls changes no value and no recorded witness.  `other` has three
    # nodes, so its norm builds an engine, which evicts x's: the first of
    # the four calls on x misses and builds x's engine, the rest hit it.  A
    # support of at most two nodes builds no engine (the two-node lemma)
    other = TreeVector(star_tree(3), {(0,): 1, (1,): 1, (2,): 1})
    orders = list(itertools.permutations(("norm", "witness", "check", "iterate")))
    for seed in range(12):
        _, x = random_nonroot_case(seed, max_support=8)
        for variant in (INCOMPARABLE, STANDARD):
            eng = _engine(x, variant)
            assert _engine(x, variant) is eng
            want = _outputs(x, variant, orders[0], *_REFERENCE)
            for order in orders:
                tsirelson_norm(other, variant)  # evict the shared engine
                misses = tsirelson._built.cache_info().misses
                assert _outputs(x, variant, order, *_SHARED) == want, (seed, order)
                assert (tsirelson._built.cache_info().misses
                        == misses + (len(x.entries) > 2)), (seed, order)


def test_shared_engine_keeps_input_checks():
    t = star_tree(14, base_label=14)
    x = TreeVector(t, {(14 + i,): 1 for i in range(14)})
    assert tsirelson_norm(x, INCOMPARABLE) == 7
    big = TreeVector(star_tree(15, base_label=15), {(15 + i,): 1 for i in range(15)})
    with pytest.raises(ValueError, match="support cap exceeded: .* 15 > 14"):
        tsirelson_norm(big, INCOMPARABLE)
    with pytest.raises(ValueError, match="unknown variant"):
        tsirelson_norm(x, "bogus")
    with pytest.raises(ValueError, match="iterate level"):
        tsirelson_iterate(x, INCOMPARABLE, -1)
    assert tsirelson_iterate(x, INCOMPARABLE, 13) == 7


def test_refused_iterate_level_leaves_the_engine_slot():
    # a negative level is refused before any engine is built, so the shared
    # slot still holds the last vector's engine, whatever else is wrong.
    # x has three nodes and l1 > 2 * sup, so its norm builds an engine (a
    # support of at most two nodes is answered without one)
    x = TreeVector(star_tree(3, base_label=3), {(3,): 1, (4,): 2, (5,): 2})
    y = TreeVector(star_tree(4, base_label=4), {(4,): 1, (5,): 1})
    big = TreeVector(star_tree(15, base_label=15), {(15 + i,): 1 for i in range(15)})
    tsirelson_norm(x, INCOMPARABLE)
    slot = tsirelson._built.cache_info()
    for z, variant in ((y, INCOMPARABLE), (y, "bogus"), (big, INCOMPARABLE)):
        with pytest.raises(ValueError, match=r"^iterate level must be >= 0$"):
            tsirelson_iterate(z, variant, -1)
        assert tsirelson._built.cache_info() == slot
    tsirelson_norm(x, INCOMPARABLE)
    assert tsirelson._built.cache_info() == slot._replace(hits=slot.hits + 1)


def test_iterate_level_must_be_an_int():
    # a level that is not an int, a bool among them, is refused before any
    # other check, as a negative one is, so the slot keeps the last engine,
    # the one x's norm built (x has three nodes and l1 > 2 * sup)
    x = TreeVector(star_tree(3, base_label=3), {(3,): 1, (4,): 2, (5,): 2})
    y = sweep_case(0, 10)
    big = TreeVector(star_tree(15, base_label=15), {(15 + i,): 1 for i in range(15)})
    tsirelson_norm(x, INCOMPARABLE)
    slot = tsirelson._built.cache_info()
    for z, variant in ((y, INCOMPARABLE), (y, STANDARD), (y, "bogus"), (big, STANDARD)):
        for m in (True, False, 0.5, 1.0, -1.0, Fraction(1), Fraction(1, 2)):
            with pytest.raises(ValueError, match=r"^iterate level must be an int, not "):
                tsirelson_iterate(z, variant, m)
            assert tsirelson._built.cache_info() == slot
    tsirelson_norm(x, INCOMPARABLE)
    assert tsirelson._built.cache_info() == slot._replace(hits=slot.hits + 1)
    assert tsirelson_iterate(y, STANDARD, 1) == Fraction(1373, 280)


def test_shared_engine_sees_in_place_changes():
    # entries are read-only, so the engine slot cannot go stale: a change
    # in place raises, and a changed copy gets an engine of its own
    t = star_tree(4, base_label=4)
    x = TreeVector(t, {(4 + i,): 1 for i in range(4)})
    for variant in (INCOMPARABLE, STANDARD):
        assert tsirelson_norm(x, variant) == 2
        with pytest.raises(TypeError):
            x.entries[(4,)] = Fraction(5)
        with pytest.raises(TypeError):
            del x.entries[(4,)]
        y = TreeVector(t, {**x.entries, (4,): Fraction(5)})
        assert tsirelson_norm(y, variant) == reference_norm(y, variant) == 5
        assert tsirelson_witness_tree(y, variant) == reference_witness_tree(y, variant)
        assert tsirelson_norm(x, variant) == 2


def test_shared_engine_sees_the_grid_scale():
    # x / 2 has the grid values of x on a grid twice as fine, so an engine
    # slot keyed by those values alone would answer x / 2 with the norm of x
    star = TreeVector(star_tree(3, base_label=3), {(3,): 1, (4,): 2})
    cases = [star] + [random_nonroot_case(seed, max_support=8)[1] for seed in range(8)]
    for x in cases:
        half = x.scale(Fraction(1, 2))
        levels = range(len(x.support) + 2)
        for variant in (INCOMPARABLE, STANDARD):
            iterates = [tsirelson_iterate(x, variant, m) for m in levels]
            root = Fraction(tsirelson_witness_tree(x, variant)["value"])
            norm = tsirelson_norm(x, variant)
            assert tsirelson_norm(half, variant) == norm / 2, (variant, x)
            assert Fraction(tsirelson_witness_tree(half, variant)["value"]) == root / 2
            assert [tsirelson_iterate(half, variant, m) for m in levels] == [
                v / 2 for v in iterates
            ]
    assert tsirelson_norm(star, INCOMPARABLE) == 2
    assert tsirelson_norm(star.scale(Fraction(1, 2)), INCOMPARABLE) == 1


def test_spreading_lowers_no_norm():
    # the spreading lemma in the module docstring: (b + i,) -> (b + s + i,)
    # keeps order and comparability and only raises indices, so no norm
    # or iterate of either variant goes down
    rng = random.Random(11)
    raised = 0
    for _ in range(150):
        n, b, s = rng.randint(2, 9), rng.randint(0, 4), rng.randint(1, 5)
        low, high = star_tree(n, b), star_tree(n, b + s)
        supp = rng.sample(low.order, rng.randint(1, n + 1))
        entries = {t: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for t in supp}
        x = TreeVector(low, entries)
        y = TreeVector(high, {tuple(v + s for v in t): c for t, c in entries.items()})
        for variant in (INCOMPARABLE, STANDARD):
            before = [tsirelson_iterate(x, variant, m) for m in (1, 2)] + [tsirelson_norm(x, variant)]
            after = [tsirelson_iterate(y, variant, m) for m in (1, 2)] + [tsirelson_norm(y, variant)]
            assert all(a >= v for a, v in zip(after, before)), (n, b, s, variant)
            raised += after[-1] > before[-1]
    # the shift opens families that small indices forbid
    assert raised


def test_ctx_order_and_comparability_on_ids():
    # the support order, the nearest support ancestors and the
    # comparability masks, all read off arena ids, against enumeration
    # indices and tuple prefix tests
    rng = random.Random(18)
    cases = [random_case(seed, max_nodes=16, max_support=12)[1] for seed in range(40)]
    for tree in (star_tree(9, base_label=3), comb_tree(7), comb_tree(40), chain_tree(3000)):
        for _ in range(6):
            support = rng.sample(tree.order, min(14, len(tree)))
            cases.append(TreeVector(tree, {t: Fraction(rng.randint(1, 9)) for t in support}))
    for x in cases:
        if not x.support:
            continue
        ctx = _Ctx(x)
        nodes = ctx.nodes
        assert nodes == tuple(sorted(x.support, key=x.tree.index))
        want_up = [
            max((j for j in range(i) if comparable(nodes[j], t)), default=None)
            for i, t in enumerate(nodes)
        ]
        assert x.tree.nearest_ancestors(ctx.ids) == want_up
        assert _IncEngine(ctx).comp == [
            sum(1 << j for j, t in enumerate(nodes) if comparable(s, t)) for s in nodes
        ]


def _unit_blocks(n, base_label):
    t = star_tree(n, base_label=base_label)
    blocks = [unit_vector(t, (base_label + i,)) for i in range(n)]
    return t, blocks


def test_lemma_II1_unit_blocks():
    t, blocks = _unit_blocks(4, 6)
    rep = verify_lemma_II1(t, blocks, [1, Fraction(1, 2), 1, Fraction(1, 3)])
    assert rep.ok
    # unit blocks at their own start nodes: equality
    assert rep.quantities["lhs"] == rep.quantities["rhs"]


def test_sandwich18_unit_blocks():
    t, blocks = _unit_blocks(4, 6)
    rep = verify_sandwich18(t, blocks, [1, 1, 1, 1])
    assert rep.ok
    assert rep.checks["index_vector_norms_equal"]
    assert rep.checks["right_18"]
    # the "lemma" check is Lemma II.1 on the same two INCOMPARABLE norms
    lemma = verify_lemma_II1(t, blocks, [1, 1, 1, 1])
    assert rep.checks["lemma"] == lemma.ok
    assert rep.quantities["index_incomparable"] == lemma.quantities["lhs"]
    assert rep.quantities["combo_incomparable"] == lemma.quantities["rhs"]


def test_block_sequence_validation():
    t = star_tree(4)
    blocks = [unit_vector(t, (0,)), unit_vector(t, (1,))]
    # fine as-is
    assert verify_lemma_II1(t, blocks, [1, 1]).ok
    with pytest.raises(ValueError):
        verify_lemma_II1(t, list(reversed(blocks)), [1, 1])  # windows decrease
    with pytest.raises(ValueError):
        verify_lemma_II1(t, [blocks[0].scale(2), blocks[1]], [1, 1])  # not normalized
    t2 = chain_tree(3)
    comp = [unit_vector(t2, (0,)), unit_vector(t2, (0, 0))]
    with pytest.raises(ValueError):
        verify_lemma_II1(t2, comp, [1, 1])  # comparable supports
    with pytest.raises(ValueError, match="^block 0 lives on a different tree$"):
        verify_sandwich18(t2, blocks, [1, 1])


def test_standard_part_table_holds_two_or_more_runs():
    # a split into one run is the interval's own value, read from memo, and
    # one into singletons a prefix sum; part keeps (best sum, first optimal
    # cut) of the other splits
    for seed in range(40):
        _, x = random_nonroot_case(seed, max_support=9)
        eng = _StdEngine(_Ctx(x))
        eng.value()
        eng.value(2)
        for (s, j, parts, level), (value, cut) in eng.part.items():
            assert parts >= 2
            assert value == eng.f(s, cut, level) + eng.partition(cut, j, parts - 1, level)


def _singleton_start_cases():
    """STANDARD supports with entries 1 and 2 where the singleton-start
    stop fires at the root (stars with base_label >= n, every index at
    least n) or only in sub-intervals (supports off the root of deep
    random trees, whose low indices come first)."""
    rng = random.Random(26)
    for n in (3, 5, 8, 12):
        for base in (n, n + 2):
            tree = star_tree(n, base_label=base)
            for _ in range(2):
                yield TreeVector(tree, {t: rng.choice((1, 2)) for t in leaves(tree)})
    for seed in range(40):
        tree = random_tree(seed, 24, 2)
        nodes = tree.order[1:]
        supp = rng.sample(nodes, rng.randint(2, min(10, len(nodes))))
        yield TreeVector(tree, {t: rng.choice((1, 2)) for t in supp})


def test_standard_singleton_start_stop_matches_references():
    # stopping the start scan at the first all-singleton start (the
    # singleton-start lemma) keeps the norm, witness, check and iterates
    # of the full scan in the reference engines and of the naive
    # enumeration, and the witness replays
    order = ("norm", "witness", "check", "iterate")
    at_root = below_root = 0
    for x in _singleton_start_cases():
        n = len(x.entries)
        levels = None if n <= 8 else (1, 2, n - 2)
        want = _outputs(x, STANDARD, order, *_REFERENCE, levels=levels)
        assert _outputs(x, STANDARD, order, *_SHARED, levels=levels) == want, x
        assert _replay(tsirelson_witness_tree(x, STANDARD), x, STANDARD) == want["norm"]
        if n <= 6:
            naive = naive_iterates(x, STANDARD)
            assert tsirelson_norm(x, STANDARD) == naive(n + 1), x
            for m in range(n + 1):
                assert tsirelson_iterate(x, STANDARD, m) == naive(m), (x, m)
        idx = _Ctx(x).idx
        if idx[0] >= n:
            at_root += 1
        elif any(2 <= n - l <= idx[l] for l in range(1, n)):
            below_root += 1
    assert at_root >= 10 and below_root >= 10, (at_root, below_root)


def test_standard_all_singleton_starts_fill_no_part_table():
    # every index of this star is at least n, so the first start of every
    # interval splits into singletons and nothing reaches partition; a scan
    # over every start fills 22 part entries here (11 at each level)
    t = star_tree(12, base_label=12)
    x = TreeVector(t, {leaf: 1 for leaf in leaves(t)})
    assert tsirelson_norm(x, STANDARD) == 6
    assert len(tsirelson_witness_tree(x, STANDARD)["family"]) == 12
    assert check_fixed_point(x, STANDARD)
    assert tsirelson_iterate(x, STANDARD, 2) == 6
    assert _engine(x, STANDARD).part == {}


def test_standard_singleton_tails_of_cut_walks():
    # partition's last cut leaves parts == j - s runs, singletons, which it
    # takes as a prefix sum below any start with k < j - l: part holds no
    # such key, and members reads the tail of its cut walk as singletons
    # where the reference engine walks its recorded cuts to the end
    tails = 0
    for x in _split_cases():
        if not x.entries:
            continue
        eng = _StdEngine(_Ctx(x))
        eng.value()
        eng.value(2)
        ref = reference_engine(x, STANDARD, DEFAULT_SUPPORT_CAP)
        assert all(parts < j - s for s, j, parts, _ in eng.part), x.entries
        for key, (l, k) in eng.split.items():
            if len(key) == 3:
                continue
            ref.f(*key, None)
            runs = eng.members(key)
            assert runs == ref.members(key), (x.entries, key)
            # a family not all singletons whose last two runs are: its cut
            # walk ends in a singleton tail
            tails += 1 < k < key[1] - l and runs[-2] == (runs[-1][0] - 1, runs[-1][0])
        wt = tsirelson_witness_tree(x, STANDARD)
        assert _replay(wt, x, STANDARD) == tsirelson_norm(x, STANDARD), x.entries
    assert tails >= 10, tails


def test_standard_work_is_bounded():
    # memo and part entries after norm, witness and check on 40 sweep
    # cases of 6 and 8 nodes: 612 with the l1-incumbent cut and the
    # all-singleton partitions, 1,001 with neither
    total = 0
    for n in (6, 8):
        for seed in range(20):
            x = sweep_case(seed, n)
            clear_reuse_slots()
            tsirelson_norm(x, STANDARD)
            tsirelson_witness_tree(x, STANDARD)
            check_fixed_point(x, STANDARD)
            eng = _engine(x, STANDARD)
            total += len(eng.memo) + len(eng.part)
    assert total <= 612, total


def test_ctx_text_is_the_fraction_string():
    # the witness writes grid values through _Ctx.text, one gcd with the
    # scale in place of a Fraction; integral values print without "/1"
    integral = 0
    for seed in range(100):
        _, x = random_case(seed)
        if not x.entries:
            continue
        ctx = _Ctx(x)
        assert ctx.text(0) == "0" and ctx.text(ctx.scale) == "1"
        for eng in (_IncEngine(ctx), _StdEngine(ctx)):
            eng.value()
            eng.value(1)
            for v in eng.memo.values():
                assert ctx.text(v) == str(Fraction(v, ctx.scale)), (seed, v)
                integral += v % ctx.scale == 0
    assert integral >= 100, integral
