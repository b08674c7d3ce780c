import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire_lab.baire import ZERO, BaireParams, baire_norm
import baire_lab.hi
from baire_lab.hi import (
    DESK_PAIRS,
    Functional,
    dg_lower_bound,
    dg_upper_bound,
    even_op_functional,
    ground_functional,
    ground_norm,
    schedule,
    strict_singularity_witness,
)
from baire_lab.trees import chain_tree, random_tree, star_tree
from baire_lab.vectors import BaseNorm, TreeVector, unit_vector
from hi_reference import reference_dg_lower_bound
from util import HI_OPS, HI_WINDOWS, benchmark_size_vectors, random_case, window_vector


def test_ground_functional_validation():
    f = ground_functional([((), 1), ((0,), -1)])
    assert set(f.entries) == {(), (0,)}
    with pytest.raises(ValueError):
        ground_functional([((0,), 1), ((1,), 1)])  # not a chain
    with pytest.raises(ValueError):
        ground_functional([((), Fraction(1, 2))])  # not a sign


def test_even_op_functional():
    f1 = ground_functional([((0,), 1)])
    f2 = ground_functional([((1,), -1)])
    g = even_op_functional(2, 4, [f1, f2])
    assert g.entries[(0,)] == Fraction(1, 2)
    assert g.entries[(1,)] == Fraction(-1, 2)
    with pytest.raises(ValueError):
        even_op_functional(2, 1, [f1, f2])  # more parts than n
    with pytest.raises(ValueError):
        even_op_functional(2, 4, [f2, f1])  # not successively supported
    for m in (0, Fraction(1, 2), 2.0, True):
        with pytest.raises(ValueError, match="int m >= 1"):
            even_op_functional(m, 4, [f1, f2])
    with pytest.raises(ValueError, match="at least one functional"):
        even_op_functional(2, 4, [])
    with pytest.raises(ValueError, match="parts must be nonzero"):
        even_op_functional(2, 4, [f1, ground_functional([])])


def test_functional_checks_the_entries_a_caller_gives():
    f = Functional({(0,): "1/2", (1,): 0, (2,): -1}, ("ground", ()))
    assert f.entries == {(0,): Fraction(1, 2), (2,): Fraction(-1)}
    with pytest.raises(ValueError, match="leaves"):
        Functional({(0,): Fraction(3, 2)}, ("ground", ()))
    # signs given as any rational +-1 read as the shared signs' values
    g = ground_functional([((), Fraction(-1)), ((0,), "1")])
    assert g.entries == {(): -1, (0,): 1}
    assert all(type(v) is Fraction for v in g.entries.values())


def test_functional_replay_matches_a_fraction_by_fraction_sum():
    for seed in range(60):
        rng = random.Random(seed)
        tree, x = random_case(seed, max_nodes=12, max_support=8)
        nodes = sorted(tree.nodes)
        entries = {
            t: Fraction(rng.randint(-6, 6), rng.randint(6, 12))
            for t in rng.sample(nodes, rng.randint(0, len(nodes)))
        }
        # a node off the tree reads x as 0
        entries[(99, 99)] = Fraction(1, 7)
        f = Functional(entries, ("ground", ()))
        expected = sum((v * x[node] for node, v in f.entries.items()), Fraction(0))
        assert f(x) == expected and type(f(x)) is Fraction
    # terms that cancel to 0, and the empty functional
    t = star_tree(3)
    x = TreeVector(t, {(0,): Fraction(1, 2), (1,): Fraction(1, 3), (2,): 5})
    f = Functional({(0,): Fraction(2, 3), (1,): -1}, ("ground", ()))
    assert f(x) == 0 and type(f(x)) is Fraction
    assert Functional({}, ("ground", ()))(x) == 0
    assert Functional({(0,): 1}, ("ground", ()))(TreeVector(t, {})) == 0


def test_ground_norm_examples():
    t = chain_tree(3)
    x = TreeVector(t, {(): 1, (0,): -2, (0, 0): 1})
    assert ground_norm(x) == 4  # signs flip along the chain
    s = star_tree(4)
    y = TreeVector(s, {(i,): 1 for i in range(4)})
    assert ground_norm(y) == 1  # every chain hits one leaf
    # 3,000 nodes deep, past the recursion limit
    d = chain_tree(3000)
    z = TreeVector(d, {(0,) * i: (-1) ** i * Fraction(1, 1 + i % 3) for i in range(3000)})
    assert ground_norm(z) == sum(abs(v) for v in z.entries.values())


def test_ground_norm_is_baire_zero_l1():
    # the ground norm is the 0-variant Baire norm with l_1 base, on small
    # cases and at benchmark sizes
    params = BaireParams(ZERO, BaseNorm.ell(1))
    small = (random_case(seed)[1] for seed in range(25))
    for x in itertools.chain(small, benchmark_size_vectors()):
        assert ground_norm(x) == baire_norm(x, params).exact


def test_dg_bounds_bracket_and_witness_replays():
    for seed in range(20):
        _, x = random_case(seed)
        lower, witness = dg_lower_bound(x, 1, DESK_PAIRS)
        assert ground_norm(x) <= lower <= dg_upper_bound(x)
        assert witness(x) == lower


def test_dg_lower_monotone_in_depth():
    for seed in range(10):
        _, x = random_case(seed)
        v0, _ = dg_lower_bound(x, 0, [(2, 4)])
        v1, _ = dg_lower_bound(x, 1, [(2, 4)])
        v2, _ = dg_lower_bound(x, 2, [(2, 4)])
        assert v0 <= v1 <= v2


# m = 3 makes the common denominator an lcm of distinct m's
WINDOW_DP_OPS = [DESK_PAIRS, [(2, 4)], [(3, 5), (2, 4)]]


def _assert_matches_reference(x, op_lists=WINDOW_DP_OPS, depths=range(3)):
    for ops in op_lists:
        for depth in depths:
            value, witness = dg_lower_bound(x, depth, ops)
            want, want_witness = reference_dg_lower_bound(x, depth, ops)
            assert value == want, (depth, ops, sorted(x.entries.items()))
            assert witness.provenance == want_witness.provenance, (depth, ops)


def test_window_dp_matches_fraction_reference():
    for seed in range(60):
        tree, x = random_case(seed, max_nodes=20, max_support=14)
        _assert_matches_reference(x)
        # unit magnitudes make ties everywhere, so tie-breaking is compared too
        _assert_matches_reference(TreeVector(tree, {t: v / abs(v) for t, v in x.entries.items()}))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_window_dp_matches_fraction_reference_property(seed):
    _, x = random_case(seed, max_nodes=20, max_support=14)
    _assert_matches_reference(x)


def test_dg_laws_at_benchmark_sizes():
    # no oracle reaches 20-30 support nodes; these laws hold at any size:
    # the ground functionals are in the search and every entry is in
    # [-1, 1]; a deeper search and a larger cap only widen the functional
    # set the DP maximizes over; the witness replays
    rng = random.Random(16)
    ops = [(2, 4), (4, 16)]
    for seed in range(60):
        tree = random_tree(seed, 1000, 6)
        nodes = sorted(tree.nodes, key=tree.index)
        supp = sorted(rng.sample(nodes, 700), key=tree.index)
        start = rng.randrange(300)
        window = supp[start:start + rng.randint(20, 30)]
        x = TreeVector(tree, {
            t: Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1]) for t in window
        })
        below, l1 = ground_norm(x), dg_upper_bound(x)
        for depth in range(3):
            lower, witness = dg_lower_bound(x, depth, ops)
            assert witness(x) == lower
            assert below <= lower <= l1
            below = lower
            for raised in ([(2, 8), (4, 16)], [(2, 4), (4, 30)]):
                assert dg_lower_bound(x, depth, raised)[0] >= lower


def test_replay_check_survives_python_O():
    # -O strips assert statements; the replay check must still raise, with
    # the same type and message, when the witness gives the wrong value
    code = "\n".join([
        "if __debug__: raise SystemExit('not run with -O')",
        "import baire_lab.hi as hi",
        "from baire_lab.trees import star_tree",
        "from baire_lab.vectors import TreeVector",
        "hi._Search._witness = lambda self, i, j, d: hi.Functional({}, ('ground', ()))",
        "x = TreeVector(star_tree(4), {(i,): 1 for i in range(4)})",
        "hi.dg_lower_bound(x, 1, [(2, 4)])",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(baire_lab.hi.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines()[-1] == "AssertionError: witness replay mismatch"


def test_window_tables_match_fraction_reference():
    # the run-split tables against the recursive Fraction search: cap 1
    # (no split), a cap equal to the support size and one far above it
    # (the clamp), a repeated op, depth 3, and unit magnitudes for ties;
    # at depths 2 and 3, caps whose binary digits mix powers of two in the
    # doubling, and cap n - 1, the largest cap the top window does not clamp
    def op_lists(n):
        return [[(2, 1)], [(2, n)], [(3, 10 * n + 7), (2, 1)], [(2, 4), (2, 4)], [(2, 2), (3, n)]]

    def mixed_op_lists(n):
        return [[(2, 3)], [(3, 5), (2, 6)], [(2, 7)], [(2, max(n - 1, 1))]]

    def check(vec):
        n = len(vec.entries)
        _assert_matches_reference(vec, op_lists(n), range(4))
        _assert_matches_reference(vec, mixed_op_lists(n), (2, 3))

    for seed in range(24):
        tree, x = random_case(seed, max_nodes=20, max_support=11)
        check(x)
        check(TreeVector(tree, {t: v / abs(v) for t, v in x.entries.items()}))
    check(TreeVector(star_tree(9), {(i,): (-1) ** i for i in range(9)}))


def test_window_dp_work_is_bounded(monkeypatch):
    # below the top level the values come from the doubling, so `_split`
    # builds one table at j = n for the top and one per (level, right end)
    # the witness reads; the bounds are the most calls these windows make
    calls = []
    split = baire_lab.hi._Search._split

    def counted(self, level, j):
        calls.append((level, j))
        return split(self, level, j)

    monkeypatch.setattr(baire_lab.hi._Search, "_split", counted)
    most = {1: 1, 2: 3, 3: 7}
    for x in benchmark_size_vectors():
        for start, width in HI_WINDOWS:
            w = window_vector(x, start, width)
            for depth, bound in most.items():
                calls.clear()
                dg_lower_bound(w, depth, HI_OPS)
                assert calls[0] == (depth - 1, width)
                assert len(set(calls)) == len(calls) <= bound, (start, width, depth, calls)
    # the top table fills only the entries a lookup reaches: with one op of
    # cap n = 128, the one entry of each row c on the lookup's path, i = n - c;
    # every such entry of the unit star splits, so it records a head end
    search = baire_lab.hi._Search(TreeVector(star_tree(128), {(i,): 1 for i in range(128)}),
                                  [(2, 128)], 1)
    search.run()
    cuts = search.cuts[0][128]
    for c in range(2, 129):
        assert [i for i, t in enumerate(cuts[c]) if t is not None] == [128 - c]


def test_dg_validation():
    _, x = random_case(0)
    with pytest.raises(ValueError):
        dg_lower_bound(x, -1, [(2, 4)])
    with pytest.raises(ValueError):
        dg_lower_bound(x, 1, [])
    with pytest.raises(ValueError):
        dg_lower_bound(x, 1, [(0, 4)])
    # x = 0 is answered without a search: 0, by an empty ground functional
    zero = TreeVector(x.tree, {})
    value, witness = dg_lower_bound(zero, 1, [(2, 4)])
    assert value == 0 and witness.entries == {} and witness(zero) == 0
    assert witness.provenance == ("ground", ())


@pytest.mark.parametrize("depth, ops", [
    (1, [(Fraction(3, 2), 4)]),
    (1, [(2, 4.0)]),
    (1, [(True, 4)]),
    (1, [(2, True)]),
    (1.5, [(2, 4)]),
    (True, [(2, 4)]),
    (1, [(2, 4), (3, Fraction(5))]),
])
def test_dg_refuses_non_integer_inputs(depth, ops):
    # the depth and every m and n are ints; a bool is not, as for node labels
    _, x = random_case(0)
    with pytest.raises(ValueError):
        dg_lower_bound(x, depth, ops)


def test_star_even_op_beats_ground():
    # n incomparable unit vectors: ground sees 1, one (m, n)-averaging
    # collects all n leaves at weight 1/m
    t = star_tree(8)
    x = TreeVector(t, {(i,): 1 for i in range(8)})
    lower, witness = dg_lower_bound(x, 1, [(2, 8)])
    assert lower == 4
    assert witness.provenance[0] == "even_op"


def test_strict_singularity_witness_rows():
    rows = [strict_singularity_witness(n, m) for m, n in DESK_PAIRS]
    ratios = [r["ratio"] for r in rows]
    assert ratios == [2, 4, 8, 16]
    for (m, n), r in zip(DESK_PAIRS, rows):
        assert r["ground"] == 1
        assert r["lower"] >= Fraction(n, m)
        assert r["lower"] <= r["upper"]
        assert r["witness"](TreeVector(star_tree(n), {t: 1 for t in r["nodes"]})) == r["lower"]


def test_strict_singularity_degenerate():
    r = strict_singularity_witness(4, 4)
    assert r["ratio"] == 1
    with pytest.raises(ValueError):
        strict_singularity_witness(4, 1)


def test_strict_singularity_refuses_non_ints_before_the_cache():
    # an equal float or a bool would hit the row of the equal int; the type
    # check comes first, so each raises before and after that row is kept
    bad = [(4.0, 2), (4, 2.0), (True, 2), (4, True)]
    baire_lab.hi._row.cache_clear()
    for args in bad:
        with pytest.raises(ValueError, match="must be ints"):
            strict_singularity_witness(*args)
    strict_singularity_witness(4, 2)
    strict_singularity_witness(1, 2)
    info = baire_lab.hi._row.cache_info()
    assert info.currsize == 2
    for args in bad:
        with pytest.raises(ValueError, match="must be ints"):
            strict_singularity_witness(*args)
    assert baire_lab.hi._row.cache_info() == info


def test_strict_singularity_rows_are_fresh_per_call():
    # a caller that changes its row, its nodes or its witness's entries
    # changes no later call's row, which comes from the cache
    first = strict_singularity_witness(8, 2)
    kept = {key: first[key] for key in ("ground", "lower", "upper", "ratio")}
    nodes, entries = list(first["nodes"]), dict(first["witness"].entries)
    first["ratio"] = 0
    first["nodes"].append((99,))
    first["nodes"][0] = (42,)
    first["witness"].entries[(0,)] = Fraction(-1)
    first["witness"].entries.clear()
    misses = baire_lab.hi._row.cache_info().misses
    again = strict_singularity_witness(8, 2)
    assert baire_lab.hi._row.cache_info().misses == misses
    assert {key: again[key] for key in kept} == kept
    assert again["nodes"] == nodes and again["witness"].entries == entries
    assert again["nodes"] is not first["nodes"]
    assert again["witness"] is not first["witness"]
    x = TreeVector(star_tree(8), {t: 1 for t in nodes})
    assert again["witness"](x) == again["lower"]


def test_row_cache_holds_one_calls_pairs():
    from baire_lab.cli import PAIRS_MAX

    assert baire_lab.hi._row.cache_info().maxsize == baire_lab.hi.ROWS_KEPT >= PAIRS_MAX


def test_schedule_recurrences():
    s = schedule(3)
    assert s.m == [2, 32, 32**5]
    assert s.n[0] == 4
    assert s.n[1] == 20**15
    # n_{j+1} = (5 n_j)^(3 log2 m_{j+1})
    assert s.n[2] == (5 * s.n[1]) ** (3 * 25)
    with pytest.raises(ValueError):
        schedule(0)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_ground_norm_unconditional(seed):
    tree, x = random_case(seed)
    flipped = TreeVector(tree, {t: -v for t, v in x.entries.items()})
    assert ground_norm(flipped) == ground_norm(x)
