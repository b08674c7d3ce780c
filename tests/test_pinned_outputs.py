"""One sha256 over the outputs of the Tsirelson engines and the Baire DP and
oracle, so that a change meant to keep every output byte shows here.

The canonical form is one JSON line per record, dumped with sort_keys and
no spaces, each fraction as str(Fraction), each node as a list:

- for seeds 0..SEEDS-1, (tree, x) = random_case(seed, max_nodes=12,
  max_support=8), and for each variant in (standard, incomparable):
  ["tsirelson", seed, variant, norm, witness tree, check_fixed_point,
  [iterate m for m = 0..|supp|]];
- for the same cases, each base in (l1, sup, l2) and each p in
  (0, 1, 3/2): ["baire", seed, base, p, oracle report, DP report];
- for each vector i of benchmark_size_vectors() and each of the 16
  (base, p) pairs of the baire_trees benchmark, bases (sup, l1, l2, l3/2)
  by p in (0, 1, 3/2, 2): ["baire_dp", i, base, p, DP report].

A report is [value lower, value upper, power lower, power upper, family],
the family a list of segment chains from the top down.

LARGE_DIGEST pins the INCOMPARABLE engine at the support sizes near the
cap, in the same canonical form, one record per case:
["incomparable", case, norm, witness tree, check_fixed_point, [iterate m
for m in (1, 2, |supp| - 2)]], where case is ["sweep", n, seed] for
sweep_case(seed, n) with n in (12, 13, 14) and the seeds of SWEEP_SEEDS,
and ["ties", shape, i] for the i-th vector of tie_cases().

STANDARD_DIGEST pins the STANDARD engine at sizes above the support cap
(raised for the test), in the same canonical form, one record per case:
["standard", n, seed, norm, witness tree, check_fixed_point, iterates],
for sweep_case(seed, n) with n and seed from STANDARD_SEEDS; iterates is
[iterate m for m in (1, 2, n - 2)] at n = 20 and [] at n = 40.

ABOVE_CAP_DIGEST pins the INCOMPARABLE engine above the support cap
(raised for the test), in the same canonical form, one record per case:
["incomparable", n, seed, norm, witness tree, check_fixed_point] for
sweep_case(seed, n) with n and seed from ABOVE_CAP_SEEDS.

ITERATE_DIGEST pins every iterate below the collapse level in both
engines, above the support cap (raised for the test), in the same
canonical form, one record per case: [variant, n, seed, norm, [iterate m
for m = 1..n - 2]] for sweep_case(seed, n) with n and seed from
ITERATE_SEEDS, variant in (standard, incomparable).

HI_DIGEST pins the hi layer in the same canonical form, with every tuple
as a list:
- for each vector i of benchmark_size_vectors(), each (start, width) of
  HI_WINDOWS and each depth in (1, 2): ["dg", i, start, width, depth,
  value, witness entries, witness provenance] for dg_lower_bound with ops
  HI_OPS on the vector kept to the support nodes start..start + width - 1
  in enumeration order; the entries are [node, value] pairs in sorted
  node order;
- for each (m, n) of DESK_PAIRS: ["singularity", m, n, nodes, ground,
  lower, upper, ratio, witness entries, witness provenance] for
  strict_singularity_witness(n, m).

HI_LARGE_DIGEST pins the hi layer at sizes the Fraction reference cannot
reach, in the HI_DIGEST form: for each vector i of HI_LARGE_VECTORS of
benchmark_size_vectors() and each width of HI_LARGE_WIDTHS, the window
of support nodes HI_LARGE_START..HI_LARGE_START + width - 1 ("signed"),
and at width HI_LARGE_UNIT_WIDTH also that window with every entry
replaced by its sign ("unit", for ties); for each of these, each ops of
HI_LARGE_OPS and each depth in (2, 3): ["dg_large", i, width, magnitudes,
ops, depth, value, witness entries, witness provenance].

CLI_DIGEST pins `baire-lab tsirelson --json` at its boundary, in the same
canonical form, one record per call: [argv, exit code, stdout], with each
file path in argv as its bare file name.  For each (name, tree, entries)
of cli_cases(), the tree is written to <name>_tree.json as
tree_to_json_dict(tree) and the entries to <name>_vector.json as
[node, str(value)] pairs, and for each variant in (standard,
incomparable) the calls are the plain one and --iterate m for
m = 0, 1, 2, 3, in that order.

CLI_ALL_DIGEST pins every other command at its boundary, in the same
canonical form, one record per call of cli_all_calls(), in order:
[argv, exit code, stdout, stderr], with each file path in argv, stdout
and stderr as its bare file name.  A call with --out has a fifth item,
the JSON report it wrote without its "wall_time_seconds" key.  The input
files are written by cli_all_files(): tree.json and vector.json hold the
nested18 case of cli_cases() in the CLI_DIGEST form, partial.json lists
the nodes [0, 1] and [2] without their prefixes, star15.json and
ones15.json hold star_tree(15) and a 1 on each of its leaves, twice.json
lists the node [0] twice, bad.json is cut off mid-array, and deep.json
has one node of DEPTH_MAX + 1 entries.

GEN_DIGEST pins `baire-lab gen` at larger sizes, in the same canonical
form, one record per call of gen_calls(), in order: [argv, exit code,
stdout]: chain and comb at --n 300, star at --n 300 with --base-label 7,
and random at --max-nodes 300 for each seed 0..2 and --max-branch 3 and 5.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

from baire_lab import tsirelson
from baire_lab.baire import BaireParams, baire_norm_oracle_report, baire_norm_report
from baire_lab.cli import DEPTH_MAX, main
from baire_lab.hi import DESK_PAIRS, dg_lower_bound, strict_singularity_witness
from baire_lab.trees import chain_tree, comb_tree, star_tree, tree_to_json_dict
from baire_lab.tsirelson import (
    INCOMPARABLE,
    STANDARD,
    check_fixed_point,
    tsirelson_iterate,
    tsirelson_norm,
    tsirelson_witness_tree,
)
from baire_lab.vectors import BaseNorm, TreeVector
from util import (
    HI_OPS,
    HI_WINDOWS,
    benchmark_size_vectors,
    random_case,
    random_nonroot_case,
    sweep_case,
    window_vector,
)

SEEDS = 300

DIGEST = "2e051d3b5f94aeeef173d95b125edb9de2521c1e3f1e36dd6159028c516f4776"

SWEEP_SEEDS = {12: (0, 1, 2), 13: (0, 1, 2), 14: (0, 1, 13)}

LARGE_DIGEST = "eebe742dbfd19fccff46ef7dda89a8d77185f5d4b7853501ffd1a9b488cc0683"

STANDARD_SEEDS = {20: (0, 1, 2), 40: (0, 1)}

STANDARD_DIGEST = "13bae093abb75a2ff5340c586efd34ef0b5eceacf309d5384dd4620bdf0fc644"

ABOVE_CAP_SEEDS = {16: (0, 1, 2, 3, 4, 5), 18: (3, 10)}

ABOVE_CAP_DIGEST = "8bccd56ffeb6926e319a2a81ed822beeb204cecaf0e8ca7c56df80f21464bab7"

ITERATE_SEEDS = {14: (0, 1, 2), 16: (0, 1, 2), 18: (0, 1, 2)}

ITERATE_DIGEST = "7b729e3471c91385ba5036fa679b148d16a88415d9761592393e26c46da205ab"

HI_DIGEST = "882d687e0f665049c1415509632ad2ddcf4ed256f26b47b1e44c1fcb8d2259b2"

HI_LARGE_VECTORS = (0, 4)

HI_LARGE_START = 100

HI_LARGE_WIDTHS = (40, 60)

HI_LARGE_UNIT_WIDTH = 40

HI_LARGE_OPS = (((2, 4), (4, 16)), ((2, 4), (4, 64)), ((3, 5), (2, 6), (4, 7)))

HI_LARGE_DIGEST = "94e8ead0194122f23015eac0f834b6dd11f33ae15feb80e0d2640c37555881bc"

CLI_DIGEST = "cb8692ca42175ca7558fd59f5aa7357294fa9639dca46bcf6681144e645f41d7"

CLI_ALL_DIGEST = "746a89a3a1e03fb7c54717d91d3fb843a4fdf206bd66d44629504f2ca3e85152"

GEN_DIGEST = "3bbda544c937d7fa437beb9a2eb38efd5679f752da403f4e7678075c53c4fffd"


def _report(r):
    return [
        str(r.value.lower), str(r.value.upper), str(r.power.lower), str(r.power.upper),
        [[list(t) for t in seg.chain] for seg in r.family],
    ]


def records():
    for seed in range(SEEDS):
        _, x = random_case(seed, max_nodes=12, max_support=8)
        for variant in (STANDARD, INCOMPARABLE):
            yield [
                "tsirelson", seed, variant,
                str(tsirelson_norm(x, variant)),
                tsirelson_witness_tree(x, variant),
                check_fixed_point(x, variant),
                [str(tsirelson_iterate(x, variant, m)) for m in range(len(x.entries) + 1)],
            ]
        for token in ("l1", "sup", "l2"):
            for p in ("0", "1", "3/2"):
                params = BaireParams(Fraction(p), BaseNorm.parse(token))
                yield [
                    "baire", seed, token, p,
                    _report(baire_norm_oracle_report(x, params)),
                    _report(baire_norm_report(x, params)),
                ]
    for i, x in enumerate(benchmark_size_vectors()):
        for token in ("sup", "l1", "l2", "l3/2"):
            for p in ("0", "1", "3/2", "2"):
                params = BaireParams(Fraction(p), BaseNorm.parse(token))
                yield ["baire_dp", i, token, p, _report(baire_norm_report(x, params))]


def tie_cases():
    """(shape, vector) pairs with entries 1 and 2 on supports of 10 to 14
    nodes of chains, stars (low and raised indices) and combs, where equal
    child values make the first optimum a matter of search order.  Each
    condition of the skip-dominance cut fires here without the other; the
    "no later set can start" one only on the combs."""
    rng = random.Random(25)
    shapes = [
        ("chain", chain_tree(20)),
        ("star", star_tree(13)),
        ("star_raised", star_tree(13, 4)),
        ("comb", comb_tree(10)),
    ]
    for shape, tree in shapes:
        for n in (10, 12, 14):
            supp = rng.sample(tree.order, n)
            yield shape, TreeVector(tree, {t: Fraction(rng.choice((1, 2))) for t in supp})


def _incomparable(case, x):
    n = len(x.entries)
    return [
        "incomparable", case,
        str(tsirelson_norm(x, INCOMPARABLE)),
        tsirelson_witness_tree(x, INCOMPARABLE),
        check_fixed_point(x, INCOMPARABLE),
        [str(tsirelson_iterate(x, INCOMPARABLE, m)) for m in (1, 2, n - 2)],
    ]


def large_records():
    for n, seeds in SWEEP_SEEDS.items():
        for seed in seeds:
            yield _incomparable(["sweep", n, seed], sweep_case(seed, n))
    for i, (shape, x) in enumerate(tie_cases()):
        yield _incomparable(["ties", shape, i], x)


def standard_records():
    for n, seeds in STANDARD_SEEDS.items():
        for seed in seeds:
            x = sweep_case(seed, n)
            levels = (1, 2, n - 2) if n == 20 else ()
            yield [
                "standard", n, seed,
                str(tsirelson_norm(x, STANDARD)),
                tsirelson_witness_tree(x, STANDARD),
                check_fixed_point(x, STANDARD),
                [str(tsirelson_iterate(x, STANDARD, m)) for m in levels],
            ]


def above_cap_records():
    for n, seeds in ABOVE_CAP_SEEDS.items():
        for seed in seeds:
            x = sweep_case(seed, n)
            yield [
                "incomparable", n, seed,
                str(tsirelson_norm(x, INCOMPARABLE)),
                tsirelson_witness_tree(x, INCOMPARABLE),
                check_fixed_point(x, INCOMPARABLE),
            ]


def iterate_records():
    for variant in (STANDARD, INCOMPARABLE):
        for n, seeds in ITERATE_SEEDS.items():
            for seed in seeds:
                x = sweep_case(seed, n)
                yield [
                    variant, n, seed,
                    str(tsirelson_norm(x, variant)),
                    [str(tsirelson_iterate(x, variant, m)) for m in range(1, n - 1)],
                ]


def _canon(v):
    """A witness entry or provenance as JSON: tuples as lists, fractions as str."""
    if isinstance(v, (tuple, list)):
        return [_canon(u) for u in v]
    return str(v) if isinstance(v, Fraction) else v


def _witness(f):
    return [_canon(sorted(f.entries.items())), _canon(f.provenance)]


def hi_records():
    for i, x in enumerate(benchmark_size_vectors()):
        for start, width in HI_WINDOWS:
            w = window_vector(x, start, width)
            for depth in (1, 2):
                value, witness = dg_lower_bound(w, depth, HI_OPS)
                yield ["dg", i, start, width, depth, str(value), *_witness(witness)]
    for m, n in DESK_PAIRS:
        r = strict_singularity_witness(n, m)
        yield [
            "singularity", m, n, _canon(r["nodes"]),
            *(str(r[k]) for k in ("ground", "lower", "upper", "ratio")),
            *_witness(r["witness"]),
        ]


def hi_large_records():
    vectors = list(benchmark_size_vectors())
    for i in HI_LARGE_VECTORS:
        for width in HI_LARGE_WIDTHS:
            w = window_vector(vectors[i], HI_LARGE_START, width)
            cases = [("signed", w)]
            if width == HI_LARGE_UNIT_WIDTH:
                cases.append(("unit", TreeVector(w.tree, {t: v / abs(v) for t, v in w.entries.items()})))
            for magnitudes, vec in cases:
                for ops in HI_LARGE_OPS:
                    for depth in (2, 3):
                        value, witness = dg_lower_bound(vec, depth, ops)
                        yield ["dg_large", i, width, magnitudes, _canon(ops), depth,
                               str(value), *_witness(witness)]


def cli_cases():
    """Ten small (name, tree, entries) cases: four random_nonroot_case
    vectors with signed fractional entries whose STANDARD witnesses nest
    two deep, two sweep_case vectors where the variants differ, a star of
    ones whose indices allow every split, a star and a comb of tied 1s and
    2s, and the zero vector."""
    for seed in (18, 111, 155, 209):
        tree, x = random_nonroot_case(seed, max_nodes=14, max_support=9)
        yield "nested%d" % seed, tree, x.entries
    for seed in (0, 3):
        x = sweep_case(seed, 8)
        yield "sweep%d" % seed, x.tree, x.entries
    star = star_tree(6, base_label=6)
    yield "star_ones", star, {t: Fraction(1) for t in star.leaves()}
    ties = star_tree(7, base_label=3)
    yield "star_ties", ties, {t: Fraction(1 + i % 2) for i, t in enumerate(ties.leaves())}
    comb = comb_tree(4)
    yield "comb_ties", comb, {t: Fraction(2 - i % 2) for i, t in enumerate(comb.order[1:])}
    yield "zero", chain_tree(3), {}


def cli_records(tmp_path, capsys):
    for name, tree, entries in cli_cases():
        tree_file = tmp_path / (name + "_tree.json")
        vector_file = tmp_path / (name + "_vector.json")
        tree_file.write_text(json.dumps(tree_to_json_dict(tree)))
        vector_file.write_text(json.dumps(
            {"entries": [[list(t), str(v)] for t, v in entries.items()]}
        ))
        for variant in (STANDARD, INCOMPARABLE):
            argv = ["tsirelson", "--tree", str(tree_file), "--vector", str(vector_file),
                    "--variant", variant, "--json"]
            for extra in ([], *(["--iterate", str(m)] for m in range(4))):
                code = main(argv + extra)
                out = capsys.readouterr().out
                shown = [os.path.basename(a) if a.startswith(str(tmp_path)) else a
                         for a in argv + extra]
                yield [shown, code, out]


def _vector_json(entries):
    return json.dumps({"entries": [[list(t), str(v)] for t, v in entries.items()]})


def cli_all_files(d):
    _, tree, entries = next(cli_cases())
    star = star_tree(15)
    files = {
        "tree.json": json.dumps(tree_to_json_dict(tree)),
        "vector.json": _vector_json(entries),
        "partial.json": json.dumps({"nodes": [[0, 1], [2]]}),
        "star15.json": json.dumps(tree_to_json_dict(star)),
        "ones15.json": _vector_json({t: Fraction(1) for t in star.leaves()}),
        "twice.json": json.dumps({"entries": [[[0], "1"], [[0], "2"]]}),
        "bad.json": '{"nodes": [[0]',
        "deep.json": json.dumps({"nodes": [[0] * (DEPTH_MAX + 1)]}),
    }
    for name, text in files.items():
        (d / name).write_text(text)


def cli_all_calls(d):
    """One call of every command and error class the CLI_DIGEST calls leave
    out: gen of each shape, rank, baire, ground, hi, the three verify
    suites with --out, then one call for each class of input error."""
    f = {name: str(d / name) for name in (
        "tree.json", "vector.json", "partial.json", "star15.json", "ones15.json",
        "twice.json", "bad.json", "deep.json", "branch.json", "tsirelson.json", "hi.json",
    )}
    x = ["--tree", f["tree.json"], "--vector", f["vector.json"]]
    return [
        ["gen", "chain", "--n", "4"],
        ["gen", "star", "--n", "4"],
        ["gen", "comb", "--n", "4"],
        ["gen", "random", "--max-nodes", "4"],
        ["rank", "--tree", f["tree.json"]],
        ["rank", "--tree", f["partial.json"], "--json"],
        ["baire", *x],
        ["baire", *x, "--p", "3/2", "--base", "l2", "--json"],
        ["ground", *x],
        ["ground", *x, "--json"],
        ["hi", "witness", "--pairs", "2:4,4:16"],
        ["hi", "schedule", "--jmax", "2", "--json"],
        ["verify", "branch", "--cases", "10", "--seed", "1", "--out", f["branch.json"]],
        ["verify", "tsirelson", "--cases", "5", "--seed", "1", "--out", f["tsirelson.json"]],
        ["verify", "hi", "--pairs", "2:4,2:8", "--out", f["hi.json"]],
        ["rank", "--tree", f["bad.json"]],
        ["ground", "--tree", f["tree.json"], "--vector", f["twice.json"]],
        ["tsirelson", "--tree", f["star15.json"], "--vector", f["ones15.json"]],
        ["baire", *x, "--p", "9"],
        ["rank", "--tree", f["deep.json"]],
        ["hi", "witness", "--pairs", "2:x"],
    ]


def cli_all_records(tmp_path, capsys):
    cli_all_files(tmp_path)
    prefix = str(tmp_path) + os.sep
    for argv in cli_all_calls(tmp_path):
        code = main(argv)
        out, err = capsys.readouterr()
        record = [[a.replace(prefix, "") for a in argv], code,
                  out.replace(prefix, ""), err.replace(prefix, "")]
        if "--out" in argv:
            report = json.loads((tmp_path / argv[-1]).read_text())
            del report["wall_time_seconds"]
            record.append(report)
        yield record


def gen_calls():
    calls = [["gen", shape, "--n", "300"] for shape in ("chain", "comb")]
    calls.append(["gen", "star", "--n", "300", "--base-label", "7"])
    for seed in range(3):
        for branch in ("3", "5"):
            calls.append(["gen", "random", "--max-nodes", "300", "--seed", str(seed),
                          "--max-branch", branch])
    return calls


def gen_records(capsys):
    for argv in gen_calls():
        code = main(argv)
        yield [argv, code, capsys.readouterr().out]


def digest(records=records):
    h = hashlib.sha256()
    for record in records():
        h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_outputs_pinned():
    assert digest() == DIGEST


def test_large_support_incomparable_pinned():
    assert digest(large_records) == LARGE_DIGEST


def test_standard_sweep_sizes_pinned(monkeypatch):
    monkeypatch.setattr(tsirelson, "DEFAULT_SUPPORT_CAP", max(STANDARD_SEEDS))
    assert digest(standard_records) == STANDARD_DIGEST


def test_incomparable_above_cap_pinned(monkeypatch):
    monkeypatch.setattr(tsirelson, "DEFAULT_SUPPORT_CAP", max(ABOVE_CAP_SEEDS))
    assert digest(above_cap_records) == ABOVE_CAP_DIGEST


def test_every_iterate_pinned(monkeypatch):
    monkeypatch.setattr(tsirelson, "DEFAULT_SUPPORT_CAP", max(ITERATE_SEEDS))
    assert digest(iterate_records) == ITERATE_DIGEST


def test_hi_layer_pinned():
    assert digest(hi_records) == HI_DIGEST


def test_hi_large_windows_pinned():
    assert digest(hi_large_records) == HI_LARGE_DIGEST


def test_tsirelson_cli_pinned(tmp_path, capsys):
    assert digest(lambda: cli_records(tmp_path, capsys)) == CLI_DIGEST


def test_cli_pinned(tmp_path, capsys):
    assert digest(lambda: cli_all_records(tmp_path, capsys)) == CLI_ALL_DIGEST


def test_gen_pinned(capsys):
    assert digest(lambda: gen_records(capsys)) == GEN_DIGEST
