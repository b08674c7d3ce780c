"""Command-line entry point.

Subcommands: baire, tsirelson, ground, hi, rank, gen, verify.  All
numeric output is exact rational strings or certified interval
endpoints; --json switches from aligned text to machine format.  Exit
codes: 0 pass, 1 verification failure, 2 usage/input error or internal
error.
"""

import argparse
import json
import sys
from fractions import Fraction

from baire_lab.baire import BaireParams, baire_norm_report
from baire_lab.hi import DESK_PAIRS, ground_norm, schedule, strict_singularity_witness
from baire_lab.trees import (
    chain_tree,
    comb_tree,
    random_tree,
    rank,
    star_tree,
    tree_from_json_dict,
    tree_to_json_dict,
)
from baire_lab.tsirelson import (
    INCOMPARABLE,
    STANDARD,
    tsirelson_iterate,
    tsirelson_norm,
    tsirelson_witness_tree,
)
from baire_lab.vectors import BaseNorm, TreeVector
from baire_lab.verify import (
    norm_value_json,
    rational_str,
    run_branch_isometry,
    run_hi_suite,
    run_tsirelson_suite,
)


class InputError(Exception):
    """Malformed file or flag value; maps to exit code 2."""


# n_3 has 1,517 decimal digits; n_4 would have about 2.8 million, far past
# the int-to-str conversion limit
SCHEDULE_JMAX = 3

# a pair m:n makes hi witness and verify hi build a star with n leaves
# and run a window DP cubic in n (n = 128 takes about 0.3 s)
PAIRS_NMAX = 128

# a node with d entries brings its d prefixes, d**2 / 2 entries in all
# (a 3,000-entry node takes about 0.1 GB to load); this bounds tree-file
# nodes, gen chain|comb --n and verify branch --max-len
DEPTH_MAX = 3000


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        raise InputError("malformed JSON in %s: %s" % (path, e))


def _load_tree(path):
    data = _load_json(path)
    if isinstance(data, dict) and isinstance(data.get("nodes"), list):
        depth = max((len(t) for t in data["nodes"] if isinstance(t, list)), default=0)
        if depth > DEPTH_MAX:
            raise InputError(
                "tree in %s is too deep: a node has %d entries, at most %d are allowed"
                % (path, depth, DEPTH_MAX)
            )
    try:
        tree, closure_added = tree_from_json_dict(data)
    except (ValueError, TypeError) as e:
        raise InputError("invalid tree in %s: %s" % (path, e))
    if closure_added:
        print("note: prefix closure added missing nodes", file=sys.stderr)
    return tree


def _load_vector(path, tree):
    data = _load_json(path)
    if not isinstance(data, dict) or "entries" not in data:
        raise InputError('vector file %s needs an "entries" key' % path)
    entries = {}
    try:
        for node, value in data["entries"]:
            entries[tuple(node)] = Fraction(str(value))
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise InputError("invalid vector in %s: %s" % (path, e))
    try:
        return TreeVector(tree, entries)
    except ValueError as e:
        raise InputError(str(e))


def _emit(data, args, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2))
    else:
        for line in text_lines:
            print(line)


def _write_or_print(payload, out):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_baire(args):
    tree = _load_tree(args.tree)
    x = _load_vector(args.vector, tree)
    try:
        base = BaseNorm.parse(args.base)
        params = BaireParams(Fraction(args.p), base)
    except ValueError as e:
        raise InputError(str(e))
    report = baire_norm_report(x, params)
    family = [[list(node) for node in seg.chain] for seg in report.family]
    data = {"value": norm_value_json(report.value), "family": family}
    _emit(
        data,
        args,
        ["value   %s" % data["value"], "family  %d segment(s)" % len(family)]
        + ["  %s" % seg for seg in family],
    )
    return 0


def cmd_tsirelson(args):
    tree = _load_tree(args.tree)
    x = _load_vector(args.vector, tree)
    try:
        if args.iterate is not None:
            value = tsirelson_iterate(x, args.variant, args.iterate)
            data = {"value": rational_str(value), "iterate": args.iterate}
            _emit(data, args, ["value  %s  (iterate %d)" % (data["value"], args.iterate)])
            return 0
        value = tsirelson_norm(x, args.variant)
        witness = tsirelson_witness_tree(x, args.variant)
    except ValueError as e:
        raise InputError(str(e))
    data = {"value": rational_str(value), "witness_family_tree": witness}
    _emit(
        data,
        args,
        ["value    %s" % data["value"], "witness  %s" % json.dumps(witness)],
    )
    return 0


def cmd_ground(args):
    tree = _load_tree(args.tree)
    x = _load_vector(args.vector, tree)
    try:
        value = ground_norm(x)
    except ValueError as e:
        raise InputError(str(e))
    _emit({"value": rational_str(value)}, args, ["value  %s" % rational_str(value)])
    return 0


def cmd_rank(args):
    tree = _load_tree(args.tree)
    try:
        value = rank(tree)
    except ValueError as e:
        raise InputError(str(e))
    _emit({"rank": value}, args, [str(value)])
    return 0


def cmd_gen(args):
    if args.shape in ("chain", "comb") and args.n > DEPTH_MAX:
        raise InputError("--n %d is too large: %s trees take n at most %d"
                         % (args.n, args.shape, DEPTH_MAX))
    try:
        if args.shape == "chain":
            tree = chain_tree(args.n)
        elif args.shape == "star":
            tree = star_tree(args.n, base_label=args.base_label)
        elif args.shape == "comb":
            tree = comb_tree(args.n)
        else:
            tree = random_tree(
                seed=args.seed, max_nodes=args.max_nodes, max_branch=args.max_branch
            )
    except ValueError as e:
        raise InputError(str(e))
    _write_or_print(tree_to_json_dict(tree), args.out)
    return 0


def _parse_pairs(text):
    pairs = []
    try:
        for chunk in text.split(","):
            m, n = chunk.strip().split(":")
            pairs.append((int(m), int(n)))
    except ValueError:
        raise InputError('pairs must look like "2:4,2:8,4:64"')
    for m, n in pairs:
        if m < 2 or n < 1:
            raise InputError("pairs need m >= 2 and n >= 1")
        if n > PAIRS_NMAX:
            raise InputError("pair %d:%d is too large: n may be at most %d" % (m, n, PAIRS_NMAX))
    return pairs


def cmd_hi(args):
    if args.hi_command == "schedule":
        if args.jmax > SCHEDULE_JMAX:
            raise InputError(
                "--jmax %d is too large: entries past j = %d do not print"
                % (args.jmax, SCHEDULE_JMAX)
            )
        try:
            sched = schedule(args.jmax)
        except ValueError as e:
            raise InputError(str(e))
        data = {
            "m": [str(v) for v in sched.m],
            "n": [str(v) for v in sched.n],
            "desk_pairs": [[m, n] for m, n in sched.scaled_pairs],
        }
        _emit(
            data,
            args,
            ["m  %s" % " ".join(data["m"]), "n  %s" % " ".join(data["n"])],
        )
        return 0
    pairs = _parse_pairs(args.pairs)
    if args.tree:
        tree = _load_tree(args.tree)
        trees = {(m, n): tree for m, n in pairs}
    else:
        trees = {(m, n): star_tree(n) for m, n in pairs}
    print("m,n,ground,lower,upper,ratio")
    ok = True
    for m, n in pairs:
        try:
            row = strict_singularity_witness(trees[(m, n)], n, m)
        except ValueError as e:
            raise InputError(str(e))
        ok = ok and row["ground"] == 1 and row["lower"] >= Fraction(n, m)
        print(
            "%d,%d,%s,%s,%s,%s"
            % (
                m,
                n,
                rational_str(row["ground"]),
                rational_str(row["lower"]),
                rational_str(row["upper"]),
                rational_str(row["ratio"]),
            )
        )
    return 0 if ok else 1


def cmd_verify(args):
    if args.cases < 0:
        raise InputError("--cases must be >= 0")
    if args.suite == "branch" and args.max_len > DEPTH_MAX:
        raise InputError("--max-len %d is too large: at most %d" % (args.max_len, DEPTH_MAX))
    try:
        if args.suite == "branch":
            report = run_branch_isometry(args.max_len, cases=args.cases, seed=args.seed)
        elif args.suite == "tsirelson":
            report = run_tsirelson_suite(args.cases, args.seed)
        else:
            report = run_hi_suite(_parse_pairs(args.pairs) if args.pairs else DESK_PAIRS)
    except ValueError as e:
        raise InputError(str(e))
    payload = report.to_json_dict()
    if args.out:
        _write_or_print(payload, args.out)
        print("%s: %s" % (report.experiment, "pass" if report.passed else "FAIL"))
    else:
        _write_or_print(payload, None)
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="baire-lab",
        description="Exact tree-indexed norm computations and verifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("baire", help="l_p-Baire sum norm of a tree vector")
    p.add_argument("--tree", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--p", default="1", help="p >= 1 or 0 for the single-segment norm")
    p.add_argument("--base", default="l1", help="l1, l2, lQ (rational), or sup")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_baire)

    p = sub.add_parser("tsirelson", help="parametrized Tsirelson norm")
    p.add_argument("--tree", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument(
        "--variant", choices=[INCOMPARABLE, STANDARD], default=INCOMPARABLE
    )
    p.add_argument("--iterate", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tsirelson)

    p = sub.add_parser("ground", help="max signed chain sum")
    p.add_argument("--tree", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("rank", help="ordinal rank of a finite tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("gen", help="generate a tree JSON file")
    p.add_argument("shape", choices=["chain", "star", "comb", "random"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--base-label", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nodes", type=int, default=12)
    p.add_argument("--max-branch", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("hi", help="norming-set witnesses and growth schedule")
    hi_sub = p.add_subparsers(dest="hi_command", required=True)
    w = hi_sub.add_parser("witness", help="strict-singularity witness table")
    w.add_argument("--tree", default=None)
    w.add_argument("--pairs", required=True, help='e.g. "2:4,2:8,4:64"')
    w.set_defaults(func=cmd_hi, hi_command="witness")
    s = hi_sub.add_parser("schedule", help="exact (m_j), (n_j) sequences")
    s.add_argument("--jmax", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_hi, hi_command="schedule")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["branch", "tsirelson", "hi"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--max-len", type=int, default=20)
    p.add_argument("--pairs", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        # exit 1 means only "verification failed"
        print("error: internal: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
