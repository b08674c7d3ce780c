"""Command-line entry point.

Subcommands: baire, tsirelson, ground, hi, rank, gen, verify.  Each gen
shape and each verify suite, like each hi subcommand, takes only the flags
it reads; any other flag is a usage error.  All
numeric output is exact rational strings or certified interval
endpoints; --json switches from aligned text to machine format.  Exit
codes: 0 pass, 1 verification failure, 2 usage/input error or internal
error.  Every ValueError a command raises is an input error: `main` prints
its message and exits 2.

One parser per process: `main` gets it from _parser, a functools.cache of
build_parser, since building the argparse tree costs about as much as a
small command.  A call whose first argument names a command parses the
rest with that command's own parser alone, with the namespace, messages
and exit codes of the full parse but not its top-level pass; the full
parser serves only help and argv that names no command.  `main`
dispatches by name at call time, to the module's cmd_<command>, so a
replaced cmd_ function is the one that runs.  A one-shot console run
builds one parser either way; in-process callers gain.  build_parser()
still returns a fresh parser.  A --json call builds no text lines.
"""

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from functools import cache
from math import lcm

from baire_lab.baire import BaireParams, baire_norm_report
from baire_lab.hi import DESK_PAIRS, ground_norm, schedule
from baire_lab.trees import (
    chain_tree,
    closure_entries,
    comb_tree,
    node_from_json,
    paths_from_json_dict,
    random_tree,
    rank,
    star_tree,
    tree_from_paths,
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
    WITNESS_COLUMNS,
    norm_value_json,
    run_branch_isometry,
    run_hi_suite,
    run_tsirelson_suite,
)


# n_3 has 1,517 decimal digits; n_4 would have about 2.8 million, far past
# the int-to-str conversion limit
SCHEDULE_JMAX = 3

# a pair m:n makes hi witness and verify hi build a star with n leaves
# and run the window DP on its n positions; the bound keeps a pair near
# 0.01 s: n = 192 takes 0.006-0.011 s, n = 128 0.003-0.006 s, n = 512
# 0.04 s and n = 1,024 0.16 s (2-core Xeon VM, Python 3.11)
PAIRS_NMAX = 192

# a call takes at most this many pairs: 128 pairs of 2:192 take
# 0.9-1.0 s as one baire-lab process, 160 about 1.05 s and 200 1.3 s
# (2-core container, Python 3.11)
PAIRS_MAX = 128

# a node with d entries brings its d prefixes, d**2 / 2 entries in all
# (rank on a file of one 3,000-entry node peaks at about 55 MB, 35 MB over
# a small file, and on gen chain --n 3000 at about 0.1 GB); this bounds
# tree-file nodes, verify branch --max-len and the node count of every gen
# shape (a random tree may be one chain), and DEPTH_MAX**2 bounds the
# entries of a tree file's prefix closure, which gen comb --n DEPTH_MAX
# reaches
DEPTH_MAX = 3000

# verify branch and verify tsirelson hold every record until the report is
# written; at this bound branch takes about 13 s and 87 MB peak RSS, and
# tsirelson about 41 s and 155 MB (one child process each, Python 3.11,
# 2-core x86-64 container)
CASES_MAX = 100_000

# numerator and denominator of --p and of the Q in --base lQ are at most
# this: the Baire DP raises every chain aggregate to the power p/Q, and at
# 8 the slowest pair (p = 8/7, Q = 7/6, a 49th root) takes about 0.05 s on
# a 1,000-node tree with 700 entries, against 0.2-0.25 s at 12 (p = 12/11,
# Q = 11/10) and 0.6-0.8 s at 16 (Python 3.11, 2-core x86-64 container)
EXPONENT_MAX = 8

# a vector file's grid, the lcm of its denominators, and each entry's
# reduced numerator have at most this many bits: every engine computes on
# integers over the grid, so each step grows with both.  On that 1,000-node
# tree with 700 entries the slowest pair is then Q = 8 with p = 7/6 or 7/2,
# 0.6-0.9 s at 1,024 bits (0.56-0.95 s with every numerator at 1,024 bits
# too), 1.9 s at 2,048, 8-10 s at 6,659 and 27 s (p = 7/4) at 14,000.
# Printed values stay far under the 4,300-digit int-to-str limit, which a
# Tsirelson denominator, up to grid * 2**13, would pass past about 14,270
# bits; a sum of 4,300-digit numerators passes it at once
GRID_BITS_MAX = 1024


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ValueError("cannot read %s: %s" % (path, e))
    except (ValueError, RecursionError) as e:
        # RecursionError: arrays or objects nested past the recursion limit
        raise ValueError("malformed JSON in %s: %s" % (path, e))


def _load_tree(path):
    data = _load_json(path)
    try:
        paths = paths_from_json_dict(data)
    except ValueError as e:
        raise ValueError("invalid tree in %s: %s" % (path, e))
    lengths = list(map(len, paths))
    depth = max(lengths, default=0)
    if depth > DEPTH_MAX:
        raise ValueError(
            "tree in %s is too deep: a node has %d entries, at most %d are allowed"
            % (path, depth, DEPTH_MAX)
        )
    # the paths' own prefixes, shared ones counted again, bound the
    # closure's entries from above: count exactly only past the bound
    if sum(n * (n + 1) // 2 for n in lengths) > DEPTH_MAX**2:
        entries = closure_entries(paths)
        if entries > DEPTH_MAX**2:
            raise ValueError(
                "tree in %s is too large: its prefix closure has %d entries,"
                " at most %d are allowed" % (path, entries, DEPTH_MAX**2)
            )
    tree, closure_added = tree_from_paths(paths)
    if closure_added:
        print("note: prefix closure added missing nodes", file=sys.stderr)
    return tree


def _rational(value):
    """Fraction of a JSON number, or of a string a/b or plain decimal.

    Strings in exponent notation are refused unparsed: Fraction("1e9999999")
    alone takes 14 s, and "1e5000" overflows the int-to-str limit.  JSON
    numbers keep their meaning: a float's exponent is bounded, and str()
    writes 0.0000001 as "1e-07".
    """
    if isinstance(value, str) and "e" in value.lower():
        raise ValueError("%r is in exponent notation" % value)
    return Fraction(str(value))


def _load_vector(path, tree):
    data = _load_json(path)
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError('vector file %s needs an "entries" key' % path)
    entries = {}
    grid = 1
    try:
        for node, value in data["entries"]:
            key = tuple(node_from_json(node))
            if key in entries:
                raise ValueError("node %r is listed twice" % (node,))
            entries[key] = value = _rational(value)
            if abs(value.numerator).bit_length() > GRID_BITS_MAX:
                raise ValueError("the numerator of node %r passes %d bits" % (node, GRID_BITS_MAX))
            grid = lcm(grid, value.denominator)
            if grid.bit_length() > GRID_BITS_MAX:
                raise ValueError("the lcm of its denominators passes %d bits" % GRID_BITS_MAX)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ValueError("invalid vector in %s: %s" % (path, e))
    return TreeVector(tree, entries)


def _write_or_print(payload, out):
    try:
        target = open(out, "w") if out else contextlib.nullcontext(sys.stdout)
    except OSError as e:
        raise ValueError("cannot write %s: %s" % (out, e))
    # json.dump writes chunk by chunk: the whole string of a 3,000-deep
    # comb took 0.9 GB
    with target as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _emit(data, args, text_lines):
    """data as JSON with --json, else the lines text_lines() returns: a
    --json call builds no text."""
    if args.json:
        _write_or_print(data, None)
    else:
        for line in text_lines():
            print(line)


def _exponent(flag, text, exponent):
    """The rational exponent in a flag value, bounded by EXPONENT_MAX."""
    try:
        value = _rational(exponent)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            "%s %s: %r is not a rational a/b or a plain decimal" % (flag, text, exponent)
        )
    if max(abs(value.numerator), value.denominator) > EXPONENT_MAX:
        raise ValueError(
            "%s %s is too large: the exponent's numerator and denominator"
            " may be at most %d" % (flag, text, EXPONENT_MAX)
        )
    return value


def _baire_params(args):
    p = _exponent("--p", args.p, args.p)
    if args.base.startswith("l"):
        _exponent("--base", args.base, args.base[1:])
    return BaireParams(p, BaseNorm.parse(args.base))


def cmd_baire(args):
    params = _baire_params(args)
    tree = _load_tree(args.tree)
    x = _load_vector(args.vector, tree)
    report = baire_norm_report(x, params)
    family = [[list(node) for node in seg.chain] for seg in report.family]
    data = {"value": norm_value_json(report.value), "family": family}
    _emit(
        data,
        args,
        lambda: ["value   %s" % data["value"], "family  %d segment(s)" % len(family)]
        + ["  %s" % seg for seg in family],
    )
    return 0


def cmd_tsirelson(args):
    tree = _load_tree(args.tree)
    x = _load_vector(args.vector, tree)
    if args.iterate is not None:
        value = tsirelson_iterate(x, args.variant, args.iterate)
        data = {"value": str(value), "iterate": args.iterate}
        _emit(data, args, lambda: ["value  %s  (iterate %d)" % (data["value"], args.iterate)])
        return 0
    value = tsirelson_norm(x, args.variant)
    witness = tsirelson_witness_tree(x, args.variant)
    data = {"value": str(value), "witness_family_tree": witness}
    _emit(
        data,
        args,
        lambda: ["value    %s" % data["value"], "witness  %s" % json.dumps(witness)],
    )
    return 0


def cmd_ground(args):
    tree = _load_tree(args.tree)
    x = _load_vector(args.vector, tree)
    data = {"value": str(ground_norm(x))}
    _emit(data, args, lambda: ["value  %s" % data["value"]])
    return 0


def cmd_rank(args):
    tree = _load_tree(args.tree)
    value = rank(tree)
    _emit({"rank": value}, args, lambda: [str(value)])
    return 0


def cmd_gen(args):
    # refused before anything is built: sizes past DEPTH_MAX, and labels
    # or branchings whose trees the loader refuses or cannot be drawn
    flag, size = ("--max-nodes", args.max_nodes) if args.shape == "random" else ("--n", args.n)
    if size > DEPTH_MAX:
        raise ValueError("%s %d is too large: %s trees take at most %d"
                         % (flag, size, args.shape, DEPTH_MAX))
    if args.shape == "random":
        if args.max_branch < 1:
            raise ValueError("--max-branch must be >= 1")
        tree = random_tree(seed=args.seed, max_nodes=args.max_nodes, max_branch=args.max_branch)
    elif args.shape == "star":
        if args.base_label < 0:
            raise ValueError("--base-label must be >= 0: node entries are naturals")
        tree = star_tree(args.n, base_label=args.base_label)
    else:
        tree = (chain_tree if args.shape == "chain" else comb_tree)(args.n)
    _write_or_print(tree_to_json_dict(tree), args.out)
    return 0


def _parse_pairs(text):
    pairs = []
    try:
        for chunk in text.split(","):
            m, n = chunk.strip().split(":")
            pairs.append((int(m), int(n)))
    except ValueError:
        raise ValueError('pairs must look like "2:4,2:8,4:64"')
    for m, n in pairs:
        if m < 2 or n < 1:
            raise ValueError("pairs need m >= 2 and n >= 1")
        if n > PAIRS_NMAX:
            raise ValueError("pair %d:%d is too large: n may be at most %d" % (m, n, PAIRS_NMAX))
    if len(pairs) > PAIRS_MAX:
        raise ValueError("%d pairs are too many: at most %d" % (len(pairs), PAIRS_MAX))
    return pairs


def cmd_hi(args):
    if args.hi_command == "schedule":
        if args.jmax > SCHEDULE_JMAX:
            raise ValueError(
                "--jmax %d is too large: entries past j = %d do not print"
                % (args.jmax, SCHEDULE_JMAX)
            )
        sched = schedule(args.jmax)
        data = {
            "m": [str(v) for v in sched.m],
            "n": [str(v) for v in sched.n],
            "desk_pairs": [[m, n] for m, n in DESK_PAIRS],
        }
        _emit(
            data,
            args,
            lambda: ["m  %s" % " ".join(data["m"]), "n  %s" % " ".join(data["n"])],
        )
        return 0
    # the whole table before the header, so that a refused pair prints nothing
    report = run_hi_suite(_parse_pairs(args.pairs))
    columns = ("m", "n") + WITNESS_COLUMNS
    print(",".join(columns))
    for record in report.records:
        print(",".join(str(record[key]) for key in columns))
    return 0 if report.passed else 1


def cmd_verify(args):
    if args.suite != "hi" and args.cases < 0:
        raise ValueError("--cases must be >= 0")
    if args.suite != "hi" and args.cases > CASES_MAX:
        raise ValueError("--cases %d is too large: at most %d" % (args.cases, CASES_MAX))
    if args.suite == "branch" and args.max_len > DEPTH_MAX:
        raise ValueError("--max-len %d is too large: at most %d" % (args.max_len, DEPTH_MAX))
    if args.suite == "branch":
        report = run_branch_isometry(args.max_len, cases=args.cases, seed=args.seed)
    elif args.suite == "tsirelson":
        report = run_tsirelson_suite(args.cases, args.seed)
    else:
        pairs = DESK_PAIRS if args.pairs is None else _parse_pairs(args.pairs)
        report = run_hi_suite(pairs)
    _write_or_print(report.to_json_dict(), args.out)
    if args.out:
        print("%s: %s" % (report.experiment, "pass" if report.passed else "FAIL"))
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="baire-lab",
        description="Exact tree-indexed norm computations and verifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's own parser, by name, for _parse
    parser.commands = sub.choices

    p = sub.add_parser("baire", help="l_p-Baire sum norm of a tree vector")
    p.add_argument("--tree", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--p", default="1", help="p >= 1 or 0 for the single-segment norm;"
                   " numerator and denominator <= %d" % EXPONENT_MAX)
    p.add_argument("--base", default="l1", help="l1, l2, lQ (rational, numerator and"
                   " denominator <= %d), or sup" % EXPONENT_MAX)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("tsirelson", help="parametrized Tsirelson norm")
    p.add_argument("--tree", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument(
        "--variant", choices=[INCOMPARABLE, STANDARD], default=INCOMPARABLE
    )
    p.add_argument("--iterate", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ground", help="max signed chain sum")
    p.add_argument("--tree", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rank", help="ordinal rank of a finite tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="generate a tree JSON file")
    shapes = p.add_subparsers(dest="shape", required=True)
    chain, star, comb, rand = map(shapes.add_parser, ("chain", "star", "comb", "random"))
    for s in (chain, star, comb):
        s.add_argument("--n", type=int, default=4)
    star.add_argument("--base-label", type=int, default=0)
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--max-nodes", type=int, default=12)
    rand.add_argument("--max-branch", type=int, default=3)
    for s in (chain, star, comb, rand):
        s.add_argument("--out", default=None)

    p = sub.add_parser("hi", help="norming-set witnesses and growth schedule")
    hi_sub = p.add_subparsers(dest="hi_command", required=True)
    w = hi_sub.add_parser("witness", help="strict-singularity witness table")
    w.add_argument("--pairs", required=True, help='e.g. "2:4,2:8,4:64"')
    s = hi_sub.add_parser("schedule", help="exact (m_j), (n_j) sequences")
    s.add_argument("--jmax", type=int, required=True)
    s.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a verification suite")
    suites = p.add_subparsers(dest="suite", required=True)
    branch, tsir, hi = map(suites.add_parser, ("branch", "tsirelson", "hi"))
    for s in (branch, tsir):
        s.add_argument("--seed", type=int, default=0)
        s.add_argument("--cases", type=int, default=100, help="0 to %d" % CASES_MAX)
    branch.add_argument("--max-len", type=int, default=20)
    hi.add_argument("--pairs", default=None)
    for s in (branch, tsir, hi):
        s.add_argument("--out", default=None)

    return parser


# the parser of this process, built on the first main call
_parser = cache(build_parser)


def _parse(argv):
    """What _parser().parse_args(argv) returns or raises.

    When argv[0] names a command, the full parse would hand all the rest
    to that command's parser; calling it directly skips the top-level
    pass.  Leftover arguments are the top-level parser's error, as in the
    full parse.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None):
    args = _parse(argv)
    try:
        code = globals()["cmd_" + args.command](args)
        # a broken pipe on the last write shows here, not at exit
        sys.stdout.flush()
        return code
    except ValueError as e:
        return _error("error: %s" % e)
    except Exception as e:
        # exit 1 means only "verification failed"
        return _error("error: internal: %s: %s" % (type(e).__name__, e))


def _error(message):
    """Exit code 2, with message on stderr if stderr can still take it: an
    OSError from a closed stream must not leave main as an exit code 1."""
    with contextlib.suppress(OSError):
        print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
