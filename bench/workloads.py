"""The four workloads: inputs, set-up, one timed case, and output checks.

A workload builds its inputs from the seed before baire_lab is imported
(make_inputs), turns them into program objects during the timed set-up
(build, which calls tick between items so that the set-up is timed in
pieces), runs one case at a time inside the timed region (run), keeps
what the checks need outside it (keep), and checks every kept output
after the timed phase (check).  baire_lab functions are looked up on
their module at call time, so a traced run sees the tracer's wrappers.
"""

import contextlib
import io
import json
import os
from fractions import Fraction

import checks
import inputs

# List length per second of --seconds, set so that on a 2-core test machine
# the whole list, with a calibration kernel before and after each case,
# takes about --seconds.  The length depends only on --seconds, never on
# how fast the cases happen to run.
RATES = {
    "standard_certify": 110,
    "incomparable_search": 130,
    "baire_trees": 0.5,
    "cli_verify": 6,
}


# set-up is timed this many times per run and its median reported; the
# large trees of baire_trees take about a second to build
SETUP_REPEATS = 7


def entries_of(vector_json):
    return {tuple(n): Fraction(v) for n, v in vector_json["entries"]}


def nodes_of(tree_json):
    return {tuple(n) for n in tree_json["nodes"]}


def case_count(name, seconds, multiple=1):
    count = max(int(RATES[name] * seconds), 1)
    return max(count - count % multiple, multiple)


class Tsirelson:
    """standard_certify and incomparable_search: the four Tsirelson calls
    on one vector per case."""

    def __init__(self, name, variant, shape):
        self.name = name
        self.variant = variant
        self.shape = shape
        self.trace_variant = "inc" if variant == "incomparable" else "std"
        self.setup_repeats = SETUP_REPEATS

    def make_inputs(self, seed, seconds, out_dir):
        count = case_count(self.name, seconds, len(self.shape[2]))
        return inputs.tsirelson_cases(seed, count, self.shape)

    def build(self, lab, cases, tick):
        built = []
        for case in cases:
            tree, _ = lab.trees.tree_from_json_dict(case["tree"])
            built.append(lab.vectors.TreeVector(tree, entries_of(case["vector"])))
            tick()
        return built

    def sizes(self, cases):
        return [len(c["vector"]["entries"]) for c in cases]

    def run(self, lab, x):
        ts = lab.tsirelson
        norm = ts.tsirelson_norm(x, self.variant)
        witness = ts.tsirelson_witness_tree(x, self.variant)
        fixed = ts.check_fixed_point(x, self.variant)
        iterate = ts.tsirelson_iterate(x, self.variant, len(x.entries))
        return norm, witness, fixed, iterate

    def keep(self, case, output):
        return output

    def check(self, cases, outputs):
        for case, (norm, witness, fixed, iterate) in zip(cases, outputs):
            checks.check_tsirelson_case(
                entries_of(case["vector"]), norm, iterate, fixed, witness,
                self.variant == "incomparable",
            )


class BaireTrees:
    """Baire norms, ground, rank and norming-set bounds on large trees."""

    name = "baire_trees"
    trace_variant = None
    setup_repeats = 3

    def make_inputs(self, seed, seconds, out_dir):
        return inputs.baire_trees(seed, case_count(self.name, seconds))

    def build(self, lab, data, tick):
        trees, requests = data
        built_trees = []
        for t in trees:
            tree, _ = lab.trees.tree_from_json_dict(t["tree"])
            tick()
            vectors = []
            for v in t["vectors"]:
                vectors.append(lab.vectors.TreeVector(tree, entries_of(v)))
                tick()
            built_trees.append((tree, vectors))
        params = {
            (base, p): lab.baire.BaireParams(Fraction(p), lab.vectors.BaseNorm.parse(base))
            for base in inputs.BAIRE_BASES for p in inputs.BAIRE_PS
        }
        cases = []
        for tid, vid, op in requests:
            tree, vectors = built_trees[tid]
            x = vectors[vid] if vid is not None else None
            if op[0] == "baire":
                cases.append(("baire", x, params[op[1:]]))
            elif op[0] == "dg":
                start, width = op[2]
                window = sorted(x.entries, key=lambda t: (len(t), t))[start:start + width]
                xw = lab.vectors.TreeVector(tree, {t: x.entries[t] for t in window})
                cases.append(("dg", xw, op[1]))
                tick()
            else:
                cases.append((op[0], x if x is not None else tree, None))
        return cases

    def sizes(self, data):
        return None

    def run(self, lab, case):
        op, arg, extra = case
        try:
            if op == "baire":
                return lab.baire.baire_norm_report(arg, extra)
            if op == "dg":
                return lab.hi.dg_lower_bound(arg, extra, inputs.DG_OPS)
            if op == "ground":
                return lab.hi.ground_norm(arg)
            return lab.trees.rank(arg)
        except RecursionError:
            # rank and ground_norm recurse once per tree level
            return RecursionError

    def keep(self, case, output):
        op, arg, extra = case
        if output is RecursionError:
            return output
        if op == "baire":
            family = [[tuple(t) for t in seg.chain] for seg in output.family]
            return output.value.lower, output.value.upper, family
        if op == "dg":
            value, witness = output
            window = dict(arg.entries)
            return value, dict(witness.entries), witness.provenance, window
        return output

    def check(self, data, outputs):
        trees, requests = data
        tree_nodes = [nodes_of(t["tree"]) for t in trees]
        indexes = [checks.TreeIndex(nodes) for nodes in tree_nodes]
        grounds = {}
        groups = {}

        def ground_of(tid, vid):
            key = (tid, vid)
            if key not in grounds:
                grounds[key] = checks.chain_max(
                    tree_nodes[tid], entries_of(trees[tid]["vectors"][vid]))
            return grounds[key]

        for (tid, vid, op), out in zip(requests, outputs):
            if out is RecursionError:
                checks.require(op[0] in ("rank", "ground") and trees[tid]["kind"] != "wide",
                               "%s failed on a %s tree", op[0], trees[tid]["kind"])
            elif op[0] == "baire":
                groups.setdefault((tid, vid, op[1]), {})[Fraction(op[2])] = out
            elif op[0] == "dg":
                value, witness, provenance, window = out
                checks.check_dg(tree_nodes[tid], window, value, witness, provenance)
            elif op[0] == "ground":
                checks.require(out == ground_of(tid, vid), "ground_norm %s, chain maximum %s",
                               out, ground_of(tid, vid))
            else:
                checks.check_rank(tree_nodes[tid], out)
        for (tid, vid, base), results in groups.items():
            checks.check_baire_group(
                indexes[tid], entries_of(trees[tid]["vectors"][vid]), base, results,
                trees[tid]["kind"] == "chain", ground_of(tid, vid),
            )


# CLI commands whose output is JSON only with --json
JSON_COMMANDS = ("tsirelson", "baire", "ground", "rank")


class CliVerify:
    """In-process calls to baire_lab.cli.main on small files."""

    name = "cli_verify"
    trace_variant = None
    setup_repeats = SETUP_REPEATS

    def make_inputs(self, seed, seconds, out_dir):
        """The blocks, with their input files written and argv lists built."""
        directory = os.path.join(out_dir, "cli")
        os.makedirs(directory, exist_ok=True)
        blocks = inputs.cli_blocks(seed, case_count(self.name, seconds))
        for b, block in enumerate(blocks):
            paths = {}
            for key in ("tree", "vector"):
                paths[key] = os.path.join(directory, "%d-%s.json" % (b, key))
                with open(paths[key], "w") as fh:
                    json.dump(block[key], fh)
            block["argv"] = []
            for call in block["calls"]:
                argv = []
                for arg in call:
                    if arg in ("{tree}", "{vector}"):
                        argv += ["--" + arg[1:-1], paths[arg[1:-1]]]
                    else:
                        argv.append(arg)
                if call[0] in JSON_COMMANDS:
                    argv.append("--json")
                report = None
                if call[0] == "verify":
                    report = os.path.join(directory, "report-%s.json" % call[1])
                    argv += ["--out", report]
                block["argv"].append((argv, report))
        return blocks

    def build(self, lab, blocks, tick):
        """Build every case's tree and vector from its block's JSON, as the
        other workloads do; the call itself loads them again from the files.
        Without this, set-up would be the import alone, about 35 ms, which
        drifts with the machine far more than the cases do."""
        cases = []
        for block in blocks:
            for argv, report in block["argv"]:
                tree, _ = lab.trees.tree_from_json_dict(block["tree"])
                x = lab.vectors.TreeVector(tree, entries_of(block["vector"]))
                cases.append((x, argv, report))
                tick()
        return cases

    def sizes(self, blocks):
        return None

    def run(self, lab, case):
        _, argv, _ = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lab.cli.main(argv)
        return code, out.getvalue()

    def keep(self, case, output):
        _, _, report = case
        if report is None:
            return output
        with open(report) as fh:
            return output[0], fh.read()

    def check(self, blocks, outputs):
        at = 0
        for block in blocks:
            nodes = nodes_of(block["tree"])
            entries = entries_of(block["vector"])
            ladders = {}
            digests = []
            for call in block["calls"]:
                code, text = outputs[at]
                at += 1
                checks.require(code == 0, "%s exited with %r", " ".join(call), code)
                self._check_call(call, text, nodes, entries, ladders, digests)
            again = block["repeat"]
            checks.require(digests[again] == digests[again + 1],
                           "the same verify command gave two digests")

    def _check_call(self, call, text, nodes, entries, ladders, digests):
        command = call[0]
        if command == "verify":
            report = json.loads(text)
            checks.check_report(report)
            digests.append(report["digest"])
            return
        if command == "hi":
            lines = text.strip().splitlines()
            checks.require(lines[0] == "m,n,ground,lower,upper,ratio", "hi witness header %r", lines[0])
            pairs = [tuple(int(v) for v in p.split(":")) for p in call[3].split(",")]
            checks.require(len(lines) == len(pairs) + 1, "hi witness printed %d rows", len(lines) - 1)
            for line, (m, n) in zip(lines[1:], pairs):
                row = line.split(",")
                checks.require((int(row[0]), int(row[1])) == (m, n), "hi witness row %r", line)
                checks.check_hi_row(m, n, *(Fraction(v) for v in row[2:]))
            return
        if command == "gen":
            n = int(call[3])
            shape = inputs.chain_nodes(n) if call[1] == "chain" else inputs.comb_nodes(n)
            checks.check_tree_shape(json.loads(text)["nodes"], shape)
            return
        data = json.loads(text)
        if command == "tsirelson":
            incomparable = call[4] == "incomparable"
            if incomparable not in ladders:
                ladders[incomparable] = checks.brute_tsirelson(nodes, entries, incomparable)
            ladder = ladders[incomparable]
            value = Fraction(data["value"])
            if "--iterate" in call:
                m = int(call[call.index("--iterate") + 1])
                checks.require(value == ladder[min(m, len(ladder) - 1)], "iterate %d is %s", m, value)
            else:
                checks.require(value == ladder[-1], "tsirelson %s, brute force %s", value, ladder[-1])
                checks.replay_witness(data["witness_family_tree"], entries, incomparable)
                checks.require(Fraction(data["witness_family_tree"]["value"]) == value,
                               "witness root value differs from the norm")
        elif command == "baire":
            p, base = Fraction(call[4]), call[6]
            value = data["value"]
            lower, upper = (value, value) if isinstance(value, str) else value
            family = [[tuple(t) for t in seg] for seg in data["family"]]
            checks.check_family(checks.TreeIndex(nodes), family)
            checks.require_contains(Fraction(lower), Fraction(upper),
                                    checks.brute_baire(entries, base, p), "baire brute force")
        elif command == "ground":
            checks.require(Fraction(data["value"]) == checks.chain_max(nodes, entries),
                           "ground %s differs from the chain maximum", data["value"])
        else:
            checks.check_rank(nodes, data["rank"])


WORKLOADS = {
    "standard_certify": Tsirelson("standard_certify", "standard", inputs.STANDARD_SHAPE),
    "incomparable_search": Tsirelson("incomparable_search", "incomparable", inputs.INCOMPARABLE_SHAPE),
    "baire_trees": BaireTrees(),
    "cli_verify": CliVerify(),
}
