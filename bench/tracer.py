"""Spans recorded from outside the program, around calls into its layers.

The tracer replaces each public function of baire_lab listed in LAYERS,
in every baire_lab module that holds it by name, with a wrapper that
records a span: a name, start and end times, the parent span and the
case id.  Constructors are wrapped on their class, so every module sees
the wrapper.  Spans live in flat arrays and are written out at the end.
A layer's self time is its spans' durations minus their child spans.
"""

import array
import functools
import gzip
import os
import statistics
import sys
import time

from inputs import INCOMPARABLE_SHAPE, STANDARD_SHAPE

# a tree whose longest node is at least this long counts as deep
DEEP_LENGTH = 100

# (module, attribute) -> span name.  "baire" spans are named baire.exact
# or baire.interval from the call's parameters, and {variant} is std or inc.
LAYERS = {
    ("trees", "tree_from_json_dict"): "trees.build",
    ("trees", "rank"): "trees.rank",
    ("vectors", "nth_root_bounds"): "vectors.root",
    ("baire", "baire_norm_report"): "baire",
    ("baire", "baire_norm"): "baire",
    ("tsirelson", "tsirelson_norm"): "tsirelson.{variant}.norm",
    ("tsirelson", "tsirelson_witness_tree"): "tsirelson.{variant}.witness",
    ("tsirelson", "check_fixed_point"): "tsirelson.{variant}.check",
    ("tsirelson", "tsirelson_iterate"): "tsirelson.{variant}.iterate",
    ("tsirelson", "verify_lemma_II1"): "tsirelson.block_checks",
    ("tsirelson", "verify_sandwich18"): "tsirelson.block_checks",
    ("hi", "ground_norm"): "hi.ground",
    ("hi", "dg_lower_bound"): "hi.dg_lower",
    ("hi", "strict_singularity_witness"): "hi.witness",
    ("verify", "run_branch_isometry"): "verify.suite",
    ("verify", "run_tsirelson_suite"): "verify.suite",
    ("verify", "run_hi_suite"): "verify.suite",
    ("cli", "main"): "cli.main",
}
CONSTRUCTORS = {
    ("trees", "FiniteTree"): "trees.build",
    ("vectors", "TreeVector"): "vectors.build",
}


def _variant_name(pattern):
    return lambda args, kwargs: pattern.format(
        variant="inc" if args[1] == "incomparable" else "std")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.case = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = []
        self.current_case = -1
        self.built_nodes = 0
        self.baire_nodes = {"wide": 0, "deep": 0}
        self.baire_seconds = {"wide": 0.0, "deep": 0.0}
        self._depth_of = {}
        self.zero = None

    def name_id(self, name):
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name):
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.case.append(self.current_case)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return wrapper

    def _baire_name(self, args, kwargs):
        """baire.exact for l_1 and sup bases with p in {0, 1}."""
        base, p = args[1].base, args[1].p
        exact = (base.kind == "sup" or base.q == 1) and (p is self.zero or p == 1)
        return "baire.exact" if exact else "baire.interval"

    def _count_baire_nodes(self, spanned):
        """Tree nodes through baire_norm_report, and its time, by tree kind."""
        tracer = self

        @functools.wraps(spanned)
        def wrapper(x, params):
            kind = tracer._tree_kind(x.tree)
            t0 = time.perf_counter()
            try:
                return spanned(x, params)
            finally:
                tracer.baire_seconds[kind] += time.perf_counter() - t0
                tracer.baire_nodes[kind] += len(x.tree)

        return wrapper

    def _tree_kind(self, tree):
        # keyed by id, holding the tree so that its id is not reused
        known = self._depth_of.get(id(tree))
        if known is None:
            deep = max(map(len, tree.nodes), default=0) >= DEEP_LENGTH
            known = self._depth_of[id(tree)] = (tree, "deep" if deep else "wide")
        return known[1]

    def install(self, package):
        """Wrap every listed function wherever a baire_lab module holds it."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        self.zero = sys.modules[package + ".baire"].ZERO
        for (mod, attr), name in LAYERS.items():
            original = getattr(sys.modules["%s.%s" % (package, mod)], attr)
            if name == "baire":
                wrapped = self.span(self._baire_name, original)
                if attr == "baire_norm_report":
                    wrapped = self._count_baire_nodes(wrapped)
            elif "{variant}" in name:
                wrapped = self.span(_variant_name(name), original)
            else:
                wrapped = self.span(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)
        for (mod, attr), name in CONSTRUCTORS.items():
            cls = getattr(sys.modules["%s.%s" % (package, mod)], attr)
            cls.__init__ = self._constructor(name, cls.__init__)

    def _constructor(self, name, init):
        tracer = self
        spanned = self.span(name, init)

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            spanned(obj, *args, **kwargs)
            if name == "trees.build":
                tracer.built_nodes += len(obj.nodes)

        return wrapper

    def totals(self):
        """name -> [self seconds, inclusive seconds, span count]."""
        n = len(self.start)
        covered = array.array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            d = self.end[i] - self.start[i]
            t = out.setdefault(self.names[self.name[i]], [0.0, 0.0, 0])
            t[0] += d - covered[i]
            t[1] += d
            t[2] += 1
        return out

    def durations(self, name, sizes):
        """Durations in ms of the spans called name, grouped by case size."""
        nid = self.name_ids.get(name)
        out = {}
        for i in range(len(self.start)):
            if self.name[i] == nid and self.case[i] >= 0:
                out.setdefault(sizes[self.case[i]], []).append(1e3 * (self.end[i] - self.start[i]))
        return out

    def per_layer(self, variant=None, sizes=None):
        """Every per-layer metric.  For a Tsirelson workload, variant is
        "std" or "inc" and sizes maps a case id to its support size."""
        t = self.totals()

        def ms(name, column=0):
            return 1e3 * t.get(name, (0.0, 0.0, 0))[column]

        def count(name):
            return t.get(name, (0.0, 0.0, 0))[2]

        def rate(items, seconds):
            return items / seconds if seconds else 0.0

        m = {
            "trees.build_ms": (ms("trees.build"), "ms"),
            "trees.build_nodes_per_s": (rate(self.built_nodes, ms("trees.build") / 1e3), "1/s"),
            "trees.rank_ms": (ms("trees.rank"), "ms"),
            "vectors.build_ms": (ms("vectors.build"), "ms"),
            "vectors.root_calls": (count("vectors.root"), "count"),
            "vectors.root_ms": (ms("vectors.root"), "ms"),
            "baire.exact_ms": (ms("baire.exact"), "ms"),
            "baire.interval_ms": (ms("baire.interval"), "ms"),
            "baire.wide_nodes_per_s": (rate(self.baire_nodes["wide"], self.baire_seconds["wide"]), "1/s"),
            "baire.deep_nodes_per_s": (rate(self.baire_nodes["deep"], self.baire_seconds["deep"]), "1/s"),
        }
        for v in ("std", "inc"):
            for call in ("norm", "witness", "check", "iterate"):
                name = "tsirelson.%s.%s" % (v, call)
                m[name + "_ms"] = (ms(name), "ms")
        for v, shape, span, label in (
            ("std", STANDARD_SHAPE, "bench.case", "case_p50_ms"),
            ("inc", INCOMPARABLE_SHAPE, "tsirelson.inc.norm", "norm_p50_ms"),
        ):
            by_size = self.durations(span, sizes) if v == variant else {}
            for k in shape[2]:
                d = by_size.get(k)
                m["tsirelson.%s.%s.s%d" % (v, label, k)] = (statistics.median(d) if d else 0.0, "ms")
        m.update({
            "tsirelson.norm_calls": (count("tsirelson.std.norm") + count("tsirelson.inc.norm"), "count"),
            "tsirelson.block_checks_ms": (ms("tsirelson.block_checks"), "ms"),
            "hi.ground_ms": (ms("hi.ground"), "ms"),
            "hi.dg_lower_calls": (count("hi.dg_lower"), "count"),
            "hi.dg_lower_ms": (ms("hi.dg_lower"), "ms"),
            "verify.suite_ms": (ms("verify.suite", 1), "ms"),
            "verify.self_ms": (ms("verify.suite"), "ms"),
            "cli.self_ms": (ms("cli.main"), "ms"),
        })
        return m

    def write(self, path):
        """One line per span: name, start, end, parent, case (times in s)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tcase\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.case[i]))
