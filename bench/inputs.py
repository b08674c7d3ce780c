"""Seeded inputs for every workload, as plain JSON-ready data.

Nothing here imports baire_lab: the program only ever sees the tree and
vector JSON produced below.  Trees come from the benchmark's own
generator, never from baire_lab.random_tree, whose sorted insertion is
itself quadratic.
"""

import random

# Tsirelson workloads: (tree size, label bound, support sizes in the band).
# Costs grow about 2-3x per extra support node and spread widely at one
# size, so each band is a single size, low enough for a run to hold well
# over a thousand cases: at sizes 10-12 only about 100 cases fit in a run,
# and the seed alone would move p50 and p90 by an estimated 10-20%.  A band
# of two sizes puts the median between two humps of case times, where few
# cases lie, and the seed moved it by 8%.
STANDARD_SHAPE = (16, 3, (6,))
INCOMPARABLE_SHAPE = (24, 4, (7,))

WIDE_SIZE = 1000
WIDE_BRANCH = 6
DEEP_DEPTH = 500

BAIRE_BASES = ("sup", "l1", "l2", "l3/2")
BAIRE_PS = ("0", "1", "3/2", "2")
DG_OPS = ((2, 4), (4, 16))


def random_tree_nodes(rng, size, branch):
    """Random recursive tree: each new node takes a free label under a
    uniformly chosen node that still has one.  Linear in size."""
    nodes = [()]
    free = {(): list(range(branch))}
    open_nodes = [()]
    while len(nodes) < size:
        i = rng.randrange(len(open_nodes))
        parent = open_nodes[i]
        labels = free[parent]
        label = labels.pop(rng.randrange(len(labels)))
        if not labels:
            open_nodes[i] = open_nodes[-1]
            open_nodes.pop()
        child = parent + (label,)
        nodes.append(child)
        free[child] = list(range(branch))
        open_nodes.append(child)
    return nodes


def chain_nodes(depth):
    return [(0,) * i for i in range(depth)]


def comb_nodes(depth):
    """A spine of `depth` nodes with one leaf hanging off each of them."""
    return chain_nodes(depth) + [(0,) * i + (1,) for i in range(depth)]


def coefficient(rng):
    sign = rng.choice((1, -1))
    return "%d/%d" % (sign * rng.randint(1, 9), rng.randint(1, 6))


def tree_json(nodes):
    return {"nodes": [list(t) for t in nodes]}


def vector_json(entries):
    return {"entries": [[list(t), v] for t, v in entries]}


def random_vector(rng, nodes, count):
    support = rng.sample(nodes, count)
    return vector_json((t, coefficient(rng)) for t in support)


def tsirelson_cases(seed, count, shape):
    """`count` cases of one vector each; sizes cycle through the band."""
    size, branch, band = shape
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        k = band[i % len(band)]
        nodes = random_tree_nodes(rng, size, branch)
        cases.append(
            {"tree": tree_json(nodes), "vector": random_vector(rng, nodes[1:], k)}
        )
    return cases


def _fixed_vector(nodes):
    """Seed-independent vector for the requests that fail on deep trees."""
    return vector_json((t, "%d/2" % (1 + len(t) % 3)) for t in nodes if t)


def baire_trees(seed, wide_count):
    """Wide random trees plus a chain and a comb DEEP_DEPTH deep.

    Returns (trees, requests).  A request names its tree, its vector and
    one operation: ("baire", base, p), ("ground",), ("rank",) or
    ("dg", depth, window) where window is a run of consecutive support
    positions in enumeration order.
    """
    rng = random.Random(seed)
    trees = []
    requests = []

    def add_vector(tree_id, vec):
        trees[tree_id]["vectors"].append(vec)
        return len(trees[tree_id]["vectors"]) - 1

    for i in range(wide_count):
        nodes = random_tree_nodes(rng, WIDE_SIZE, WIDE_BRANCH)
        trees.append({"kind": "wide", "tree": tree_json(nodes), "vectors": []})
        v = add_vector(i, random_vector(rng, nodes, int(0.7 * WIDE_SIZE)))
        window = (rng.randrange(300), 20 + i % 11)
        for op in _vector_ops(window):
            requests.append((i, v, op))
        requests.append((i, v, ("ground",)))
        requests.append((i, None, ("rank",)))
    for kind, nodes in (("chain", chain_nodes(DEEP_DEPTH)), ("comb", comb_nodes(DEEP_DEPTH))):
        tid = len(trees)
        trees.append({"kind": kind, "tree": tree_json(nodes), "vectors": []})
        for j in range(2):
            v = add_vector(tid, random_vector(rng, nodes, int(0.7 * len(nodes))))
            window = (rng.randrange(200), 25 + 5 * j)
            for op in _vector_ops(window):
                requests.append((tid, v, op))
        fixed = add_vector(tid, _fixed_vector(nodes))
        # these two fail with RecursionError today; their inputs do not
        # depend on the seed, so every run fails the same share
        requests.append((tid, fixed, ("ground",)))
        requests.append((tid, None, ("rank",)))
    return trees, requests


def _vector_ops(window):
    ops = [("baire", base, p) for base in BAIRE_BASES for p in BAIRE_PS]
    ops.append(("dg", 1, window))
    ops.append(("dg", 2, window))
    return ops


def cli_blocks(seed, count):
    """`count` blocks of CLI calls, each with its own small input files.

    The verify suites take the block index as their seed, so the suite
    work, and with it the exact count of tsirelson_norm calls, is the
    same in every run; the single-command inputs come from `seed`.  One
    verify command per block, each in turn, runs twice in a row, so that
    its digest can be compared; block["repeat"] is its place among the
    block's verify commands.  With 11 single commands (about 3-6 ms each)
    and 5 verify calls (12-20 ms), the median call lies inside the cluster
    of single commands rather than in the gap between the two clusters,
    where the scaling's residual error moved it by 8%.
    """
    rng = random.Random(seed)
    blocks = []
    for b in range(count):
        nodes = random_tree_nodes(rng, rng.randint(8, 10), 3)
        vec = random_vector(rng, nodes[1:], rng.randint(4, 6))
        n = rng.randint(3, 12)
        pairs = "%d:%d,%d:%d" % (2, rng.choice((4, 6)), rng.choice((2, 4)), 8)
        single = [
            ["tsirelson", "{tree}", "{vector}", "--variant", "incomparable"],
            ["tsirelson", "{tree}", "{vector}", "--variant", "standard"],
            ["tsirelson", "{tree}", "{vector}", "--variant", "incomparable",
             "--iterate", str(rng.randint(1, 3))],
            ["baire", "{tree}", "{vector}", "--p", "1", "--base", "l1"],
            ["baire", "{tree}", "{vector}", "--p", "2", "--base", "l2"],
            ["baire", "{tree}", "{vector}", "--p", "0", "--base", "sup"],
            ["ground", "{tree}", "{vector}"],
            ["rank", "{tree}"],
            ["gen", "chain", "--n", str(n)],
            ["gen", "comb", "--n", str(n)],
            ["hi", "witness", "--pairs", pairs],
        ]
        verify = [
            ["verify", "branch", "--max-len", "12", "--cases", "20", "--seed", str(b)],
            ["verify", "hi", "--pairs", "2:4,2:8,4:16"],
            ["verify", "tsirelson", "--cases", "6", "--seed", str(b)],
            ["verify", "tsirelson", "--cases", "6", "--seed", str(count + b)],
        ]
        again = b % len(verify)
        blocks.append({
            "tree": tree_json(nodes),
            "vector": vec,
            "calls": single + verify[:again + 1] + verify[again:],
            "repeat": again,
        })
    return blocks
