"""Output checks, written apart from baire_lab and run outside the timed region.

Each check recomputes what it compares against from the definitions in
the module docstrings of baire_lab (trees, tsirelson, baire, hi), or
tests a property the method must have.  None of them compares against a
saved copy of an earlier output.  A failed check raises CheckFailed.

Values the program returns as certified intervals are compared against a
50-digit decimal evaluation made here: the program's intervals are about
2**-48 wide, so a correct interval contains the decimal value to within
the TOLERANCE below.
"""

import functools
import hashlib
import json
from decimal import Decimal, localcontext
from fractions import Fraction

DIGITS = 50
TOLERANCE = Decimal(10) ** -40


class CheckFailed(Exception):
    pass


def decimal_precision(fn):
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with localcontext() as ctx:
            ctx.prec = DIGITS
            return fn(*args, **kwargs)
    return run


def require(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args if args else message)


# --- trees -------------------------------------------------------------


def is_prefix(s, t):
    return len(s) <= len(t) and t[: len(s)] == s


def comparable(s, t):
    return is_prefix(s, t) or is_prefix(t, s)


def enumeration_index(node, bound):
    """(length, lexicographic) rank of node among sequences over {0..bound}."""
    base = bound + 1
    shorter = sum(base**length for length in range(len(node)))
    rank_in_length = 0
    for entry in node:
        rank_in_length = rank_in_length * base + entry
    return shorter + rank_in_length


def alphabet_bound(nodes):
    return max((max(t) for t in nodes if t), default=0)


def children_map(nodes):
    kids = {t: [] for t in nodes}
    for t in nodes:
        if t:
            kids[t[:-1]].append(t)
    return kids


def chain_max(nodes, entries):
    """Max over root-to-leaf chains of sum |x|, by an explicit stack."""
    kids = children_map(nodes)
    best = Fraction(0)
    stack = [((), abs(entries.get((), Fraction(0))))]
    while stack:
        node, total = stack.pop()
        if not kids[node]:
            best = max(best, total)
        for k in kids[node]:
            stack.append((k, total + abs(entries.get(k, Fraction(0)))))
    return best


def check_rank(nodes, value):
    expected = max(len(t) for t in nodes)
    require(value == expected, "rank %r, largest node length %r", value, expected)


def check_tree_shape(nodes_json, expected_nodes):
    got = {tuple(t) for t in nodes_json}
    require(got == set(expected_nodes), "generated tree differs from its shape")


# --- decimal evaluation of base norms and aggregates -------------------


def dec(value):
    value = Fraction(value)
    return Decimal(value.numerator) / Decimal(value.denominator)


def power(v, q):
    """v ** q for a Decimal v >= 0 and a rational q, with square roots
    taken directly, since the general power is slow."""
    if q.denominator == 1:
        return v ** q.numerator
    if q.denominator == 2:
        return v ** (q.numerator // 2) * v.sqrt()
    return v ** dec(q)


def root(v, q):
    """v ** (1/q)."""
    if q == 1:
        return v
    if q == 2:
        return v.sqrt()
    return v ** (1 / dec(q))


def base_norm(values, base):
    """Base norm of a list of Fractions; base is "sup" or "l<q>"."""
    values = [abs(Fraction(v)) for v in values]
    if base == "sup":
        return dec(max(values, default=Fraction(0)))
    q = Fraction(base[1:])
    if q == 1:
        return dec(sum(values, Fraction(0)))
    if q.denominator == 1:
        return root(dec(sum((v ** q.numerator for v in values), Fraction(0))), q)
    return root(sum((power(dec(v), q) for v in values if v), Decimal(0)), q)


def aggregate(segment_values, p):
    """l_p aggregate of segment values; p = 0 is the single largest one."""
    if p == 0:
        return max(segment_values, default=Decimal(0))
    return root(sum((power(v, p) for v in segment_values if v), Decimal(0)), p)


@decimal_precision
def require_contains(lower, upper, approx, what):
    slack = TOLERANCE * max(Decimal(1), abs(approx))
    require(
        dec(lower) - slack <= approx <= dec(upper) + slack,
        "%s: [%s, %s] does not contain %s", what, lower, upper, approx,
    )


# --- Tsirelson -----------------------------------------------------------


def replay_witness(witness, entries, incomparable):
    """Replay a witness derivation tree against |x| and return its leaves.

    A leaf is {"value", "node"} with value |x(node)|; a family node holds
    at least two members and its value is half their sum.  Leaves are
    distinct support nodes, and for the INCOMPARABLE variant leaves under
    different members are pairwise incomparable.
    """
    value = Fraction(witness["value"])
    if "node" in witness:
        node = tuple(witness["node"])
        require(node in entries, "witness leaf %r is outside the support", node)
        require(value == abs(entries[node]), "witness leaf %r has value %s", node, value)
        return [node]
    members = witness["family"]
    require(len(members) >= 2, "witness family with %d member(s)", len(members))
    total = sum((Fraction(m["value"]) for m in members), Fraction(0))
    require(value == total / 2, "family value %s is not half of %s", value, total)
    groups = [replay_witness(m, entries, incomparable) for m in members]
    leaves = [t for g in groups for t in g]
    require(len(set(leaves)) == len(leaves), "witness reuses a support node")
    if incomparable:
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                for s in a:
                    for t in b:
                        require(not comparable(s, t), "family members %r and %r are comparable", s, t)
    return leaves


def check_tsirelson_case(entries, norm, iterate, fixed_ok, witness, incomparable):
    absvals = [abs(v) for v in entries.values()]
    require(iterate == norm, "iterate at m = |supp| is %s, norm %s", iterate, norm)
    require(fixed_ok is True, "check_fixed_point returned %r", fixed_ok)
    require(max(absvals) <= norm <= sum(absvals), "norm %s outside [sup, l1]", norm)
    require(Fraction(witness["value"]) == norm, "witness root value differs from the norm")
    replay_witness(witness, entries, incomparable)


def _families(positions, idx, comp, incomparable):
    """Admissible families inside one subset, as lists of position masks.

    E_1 < ... < E_k in enumeration order, 2 <= k <= index(min E_1), and
    for the INCOMPARABLE variant pairwise completely incomparable.
    """
    out = []
    r = len(positions)

    def walk(i, blocks):
        if i == r:
            if len(blocks) >= 2 and len(blocks) <= idx[_lowest(blocks[0])]:
                out.append(list(blocks))
            return
        p = positions[i]
        walk(i + 1, blocks)  # p stays outside the family
        if blocks:
            last = blocks[-1]
            blocks[-1] = last | (1 << p)
            walk(i + 1, blocks)
            blocks[-1] = last
        blocks.append(1 << p)
        walk(i + 1, blocks)
        blocks.pop()

    walk(0, [])
    if incomparable:
        out = [f for f in out if _pairwise_incomparable(f, comp)]
    return out


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def _pairwise_incomparable(family, comp):
    for i, a in enumerate(family):
        reach = 0
        for p in range(a.bit_length()):
            if (a >> p) & 1:
                reach |= comp[p]
        for b in family[i + 1:]:
            if reach & b:
                return False
    return True


def brute_tsirelson(tree_nodes, entries, incomparable):
    """Iterates f_0 = sup, f_{m+1} = max(sup, 1/2 max sum f_m(E_i)), taken
    over every subset of the support, up to the fixed point.

    Returns the list [f_0(x), f_1(x), ...] ending at the first repeat, so
    its last entry is the norm and entry min(m, len - 1) the m-th iterate.
    """
    bound = alphabet_bound(tree_nodes)
    support = sorted(entries, key=lambda t: enumeration_index(t, bound))
    n = len(support)
    idx = [enumeration_index(t, bound) for t in support]
    vals = [abs(entries[t]) for t in support]
    comp = [
        sum(1 << j for j in range(n) if comparable(support[i], support[j]))
        for i in range(n)
    ]
    masks = range(1 << n)
    sup = {m: max((vals[i] for i in range(n) if (m >> i) & 1), default=Fraction(0)) for m in masks}
    fams = {
        m: _families([i for i in range(n) if (m >> i) & 1], idx, comp, incomparable)
        for m in masks
    }
    full = (1 << n) - 1
    f = dict(sup)
    ladder = [f[full]]
    while True:
        g = {}
        for m in masks:
            best = max((sum(f[e] for e in fam) for fam in fams[m]), default=Fraction(0))
            g[m] = max(sup[m], best / 2)
        if g == f:
            return ladder
        f = g
        ladder.append(f[full])


# --- Baire ---------------------------------------------------------------


def segment_nodes(top, bottom):
    return [bottom[:i] for i in range(len(top), len(bottom) + 1)]


@decimal_precision
def brute_baire(entries, base, p):
    """Family search over segments with both ends in the support; a segment
    hanging beyond the support adds nothing and can only meet more nodes."""
    support = list(entries)
    segments = []
    for s in support:
        for t in support:
            if is_prefix(s, t):
                nodes = segment_nodes(s, t)
                value = base_norm([entries.get(u, 0) for u in nodes], base)
                segments.append((nodes, value))
    if p == 0:
        return max((v for _, v in segments), default=Decimal(0))
    powers = [power(v, p) for _, v in segments]
    clash = [
        [any(comparable(a, b) for a in sa for b in sb) for sb, _ in segments]
        for sa, _ in segments
    ]
    best = [Decimal(0)]

    def search(i, chosen, total):
        best[0] = max(best[0], total)
        for j in range(i, len(segments)):
            if not any(clash[j][c] for c in chosen):
                chosen.append(j)
                search(j + 1, chosen, total + powers[j])
                chosen.pop()

    search(0, [], Decimal(0))
    return root(best[0], p)


class TreeIndex:
    """Integer ids and parent ids for the nodes of one tree, so that walks
    up a deep tree do not hash long tuples at every step."""

    def __init__(self, nodes):
        self.id = {t: i for i, t in enumerate(nodes)}
        self.parent = [-1] * len(self.id)
        for t, i in self.id.items():
            if t:
                self.parent[i] = self.id[t[:-1]]


def check_family(index, family):
    """Segments are convex chains of the tree, pairwise completely incomparable.

    Two convex chains A and B share a comparable pair of nodes exactly
    when they share a node or the top of one lies below a node of the
    other, so walking up from each top finds every clash.
    """
    owner = {}
    tops = []
    for s, seg in enumerate(family):
        require(seg, "empty segment in family")
        ids = []
        for node in sorted(seg, key=len):
            i = index.id.get(node)
            require(i is not None, "segment node %r is not in the tree", node)
            require(not ids or index.parent[i] == ids[-1], "segment %d is not a convex chain", s)
            require(owner.setdefault(i, s) == s, "node %r lies in two segments", node)
            ids.append(i)
        tops.append(ids[0])
    for s, top in enumerate(tops):
        i = index.parent[top]
        while i >= 0:
            require(owner.get(i, s) == s, "segments %d and %d are comparable", s, owner.get(i))
            i = index.parent[i]


@decimal_precision
def check_baire_group(index, entries, base, results, is_chain, ground):
    """All p-values of one (tree, vector, base): results maps p to
    (lower, upper, family)."""
    absvals = [abs(v) for v in entries.values()]
    sup, l1 = max(absvals), sum(absvals)
    seen = {}  # segment (ends) -> base norm; the p-values share segments
    previous = None
    for p in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(0)):
        if p not in results:
            continue
        lower, upper, family = results[p]
        what = "baire %s p=%s" % (base, p)
        require(lower <= upper, "%s: empty interval", what)
        require(upper >= sup and lower <= l1, "%s: outside [sup, l1]", what)
        if previous is not None:
            require(lower <= previous, "%s: larger than at a smaller p", what)
        previous = upper
        check_family(index, family)
        if p == 0:
            require(len(family) <= 1, "%s: %d segments", what, len(family))
        values = []
        for seg in family:
            key = (min(seg, key=len), max(seg, key=len))
            if key not in seen:
                seen[key] = base_norm([entries.get(u, 0) for u in seg], base)
            values.append(seen[key])
        require_contains(lower, upper, aggregate(values, p), what + " family")
        if is_chain:
            require_contains(lower, upper, base_norm(list(entries.values()), base), what + " chain")
        if p == 0 and base == "l1":
            require(lower == upper == ground, "%s: differs from the chain maximum %s", what, ground)


# --- hi ------------------------------------------------------------------


def _enum_key(node):
    return (len(node), node)


def replay_functional(provenance, x):
    """Rebuild a norming functional from its derivation; returns its entries."""
    kind = provenance[0]
    if kind == "ground":
        items = provenance[1]
        nodes = sorted((tuple(n) for n, _ in items), key=len)
        for s, t in zip(nodes, nodes[1:]):
            require(is_prefix(s, t), "ground functional off a chain at %r", t)
        for _, sign in items:
            require(abs(sign) == 1, "ground functional sign %s", sign)
        return {tuple(n): Fraction(sign) for n, sign in items}
    require(kind == "even_op", "unknown functional kind %r", kind)
    _, m, n, parts = provenance
    require(1 <= len(parts) <= n, "averaging of %d parts with n = %d", len(parts), n)
    total = {}
    last = None
    for part in parts:
        entries = replay_functional(part, x)
        require(entries, "averaging part is zero")
        keys = sorted(entries, key=_enum_key)
        if last is not None:
            require(_enum_key(keys[0]) > _enum_key(last), "averaging parts not successive")
        last = keys[-1]
        for node, v in entries.items():
            total[node] = total.get(node, Fraction(0)) + v / m
    return {k: v for k, v in total.items() if v}


def check_dg(tree_nodes, window_entries, value, witness_entries, provenance):
    l1 = sum(abs(v) for v in window_entries.values())
    ground = chain_max(tree_nodes, window_entries)
    require(ground <= value <= l1, "dg bound %s outside [ground %s, l1 %s]", value, ground, l1)
    entries = replay_functional(provenance, window_entries)
    require(entries == witness_entries, "witness entries differ from their derivation")
    require(all(abs(v) <= 1 for v in entries.values()), "witness entry outside [-1, 1]")
    applied = sum((v * window_entries.get(n, 0) for n, v in entries.items()), Fraction(0))
    require(applied == value, "witness gives %s at x, claimed %s", applied, value)


def check_hi_row(m, n, ground, lower, upper, ratio):
    require(ground == 1, "hi row (%d, %d): ground %s", m, n, ground)
    require(upper == n, "hi row (%d, %d): upper %s", m, n, upper)
    require(lower >= Fraction(n, m), "hi row (%d, %d): lower %s < n/m", m, n, lower)
    require(ratio == lower / ground, "hi row (%d, %d): ratio %s", m, n, ratio)


# --- verify reports --------------------------------------------------------


def report_digest(report):
    payload = json.dumps(
        [report["experiment"], report["params"], report["records"]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def check_report(report):
    require(report_digest(report) == report["digest"], "report digest does not match its records")
    require(report["passed"] is True, "%s reports a failure", report["experiment"])
    kind = report["experiment"]
    for r in report["records"]:
        if kind == "tsirelson_suite":
            q = {k: Fraction(r[k]) for k in (
                "lemma_lhs", "lemma_rhs", "index_standard",
                "combo_incomparable", "combo_standard")}
            require(q["lemma_lhs"] <= q["lemma_rhs"], "case %d: lemma lhs > rhs", r["case"])
            require(
                q["index_standard"] <= q["combo_incomparable"] <= q["combo_standard"]
                <= 18 * q["index_standard"],
                "case %d: 18-sandwich broken", r["case"],
            )
        elif kind == "hi_suite":
            check_hi_row(r["m"], r["n"], *(Fraction(r[k]) for k in ("ground", "lower", "upper", "ratio")))
        elif kind == "branch_isometry":
            computed = r["computed"]
            lo, hi = (computed, computed) if isinstance(computed, str) else computed
            elo, ehi = r["expected"]
            require(
                Fraction(lo) <= Fraction(ehi) and Fraction(elo) <= Fraction(hi),
                "case %d: chain value misses the base norm", r["case"],
            )
        else:
            raise CheckFailed("unknown experiment %r" % kind)
