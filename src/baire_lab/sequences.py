"""Block sequence generation, equivalence-constant and unconditionality
lower bounds.

Equivalence constants are certified from below only: the true constant
is a sup over all coefficient directions, and every inequality verified
here compares two exactly computed norms at explicit coefficient
vectors, where a lower bound is what is needed.  The sampling family is
fixed (sign patterns, indicator patterns, seeded rationals) so that all
outputs are deterministic functions of (inputs, seed).

Every norm argument is a plain callable x -> Fraction | NormValue, such
as ground_norm or partial(tsirelson_norm, variant=INCOMPARABLE).
"""

import itertools
import random
from fractions import Fraction

from baire_lab.hi import ground_norm
from baire_lab.vectors import NormValue, TreeVector, linear_combination

SIGN_PATTERN_LENGTH_CAP = 10
UNCONDITIONAL_CAP = 12


def _value(norm, x):
    v = norm(x)
    return v if isinstance(v, NormValue) else NormValue(v)


class FiniteBlockSequence:
    """Blocks with strictly increasing enumeration-index windows."""

    def __init__(self, blocks, windows):
        if len(blocks) != len(windows):
            raise ValueError("blocks and windows length mismatch")
        for b, (lo, hi) in zip(blocks, windows):
            for t in b.support:
                if not (lo < b.tree.index(t) <= hi):
                    raise ValueError(
                        "block support node %r escapes its window (%d, %d]"
                        % (t, lo, hi)
                    )
        for (_, hi), (lo, _) in zip(windows, windows[1:]):
            if hi > lo:
                raise ValueError("windows must be strictly increasing")
        self.blocks = list(blocks)
        self.windows = list(windows)

    def __len__(self):
        return len(self.blocks)

    def combine(self, coeffs):
        return linear_combination(self.blocks[0].tree, self.blocks, coeffs)


def generate_incomparable_blocks(tree, count, seed, norm=ground_norm):
    """Deterministic-in-seed semi-normalized blocks on disjoint leaf groups.

    Leaves are pairwise incomparable, so grouping them by enumeration
    order yields completely incomparable supports in increasing windows.
    Each block is rescaled so its norm is exactly 1 when the norm is
    rational, and lands in [1/2, 2] otherwise.
    """
    leaves = sorted(tree.leaves(), key=tree.index)
    if len(leaves) < count:
        raise ValueError(
            "tree supports at most %d incomparable blocks, need %d"
            % (len(leaves), count)
        )
    rng = random.Random(seed)
    per_block = max(1, len(leaves) // count)
    blocks = []
    windows = []
    for i in range(count):
        group = leaves[i * per_block : (i + 1) * per_block]
        if i == count - 1:
            group = leaves[i * per_block :]
        entries = {}
        for t in group:
            entries[t] = Fraction(rng.randint(1, 8), rng.randint(1, 8)) * rng.choice(
                [1, -1]
            )
        if not entries:
            entries = {group[0]: Fraction(1)}
        block = TreeVector(tree, entries)
        value = _value(norm, block)
        if value.is_exact:
            block = block.scale(1 / value.exact)
        else:
            # pick a rational scale landing the interval inside [1/2, 2]
            mid = (value.lower + value.upper) / 2
            block = block.scale(1 / mid)
        lo = tree.index(min(block.support, key=tree.index)) - 1
        hi = tree.index(max(block.support, key=tree.index))
        blocks.append(block)
        windows.append((lo, hi))
    return FiniteBlockSequence(blocks, windows)


def _coefficient_family(n, trials, seed):
    """Fixed deterministic coefficient sample: signs, indicators, rationals."""
    seen = set()
    out = []

    def push(vec):
        vec = tuple(Fraction(v) for v in vec)
        if any(vec) and vec not in seen:
            seen.add(vec)
            out.append(vec)

    if n <= SIGN_PATTERN_LENGTH_CAP:
        for signs in itertools.product((1, -1), repeat=n):
            push(signs)
        for picks in itertools.product((0, 1), repeat=n):
            push(picks)
    else:
        push([1] * n)
    rng = random.Random(seed)
    for _ in range(trials):
        push(
            [
                Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                for _ in range(n)
            ]
        )
    return out


def equivalence_ratio_bounds(A, normA, B, normB, trials, seed):
    """Certified lower bound on the equivalence constant between two block
    sequences, with the witnessing coefficient vector."""
    if len(A) != len(B):
        raise ValueError("block sequences must have equal length")
    n = len(A)
    best = Fraction(0)
    witness = None
    for coeffs in _coefficient_family(n, trials, seed):
        va = _value(normA, A.combine(coeffs))
        vb = _value(normB, B.combine(coeffs))
        if vb.upper > 0:
            ratio = va.lower / vb.upper
            if ratio > best:
                best, witness = ratio, coeffs
        if va.upper > 0:
            ratio = vb.lower / va.upper
            if ratio > best:
                best, witness = ratio, coeffs
    return best, witness


def unconditionality_constant_lower(A, norm, trials=5, seed=0):
    """Lower bound for the unconditionality constant of a block sequence:
    max of |sum eps_i a_i A_i| / |sum a_i A_i| over sign patterns in
    {-1, 0, 1}^n and sampled coefficients.  Every norm here is
    1-unconditional, so anything above 1 flags a defect."""
    n = len(A)
    if n > UNCONDITIONAL_CAP:
        raise ValueError(
            "sign-pattern enumeration cap exceeded: %d > %d" % (n, UNCONDITIONAL_CAP)
        )
    rng = random.Random(seed)
    samples = [tuple([Fraction(1)] * n)]
    for _ in range(trials):
        samples.append(
            tuple(
                Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(n)
            )
        )
    best = Fraction(0)
    for coeffs in samples:
        base = _value(norm, A.combine(coeffs))
        if base.upper == 0:
            continue
        for signs in itertools.product((-1, 0, 1), repeat=n):
            flipped = [s * c for s, c in zip(signs, coeffs)]
            if not any(flipped):
                continue
            value = _value(norm, A.combine(flipped))
            ratio = value.lower / base.upper
            if ratio > best:
                best = ratio
    return best
