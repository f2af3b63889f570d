"""Slow reference implementations and shared hypothesis strategies.

The references work on plain Python sets and stay independent of the
package's bitmask internals, so agreement between the two is a genuine
cross-check rather than a tautology.
"""

import itertools

import numpy as np
from hypothesis import strategies as st

from scpkit import Instance


def ref_greedy(n, family):
    uncovered = set(range(n))
    avail = list(range(len(family)))
    chosen = []
    while uncovered:
        best_gain, best = 0, None
        for i in avail:
            gain = len(family[i] & uncovered)
            if gain > best_gain:
                best_gain, best = gain, i
        if best is None:
            raise RuntimeError("infeasible")
        avail.remove(best)
        chosen.append(best)
        uncovered -= family[best]
    return chosen


def ref_bigstep(n, family, p):
    """The sets each big step adds, one tuple per step."""
    uncovered = set(range(n))
    avail = list(range(len(family)))  # stays ascending; removals keep order
    steps = []
    while uncovered:
        k = min(p, len(avail))
        best_gain, winner = 0, None
        for combo in itertools.combinations(avail, k):
            union = set().union(*(family[i] for i in combo))
            gain = len(union & uncovered)
            if gain > best_gain:
                best_gain, winner = gain, combo
        if winner is None:
            raise RuntimeError("infeasible")
        if best_gain == len(uncovered):
            for r in range(1, k + 1):
                finisher = next(
                    (
                        sub
                        for sub in itertools.combinations(avail, r)
                        if uncovered <= set().union(*(family[i] for i in sub))
                    ),
                    None,
                )
                if finisher is not None:
                    winner = finisher
                    break
        for i in winner:
            avail.remove(i)
            uncovered -= family[i]
        steps.append(winner)
    return steps


def brute_min_size(n, family):
    """Smallest covering subfamily size by exhaustive search, None if infeasible."""
    full = set(range(n))
    for r in range(1, len(family) + 1):
        for combo in itertools.combinations(range(len(family)), r):
            if full <= set().union(*(family[i] for i in combo)):
                return r
    return None


def ref_exact(n, family, prune_dominated=False):
    """A minimum cover by iterative deepening, and the search nodes entered.

    With ``prune_dominated``, a set inside another set, or equal to one of
    lower index, is dropped first.  A node branches on the first uncovered
    element in the order of elements by how many sets hold them (ties to the
    lower element), and tries those sets by gain, highest first (ties to the
    lower index); it is pruned when ceil(|uncovered| / best gain) exceeds the
    depth left.  Returns ``(chosen, nodes)``; nodes counts every node
    entered, pruned ones included.  The family must cover ``range(n)``.
    """
    active = [
        i for i, s in enumerate(family)
        if not prune_dominated
        or not any(j != i and s <= t and (s != t or j < i) for j, t in enumerate(family))
    ]
    holders = {e: [i for i in active if e in family[i]] for e in range(n)}
    by_count = sorted(range(n), key=lambda e: len(holders[e]))
    nodes = 0

    def search(uncovered, depth):
        nonlocal nodes
        nodes += 1
        if not uncovered:
            return []
        gains = {i: len(family[i] & uncovered) for i in active}
        if -(-len(uncovered) // max(gains.values())) > depth:
            return None
        e = next(e for e in by_count if e in uncovered)
        for i in sorted(holders[e], key=lambda i: (-gains[i], i)):
            rest = search(uncovered - family[i], depth - 1)
            if rest is not None:
                return [i] + rest
        return None

    depth = -(-n // max(len(s) for s in family))
    while (chosen := search(set(range(n)), depth)) is None:
        depth += 1
    return chosen, nodes


def pack_masks(instances):
    """Instances of one (n, m) shape in the batch kernel's (words, N, m) uint64
    layout, built from the int masks rather than from generator draws."""
    words = (instances[0].n + 63) // 64
    return np.array(
        [[[(mask >> 64 * w) & (2**64 - 1) for mask in inst.masks] for inst in instances]
         for w in range(words)],
        dtype=np.uint64,
    )


def ag_instance(k):
    """Steiner triple covering on AG(k, 3) (Fulkerson, Nemhauser and Trotter
    1974): the elements are the lines {a, b, c} of the affine space F_3^k,
    a + b + c = 0, in lexicographic order of their sorted point indices, and
    set i holds the lines through point i.  A cover meets every line, so it
    is the complement of a cap set; the optimum is 5, 18 and 61 for k = 2, 3
    and 4."""
    points = list(itertools.product(range(3), repeat=k))
    index = {point: i for i, point in enumerate(points)}
    lines = []
    for a, b in itertools.combinations(range(len(points)), 2):
        c = index[tuple(-(x + y) % 3 for x, y in zip(points[a], points[b]))]
        if b < c:
            lines.append((a, b, c))
    memberships = [[] for _ in points]
    for e, line in enumerate(lines):
        for point in line:
            memberships[point].append(e)
    return Instance.from_memberships(len(lines), memberships)


AG_OPTIMUM = {2: 5, 3: 18, 4: 61}


def to_instance(n, family):
    return Instance.from_memberships(n, (sorted(s) for s in family))


@st.composite
def families(draw, max_n=20, max_m=8, feasible=True):
    """A universe size and a set family; patched to feasible unless told not to."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    family = [
        set(draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)))
        for _ in range(m)
    ]
    if feasible:
        for e in set(range(n)) - set().union(*family):
            family[draw(st.integers(0, m - 1))].add(e)
    return n, family
