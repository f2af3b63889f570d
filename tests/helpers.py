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


def pack_masks(instances):
    """Instances of one (n, m) shape in the batch kernel's (words, N, m) uint64
    layout, built from the int masks rather than from generator draws."""
    words = (instances[0].n + 63) // 64
    return np.array(
        [[[(mask >> 64 * w) & (2**64 - 1) for mask in inst.masks] for inst in instances]
         for w in range(words)],
        dtype=np.uint64,
    )


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
