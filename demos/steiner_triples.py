"""
Steiner triple covering on AG(k, 3)
===================================

The elements are the lines {a, b, c} of the affine space F_3^k, that is the
point triples with a + b + c = 0; the sets are the 3^k points, each holding
the lines through it (Fulkerson, Nemhauser and Trotter 1974).  A cover is a
point set meeting every line, the complement of a cap set, so the minimum
cover is 3^k less the largest cap: 5, 18 and 61 for k = 2, 3 and 4.  Every
set holds as many lines, so each first step of either greedy rule is a full
tie.

Run as ``python demos/steiner_triples.py [FILE]``: it solves AG(k, 3) for
k = 2, 3, 4 at p = 1, 2, 3 and, given FILE, writes AG(4, 3) there in the
native format, for ``scpkit solve --input FILE``.
"""

import itertools
import sys

from scpkit import Instance, big_step_greedy, serialize_instance, validate_cover

OPTIMUM = {2: 5, 3: 18, 4: 61}


def ag_instance(k):
    """AG(k, 3): lines in lexicographic order of their sorted point indices,
    points in lexicographic order of their coordinates."""
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


if __name__ == "__main__":
    for k in (2, 3, 4):
        instance = ag_instance(k)
        sizes = []
        for p in (1, 2, 3):
            cover, _ = big_step_greedy(instance, p)
            assert validate_cover(instance, cover)
            sizes.append(cover.size)
        print(f"AG({k}, 3): {instance.n} lines, {instance.m} points, optimum {OPTIMUM[k]};"
              f" big-step greedy at p = 1, 2, 3: {sizes}")
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w", newline="\n") as out:
            out.write(serialize_instance(ag_instance(4)))
        print(f"AG(4, 3) written to {sys.argv[1]}")
