"""Greedy and exact solvers for unicost set cover.

``big_step_greedy`` adds the best k-tuple of sets per step (k = min(p, sets
remaining)); at p=1 that is the classical greedy rule, and
``classical_greedy`` is exactly ``big_step_greedy(instance, 1)``, so both
share one loop and return identical traces.  ``exact_min_cover`` is a
small-instance oracle that proves minimum cover size.  All three are pure
functions of their arguments and share one tie-breaking rule (lowest index /
lexicographically smallest index tuple), so repeated calls return identical
traces.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (
    CoverSolution,
    ElementSet,
    Instance,
    SolveStep,
    SolveTrace,
    UncoverableError,
)


class OracleBudgetError(RuntimeError):
    """The exact oracle hit its node budget before proving optimality."""


# Switch pair steps to the word-packed vectorized scan once the pair count
# makes the direct Python loop the slower option.  Both scans enumerate the
# same candidates in the same lexicographic order.
_VECTOR_PAIR_MIN = 120
_VECTOR_PAIR_MAX = 5_000_000


def classical_greedy(instance: Instance) -> tuple[CoverSolution, SolveTrace]:
    """Cover by repeatedly adding the set with the most uncovered elements.

    Ties go to the lowest set index.  Raises ``UncoverableError`` when the
    best marginal gain hits zero while elements remain uncovered.
    """
    return big_step_greedy(instance, 1)


def big_step_greedy(instance: Instance, p: int) -> tuple[CoverSolution, SolveTrace]:
    """Cover by adding, each step, the best k-subset of unchosen sets.

    Each step enumerates all k-subsets of the unchosen set indices, where
    k = min(p, number of unchosen sets), and selects the subset whose union
    covers the most uncovered elements; ties go to the lexicographically
    smallest sorted index tuple.  The step that can finish the cover (best
    gain equals the uncovered count) instead adds a minimum-cardinality
    finisher: subsets of the unchosen sets tried by increasing size 1..k,
    lexicographically within a size, first one covering the remainder wins.
    So the final step adds no redundant sets.  Indices are appended in
    ascending order within a step.

    One iteration evaluates exactly C(u, k) candidate subsets (u = number of
    unchosen sets); each ``SolveStep`` records that count, which keeps the
    whole run polynomial for fixed p.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"step size p must be a positive integer, got {p!r}")
    masks = [s.bits for s in instance.sets]
    n = instance.n
    m = len(masks)
    uncovered = (1 << n) - 1
    unchosen = list(range(m))  # kept in ascending order
    pair_scan: _PairScan | None = None
    if p == 2 and _VECTOR_PAIR_MIN <= m * (m - 1) // 2 <= _VECTOR_PAIR_MAX:
        pair_scan = _PairScan(masks, n, unchosen)
    chosen: list[int] = []
    covered = 0
    steps: list[SolveStep] = []
    while uncovered:
        u = len(unchosen)
        k = p if p < u else u
        w_count = uncovered.bit_count()
        winner: tuple[int, ...] = ()
        gain = 0
        if k == 1:
            candidates = u
            for i in unchosen:
                g = (masks[i] & uncovered).bit_count()
                if g > gain:
                    gain = g
                    winner = (i,)
        elif k == 2 and pair_scan is not None:
            winner, gain, candidates = pair_scan.best(uncovered)
        elif k == 2:
            candidates = 0
            for i, j in itertools.combinations(unchosen, 2):
                candidates += 1
                g = ((masks[i] | masks[j]) & uncovered).bit_count()
                if g > gain:
                    gain = g
                    winner = (i, j)
        else:
            candidates = 0
            for combo in itertools.combinations(unchosen, k):
                candidates += 1
                union = 0
                for i in combo:
                    union |= masks[i]
                g = (union & uncovered).bit_count()
                if g > gain:
                    gain = g
                    winner = combo
        if gain == 0:
            raise UncoverableError(ElementSet(uncovered, n).elements())
        if gain == w_count and len(winner) > 1:
            winner = _trim_to_finisher(masks, unchosen, uncovered, winner)
        for i in winner:
            unchosen.remove(i)
            chosen.append(i)
            covered |= masks[i]
            if pair_scan is not None:
                pair_scan.mark_chosen(i)
        uncovered &= ~covered
        steps.append(SolveStep(winner, gain, candidates))
    return CoverSolution(tuple(chosen), ElementSet(covered, n)), SolveTrace(tuple(steps))


def _trim_to_finisher(
    masks: list[int], unchosen: list[int], uncovered: int, winner: tuple[int, ...]
) -> tuple[int, ...]:
    # Smallest subset of the unchosen sets that covers the whole remainder,
    # searched by size below k.  Size-k covering subsets have maximal gain,
    # so the lex-first one is the already-selected winner: it is the
    # fallback, and the search cannot fail.
    k = len(winner)
    for r in range(1, k):
        for sub in itertools.combinations(unchosen, r):
            union = 0
            for i in sub:
                union |= masks[i]
            if union & uncovered == uncovered:
                return sub
    return winner


class _PairScan:
    """Max-gain scan over index pairs via word-packed masks.

    Pairs are laid out in lexicographic order, so the first maximum found by
    ``argmax`` is the tie-rule winner.  Pairs touching a chosen set score 0
    and can never beat a live pair with positive gain.
    """

    def __init__(self, masks: list[int], n: int, unchosen: list[int]):
        m = len(masks)
        words = (n + 63) >> 6
        raw = b"".join(s.to_bytes(words * 8, "little") for s in masks)
        cols = np.frombuffer(raw, dtype=np.uint64).reshape(m, words)
        self._iu, self._ju = np.triu_indices(m, k=1)
        self._unions = [
            np.ascontiguousarray(cols[:, w][self._iu] | cols[:, w][self._ju])
            for w in range(words)
        ]
        self._nbytes = words * 8
        self._alive_flags = np.zeros(m, dtype=bool)
        self._alive_flags[unchosen] = True

    def mark_chosen(self, i: int) -> None:
        self._alive_flags[i] = False

    def best(self, uncovered: int) -> tuple[tuple[int, ...], int, int]:
        alive = self._alive_flags[self._iu] & self._alive_flags[self._ju]
        w = np.frombuffer(uncovered.to_bytes(self._nbytes, "little"), dtype=np.uint64)
        counts = np.bitwise_count(self._unions[0] & w[0])
        if len(self._unions) == 2:
            counts = counts + np.bitwise_count(self._unions[1] & w[1])
        elif len(self._unions) > 2:
            counts = counts.astype(np.int32)
            for wi in range(1, len(self._unions)):
                counts += np.bitwise_count(self._unions[wi] & w[wi])
        gains = np.where(alive, counts, 0)
        b = int(np.argmax(gains))
        gain = int(gains[b])
        candidates = int(np.count_nonzero(alive))
        if gain == 0:
            return (), 0, candidates
        return (int(self._iu[b]), int(self._ju[b])), gain, candidates


def exact_min_cover(
    instance: Instance,
    budget_limit: int | None = None,
    *,
    prune_dominated: bool = False,
) -> CoverSolution:
    """Provably minimum-cardinality cover for small instances.

    Iterative deepening over cover size: a depth-limited search branches on
    the sets containing a least-covered uncovered element and prunes with the
    admissible bound ceil(|uncovered| / best single-set gain).  Any minimum
    cover may be returned, but the returned size is the unique optimum.

    ``budget_limit`` caps total search nodes; exceeding it raises
    ``OracleBudgetError`` rather than returning a possibly non-optimal
    answer.  ``prune_dominated`` drops sets contained in another set before
    searching (optimal size is unaffected; off by default so the default
    search examines the family exactly as given).  Intended for m up to ~25.
    """
    if budget_limit is not None and budget_limit < 1:
        raise ValueError(f"budget_limit must be a positive integer, got {budget_limit!r}")
    n = instance.n
    full = (1 << n) - 1
    union_all = instance.union_of(range(instance.m)).bits
    if union_all != full:
        raise UncoverableError(ElementSet(full & ~union_all, n).elements())
    masks = [s.bits for s in instance.sets]
    active = list(range(len(masks)))
    if prune_dominated:
        active = [i for i in active if not _is_dominated(masks, i)]
    covers_by_element = [[i for i in active if (masks[i] >> e) & 1] for e in range(n)]
    nodes = 0

    def search(uncovered: int, depth: int) -> list[int] | None:
        nonlocal nodes
        nodes += 1
        if budget_limit is not None and nodes > budget_limit:
            raise OracleBudgetError(
                f"oracle budget exceeded: more than {budget_limit} search nodes"
            )
        if not uncovered:
            return []
        best_gain = 0
        for i in active:
            g = (masks[i] & uncovered).bit_count()
            if g > best_gain:
                best_gain = g
        if best_gain == 0:
            return None
        if -(-uncovered.bit_count() // best_gain) > depth:
            return None
        branch_e = -1
        branch_width = -1
        bits = uncovered
        while bits:
            low = bits & -bits
            e = low.bit_length() - 1
            width = len(covers_by_element[e])
            if branch_width < 0 or width < branch_width:
                branch_width = width
                branch_e = e
            bits ^= low
        order = sorted(
            covers_by_element[branch_e],
            key=lambda i: (-(masks[i] & uncovered).bit_count(), i),
        )
        for i in order:
            result = search(uncovered & ~masks[i], depth - 1)
            if result is not None:
                return [i] + result
        return None

    largest = max(s.bit_count() for s in masks)
    limit = min(len(active), n)
    for depth in range(-(-n // largest), limit + 1):
        result = search(full, depth)
        if result is not None:
            return CoverSolution(tuple(result), instance.union_of(result))
    raise AssertionError("feasible instance must have a cover of size <= min(m, n)")


def _is_dominated(masks: list[int], i: int) -> bool:
    mi = masks[i]
    for j, mj in enumerate(masks):
        if j == i:
            continue
        if mi | mj == mj and (mi != mj or j < i):
            return True
    return False
