"""Greedy and exact solvers for unicost set cover.

``big_step_greedy`` adds the best k-tuple of sets per step (k = min(p, sets
remaining)); at p=1 that is the classical greedy rule, and
``classical_greedy`` is exactly ``big_step_greedy(instance, 1)``, so both
share one loop and return identical traces.  ``exact_min_cover`` is a
small-instance oracle that proves minimum cover size by iterative
deepening; a node settles the children that its own gains show would be
pruned on entry, counting them as nodes without entering them.  All three
are pure functions of their arguments and share one tie-breaking rule
(lowest index / lexicographically smallest index tuple), so repeated calls
return identical traces.  Campaigns use ``_batch_cover_sizes``, which runs
big-step greedy at any p over a batch of packed instances and returns only
their cover sizes.

Both big-step paths run one step loop, ``_big_steps``, over the packed
uint64 layout of ``core``: ``big_step_greedy`` over a batch of one, the cached
(words, m) array ``Instance._packed``, keeping the trace, and
``_batch_cover_sizes`` over a sub-batch of generator draws, keeping the
sizes.  The loop checks coverability with ``core._reach`` and names what is
missing with ``core._missing``.  A step computes the gain g of every set
alone once and tries the finisher sizes first, each only where the
subadditivity bound of Minoux's accelerated greedy (the r highest g sum to
at least the uncovered count) lets an r-subset finish; only then is the
full step scored.  A size-1 search takes the first maximum of g; a pair
step of a wide p=2 solve is scored by ``_pruned_pair``, which skips the
pairs that the same bound rules out; every other size by ``_best_subsets``.
None masks the chosen sets, and all give the winners of plain enumeration.
``_best_subsets`` lists the k-subsets in lexicographic slices, each unranked
from its ranks by the combinatorial number system (Buckles and Lybanon,
Algorithm 515; Knuth, TAOCP 4A 7.2.1.3), and cached whole where that fits
the byte cap.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from .core import (
    CoverSolution,
    Instance,
    SolveStep,
    SolveTrace,
    UncoverableError,
    _missing,
    _reach,
    check_int,
    uncoverable_elements,
)


class OracleBudgetError(RuntimeError):
    """The exact oracle hit its node budget before proving optimality."""


# Bytes of one candidate slice of _pruned_pair or _best_subsets.
_PAIR_SCAN_MAX_BYTES = 160_000_000
# Bytes one _batch_cover_sizes call may use; sets the sub-batch size.
_BATCH_MAX_BYTES = 1_000_000
# The pair-words, C(m, 2) * words, from which every pair step of a p=2 solve
# is scored by _pruned_pair rather than _best_subsets.  Whole p=2 solves,
# pruned against every pair scored, at n=64 and 100 (q=0.05 and 0.3) and
# n=1000 (q=0.3): at ~4k pair-words 0.49-1.51x the time, at ~8k 0.50-0.95x,
# at ~16k 0.47-0.84x and at ~32k 0.37-0.57x; the gate keeps a margin over the
# dense shapes at ~8k.
_PRUNE_MIN_PAIR_WORDS = 2**14


def _pair_bytes(words: int) -> int:
    """Peak bytes per candidate subset (a pair that ``_pruned_pair`` scores,
    or a subset of one instance in ``_best_subsets``) over masks of ``words``
    64-bit words: the unions (8 per word), two int64 index arrays (16) and 16
    of temporaries."""
    return 8 * words + 32


def classical_greedy(instance: Instance) -> tuple[CoverSolution, SolveTrace]:
    """Cover by repeatedly adding the set with the most uncovered elements.

    Ties go to the lowest set index.  Raises ``UncoverableError``, naming
    the elements in no set, before any step runs.
    """
    return big_step_greedy(instance, 1)


def big_step_greedy(instance: Instance, p: int) -> tuple[CoverSolution, SolveTrace]:
    """Cover by adding, each step, the best k-subset of unchosen sets.

    Each step selects, among all k-subsets of the unchosen set indices, where
    k = min(p, number of unchosen sets), the subset whose union covers the
    most uncovered elements; ties go to the lexicographically smallest sorted
    index tuple.  The step that can finish the cover (best gain equals the
    uncovered count) instead adds a minimum-cardinality finisher: subsets of
    the unchosen sets tried by increasing size 1..k, lexicographically within
    a size, first one covering the remainder wins.  So the final step adds no
    redundant sets.  Indices are appended in ascending order within a step.

    Raises ``UncoverableError``, naming the elements in no set, before any
    step runs.  The steps are those of ``_big_steps`` on a batch of one
    instance.  Each step's ``candidates_evaluated`` is C(u, k) by
    construction (u = unchosen sets), which keeps the run polynomial for
    fixed p.
    """
    check_int("step size p", p)
    m = instance.m
    chosen: list[int] = []
    steps: list[SolveStep] = []
    for _, winner, gain in _big_steps(instance._packed[:, None], instance.n, p):
        u = m - len(chosen)
        step = tuple(winner[:, 0].tolist())
        chosen.extend(step)
        steps.append(SolveStep(step, gain.item(), math.comb(u, p if p < u else u)))
    return CoverSolution(tuple(chosen), instance.union_of(chosen)), SolveTrace(tuple(steps))


def _big_steps(
    sets: np.ndarray, n: int, p: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run big-step greedy at step size p over a batch of instances in lockstep.

    ``sets`` is a (words, N, m) uint64 array: word w of set i of instance b is
    ``sets[w, b, i]``, its bit e being element 64*w + e.  Each time some
    instances add sets, yields their batch positions, the (size, count)
    indices of the sets each adds, ascending, and each one's gain.  A
    finished instance leaves the batch.  Raises ``UncoverableError`` for the
    first instance that its sets cannot cover, before any step runs.

    All running instances have chosen the same number of sets, so each step
    has one k = min(p, unchosen sets).  The step computes the gain g of every
    set alone once.  Coverage is subadditive (Minoux), so an r-subset gains
    at most the sum of its sets' g, and can finish an instance only if the r
    highest g sum to at least its uncovered count.  Finisher sizes
    r = 1..k-1 come first, each scored only for the instances that this
    bound admits; an instance that some r-subset finishes adds the first
    such subset and leaves.  The others then add their first best k-subset.
    A k-subset gains the whole remainder exactly when some subset of at most
    k sets does, so these are the winners of scoring the full step first
    and then searching for a smaller finisher when it finishes.  At r=1 and
    k=1 the first maximum of g wins.  A pair step of a batch of one, at p=2
    and ``_PRUNE_MIN_PAIR_WORDS`` or more pair-words, is scored by
    ``_pruned_pair``; every other size by ``_best_subsets``.

    The scorers take the subsets of all m sets, and chosen sets need no mask:
    they cover nothing uncovered, so a candidate holding some gains what its
    unchosen part U gains.  If it ties the best candidate of its size, no
    unchosen set reaches an uncovered element outside U: then U covers the
    remainder, and a smaller finisher was found first.  A first finisher of
    least size holds no chosen set either, or dropping one would leave a
    smaller finisher.
    """
    words, batch, m = sets.shape
    # the elements some set reaches: all n of them, with no padding bits, in
    # an instance that can be covered
    uncovered, left = _reach(sets)
    if (left < n).any():
        raise UncoverableError(_missing(sets[:, int((left < n).argmax())], n))
    prune = batch == 1 and p == 2 and math.comb(m, 2) * words >= _PRUNE_MIN_PAIR_WORDS
    at = np.arange(batch)  # batch position of each running instance
    rows = np.arange(batch)
    u = m
    while True:
        k = p if p < u else u
        hit = sets & uncovered[:, :, None]
        g = np.bitwise_count(hit).sum(axis=0, dtype=np.int32)
        # k - 1 times the highest g bounds every finisher's gain
        if k > 1 and np.count_nonzero((k - 1) * g.max(axis=1) >= left):
            # column r - 1: the sum of each instance's r highest g
            bound = np.sort(g, axis=1)[:, : -k : -1].cumsum(axis=1)
            for r in range(1, k):
                sub = (bound[:, r - 1] >= left).nonzero()[0]
                if not sub.size:
                    continue
                gain, winner = _best(hit[:, sub], g[sub], r, prune, rows[: sub.size])
                done = gain == left[sub]
                if done.any():
                    yield at[sub[done]], winner[:, done], gain[done]
                    keep = np.ones(at.size, dtype=bool)
                    keep[sub[done]] = False
                    at, sets, hit = at[keep], sets[:, keep], hit[:, keep]
                    uncovered, left, g, bound = uncovered[:, keep], left[keep], g[keep], bound[keep]
                    rows = rows[: at.size]
                    if not at.size:
                        return
        gain, winner = _best(hit, g, k, prune, rows)
        yield at, winner, gain
        left -= gain
        if np.count_nonzero(left) < at.size:
            running = left > 0
            if not running.any():
                return
            at, sets, uncovered = at[running], sets[:, running], uncovered[:, running]
            left, winner, rows = left[running], winner[:, running], rows[: at.size]
        uncovered &= ~np.bitwise_or.reduce(sets[:, rows, winner], axis=1)
        u -= k


def _best(
    hit: np.ndarray, g: np.ndarray, r: int, prune: bool, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Gain and (r, N) indices of each instance's first best r-subset of its
    # (words, N, m) uncovered bits, g being each set's (N, m) gain alone and
    # rows arange(N); prune scores pairs of a batch of one with _pruned_pair.
    if r == 1:
        best = g.argmax(axis=1)
        return g[rows, best], best[None]
    if r == 2 and prune:
        pair, gain = _pruned_pair(hit[:, 0], g[0])
        return np.array([gain], dtype=np.int32), np.array(pair)[:, None]
    return _best_subsets(hit, r)


def _pruned_pair(hit: np.ndarray, g: np.ndarray) -> tuple[tuple[int, int], int]:
    """The first best pair of one instance's (words, m) uncovered bits, and
    its gain, scoring only the pairs that can still win; ``g`` is the int32
    gain of each set alone, the popcount of its column of ``hit``.

    Coverage is subadditive, so a pair's gain is at most g_i + g_j, the gains
    of its two sets alone (the bound of Minoux's accelerated greedy).  The
    exact gain L of the two sets with the highest g, the first maximum and
    the first maximum of the rest, is a lower bound on the step's best gain,
    so every best pair has g_i + g_j >= L, and both its sets have
    g >= L - max(g): the scan sorts those sets alone by descending g (stably),
    computes exact gains for their pairs with g_i + g_j >= L only, and the
    highest, ties to the lexicographically smallest (i, j), is the step's
    winner.  One ``searchsorted`` over the sorted g finds each set's
    candidates, and their gains are gathered in slices that fit
    ``_PAIR_SCAN_MAX_BYTES``.  At n=1000, m=400, q=0.05 a step sorts 17 of
    the 400 sets and scores 44 of the ~75,000 unchosen pairs in the median.
    Chosen sets need no mask, as ``_big_steps`` checks up front that the
    instance can be covered: a chosen set gains 0, and the argument in its
    docstring carries over.
    """
    m = g.size
    top = int(g.argmax())
    rest = g.copy()
    rest[top] = -1
    second = int(rest.argmax())
    gain = int(np.bitwise_count(hit[:, top] | hit[:, second]).sum())
    key = min(top, second) * m + max(top, second)
    # That pair stands unless a scored pair beats it.  Sets that gain 0,
    # chosen ones among them, join no scored pair: such a pair gains what its
    # other set does alone, which, the instance being coverable, some pair of
    # gaining sets beats, as no set alone finishes the cover: the finisher
    # search has ruled that out before the pair step.
    order = (g >= max(1, gain - g[top])).nonzero()[0]
    neg = -g[order]
    sort = neg.argsort(kind="stable")
    order, neg = order[sort], neg[sort]
    # Row a of the sets in that order pairs with the b > a where
    # g[a] + g[b] >= L; as g falls, so does each row's count, so the rows
    # that have one lead.  Counting pairs row by row from 0, pair t of row a
    # is (a, t + shift[a]) in that order.
    after = np.arange(1, neg.size + 1)
    counts = neg.searchsorted(-gain - neg, side="right") - after
    lead = np.count_nonzero(counts > 0)
    counts = counts[:lead]
    ends = counts.cumsum()
    shift = after[:lead] + counts - ends
    # Slices of whole rows, each within the cap for its two gathers unless
    # one row alone is over it.
    width = max(1, _PAIR_SCAN_MAX_BYTES // (2 * _pair_bytes(hit.shape[0])))
    for start, stop in _runs(ends, width):
        done = int(ends[start - 1]) if start else 0
        c = counts[start:stop]
        i = order[start:stop].repeat(c)
        j = order.take(np.arange(done, done + i.size) + shift[start:stop].repeat(c))
        union = hit.take(i, axis=1)
        union |= hit.take(j, axis=1)
        gains = np.bitwise_count(union).sum(axis=0, dtype=np.int32)
        best = int(gains.max())
        if best >= gain:
            tie = gains == best
            i, j = i[tie], j[tie]
            first = int((np.minimum(i, j) * m + np.maximum(i, j)).min())
            if best > gain or first < key:
                gain, key = best, first
    return divmod(key, m), gain


def _runs(ends: np.ndarray, width: int) -> Iterator[tuple[int, int]]:
    # Runs [start, stop) of consecutive rows, ``ends`` being the running sum
    # of their counts, each run within width in all or one row alone.
    start = 0
    while start < ends.size:
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + width, side="right")))
        yield start, stop
        start = stop


def _batch_size(n: int, m: int, p: int) -> int:
    """Instances per ``_batch_cover_sizes`` call at shape (n, m) and step size p.

    Each subset of sizes 1..p of an instance is charged ``_pair_bytes``, and a
    call gets as many instances as ``_BATCH_MAX_BYTES`` pays for, at least one.
    """
    candidates = sum(math.comb(m, k) for k in range(1, p + 1))
    return max(1, _BATCH_MAX_BYTES // (candidates * _pair_bytes((n + 63) >> 6)))


def _batch_cover_sizes(sets: np.ndarray, n: int, p: int) -> np.ndarray:
    """Cover sizes of ``big_step_greedy(instance, p)`` for a batch of instances,
    from ``_big_steps`` over the (words, N, m) array ``sets``.  Raises
    ``UncoverableError`` for an instance its sets cannot cover."""
    sizes = np.zeros(sets.shape[1], dtype=np.int64)
    for at, winner, _ in _big_steps(sets, n, p):
        sizes[at] += len(winner)
    return sizes


def _best_subsets(hit: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # Gain and (k, N) indices of each instance's first best k-subset of its
    # (words, N, m) uncovered bits, in slices whose temporaries fit the cap;
    # a later slice wins only if larger.
    words, rows, m = hit.shape
    gain = winner = None
    # each subset also holds its k index rows, and two more while unranked
    width = max(1, _PAIR_SCAN_MAX_BYTES // (rows * _pair_bytes(words) + 8 * k + 16))
    for layout in _layouts(m, k, width):
        gains = np.zeros((rows, layout.shape[1]), dtype=np.int32)
        for w in range(words):
            union = hit[w][:, layout[0]]
            for i in range(1, k):
                union |= hit[w][:, layout[i]]
            gains += np.bitwise_count(union)
        best = gains.argmax(axis=1)
        g = gains[np.arange(rows), best]
        if gain is None:
            gain, winner = g, layout[:, best]
        else:
            better = g > gain
            gain, winner = np.where(better, g, gain), np.where(better, layout[:, best], winner)
    return gain, winner


def _layouts(m: int, k: int, width: int) -> Iterator[np.ndarray]:
    # The k-subsets of range(m) in lexicographic slices of width: slices of
    # the cached _layout(m, k) where it fits the cap, else each unranked alone.
    # Ranks are int64, so a step of more subsets than that cannot be listed.
    total = math.comb(m, k)
    if total > 2**63 - 1:
        raise ValueError(
            f"a step of k={k} of m={m} sets has C({m}, {k}) = {total} subsets,"
            " more than the 2**63 - 1 that can be enumerated"
        )
    cached = 8 * k * total <= _PAIR_SCAN_MAX_BYTES
    for start in range(0, total, width):
        stop = min(start + width, total)
        yield _layout(m, k)[:, start:stop] if cached else _unrank(m, k, start, stop)


@functools.lru_cache(maxsize=8)
def _layout(m: int, k: int) -> np.ndarray:
    # The k-subsets of range(m) in lexicographic order as k contiguous index
    # rows.  Read-only, as it is shared; the cache holds a row's k up to 8.
    layout = _unrank(m, k, 0, math.comb(m, k))
    layout.flags.writeable = False
    return layout


def _unrank(m: int, k: int, start: int, stop: int) -> np.ndarray:
    # The k-subsets of range(m) of lexicographic ranks [start, stop) as k index
    # rows, by the combinatorial number system: rank r's subset c_0 < ... <
    # c_{k-1} has C(m, k) - 1 - r = sum_i C(m - 1 - c_i, k - i), so each c_i
    # is m - 1 less the largest d with C(d, k - i) at most the remainder.
    # Table entries are clipped to int64; the remainder, below C(m, k), never
    # reaches a clipped one.  The last row holds the remainder until its turn,
    # so building peaks at 8k + 16 bytes per subset.
    last = math.comb(m, k) - 1
    rows = np.empty((k, stop - start), dtype=np.intp)
    rest = rows[-1]
    rest[:] = np.arange(last - start, last - stop, -1)
    for i in range(k - 1):
        table = np.array([min(math.comb(d, k - i), 2**63 - 1) for d in range(m)])
        d = np.searchsorted(table, rest, side="right")
        d -= 1
        rest -= table[d]
        np.subtract(m - 1, d, out=rows[i])
    # C(d, 1) = d, so the remainder is the last d
    np.subtract(m - 1, rest, out=rest)
    return rows


def exact_min_cover(
    instance: Instance,
    budget_limit: int | None = None,
    *,
    prune_dominated: bool = False,
) -> CoverSolution:
    """Provably minimum-cardinality cover for small instances.

    Iterative deepening over cover size (Korf): a depth-limited search
    branches on the sets containing a least-covered uncovered element and
    prunes with the admissible bound ceil(|uncovered| / best single-set
    gain).  Any minimum cover may be returned, but the returned size is the
    unique optimum.

    Gains only fall as the uncovered set shrinks, so a node's gains bound
    its children's, as the stale gains of Minoux's accelerated greedy do.  A
    node with ``left`` elements uncovered, best gain ``best`` and ``depth``
    sets to go visits its children by descending gain, and the first child
    gaining less than ``left - best * (depth - 1)`` would be pruned on
    entry, as would every later one: the node counts them all as search
    nodes, with no gains computed for them, and returns.  The branch tables
    (each element's sets, and the elements by set count) come from
    ``Instance._packed`` with one ``np.unpackbits``.

    ``budget_limit`` caps total search nodes, settled ones included;
    exceeding it raises ``OracleBudgetError`` rather than returning a
    possibly non-optimal answer.  ``prune_dominated`` drops sets contained in
    another set before searching (optimal size is unaffected; off by default
    so the default search examines the family exactly as given).  Intended
    for m up to ~25.
    """
    if budget_limit is not None:
        check_int("budget_limit", budget_limit)
    missing = uncoverable_elements(instance)
    if missing:
        raise UncoverableError(missing)
    n = instance.n
    full = (1 << n) - 1
    masks = instance.masks
    active = list(range(len(masks)))
    if prune_dominated:
        active = [i for i in active if not _is_dominated(masks, i)]
    # the active sets' bits, element by element: nonzero of the transpose
    # lists each element's sets in ascending index order
    bits = np.unpackbits(
        np.ascontiguousarray(instance._packed.T[active], dtype="<u8").view(np.uint8),
        axis=1, count=n, bitorder="little",
    )
    elements, columns = bits.T.nonzero()
    widths = np.bincount(elements, minlength=n)
    sets = np.array(active)[columns].tolist()
    ends = widths.cumsum().tolist()
    covers_by_element = [sets[end - w : end] for end, w in zip(ends, widths.tolist())]
    # elements by the number of sets covering them; a stable sort keeps ties
    # in index order, so the first uncovered one is the node's branch element
    by_width = widths.argsort(kind="stable").tolist()
    nodes = 0

    def count(k: int) -> None:
        nonlocal nodes
        nodes += k
        if budget_limit is not None and nodes > budget_limit:
            raise OracleBudgetError(
                f"oracle budget exceeded: more than {budget_limit} search nodes"
            )

    def search(uncovered: int, depth: int) -> list[int] | None:
        count(1)
        if not uncovered:
            return []
        # over all sets: a dominated set never out-gains one that dominates it
        gains = [(s & uncovered).bit_count() for s in masks]
        best = max(gains)
        left = uncovered.bit_count()
        if -(-left // best) > depth:
            return None
        # A child's gains are at most these, so a child that gains less than
        # need leaves more than its bound allows at depth - 1 and is pruned
        # on entry; a child that gains all of left is never below need.
        need = left - best * (depth - 1)
        branch_e = next(e for e in by_width if uncovered >> e & 1)
        # by gain, highest first; a stable sort keeps ties in index order
        order = sorted(covers_by_element[branch_e], key=gains.__getitem__, reverse=True)
        for at, i in enumerate(order):
            if gains[i] < need:
                # it and every later sibling gain less: count them unentered
                count(len(order) - at)
                return None
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


def _is_dominated(masks: tuple[int, ...], i: int) -> bool:
    mi = masks[i]
    for j, mj in enumerate(masks):
        if j == i:
            continue
        if mi | mj == mj and (mi != mj or j < i):
            return True
    return False
