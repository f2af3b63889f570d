"""Greedy and exact solvers for unicost set cover.

``big_step_greedy`` adds the best k-tuple of sets per step (k = min(p, sets
remaining)); at p=1 that is the classical greedy rule, and
``classical_greedy`` is exactly ``big_step_greedy(instance, 1)``, so both
share one loop and return identical traces.  ``exact_min_cover`` is a
small-instance oracle that proves minimum cover size.  All three are pure
functions of their arguments and share one tie-breaking rule (lowest index /
lexicographically smallest index tuple), so repeated calls return identical
traces.  Campaigns use ``_batch_cover_sizes``, which runs big-step greedy at
any p over a batch of packed instances and returns only their cover sizes.

A ``big_step_greedy`` step is scored one of two ways: a pair step of a p=2
solve by ``_PairScan``, which skips the pairs that the subadditivity bound of
Minoux's accelerated greedy rules out, and any other step, k=1 and the
finisher search included, by ``_best_subsets``, the campaign kernel's scorer.
Neither masks the chosen sets, and both give the winners of plain
enumeration.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from .core import (
    CoverSolution,
    ElementSet,
    Instance,
    SolveStep,
    SolveTrace,
    UncoverableError,
    uncoverable_elements,
)


class OracleBudgetError(RuntimeError):
    """The exact oracle hit its node budget before proving optimality."""


# Peak bytes of _PairScan's held unions of all pairs, pairs * _pair_bytes(words),
# above which it scores every pair in slices instead; elsewhere, the bytes of
# one candidate slice.
_PAIR_SCAN_MAX_BYTES = 160_000_000
# Bytes one _batch_cover_sizes call may use; sets the sub-batch size.
_BATCH_MAX_BYTES = 1_000_000
# _PairScan's pruning rules: the pair-words, C(m, 2) * words, from which it
# tries the bound-pruned scan, and the share of a step's live pairs above which
# that step runs the union scan instead.  Forced pruning against the union scan
# alone, whole p=2 solves at n=64, 100 and 1000: at 8k pair-words pruning took
# 1.05-1.7x the time; at 16k 0.7-1.6x; at 32k 0.3-0.9x for q <= 0.2 and
# 0.65-1.5x at q=0.3; from 64k 0.3-0.8x and 0.6-1.1x.  A share of 1/8 or 1/16
# ran q=0.3 shapes above the gate at 0.9-1.9x, against 0.65-1.2x for 1/4, as
# a step that falls back pays for its pruning attempt too.
_PRUNE_MIN_PAIR_WORDS = 2**15
_PRUNE_MAX_SHARE = 0.25


def _pair_bytes(words: int) -> int:
    """Peak bytes per candidate subset (a pair scan's pair, or a subset of one
    instance in ``_batch_cover_sizes``) over masks of ``words`` 64-bit words:
    the unions (8 per word), two int64 index arrays (16) and 16 of temporaries."""
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
    step runs.  Steps and the finisher search score the subsets of all sets,
    chosen ones gaining 0, as ``_batch_cover_sizes`` does, and its docstring
    shows why the winners stay.  Each step's ``candidates_evaluated`` is
    C(u, k) by construction (u = unchosen sets), which keeps the run
    polynomial for fixed p.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"step size p must be a positive integer, got {p!r}")
    missing = uncoverable_elements(instance)
    if missing:
        raise UncoverableError(missing)
    masks = instance.masks
    n = instance.n
    words = (n + 63) >> 6
    rows = _rows(masks, words)
    uncovered = (1 << n) - 1
    unchosen = list(range(len(masks)))  # kept in ascending order
    pair_scan = _PairScan(masks, rows) if p == 2 else None
    chosen: list[int] = []
    covered = 0
    steps: list[SolveStep] = []
    while uncovered:
        u = len(unchosen)
        k = p if p < u else u
        w = _rows((uncovered,), words)
        hit = rows & w
        if k == 2 and pair_scan is not None:
            winner, gain = pair_scan.best(uncovered, w, hit, u)
        else:
            winner, gain = _best_subset(hit, k)
        left = uncovered.bit_count()
        if gain == left:
            # the first subset of least size that gains the whole remainder
            for r in range(1, k):
                finisher, g = _best_subset(hit, r)
                if g == left:
                    winner = finisher
                    break
        for i in winner:
            unchosen.remove(i)
            chosen.append(i)
            covered |= masks[i]
        uncovered &= ~covered
        steps.append(SolveStep(winner, gain, math.comb(u, k)))
    return CoverSolution(tuple(chosen), ElementSet(covered, n)), SolveTrace(tuple(steps))


def _rows(masks: tuple[int, ...], words: int) -> np.ndarray:
    """Int masks as a (words, m) uint64 array: word w of mask i is [w, i]."""
    raw = b"".join(s.to_bytes(words * 8, "little") for s in masks)
    return np.frombuffer(raw, dtype=np.uint64).reshape(len(masks), words).T.copy()


def _best_subset(hit: np.ndarray, k: int) -> tuple[tuple[int, ...], int]:
    """The first best k-subset of one instance's (words, m) uncovered bits,
    and its gain."""
    gain, subset = _best_subsets(hit[:, None], k)
    return tuple(subset[:, 0].tolist()), int(gain[0])


class _PairScan:
    """Max-gain scan over index pairs via word-packed masks.

    Chosen sets need no mask, as ``big_step_greedy`` checks up front that
    the instance can be covered: a chosen set gains 0, and the argument in
    ``_batch_cover_sizes``' docstring carries over.

    A step first tries the bound-pruned scan.  Coverage is subadditive, so a
    pair's gain is at most g_i + g_j, the gains of its two sets alone.  The
    exact gain L of the two sets with the highest g, taken in a stable
    descending order, is a lower bound on the step's best gain, so every best
    pair has g_i + g_j >= L: the scan computes exact gains for those
    candidates only, and the highest, ties to the lexicographically smallest
    (i, j), is the step's winner.  One ``searchsorted`` over the sorted g
    finds each set's candidates, and their gains are gathered in slices that
    fit ``_PAIR_SCAN_MAX_BYTES``.  At n=1000, m=400, q=0.05 a step scores
    ~30 of the ~75,000 unchosen pairs in the median.

    Scoring every pair is the fallback.  It runs when the pair-words,
    C(m, 2) * words, are below ``_PRUNE_MIN_PAIR_WORDS``, and on a step whose
    bound leaves more than ``_PRUNE_MAX_SHARE`` of the C(u, 2) unchosen
    pairs.  It scans the held unions of all pairs, laid out in lexicographic
    order so that the first maximum ``argmax`` finds is the tie-rule winner,
    built on the first step that needs them; where they would pass
    ``_PAIR_SCAN_MAX_BYTES``, ``_best_subsets`` scores the pairs in slices
    instead.  So a scan that prunes every step never builds the unions.
    """

    def __init__(self, masks: tuple[int, ...], rows: np.ndarray):
        words, m = rows.shape
        self._masks = masks
        self._rows = rows
        self._prune = m * (m - 1) // 2 * words >= _PRUNE_MIN_PAIR_WORDS
        self._held = m * (m - 1) // 2 * _pair_bytes(words) <= _PAIR_SCAN_MAX_BYTES
        self._iu = self._ju = self._unions = None

    def best(
        self, uncovered: int, w: np.ndarray, hit: np.ndarray, u: int
    ) -> tuple[tuple[int, ...], int]:
        """The step's winning pair and its gain, given the uncovered elements
        as an int and packed as (words, 1), their bits in each set (``hit``,
        (words, m)) and the u sets unchosen."""
        if self._prune:
            found = self._pruned_best(uncovered, hit, u)
            if found is not None:
                return found
        if self._held:
            return self._union_best(w[:, 0])
        return _best_subset(hit, 2)

    def _pruned_best(
        self, uncovered: int, hit: np.ndarray, u: int
    ) -> tuple[tuple[int, ...], int] | None:
        # None when the bound leaves more than _PRUNE_MAX_SHARE of the unchosen pairs.
        neg = np.bitwise_count(hit).sum(axis=0, dtype=np.int32)
        np.negative(neg, out=neg)
        order = np.argsort(neg, kind="stable")
        top, second = self._masks[order[0]], self._masks[order[1]]
        bound = ((top | second) & uncovered).bit_count()
        # Row a of the sets in that order pairs with the b > a where
        # g[a] + g[b] >= bound; as g falls, so does each row's count, so the
        # rows that have one lead.  Sets that gain 0, chosen ones among them,
        # pair with none once two sets gain: such a pair gains what its other
        # set does alone, which, the instance being coverable, some pair of
        # gaining sets beats unless that set finishes the cover, where the
        # finisher search settles the step.
        neg = neg[order][: max(2, np.count_nonzero(neg))]
        counts = np.searchsorted(neg, -bound - neg, side="right") - np.arange(1, neg.size + 1)
        counts = counts[: np.count_nonzero(counts > 0)]
        ends = np.cumsum(counts)
        if ends[-1] > _PRUNE_MAX_SHARE * (u * (u - 1) // 2):
            return None
        hit = np.take(hit, order[: neg.size], axis=1)
        # Slices of whole rows, each within the cap for its two gathers unless
        # one row alone is over it.
        width = max(1, _PAIR_SCAN_MAX_BYTES // (2 * _pair_bytes(hit.shape[0])))
        m = order.size
        gain, key = -1, 0
        start = 0
        while start < counts.size:
            done = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + width, side="right")))
            c = counts[start:stop]
            lead = np.arange(start, stop)
            a = np.repeat(lead, c)
            b = np.arange(a.size) + np.repeat(lead + 1 + done + c - ends[start:stop], c)
            union = np.take(hit, a, axis=1)
            union |= np.take(hit, b, axis=1)
            gains = np.bitwise_count(union).sum(axis=0, dtype=np.int32)
            best = int(gains.max())
            if best >= gain:
                tie = gains == best
                i, j = order[a[tie]], order[b[tie]]
                first = int((np.minimum(i, j) * m + np.maximum(i, j)).min())
                if best > gain or first < key:
                    gain, key = best, first
            start = stop
        return divmod(key, m), gain

    def _union_best(self, w: np.ndarray) -> tuple[tuple[int, ...], int]:
        if self._unions is None:
            self._iu, self._ju = np.triu_indices(self._rows.shape[1], k=1)
            self._unions = []
            for row in self._rows:
                union = row[self._iu]
                union |= row[self._ju]
                self._unions.append(union)
        counts = np.bitwise_count(self._unions[0] & w[0])
        if len(self._unions) == 2:
            counts = counts + np.bitwise_count(self._unions[1] & w[1])
        elif len(self._unions) > 2:
            counts = counts.astype(np.int32)
            for wi in range(1, len(self._unions)):
                counts += np.bitwise_count(self._unions[wi] & w[wi])
        b = int(np.argmax(counts))
        return (int(self._iu[b]), int(self._ju[b])), int(counts[b])


def _batch_size(n: int, m: int, p: int) -> int:
    """Instances per ``_batch_cover_sizes`` call at shape (n, m) and step size p.

    Each subset of sizes 1..p of an instance is charged ``_pair_bytes``, and a
    call gets as many instances as ``_BATCH_MAX_BYTES`` pays for, at least one.
    """
    candidates = sum(math.comb(m, k) for k in range(1, p + 1))
    return max(1, _BATCH_MAX_BYTES // (candidates * _pair_bytes((n + 63) >> 6)))


def _pack(draws: np.ndarray, n: int) -> np.ndarray:
    """An (N, m, n) bool array of membership draws (``draws[b, i, j]``: element
    j is in set i of instance b) as the (words, N, m) uint64 layout of
    ``_batch_cover_sizes``, through one ``np.packbits`` call."""
    batch, m, _ = draws.shape
    packed = np.zeros((batch, m, ((n + 63) >> 6) * 8), dtype=np.uint8)
    packed[:, :, : (n + 7) >> 3] = np.packbits(draws, axis=2, bitorder="little")
    return np.ascontiguousarray(packed.view("<u8").transpose(2, 0, 1))


def _batch_cover_sizes(sets: np.ndarray, n: int, p: int) -> np.ndarray:
    """Cover sizes of ``big_step_greedy(instance, p)`` for a batch of instances.

    ``sets`` is a (words, N, m) uint64 array: word w of set i of instance b is
    ``sets[w, b, i]``, its bit e being element 64*w + e.  The instances run in
    lockstep, and a finished instance leaves the batch.  Each step scores the
    k-subsets of all m sets, k = 1..min(p, m), in lexicographic order, on the
    uncovered elements.  An instance finishes at the first k < min(p, m) where
    a k-subset gains its whole remainder, adding the first such subset (the
    finisher search's rule); otherwise it adds its first best min(p, m)-subset.
    ``argmax`` keeps the scalar solvers' tie rule.

    Chosen sets need no mask: they cover nothing uncovered, so a candidate
    holding some gains what its unchosen part U gains.  If it ties the best
    candidate of its size, no unchosen set reaches an uncovered element
    outside U: then U covers the remainder, and a smaller finisher is found
    first, or no cover exists.  A first finisher of least size holds no
    chosen set either, or dropping one would leave a smaller finisher, and
    with fewer than p sets unchosen a coverable instance finishes below size
    p.  Raises ``UncoverableError`` for an instance its sets cannot cover.
    """
    words, batch, m = sets.shape
    top = min(p, m)
    uncovered = np.full((words, batch), np.uint64(2**64 - 1))
    if n % 64:
        uncovered[-1] = np.uint64((1 << (n % 64)) - 1)
    sizes = np.zeros(batch, dtype=np.int64)
    rows = np.arange(batch)  # batch position of each running instance
    while rows.size:
        hit = sets & uncovered[:, :, None]
        for k in range(1, top):
            gain, _ = _best_subsets(hit, k)
            finish = gain == np.bitwise_count(uncovered).sum(axis=0, dtype=np.int32)
            if finish.any():
                sizes[rows[finish]] += k
                running = ~finish
                rows, sets, hit, uncovered = (
                    rows[running], sets[:, running], hit[:, running], uncovered[:, running]
                )
                if not rows.size:
                    return sizes
        gain, winner = _best_subsets(hit, top)
        if gain.min() == 0:
            raise _uncoverable(sets[:, int(gain.argmin())], n)
        sizes[rows] += top
        r = np.arange(rows.size)
        for i in winner:
            uncovered &= ~sets[:, r, i]
        running = uncovered.any(axis=0)
        if not running.all():
            rows, sets, uncovered = rows[running], sets[:, running], uncovered[:, running]
    return sizes


def _best_subsets(hit: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # Gain and (k, N) indices of each instance's first best k-subset of its
    # (words, N, m) uncovered bits, in slices whose temporaries fit the cap;
    # a later slice wins only if larger.
    words, rows, m = hit.shape
    if k == 1:
        gains = np.bitwise_count(hit).sum(axis=0, dtype=np.int32)
        best = gains.argmax(axis=1)
        return gains[np.arange(rows), best], best[None]
    gain = winner = None
    for layout in _layouts(m, k, max(1, _PAIR_SCAN_MAX_BYTES // (rows * _pair_bytes(words)))):
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
    # _layout(m, k) in slices of at most max(width, m ** e) subsets.  Where it
    # would pass the cap, slices of the largest layout within it, of e fewer
    # sets per subset (single sets at least), are extended e times instead.
    held = k
    while held > 1 and 8 * held * math.comb(m, held) > _PAIR_SCAN_MAX_BYTES:
        held -= 1
    step = max(1, width // m ** (k - held))
    for start in range(0, math.comb(m, held), step):
        layout = _layout(m, held)[:, start : start + step]
        for _ in range(held, k):
            layout = _extend(layout, m)
        if layout.size:  # subsets that all end at m - 1 have no extension
            yield layout


@functools.lru_cache(maxsize=8)
def _layout(m: int, k: int) -> np.ndarray:
    # The k-subsets of range(m) in lexicographic order as k contiguous index
    # rows.  Read-only, as it is shared; the cache holds a row's k up to 8.
    layout = np.arange(m)[None] if k == 1 else _extend(_layout(m, k - 1), m)
    layout.flags.writeable = False
    return layout


def _extend(prev: np.ndarray, m: int) -> np.ndarray:
    # Each subset of a lexicographic run, ending at set l, followed by
    # l+1, ..., m-1 in turn: the run's extensions, in lexicographic order.
    counts = m - 1 - prev[-1]
    tail = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - m, counts)
    return np.vstack([np.repeat(prev, counts, axis=1), tail])


def _uncoverable(sets: np.ndarray, n: int) -> UncoverableError:
    # The elements that none of an instance's (words, m) sets contains.
    reach = int.from_bytes(np.bitwise_or.reduce(sets, axis=1).astype("<u8").tobytes(), "little")
    return UncoverableError(ElementSet(((1 << n) - 1) & ~reach, n).elements())


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
    missing = uncoverable_elements(instance)
    if missing:
        raise UncoverableError(missing)
    n = instance.n
    full = (1 << n) - 1
    masks = instance.masks
    active = list(range(len(masks)))
    if prune_dominated:
        active = [i for i in active if not _is_dominated(masks, i)]
    covers_by_element = [[i for i in active if (masks[i] >> e) & 1] for e in range(n)]
    # elements by the number of sets covering them; a stable sort keeps ties
    # in index order, so the first uncovered one is the node's branch element
    by_width = sorted(range(n), key=lambda e: len(covers_by_element[e]))
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
        # over all sets: a dominated set never out-gains one that dominates it
        gains = [(s & uncovered).bit_count() for s in masks]
        if -(-uncovered.bit_count() // max(gains)) > depth:
            return None
        branch_e = next(e for e in by_width if uncovered >> e & 1)
        # by gain, highest first; a stable sort keeps ties in index order
        order = sorted(covers_by_element[branch_e], key=gains.__getitem__, reverse=True)
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


def _is_dominated(masks: tuple[int, ...], i: int) -> bool:
    mi = masks[i]
    for j, mj in enumerate(masks):
        if j == i:
            continue
        if mi | mj == mj and (mi != mj or j < i):
            return True
    return False
