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
"""

from __future__ import annotations

import functools
import itertools
import math

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


# The numpy pair scan repays its setup from 378 pairs (m=28) in n=100 campaign
# rows; forced scan vs loop at q=0.3 crosses over at m=20-24 for n=64 and m=30-40
# for n=1000, so one pair count serves every n.  It governs single-instance
# solves only: campaign rows go through _batch_cover_sizes.
_VECTOR_PAIR_MIN = 378
# Peak bytes of a pair scan, pairs * _pair_bytes(words), above which the plain
# k=2 loop runs; in _batch_cover_sizes, the bytes of one candidate slice.
_PAIR_SCAN_MAX_BYTES = 160_000_000
# Bytes one _batch_cover_sizes call may use; sets the sub-batch size.
_BATCH_MAX_BYTES = 1_000_000


def _pair_bytes(words: int) -> int:
    """Peak bytes per candidate subset (a pair scan's pair, or a subset of one
    instance in ``_batch_cover_sizes``) over masks of ``words`` 64-bit words:
    the unions (8 per word), two int64 index arrays (16) and 16 of temporaries."""
    return 8 * words + 32


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

    One iteration scores all C(u, k) candidate subsets (u = number of unchosen
    sets), which keeps the whole run polynomial for fixed p; each step's
    ``candidates_evaluated`` is C(u, k) by construction.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"step size p must be a positive integer, got {p!r}")
    masks = instance.masks
    n = instance.n
    m = len(masks)
    uncovered = (1 << n) - 1
    unchosen = list(range(m))  # kept in ascending order
    pair_scan: _PairScan | None = None
    pair_bytes = _pair_bytes((n + 63) >> 6)
    if p == 2 and _VECTOR_PAIR_MIN <= m * (m - 1) // 2 <= _PAIR_SCAN_MAX_BYTES // pair_bytes:
        pair_scan = _PairScan(masks, n)
    chosen: list[int] = []
    covered = 0
    steps: list[SolveStep] = []
    while uncovered:
        u = len(unchosen)
        k = p if p < u else u
        w_count = uncovered.bit_count()
        candidates = math.comb(u, k)
        winner: tuple[int, ...] = ()
        gain = 0
        if k == 1:
            for i in unchosen:
                g = (masks[i] & uncovered).bit_count()
                if g > gain:
                    gain = g
                    winner = (i,)
        elif k == 2 and pair_scan is not None:
            winner, gain = pair_scan.best(uncovered)
        elif k == 2:
            for i, j in itertools.combinations(unchosen, 2):
                g = ((masks[i] | masks[j]) & uncovered).bit_count()
                if g > gain:
                    gain = g
                    winner = (i, j)
        else:
            for combo in itertools.combinations(unchosen, k):
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
    masks: tuple[int, ...], unchosen: list[int], uncovered: int, winner: tuple[int, ...]
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

    def __init__(self, masks: tuple[int, ...], n: int):
        m = len(masks)
        words = (n + 63) >> 6
        raw = b"".join(s.to_bytes(words * 8, "little") for s in masks)
        cols = np.frombuffer(raw, dtype=np.uint64).reshape(m, words)
        self._iu, self._ju = np.triu_indices(m, k=1)
        self._unions = []
        for w in range(words):
            union = cols[:, w][self._iu]
            union |= cols[:, w][self._ju]
            self._unions.append(union)
        self._nbytes = words * 8
        self._alive_flags = np.ones(m, dtype=bool)

    def mark_chosen(self, i: int) -> None:
        self._alive_flags[i] = False

    def best(self, uncovered: int) -> tuple[tuple[int, ...], int]:
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
        return (int(self._iu[b]), int(self._ju[b])), int(gains[b])


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
    finisher trim's rule); otherwise it adds its first best min(p, m)-subset.
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
    # (words, N, m) uncovered bits, in slices whose temporaries fit the cap (a
    # layout above it is built slice by slice); a later slice wins only if larger.
    words, rows, m = hit.shape
    if k == 1:
        gains = np.bitwise_count(hit).sum(axis=0, dtype=np.int32)
        best = gains.argmax(axis=1)
        return gains[np.arange(rows), best], best[None]
    count = math.comb(m, k)
    width = max(1, _PAIR_SCAN_MAX_BYTES // (rows * _pair_bytes(words)))
    held = 8 * k * count <= _PAIR_SCAN_MAX_BYTES
    combos = itertools.combinations(range(m), k)
    gain = winner = None
    for start in range(0, count, width):
        layout = (_layout(m, k)[:, start : start + width] if held else
                  np.fromiter(combos, np.dtype((np.intp, k)), min(width, count - start)).T)
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


@functools.lru_cache(maxsize=8)
def _layout(m: int, k: int) -> np.ndarray:
    # The k-subsets of range(m) in lexicographic order as k contiguous index
    # rows: each (k-1)-subset, ending at set l, followed by l+1, ..., m-1 in
    # turn.  Read-only, as it is shared; the cache holds a row's k up to 8.
    if k == 1:
        layout = np.arange(m)[None]
    else:
        prev = _layout(m, k - 1)
        counts = m - 1 - prev[-1]
        tail = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - m, counts)
        layout = np.vstack([np.repeat(prev, counts, axis=1), tail])
    layout.flags.writeable = False
    return layout


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
    n = instance.n
    full = (1 << n) - 1
    union_all = instance.union_of(range(instance.m)).bits
    if union_all != full:
        raise UncoverableError(ElementSet(full & ~union_all, n).elements())
    masks = instance.masks
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


def _is_dominated(masks: tuple[int, ...], i: int) -> bool:
    mi = masks[i]
    for j, mj in enumerate(masks):
        if j == i:
            continue
        if mi | mj == mj and (mi != mj or j < i):
            return True
    return False
