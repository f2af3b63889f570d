import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scpkit.core
import scpkit.solvers
from scpkit import Instance, UncoverableError, big_step_greedy, classical_greedy, validate_cover

from helpers import families, pack_masks, ref_bigstep, ref_greedy, to_instance

# Settings that force every p=2 pair step onto one scorer: the bound-pruned
# scan, _pruned_pair, or every pair scored at once by _best_subsets
PRUNED = {"_PRUNE_MIN_PAIR_WORDS": 0}
UNPRUNED = {"_PRUNE_MIN_PAIR_WORDS": 2**63}


def _sliced(inst):
    """Settings under which every p=2 pair step of inst scores every pair
    through _best_subsets in two slices: no pruning, and a cap one byte below
    the bytes of all pairs at once."""
    whole = math.comb(inst.m, 2) * scpkit.solvers._pair_bytes((inst.n + 63) // 64)
    return {**UNPRUNED, "_PAIR_SCAN_MAX_BYTES": max(1, whole - 1)}


def _pair_paths(inst):
    return (PRUNED, UNPRUNED, _sliced(inst))


def _pair_path(path):
    # {} is the default routing
    return mock.patch.multiple(scpkit.solvers, **path) if path else contextlib.nullcontext()


def _full_scan(inst):
    """inst at p=2 with every pair scored by _best_subsets, at once and in
    slices, which must agree."""
    with _pair_path(UNPRUNED):
        whole = big_step_greedy(inst, 2)
    with _pair_path(_sliced(inst)):
        assert big_step_greedy(inst, 2) == whole
    return whole


def _first_hit(inst):
    """The uncovered bits of each set of inst at its first step, (words, m)."""
    return scpkit.core._rows(inst.masks, (inst.n + 63) // 64)


def _first_pair(inst):
    """_pruned_pair on inst's first step, with the gains of its sets alone."""
    hit = _first_hit(inst)
    return scpkit.solvers._pruned_pair(hit, np.bitwise_count(hit).sum(axis=0, dtype=np.int32))


def _groups(trace):
    return [step.chosen for step in trace.steps]


def _family(inst):
    return [set(s) for s in inst.sets]


def _kernel_sizes(instances, p):
    """Cover sizes from the batch kernel, all instances in one batch."""
    return scpkit.solvers._batch_cover_sizes(pack_masks(instances), instances[0].n, p).tolist()


def test_greedy_worked_example(example1):
    cover, trace = classical_greedy(example1)
    assert cover.size == 3
    assert cover.chosen == (0, 3, 2)
    assert validate_cover(example1, cover)
    assert [s.chosen for s in trace.steps] == [(0,), (3,), (2,)]
    assert [s.newly_covered for s in trace.steps] == [6, 3, 1]
    assert [s.candidates_evaluated for s in trace.steps] == [5, 4, 3]


def test_greedy_single_covering_set():
    inst = Instance.from_memberships(4, [[0, 1, 2, 3]])
    cover, trace = classical_greedy(inst)
    assert cover.chosen == (0,)
    assert len(trace.steps) == 1


def test_greedy_breaks_ties_by_lowest_index():
    # sets 1 and 3 both gain 2 in step 2; index 1 must win
    inst = Instance.from_memberships(6, [[0, 1, 2], [3, 4], [5], [3, 4]])
    cover, _ = classical_greedy(inst)
    assert cover.chosen == (0, 1, 2)


def test_bigstep_worked_example(example1):
    cover, trace = big_step_greedy(example1, 2)
    assert cover.size == 2
    assert cover.chosen == (1, 2)
    assert validate_cover(example1, cover)
    assert trace.steps[0].newly_covered == 10
    assert trace.steps[0].candidates_evaluated == 10  # C(5, 2)


def test_bigstep_p3_trims_winner_to_pair(example1):
    # the best 3-subset covers everything, but two sets suffice
    cover, trace = big_step_greedy(example1, 3)
    assert cover.chosen == (1, 2)
    assert trace.steps[0].candidates_evaluated == 10  # C(5, 3)


def test_bigstep_p3_finisher_holds_no_chosen_set():
    # After step 1, sets 3..6 are unchosen and elements 9 and 10 uncovered.
    # The lexicographically first triple of all sets that covers them is
    # (0, 3, 4), which holds the chosen set 0; the finisher is the pair (3, 4).
    memberships = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9], [10], [9], [0]]
    inst = Instance.from_memberships(11, memberships)
    _, trace = big_step_greedy(inst, 3)
    assert [(s.chosen, s.newly_covered, s.candidates_evaluated) for s in trace.steps] == [
        ((0, 1, 2), 9, 35),
        ((3, 4), 2, 4),
    ]
    assert _groups(trace) == ref_bigstep(11, [set(ms) for ms in memberships], 3)


def test_bigstep_beats_greedy_on_small_derived_case():
    inst = Instance.from_memberships(6, [[0, 1, 2, 3], [0, 2, 4], [1, 3, 5]])
    big, _ = big_step_greedy(inst, 2)
    greedy, _ = classical_greedy(inst)
    assert big.chosen == (1, 2)
    assert big.size == 2
    assert greedy.size == 3


def test_bigstep_finishing_step_prefers_single_finisher():
    # best pair by lex order is (0, 1), but set 2 covers the remainder alone
    inst = Instance.from_memberships(4, [[0, 1], [2, 3], [0, 1, 2, 3]])
    cover, trace = big_step_greedy(inst, 2)
    assert cover.chosen == (2,)
    assert trace.steps[0].chosen == (2,)
    assert trace.steps[0].candidates_evaluated == 3


def test_bigstep_final_step_uses_remaining_sets_when_fewer_than_p():
    inst = Instance.from_memberships(5, [[0, 1, 2, 3], [4]])
    cover, trace = big_step_greedy(inst, 3)  # p > m
    assert cover.chosen == (0, 1)
    assert trace.steps[0].candidates_evaluated == 1  # C(2, 2)


def test_bigstep_rejects_bad_step_size(example1):
    for bad in (0, -2, 1.5, "2", None, True):
        with pytest.raises((ValueError, TypeError)):
            big_step_greedy(example1, bad)


def test_infeasible_instance_raises_with_elements():
    inst = Instance.from_memberships(5, [[0, 1], [1, 2]])
    with pytest.raises(UncoverableError) as err:
        classical_greedy(inst)
    assert set(err.value.elements) == {3, 4}
    for path in _pair_paths(inst):
        with _pair_path(path), pytest.raises(UncoverableError) as err:
            big_step_greedy(inst, 2)
        assert set(err.value.elements) == {3, 4}
    # wide: three elements in no set
    from scpkit import GeneratorConfig, generate_instance

    gone = 1 << 5 | 1 << 500 | 1 << 999
    base = generate_instance(GeneratorConfig(n=1000, m=120, q=0.1, seed=4), 0)
    wide = Instance(1000, tuple(mask & ~gone for mask in base.masks))
    for path in _pair_paths(wide):
        with _pair_path(path), pytest.raises(UncoverableError) as err:
            big_step_greedy(wide, 2)
        assert err.value.elements == (5, 500, 999)
    with pytest.raises(UncoverableError) as err:
        big_step_greedy(wide, 2)
    assert err.value.elements == (5, 500, 999)
    for p in (1, 2, 3):
        with pytest.raises(UncoverableError) as err:
            _kernel_sizes([inst], p)
        assert err.value.elements == (3, 4)


@pytest.mark.parametrize("p", [1, 2, 3, 12])
def test_uncoverable_family_raises_before_any_step_is_scored(p):
    # Without the check up front, p=12 would score C(30, 12) subsets first.
    from scpkit import GeneratorConfig, exact_min_cover, generate_instance

    gone = 1 << 3 | 1 << 70 | 1 << 99
    base = generate_instance(GeneratorConfig(n=100, m=30, q=0.3, seed=4), 0)
    inst = Instance(100, tuple(mask & ~gone for mask in base.masks))
    scored = AssertionError("a step was scored")
    with mock.patch.multiple(
        scpkit.solvers,
        _best_subsets=mock.Mock(side_effect=scored),
        _pruned_pair=mock.Mock(side_effect=scored),
    ):
        for solve in (lambda i: big_step_greedy(i, p), exact_min_cover):
            with pytest.raises(UncoverableError) as err:
                solve(inst)
            assert err.value.elements == (3, 70, 99)


def test_all_empty_sets_is_infeasible():
    inst = Instance.from_memberships(2, [[], []])
    with pytest.raises(UncoverableError):
        classical_greedy(inst)
    with pytest.raises(UncoverableError):
        big_step_greedy(inst, 2)


@given(families())
@settings(max_examples=200)
def test_greedy_matches_reference(nf):
    n, family = nf
    inst = to_instance(n, family)
    cover, _ = classical_greedy(inst)
    assert list(cover.chosen) == ref_greedy(n, family)
    assert validate_cover(inst, cover)


@given(families(max_n=130), st.integers(1, 9))
@settings(max_examples=200)
def test_bigstep_matches_reference(nf, p):
    # every pair scorer, forced, and the default routing, step by step; the
    # batch kernel gives the cover size alone, also with a cap so low that it
    # scans a few subsets per slice from layouts built slice by slice
    n, family = nf
    inst = to_instance(n, family)
    expected = ref_bigstep(n, family, p)
    for path in (*_pair_paths(inst), {}):
        with _pair_path(path):
            cover, trace = big_step_greedy(inst, p)
        assert _groups(trace) == expected
        assert validate_cover(inst, cover)
    size = sum(map(len, expected))
    assert _kernel_sizes([inst], p) == [size]
    with mock.patch.object(scpkit.solvers, "_PAIR_SCAN_MAX_BYTES", 200):
        assert _kernel_sizes([inst], p) == [size]


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_packed_step_loop_counts_no_padding_bits(n):
    """Keep-raw draws at n on and around the 64-bit word boundaries, where the
    last word of the uncovered set has padding bits or none: at p = 1, 2 and
    3 under every pair routing, a coverable draw gives the set-based
    reference's trace, and an uncoverable one raises naming the elements in
    no set."""
    from scpkit import FeasibilityPolicy, GeneratorConfig, generate_instance

    config = GeneratorConfig(n=n, m=12, q=0.35, seed=n, feasibility_policy=FeasibilityPolicy.KEEP_RAW)
    outcomes = set()
    for index in range(12):
        inst = generate_instance(config, index)
        family = _family(inst)
        missing = tuple(sorted(set(range(n)).difference(*family)))
        outcomes.add(bool(missing))
        for path in (*_pair_paths(inst), {}):
            with _pair_path(path):
                for p in (1, 2, 3):
                    if missing:
                        with pytest.raises(UncoverableError) as err:
                            big_step_greedy(inst, p)
                        assert err.value.elements == missing
                        continue
                    cover, trace = big_step_greedy(inst, p)
                    assert _groups(trace) == ref_bigstep(n, family, p)
                    assert cover.covered.bits == 2**n - 1
                    assert sum(step.newly_covered for step in trace.steps) == n
                assert missing or list(classical_greedy(inst)[0].chosen) == ref_greedy(n, family)
    assert outcomes == {False, True}


@pytest.mark.parametrize("p", [3, 4])
def test_bigstep_p3_p4_traces_match_the_reference(p):
    """Whole traces at p=3 and 4, whose steps _best_subsets scores, at the
    oracle workload's shape and at n on and around the 64-bit word
    boundaries."""
    from scpkit import GeneratorConfig, generate_instance

    shapes = [(100, 25, 0.3)] + [(n, 20, 0.3) for n in (63, 64, 65, 129)]
    for seed, (n, m, q) in enumerate(shapes):
        config = GeneratorConfig(n=n, m=m, q=q, seed=seed)
        for index in range(3):
            inst = generate_instance(config, index)
            cover, trace = big_step_greedy(inst, p)
            assert _groups(trace) == ref_bigstep(n, _family(inst), p)
            unchosen = m
            for step in trace.steps:
                assert step.candidates_evaluated == math.comb(unchosen, min(p, unchosen))
                unchosen -= len(step.chosen)
            assert validate_cover(inst, cover)


@given(families(max_n=130, feasible=False), st.integers(1, 3))
@settings(max_examples=150)
def test_batch_kernel_names_the_scalar_solvers_uncoverable_elements(nf, p):
    n, family = nf
    inst = to_instance(n, family)
    try:
        expected = big_step_greedy(inst, p)[0].size
    except UncoverableError as err:
        with pytest.raises(UncoverableError) as kernel_err:
            _kernel_sizes([inst], p)
        assert kernel_err.value.elements == err.elements
    else:
        assert _kernel_sizes([inst], p) == [expected]


def test_batch_kernel_matches_scalar_solvers():
    """Cover sizes of whole generated rows, solved as one batch each, against
    big_step_greedy at p=2 and classical_greedy, and at p=3 on the first 40
    instances of each row."""
    from scpkit import FeasibilityPolicy, GeneratorConfig, generate_instance, is_feasible

    rows = [(100, q, m, 560, "reject-resample") for q in (0.3, 0.4, 0.5) for m in range(10, 36, 5)]
    # n at and around the 64-bit word boundaries
    rows += [(n, 0.3, m, 40, "reject-resample") for n in (63, 64, 65, 128, 129) for m in (8, 21)]
    # keep-raw rows with infeasible draws, which the campaign screens out
    rows += [(40, 0.3, 12, 100, "keep-raw"), (100, 0.3, 15, 100, "keep-raw")]
    # odd m where many p=2 covers use every set, so the step with one set left runs
    rows += [(12, 0.35, 5, 200, "reject-resample"), (9, 0.3, 7, 200, "reject-resample")]
    checked = screened = every_set = 0
    for seed, (n, q, m, count, policy) in enumerate(rows):
        config = GeneratorConfig(n=n, m=m, q=q, seed=seed, feasibility_policy=policy)
        generated = [generate_instance(config, i) for i in range(count)]
        batch = [inst for inst in generated if is_feasible(inst)]
        screened += count - len(batch)
        big = [big_step_greedy(inst, 2)[0].size for inst in batch]
        greedy = [classical_greedy(inst)[0].size for inst in batch]
        assert _kernel_sizes(batch, 2) == big
        assert _kernel_sizes(batch, 1) == greedy
        assert _kernel_sizes(batch[:40], 3) == [big_step_greedy(i, 3)[0].size for i in batch[:40]]
        checked += len(batch)
        every_set += sum(size == m for size in big) if m % 2 else 0
    # disjoint singletons: every cover takes all m sets, the last one alone
    for m in (1, 3, 5, 7):
        inst = Instance.from_memberships(m, [[i] for i in range(m)])
        assert [_kernel_sizes([inst], p) for p in (1, 2, 3)] == [[m]] * 3
    assert checked >= 10_000
    assert screened > 0
    assert every_set > 0


@given(families())
@settings(max_examples=150)
def test_p1_equals_classical_greedy(nf):
    n, family = nf
    inst = to_instance(n, family)
    assert big_step_greedy(inst, 1)[0].chosen == classical_greedy(inst)[0].chosen


@given(families(), st.integers(1, 3))
@settings(max_examples=150)
def test_every_step_covers_something_new(nf, p):
    n, family = nf
    inst = to_instance(n, family)
    cover, trace = big_step_greedy(inst, p)
    assert all(step.newly_covered >= 1 for step in trace.steps)
    assert len(trace.steps) <= min(inst.m, inst.n)
    assert sum(step.newly_covered for step in trace.steps) == inst.n


@given(families(max_n=16, max_m=10), st.integers(1, 3))
@settings(max_examples=150)
def test_candidate_counter_is_binomial(nf, p):
    n, family = nf
    inst = to_instance(n, family)
    _, trace = big_step_greedy(inst, p)
    unchosen = inst.m
    for step in trace.steps:
        assert step.candidates_evaluated == math.comb(unchosen, min(p, unchosen))
        unchosen -= len(step.chosen)


def test_solvers_are_deterministic(example1):
    assert classical_greedy(example1) == classical_greedy(example1)
    assert big_step_greedy(example1, 2) == big_step_greedy(example1, 2)


def test_pair_scan_matches_plain_enumeration():
    """The pruned scan and the default routing against every pair scored, and
    on the first instances of each case against the set-based reference."""
    from scpkit import GeneratorConfig, generate_instance

    # n at and around the 64-bit word boundaries of the packed masks
    cases = [
        (80, 0.3, 26, 5),
        (80, 0.5, 33, 6),
        (80, 0.15, 21, 7),
        (63, 0.3, 20, 8),
        (64, 0.3, 24, 9),
        (65, 0.4, 20, 10),
        (128, 0.3, 22, 11),
        (129, 0.5, 18, 12),
    ]
    for n, q, m, seed in cases:
        config = GeneratorConfig(n=n, m=m, q=q, seed=seed)
        for index in range(25):
            inst = generate_instance(config, index)
            full = _full_scan(inst)
            if index < 3:
                assert _groups(full[1]) == ref_bigstep(n, _family(inst), 2)
            for path in (PRUNED, {}):
                with _pair_path(path):
                    assert big_step_greedy(inst, 2) == full


def test_pair_scan_survives_wide_universes():
    # more than two 64-bit words per mask exercises the wide accumulation path
    memberships = [list(range(i, 150, 7)) for i in range(20)]
    inst = Instance.from_memberships(150, memberships)
    full = _full_scan(inst)
    assert validate_cover(inst, full[0])
    assert _groups(full[1]) == ref_bigstep(150, _family(inst), 2)
    for path in (PRUNED, {}):
        with _pair_path(path):
            assert big_step_greedy(inst, 2) == full


def test_pruned_pair_scan_matches_full_scans_on_generated_instances():
    """Whole traces of the pruned scan and of the default routing against
    every pair scored, at n on and around the 64-bit word boundaries and at
    n=1000."""
    from scpkit import GeneratorConfig, generate_instance

    shapes = [(n, 120, 0.05, 4) for n in (63, 64, 65, 128, 129)]
    shapes += [(n, 30, 0.3, 4) for n in (63, 64, 65, 128, 129)]
    shapes += [(1000, 200, 0.05, 2), (1000, 60, 0.3, 2)]
    for seed, (n, m, q, count) in enumerate(shapes):
        config = GeneratorConfig(n=n, m=m, q=q, seed=seed)
        for index in range(count):
            inst = generate_instance(config, index)
            full = _full_scan(inst)
            for path in (PRUNED, {}):
                with _pair_path(path):
                    assert big_step_greedy(inst, 2) == full


def _pruned_solve(inst):
    """inst at p=2 under the default routing, asserting that _pruned_pair
    settled every pair step: one call per step that adds two sets, whose
    gain the step took.  Only the last step may add one set, a finisher
    found before any pair is scored."""
    original = scpkit.solvers._pruned_pair
    pruned = []

    def spy(hit, g):
        pruned.append(original(hit, g))
        return pruned[-1]

    with mock.patch.object(scpkit.solvers, "_pruned_pair", spy):
        result = big_step_greedy(inst, 2)
    pairs = [step.newly_covered for step in result[1].steps if len(step.chosen) == 2]
    assert [gain for _, gain in pruned] == pairs
    assert len(pairs) >= len(result[1].steps) - 1
    return result


def test_sparse_wide_instances_prune_every_pair_step():
    """At n=1000, m=400, q=0.05 the pruned scan settles every pair step and
    matches every pair scored."""
    from scpkit import GeneratorConfig, generate_instance

    config = GeneratorConfig(n=1000, m=400, q=0.05, seed=2015)
    for index in range(3):
        inst = generate_instance(config, index)
        assert _full_scan(inst) == _pruned_solve(inst)


def test_dense_instances_above_the_gate_prune_every_pair_step():
    """At n=1000, m=70, q=0.3, just above the size gate, the bound leaves
    nearly every pair at the first step, and the pruned scan still settles
    every pair step and matches every pair scored."""
    from scpkit import GeneratorConfig, generate_instance

    assert math.comb(70, 2) * 16 >= scpkit.solvers._PRUNE_MIN_PAIR_WORDS
    config = GeneratorConfig(n=1000, m=70, q=0.3, seed=2015)
    for index in range(3):
        inst = generate_instance(config, index)
        assert _full_scan(inst) == _pruned_solve(inst)


def _all_ties_families():
    """Families whose pair bounds tie: identical sets, every set twice, and
    many disjoint sets of one size."""
    from scpkit import GeneratorConfig, generate_instance

    identical = [set(range(100))] * 40 + [set(range(100 + 10 * k, 110 + 10 * k)) for k in range(3)]
    sparse = generate_instance(GeneratorConfig(n=130, m=30, q=0.1, seed=8), 0)
    twice = [set(s) for s in sparse.sets for _ in range(2)]
    equal = [{2 * k, 2 * k + 1} for k in range(64)] + [{k} for k in range(0, 128, 7)]
    return [(130, identical), (130, twice), (128, equal)]


@pytest.mark.parametrize("n, family", _all_ties_families())
def test_pair_paths_agree_on_all_ties_families(n, family):
    inst = to_instance(n, family)
    full = _full_scan(inst)
    assert _groups(full[1]) == ref_bigstep(n, family, 2)
    for path in (PRUNED, {}):
        with _pair_path(path):
            assert big_step_greedy(inst, 2) == full


def test_pruned_scan_keeps_the_tie_rule_across_slices():
    # Sets 2 and 3 gain most alone, so their rows are scanned first, and
    # their union ties the lexicographically first best pair, (0, 1); a
    # 1-byte cap gives each row a slice of its own.
    inst = Instance.from_memberships(
        10, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [0, 1, 2, 5, 6, 7], [3, 4, 5, 6, 8, 9]]
    )
    with _pair_path(PRUNED), mock.patch.object(scpkit.solvers, "_PAIR_SCAN_MAX_BYTES", 1):
        assert _first_pair(inst) == ((0, 1), 10)


def test_pair_scan_above_its_byte_cap_scores_pairs_in_slices():
    """With the cap below the bytes of all pairs at once, a p=2 solve peaks
    within the cap plus O(m * words) and gives the reference trace: at
    pair-words below the pruning gate, so that _best_subsets scores every
    pair of every step in slices, and on a sparse instance where the pruned
    scan settles most steps."""
    from scpkit import GeneratorConfig, generate_instance
    from scpkit.solvers import _pair_bytes

    for m, q in [(60, 0.3), (200, 0.05)]:
        n, words = 1000, 16
        inst = generate_instance(GeneratorConfig(n=n, m=m, q=q, seed=5), 0)
        reference = _full_scan(inst)
        cap = math.comb(m, 2) * _pair_bytes(words) // 4
        with mock.patch.object(scpkit.solvers, "_PAIR_SCAN_MAX_BYTES", cap):
            tracemalloc.start()
            try:
                result = big_step_greedy(inst, 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert result == reference
        assert peak <= cap + 4 * 8 * m * words
    # the set-based reference takes seconds at m=200, so the dense case only
    dense = generate_instance(GeneratorConfig(n=1000, m=60, q=0.3, seed=5), 0)
    assert _groups(_full_scan(dense)[1]) == ref_bigstep(1000, _family(dense), 2)


def test_sliced_subset_scan_keeps_the_first_best_subset():
    """The kernel's k-subset scan, whole, in slices of cached layouts and in
    slices unranked one by one, returns each instance's first best subset in
    lexicographic order; few bits per word make many ties."""
    import itertools

    import numpy as np

    rng = np.random.default_rng(5)
    words, batch, m = 2, 8, 12
    hit = rng.integers(0, 2**5, size=(words, batch, m), dtype=np.uint64)
    for k in (2, 3, 4):
        combos = list(itertools.combinations(range(m), k))
        expected_gain, expected_winner = [], []
        for b in range(batch):
            gains = [sum(int(np.bitwise_or.reduce(hit[w, b, list(c)])).bit_count()
                         for w in range(words)) for c in combos]
            expected_gain.append(max(gains))
            expected_winner.append(combos[gains.index(max(gains))])
        # whole; slices of 3-55 subsets from the cached layout; and slices of
        # a layout one byte over the cap, and at 100 and 0 bytes, unranked
        layout_bytes = 8 * k * len(combos)
        for cap in (scpkit.solvers._PAIR_SCAN_MAX_BYTES, layout_bytes, layout_bytes - 1, 100, 0):
            width = max(1, cap // 100)
            with mock.patch.object(scpkit.solvers, "_PAIR_SCAN_MAX_BYTES", cap):
                gain, winner = scpkit.solvers._best_subsets(hit, k)
                slices = list(scpkit.solvers._layouts(m, k, width))
            assert gain.tolist() == expected_gain
            assert [tuple(w) for w in winner.T.tolist()] == expected_winner
            assert [tuple(c) for c in np.hstack(slices).T.tolist()] == combos
            assert all(0 < layout.shape[1] <= width for layout in slices)
    # A layout over the cap, unranked in slices of exactly the width but the
    # last
    m, k, width = 20, 3, 100
    with mock.patch.object(scpkit.solvers, "_PAIR_SCAN_MAX_BYTES", 10_000):
        assert 8 * k * math.comb(m, k) > 10_000
        slices = list(scpkit.solvers._layouts(m, k, width))
    assert [tuple(c) for c in np.hstack(slices).T.tolist()] == list(itertools.combinations(range(m), k))
    assert all(0 < layout.shape[1] <= width for layout in slices)
    assert len(slices) == -(-math.comb(m, k) // width)


def test_unranked_slices_are_the_lexicographic_subsets():
    """_unrank's slices, of any width, join into itertools.combinations order,
    and at m=100, k=98 the search passes table entries clipped to int64."""
    import itertools

    import numpy as np

    from scpkit.solvers import _unrank

    for m in range(1, 13):
        for k in range(1, m + 1):
            combos = list(itertools.combinations(range(m), k))
            for width in (1, 2, 5, 64):
                slices = [_unrank(m, k, start, min(start + width, len(combos)))
                          for start in range(0, len(combos), width)]
                assert [tuple(c) for c in np.hstack(slices).T.tolist()] == combos
    assert math.comb(99, 50) > 2**63
    subsets = _unrank(100, 98, 0, math.comb(100, 98))
    assert [tuple(c) for c in subsets.T.tolist()] == list(itertools.combinations(range(100), 98))


def test_layouts_of_more_than_half_the_sets_are_unranked_directly():
    """Layouts of k > m/2 sets are the lexicographic k-subsets, and a solve
    at p near m builds no layout of more sets than its finisher: at m=30 the
    one step is settled by the finisher search, every layout asked for is
    checked before it is built, and the traces match the reference."""
    import itertools

    from scpkit import GeneratorConfig, generate_instance

    original = scpkit.solvers._layout
    for m in range(1, 13):
        for k in range(1, m + 1):
            subsets = [tuple(c) for c in original(m, k).T.tolist()]
            assert subsets == list(itertools.combinations(range(m), k))

    def spy(m, k):
        assert k <= need, f"_layout({m}, {k})"
        return original(m, k)

    original.cache_clear()
    with mock.patch.object(scpkit.solvers, "_layout", spy):
        for seed in range(5):
            inst = generate_instance(GeneratorConfig(n=10, m=30, q=0.3, seed=seed), 0)
            for p in (27, 28, 29, 30, 32):
                expected = ref_bigstep(10, _family(inst), p)
                assert len(expected) == 1
                need = len(expected[0])
                _, trace = big_step_greedy(inst, p)
                assert _groups(trace) == expected


def test_finisher_sizes_come_before_the_full_step():
    """At n=20, m=70 three sets cover everything: at p = 4, 12 and 35 the
    finisher search adds them before the full step is scored, so the one
    step counts C(70, p) candidates but no layout of more than 3 sets is
    asked for, though C(70, 12) is ~10**13 subsets and C(70, 35) is past
    int64 ranks.  The batch kernel, on the same loop, gives size 3."""
    from scpkit import GeneratorConfig, generate_instance

    inst = generate_instance(GeneratorConfig(20, 70, 0.3, 1), 0)
    original = scpkit.solvers._layouts

    def spy(m, k, width):
        assert k <= 3, f"_layouts({m}, {k})"
        return original(m, k, width)

    with mock.patch.object(scpkit.solvers, "_layouts", spy):
        for p in (4, 12, 35):
            cover, trace = big_step_greedy(inst, p)
            assert trace.steps == (scpkit.core.SolveStep((11, 47, 55), 20, math.comb(70, p)),)
            assert cover.chosen == (11, 47, 55)
            assert _kernel_sizes([inst], p) == [3]


def test_pair_scan_and_batch_kernel_peaks_stay_within_their_byte_figures():
    from scpkit import GeneratorConfig, generate_instance
    from scpkit.solvers import (
        _BATCH_MAX_BYTES,
        _batch_cover_sizes,
        _batch_size,
        _pair_bytes,
    )

    m = 200
    pairs = m * (m - 1) // 2
    for n in (64, 100, 150, 1000):
        inst = generate_instance(GeneratorConfig(n=n, m=m, q=0.3, seed=5), 0)
        hit = _first_hit(inst)
        scpkit.solvers._layout.cache_clear()  # its index rows count too
        tracemalloc.start()
        try:
            scpkit.solvers._best_subsets(hit[:, None], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= pairs * _pair_bytes((n + 63) // 64)
    for n, m in [(100, 35), (100, 10), (1000, 35)]:
        config = GeneratorConfig(n=n, m=m, q=0.3, seed=5)
        sets = pack_masks([generate_instance(config, i) for i in range(_batch_size(n, m, 2))])
        tracemalloc.start()
        try:
            _batch_cover_sizes(sets, n, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _BATCH_MAX_BYTES
    # One instance (and a batch of three) whose p-subsets, and their whole
    # layout, exceed a lowered cap: the kernel scans them in slices sized by
    # the batch and builds the layout slice by slice.
    cap = 100_000
    for p, m, count in [(2, 120, 1), (3, 40, 1), (2, 120, 3)]:
        config = GeneratorConfig(n=100, m=m, q=0.3, seed=5)
        batch = [generate_instance(config, i) for i in range(count)]
        assert math.comb(m, p) * _pair_bytes(2) > cap and 8 * p * math.comb(m, p) > cap
        width = cap // (count * _pair_bytes(2))
        sets = pack_masks(batch)
        with mock.patch.object(scpkit.solvers, "_PAIR_SCAN_MAX_BYTES", cap):
            tracemalloc.start()
            try:
                sizes = _batch_cover_sizes(sets, 100, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sizes.tolist() == [big_step_greedy(inst, p)[0].size for inst in batch]
        assert peak <= cap + 8 * p * width


def test_pruned_pair_scan_peaks_stay_far_below_the_union_figure():
    from scpkit import GeneratorConfig, generate_instance
    from scpkit.solvers import _pair_bytes

    n, m, words = 1000, 400, 16
    # the bytes of scoring every pair at once
    union_figure = m * (m - 1) // 2 * _pair_bytes(words)
    # a sparse solve, every step pruned
    inst = generate_instance(GeneratorConfig(n=n, m=m, q=0.05, seed=5), 0)
    tracemalloc.start()
    try:
        big_step_greedy(inst, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= union_figure // 8
    # 150 disjoint sets of 6 elements and 250 of 5: the C(150, 2) pairs of the
    # first, 14% of all pairs, tie on bound and gain, and a 100 kB cap takes
    # them in dozens of slices
    family = [range(6 * k, 6 * k + 6) for k in range(150)]
    family += [range(900 + 5 * (k % 20), 905 + 5 * (k % 20)) for k in range(250)]
    inst = Instance.from_memberships(n, family)
    hit = _first_hit(inst)
    g = np.bitwise_count(hit).sum(axis=0, dtype=np.int32)
    cap = 100_000
    with mock.patch.object(scpkit.solvers, "_PAIR_SCAN_MAX_BYTES", cap):
        tracemalloc.start()
        try:
            best = scpkit.solvers._pruned_pair(hit, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert best == ((0, 1), 12)
    assert peak <= cap + 4 * 8 * m * words


def test_classical_greedy_matches_reference_on_generated_instances():
    """classical_greedy is big_step_greedy(p=1); check the rule itself
    against the set-based reference at the campaign's shapes, around the
    64-bit word boundaries and at n=1000."""
    from scpkit import GeneratorConfig, generate_instance

    shapes = [(100, m, q, 30) for q in (0.3, 0.4, 0.5) for m in (10, 20, 35)]
    # n at and around the 64-bit word boundaries, and one wide instance
    shapes += [(n, 20, 0.3, 10) for n in (63, 64, 65, 129)] + [(1000, 60, 0.3, 1)]
    for n, m, q, count in shapes:
        config = GeneratorConfig(n=n, m=m, q=q, seed=17)
        for index in range(count):
            inst = generate_instance(config, index)
            cover, trace = classical_greedy(inst)
            assert list(cover.chosen) == ref_greedy(n, _family(inst))
            assert [s.candidates_evaluated for s in trace.steps] == list(
                range(m, m - len(trace.steps), -1)
            )


@pytest.mark.parametrize(
    "memberships, steps",
    [
        # the last step takes both remaining sets
        ([[0], [1], [2], [3], [4]], [((0, 1, 2), 3, 10), ((3, 4), 2, 1)]),
        # the last step is trimmed from the remaining pair to one set
        ([[0], [1], [2], [3, 4], [3]], [((0, 1, 3), 4, 10), ((2,), 1, 1)]),
    ],
)
def test_bigstep_p3_step_with_two_sets_left(memberships, steps):
    n = 1 + max(e for ms in memberships for e in ms)
    inst = Instance.from_memberships(n, memberships)
    _, trace = big_step_greedy(inst, 3)
    assert [(s.chosen, s.newly_covered, s.candidates_evaluated) for s in trace.steps] == steps
    family = [set(ms) for ms in memberships]
    assert _groups(trace) == ref_bigstep(n, family, 3)


def test_bigstep_p3_runs_out_of_sets_after_two_left():
    # two sets left at p=3 cover only part of the remainder
    inst = Instance.from_memberships(5, [[0], [1], [2], [3], [3]])
    with pytest.raises(UncoverableError) as err:
        big_step_greedy(inst, 3)
    assert err.value.elements == (4,)


def test_bigstep_p3_matches_reference_when_two_sets_are_left():
    from scpkit import GeneratorConfig, generate_instance

    config = GeneratorConfig(n=12, m=5, q=0.35, seed=3)
    reached = 0
    for index in range(200):
        inst = generate_instance(config, index)
        _, trace = big_step_greedy(inst, 3)
        assert _groups(trace) == ref_bigstep(12, _family(inst), 3)
        left = 5 - sum(len(s.chosen) for s in trace.steps[:-1])
        if left == 2:
            reached += 1
            assert trace.steps[-1].candidates_evaluated == 1
    assert reached >= 50
