import math

import pytest
from hypothesis import given, settings, strategies as st

import scpkit.solvers
from scpkit import Instance, UncoverableError, big_step_greedy, classical_greedy, validate_cover

from helpers import families, ref_bigstep, ref_greedy, to_instance


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
    for bad in (0, -2, 1.5, "2", None):
        with pytest.raises((ValueError, TypeError)):
            big_step_greedy(example1, bad)


def test_infeasible_instance_raises_with_elements():
    inst = Instance.from_memberships(5, [[0, 1], [1, 2]])
    with pytest.raises(UncoverableError) as err:
        classical_greedy(inst)
    assert set(err.value.elements) == {3, 4}
    with pytest.raises(UncoverableError) as err:
        big_step_greedy(inst, 2)
    assert set(err.value.elements) == {3, 4}


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


@given(families(), st.integers(1, 3))
@settings(max_examples=200)
def test_bigstep_matches_reference(nf, p):
    n, family = nf
    inst = to_instance(n, family)
    cover, _ = big_step_greedy(inst, p)
    assert list(cover.chosen) == ref_bigstep(n, family, p)
    assert validate_cover(inst, cover)


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


def test_pair_scan_matches_plain_enumeration(monkeypatch):
    """The vectorized pair path and the int loop must pick identical traces."""
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
        assert m * (m - 1) // 2 >= scpkit.solvers._VECTOR_PAIR_MIN
        config = GeneratorConfig(n=n, m=m, q=q, seed=seed)
        for index in range(25):
            inst = generate_instance(config, index)
            fast = big_step_greedy(inst, 2)
            with monkeypatch.context() as mp:
                mp.setattr(scpkit.solvers, "_VECTOR_PAIR_MIN", 10**9)
                slow = big_step_greedy(inst, 2)
            assert fast == slow


def test_pair_scan_survives_wide_universes(monkeypatch):
    # more than two 64-bit words per mask exercises the wide accumulation path
    memberships = [list(range(i, 150, 7)) for i in range(20)]
    inst = Instance.from_memberships(150, memberships)
    fast = big_step_greedy(inst, 2)
    assert validate_cover(inst, fast[0])
    monkeypatch.setattr(scpkit.solvers, "_VECTOR_PAIR_MIN", 10**9)
    slow = big_step_greedy(inst, 2)
    assert fast == slow


def test_classical_greedy_matches_reference_on_generated_instances():
    """classical_greedy is big_step_greedy(p=1); check the rule itself
    against the set-based reference at the campaign's shapes."""
    from scpkit import GeneratorConfig, generate_instance

    for q in (0.3, 0.4, 0.5):
        for m in (10, 20, 35):
            config = GeneratorConfig(n=100, m=m, q=q, seed=17)
            for index in range(30):
                inst = generate_instance(config, index)
                family = [set(s) for s in inst.sets]
                cover, trace = classical_greedy(inst)
                assert list(cover.chosen) == ref_greedy(100, family)
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
    cover, trace = big_step_greedy(inst, 3)
    assert [(s.chosen, s.newly_covered, s.candidates_evaluated) for s in trace.steps] == steps
    family = [set(ms) for ms in memberships]
    assert list(cover.chosen) == ref_bigstep(n, family, 3)


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
        cover, trace = big_step_greedy(inst, 3)
        family = [set(s) for s in inst.sets]
        assert list(cover.chosen) == ref_bigstep(12, family, 3)
        left = 5 - sum(len(s.chosen) for s in trace.steps[:-1])
        if left == 2:
            reached += 1
            assert trace.steps[-1].candidates_evaluated == 1
    assert reached >= 50
