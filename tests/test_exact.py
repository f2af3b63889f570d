import numpy as np
import pytest
from hypothesis import given, settings

from scpkit import (
    GeneratorConfig,
    Instance,
    OracleBudgetError,
    UncoverableError,
    big_step_greedy,
    classical_greedy,
    exact_min_cover,
    generate_instance,
    validate_cover,
)

from helpers import AG_OPTIMUM, ag_instance, brute_min_size, families, ref_exact, to_instance


def test_worked_example_minimum_is_two(example1):
    cover = exact_min_cover(example1)
    assert cover.size == 2
    assert validate_cover(example1, cover)


def test_single_set_universe():
    inst = Instance.from_memberships(3, [[0], [1], [2], [0, 1, 2]])
    assert exact_min_cover(inst).size == 1


def test_small_derived_case():
    inst = Instance.from_memberships(6, [[0, 1, 2, 3], [0, 2, 4], [1, 3, 5]])
    assert exact_min_cover(inst).size == 2


def test_infeasible_raises():
    with pytest.raises(UncoverableError) as err:
        exact_min_cover(Instance.from_memberships(3, [[0], [0, 1]]))
    assert err.value.elements == (2,)


def test_budget_exhaustion():
    inst = Instance.from_memberships(
        12, [[i, (i + 1) % 12, (i + 5) % 12] for i in range(12)]
    )
    with pytest.raises(OracleBudgetError, match="oracle budget exceeded"):
        exact_min_cover(inst, budget_limit=2)
    # a generous budget solves the same instance
    assert exact_min_cover(inst, budget_limit=100_000).size >= 4


@pytest.mark.parametrize(
    "index, nodes, chosen",
    [
        (0, 362, (0, 3, 13, 4, 5, 14, 10)),
        (1, 50, (22, 5, 2, 24, 19, 18)),
        (3, 1403, (24, 9, 6, 18, 21, 11, 10)),
        (14, 526, (13, 23, 4, 22, 3, 8, 19)),
    ],
)
def test_budget_counts_every_search_node(index, nodes, chosen):
    # Oracle-sized draws (n=100, m=25, q=0.3): a budget of exactly the
    # search's node count returns its cover, and one node less raises.
    inst = generate_instance(GeneratorConfig(n=100, m=25, q=0.3, seed=505), index)
    assert exact_min_cover(inst, budget_limit=nodes).chosen == chosen
    with pytest.raises(OracleBudgetError):
        exact_min_cover(inst, budget_limit=nodes - 1)


def test_steiner_triple_optimum_and_budget():
    """The oracle proves the optimum 5 of AG(2, 3); AG(3, 3), with 27 sets,
    is past it: a 20,000-node budget runs out before 18 is proved."""
    small = ag_instance(2)
    cover = exact_min_cover(small)
    assert cover.size == AG_OPTIMUM[2]
    assert validate_cover(small, cover)
    with pytest.raises(OracleBudgetError):
        exact_min_cover(ag_instance(3), budget_limit=20_000)


def test_budget_validation(example1):
    for bad in (0, True, 2.5):
        with pytest.raises(ValueError, match="budget_limit must be a positive integer"):
            exact_min_cover(example1, budget_limit=bad)


@given(families(max_n=14, max_m=7))
@settings(max_examples=120, deadline=None)
def test_matches_brute_force(nf):
    n, family = nf
    inst = to_instance(n, family)
    assert exact_min_cover(inst).size == brute_min_size(n, family)


@given(families(max_n=14, max_m=7))
@settings(max_examples=120, deadline=None)
def test_dominated_set_pruning_preserves_size(nf):
    n, family = nf
    inst = to_instance(n, family)
    assert (
        exact_min_cover(inst, prune_dominated=True).size
        == exact_min_cover(inst).size
    )


@given(families(max_n=18, max_m=9))
@settings(max_examples=120, deadline=None)
def test_never_larger_than_either_greedy(nf):
    n, family = nf
    inst = to_instance(n, family)
    exact = exact_min_cover(inst).size
    assert exact <= classical_greedy(inst)[0].size
    assert exact <= big_step_greedy(inst, 2)[0].size


def test_returned_cover_validates(example1):
    cover = exact_min_cover(example1, prune_dominated=True)
    assert validate_cover(example1, cover)


def assert_matches_ref(n, family, prune):
    # The reference's cover comes back at a budget of exactly the nodes it
    # entered, and one node less raises: siblings the oracle settles without
    # entering them count as nodes all the same.
    chosen, nodes = ref_exact(n, family, prune)
    inst = to_instance(n, family)
    assert exact_min_cover(inst, budget_limit=nodes, prune_dominated=prune).chosen == tuple(chosen)
    with pytest.raises(OracleBudgetError):
        exact_min_cover(inst, budget_limit=nodes - 1, prune_dominated=prune)


@pytest.mark.parametrize("prune", [False, True])
@given(families(max_n=16, max_m=8))
@settings(max_examples=150, deadline=None)
def test_matches_reference_search(prune, nf):
    assert_matches_ref(*nf, prune)


@pytest.mark.parametrize("prune", [False, True])
def test_matches_reference_search_on_oracle_draws(prune):
    config = GeneratorConfig(n=100, m=25, q=0.3, seed=2015)
    for index in range(100):
        inst = generate_instance(config, index)
        assert_matches_ref(inst.n, [set(s) for s in inst.sets], prune)


@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_matches_reference_search_at_word_edges(n, prune):
    # Random sets with the last element in the first one, duplicates of two
    # of them and two empty sets: a bit read at the wrong element, or a
    # dominated set kept or dropped wrongly, changes the nodes or the cover.
    rng = np.random.default_rng(n)
    family = [set(np.flatnonzero(rng.random(n) < 0.4).tolist()) for _ in range(8)]
    family[0].add(n - 1)
    family[3:3] = [set(), set(family[5]), set()]
    family.append(set(family[0]))
    family[1] |= set(range(n)) - set().union(*family)
    assert_matches_ref(n, family, prune)
