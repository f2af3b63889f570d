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

from helpers import brute_min_size, families, to_instance


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


def test_budget_validation(example1):
    with pytest.raises(ValueError):
        exact_min_cover(example1, budget_limit=0)


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
