"""Golden digests of solver output.

Each digest is the sha256 of covers, whole traces and ``UncoverableError``
elements over a fixed set of generated instances, recorded before the
solvers' scoring paths were last swapped.  A change to any scorer must keep
them byte-identical; a digest may only move with a deliberate change of the
solvers' rules or of the generator.
"""

import hashlib

from scpkit import (
    GeneratorConfig,
    UncoverableError,
    big_step_greedy,
    exact_min_cover,
    generate_instance,
    is_feasible,
)

SMALL_DIGEST = "d570cc132958c879ea5f7066443ca938abacfaa5505109ce0eb3a37c5589653b"
WIDE_DIGEST = "fd8caa7e89ccc9a4ed1e6e6add0bf05e9f79d9039156dfd9591b9830a4d73a02"
UNCOVERABLE_DIGEST = "493472393a96b0418233bcf70293d42dc175df7e4266afe5f7208c7211a1b50d"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _solve_line(instance, p):
    cover, trace = big_step_greedy(instance, p)
    steps = " ".join(
        f"{s.chosen}:{s.newly_covered}:{s.candidates_evaluated}" for s in trace.steps
    )
    return f"p={p} {cover.chosen} {cover.covered.bits:x} | {steps}"


def small_lines():
    # n=100 at m in {10, 25, 35}, q in {0.3, 0.5}: eight instances per cell
    lines = []
    for m in (10, 25, 35):
        for q in (0.3, 0.5):
            config = GeneratorConfig(n=100, m=m, q=q, seed=2015)
            for index in range(8):
                instance = generate_instance(config, index)
                lines += [_solve_line(instance, p) for p in (1, 2, 3, 4)]
    return lines


def wide_lines():
    instance = generate_instance(GeneratorConfig(n=1000, m=400, q=0.05, seed=2015), 0)
    return [_solve_line(instance, 2)]


def uncoverable_lines():
    # the first 20 uncoverable keep-raw draws, under every solver
    config = GeneratorConfig(n=40, m=12, q=0.15, seed=7, feasibility_policy="keep-raw")
    lines = []
    index = 0
    while len(lines) < 20:
        instance = generate_instance(config, index)
        index += 1
        if is_feasible(instance):
            continue
        raised = []
        for solve in [lambda i, p=p: big_step_greedy(i, p) for p in (1, 2, 3, 4)] + [exact_min_cover]:
            try:
                solve(instance)
            except UncoverableError as err:
                raised.append(err.elements)
        lines.append(f"{index - 1} {raised}")
    return lines


def test_small_traces_match_their_digest():
    assert _digest(small_lines()) == SMALL_DIGEST


def test_wide_p2_trace_matches_its_digest():
    assert _digest(wide_lines()) == WIDE_DIGEST


def test_uncoverable_elements_match_their_digest():
    assert _digest(uncoverable_lines()) == UNCOVERABLE_DIGEST
