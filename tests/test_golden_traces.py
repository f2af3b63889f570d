"""Golden digests of solver output.

Each digest is the sha256 of covers, whole traces and ``UncoverableError``
elements over a fixed set of generated instances, recorded before the
solvers' scoring paths were last swapped; the Steiner triple digest, over
the AG(k, 3) instances of ``helpers.ag_instance``, was recorded before pair
steps of p >= 3 solves were pruned.  A change to any scorer must keep
them byte-identical; a digest may only move with a deliberate change of the
solvers' rules or of the generator.
"""

import hashlib

from scpkit import (
    GeneratorConfig,
    UncoverableError,
    big_step_greedy,
    classical_greedy,
    exact_min_cover,
    generate_instance,
    is_feasible,
)

from helpers import ag_instance

SMALL_DIGEST = "d570cc132958c879ea5f7066443ca938abacfaa5505109ce0eb3a37c5589653b"
WIDE_DIGEST = "fd8caa7e89ccc9a4ed1e6e6add0bf05e9f79d9039156dfd9591b9830a4d73a02"
UNCOVERABLE_DIGEST = "493472393a96b0418233bcf70293d42dc175df7e4266afe5f7208c7211a1b50d"
CLASSICAL_DIGEST = "4e06a1b580cdb887228d9a6c674d8c5b68fa0f6d350ba87fe7b22207051fa732"
FINISHER_DIGEST = "3d874ad9269e7f8d563a91c08c2cacf5bebab742c71353f46b8611cd0da8ae0f"
EXACT_DIGEST = "b9304c2a89d6e2bac16c1d3c9dc44bf54f8ee5956d59d07f1d6f00b51dd0017d"
AG_DIGEST = "b8b2a56d5f8ab7b8d00a96f701a34e755ee55f76c0415aa2320e3b2b272eee80"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _solve_line(instance, p):
    return _trace_line(f"p={p}", *big_step_greedy(instance, p))


def _trace_line(label, cover, trace):
    steps = " ".join(
        f"{s.chosen}:{s.newly_covered}:{s.candidates_evaluated}" for s in trace.steps
    )
    return f"{label} {cover.chosen} {cover.covered.bits:x} | {steps}"


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


def classical_lines():
    # one wide instance, and n at and around the 64-bit word boundaries
    configs = [(GeneratorConfig(n=1000, m=400, q=0.05, seed=2015), 1)]
    configs += [(GeneratorConfig(n=n, m=20, q=0.3, seed=2015), 8) for n in (63, 64, 65, 129)]
    lines = []
    for config, count in configs:
        for index in range(count):
            instance = generate_instance(config, index)
            lines.append(_trace_line(f"n={config.n}", *classical_greedy(instance)))
    return lines


def finisher_lines():
    # p at and above m - 1, so that the finishing step searches every size
    lines = []
    for m in (7, 9):
        config = GeneratorConfig(n=70, m=m, q=0.4, seed=2015)
        for index in range(8):
            instance = generate_instance(config, index)
            lines += [_solve_line(instance, p) for p in (m - 1, m, m + 2)]
    return lines


def exact_lines():
    config = GeneratorConfig(n=100, m=25, q=0.3, seed=2015)
    lines = []
    for index in range(40):
        instance = generate_instance(config, index)
        plain = exact_min_cover(instance)
        pruned = exact_min_cover(instance, prune_dominated=True)
        lines.append(f"{plain.chosen} {pruned.chosen}")
    return lines


def ag_lines():
    # Steiner triple covering on AG(k, 3): every set holds as many lines, so
    # each first step is a full tie
    return [_solve_line(ag_instance(k), p) for k in (2, 3, 4) for p in (1, 2, 3)]


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


def test_classical_traces_match_their_digest():
    assert _digest(classical_lines()) == CLASSICAL_DIGEST


def test_finishing_steps_match_their_digest():
    assert _digest(finisher_lines()) == FINISHER_DIGEST


def test_exact_covers_match_their_digest():
    assert _digest(exact_lines()) == EXACT_DIGEST


def test_steiner_triple_traces_match_their_digest():
    assert _digest(ag_lines()) == AG_DIGEST
