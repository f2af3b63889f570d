import time
from unittest import mock

import scpkit.solvers
from scpkit import GeneratorConfig, generate_instance
from scpkit.solvers import big_step_greedy, classical_greedy

# A wide sparse instance: big_step_greedy(p=2) scores, per step, only the
# pairs whose bound g_i + g_j reaches the exact gain of the two best sets,
# a handful of the C(400, 2) = 79,800 pairs.  The same solve with pruning
# off, which scores every pair, must agree.
inst = generate_instance(GeneratorConfig(n=1000, m=400, q=0.05, seed=2015), 0)


def timed(solve):
    start = time.perf_counter()
    result = solve()
    return result, (time.perf_counter() - start) * 1e3


(greedy, _), greedy_ms = timed(lambda: classical_greedy(inst))
(big, trace), big_ms = timed(lambda: big_step_greedy(inst, 2))
with mock.patch.object(scpkit.solvers, "_PRUNE_MIN_PAIR_WORDS", 2**63):
    (_, full_trace), full_ms = timed(lambda: big_step_greedy(inst, 2))
assert trace == full_trace

print(f"n={inst.n}, m={inst.m}")
print(f"classical greedy (p=1): {greedy.size} sets in {greedy_ms:.1f} ms")
print(f"big-step greedy (p=2):  {big.size} sets in {big_ms:.1f} ms, {len(trace.steps)} steps")
print(f"no pruning, every pair: same trace in {full_ms:.1f} ms")

# A dense instance above the size gate: the bound leaves 6,601 of the
# C(120, 2) = 7,140 pairs at the first step, and pruning still beats scoring
# them all.
gated = generate_instance(GeneratorConfig(n=1000, m=120, q=0.3, seed=2015), 0)
(gated_big, gated_trace), gated_ms = timed(lambda: big_step_greedy(gated, 2))
with mock.patch.object(scpkit.solvers, "_PRUNE_MIN_PAIR_WORDS", 2**63):
    (_, gated_full), gated_full_ms = timed(lambda: big_step_greedy(gated, 2))
assert gated_trace == gated_full
print(f"big-step greedy (p=2), n={gated.n}, m={gated.m}, q=0.3: {gated_big.size} sets in "
      f"{gated_ms:.1f} ms; every pair scored: same trace in {gated_full_ms:.1f} ms")

# Triples: each p=3 step scores all C(u, 3) triples with numpy, the campaign
# kernel's scorer; at m=60 that is 34,220 at the first step.
dense = generate_instance(GeneratorConfig(n=1000, m=60, q=0.3, seed=2015), 0)
(triples, triple_trace), triples_ms = timed(lambda: big_step_greedy(dense, 3))
print(f"big-step greedy (p=3), n={dense.n}, m={dense.m}: {triples.size} sets in "
      f"{triples_ms:.1f} ms, {len(triple_trace.steps)} steps")
