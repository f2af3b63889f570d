import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from scpkit import (
    CampaignSpec,
    FeasibilityPolicy,
    GeneratorConfig,
    Instance,
    ResampleLimitError,
    feasibility_probability,
    generate_instance,
    is_feasible,
)
from scpkit.core import _pack
from scpkit.generate import _block_width, _draws, _pcg64_state


def test_same_config_and_index_is_bitwise_identical():
    config = GeneratorConfig(n=50, m=8, q=0.3, seed=123)
    assert generate_instance(config, 7) == generate_instance(config, 7)


def test_different_indices_differ():
    config = GeneratorConfig(n=50, m=8, q=0.3, seed=123)
    instances = [generate_instance(config, i) for i in range(5)]
    assert len(set(instances)) == 5


def test_reject_resample_always_feasible():
    # Feasibility probability ~0.53 per draw, so rejection actually kicks in.
    config = GeneratorConfig(n=40, m=6, q=0.5, seed=9)
    for i in range(40):
        assert is_feasible(generate_instance(config, i))


def test_keep_raw_returns_first_draw_even_if_infeasible():
    config = GeneratorConfig(
        n=40, m=3, q=0.15, seed=9, feasibility_policy=FeasibilityPolicy.KEEP_RAW
    )
    results = [is_feasible(generate_instance(config, i)) for i in range(60)]
    assert not all(results)  # feasibility probability here is ~4e-17


def _raw_candidates(config, index, count):
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
    rng = np.random.Generator(np.random.PCG64(seq))
    return rng.random((count, config.m, config.n)) < config.q


def test_rejection_sampling_is_stream_transparent():
    """The k-th rejected redraw must equal the k-th m*n block of the
    substream, no matter how draws are batched internally."""
    config = GeneratorConfig(n=10, m=3, q=0.4, seed=2024)
    raw_config = GeneratorConfig(
        n=10, m=3, q=0.4, seed=2024, feasibility_policy=FeasibilityPolicy.KEEP_RAW
    )
    exercised_rejection = False
    for index in range(12):
        block = _raw_candidates(config, index, 400)
        first_feasible = next(j for j in range(400) if block[j].any(axis=0).all())
        exercised_rejection |= first_feasible > 0
        inst = generate_instance(config, index)
        for i in range(config.m):
            assert inst.sets[i].elements() == tuple(np.nonzero(block[first_feasible][i])[0])
        raw = generate_instance(raw_config, index)
        for i in range(config.m):
            assert raw.sets[i].elements() == tuple(np.nonzero(block[0][i])[0])
    assert exercised_rejection


def test_redraw_cap_counts_redraws_after_the_first_draw():
    """A first feasible candidate at draw k (k redraws after the first) is
    returned under max_redraws=k and unreachable under max_redraws=k-1."""
    config = GeneratorConfig(n=10, m=3, q=0.4, seed=2024)
    # P = 0.0876, so redraws come in blocks of 11 from draw 1 on, and a cap of
    # k - 1 redraws cuts a block short unless draw k starts a block.
    width = _block_width(config)
    assert width == 11
    checked = 0
    inside_block = False
    for index in range(40):
        block = _raw_candidates(config, index, 400)
        k = next(j for j in range(400) if block[j].any(axis=0).all())
        if k < 2:
            continue
        inside_block |= (k - 1) % width != 0
        with pytest.raises(ResampleLimitError):
            generate_instance(replace(config, max_redraws=k - 1), index)
        inst = generate_instance(replace(config, max_redraws=k), index)
        for i in range(config.m):
            assert inst.sets[i].elements() == tuple(np.nonzero(block[k][i])[0])
        checked += 1
    assert checked >= 10
    assert inside_block


def test_pcg64_state_matches_numpy_seeding():
    indices = list(range(501)) + [2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1]
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2015):
        for index in indices:
            seq = np.random.SeedSequence(seed, spawn_key=(index,))
            state = np.random.PCG64(seq).state["state"]
            assert _pcg64_state(seed, index) == (state["state"], state["inc"]), (seed, index)


def test_batched_draws_equal_one_index_at_a_time():
    indices = [0, 1, 2, 7, 2**32, 2**64 - 1]
    for policy in FeasibilityPolicy:
        for q in (0.35, 0.6):  # P = 0.025 (redraw blocks of 40) and 0.73
            config = GeneratorConfig(n=30, m=5, q=q, seed=11, feasibility_policy=policy)
            batch = _draws(config, indices)
            assert batch.shape == (1, len(indices), 5) and batch.dtype == np.uint64
            for b, index in enumerate(indices):
                assert np.array_equal(batch[:, b], _draws(config, [index])[:, 0])
            if policy is FeasibilityPolicy.KEEP_RAW:
                raw = [_raw_candidates(config, index, 1)[0] for index in indices]
                assert np.array_equal(batch, _pack(np.stack(raw), 30))


def test_threads_share_no_generator_state():
    config = GeneratorConfig(n=40, m=6, q=0.3, seed=99)
    expected = [generate_instance(config, i) for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(lambda: [generate_instance(config, i) for i in range(200)])
                for _ in range(4)
            ]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)


def test_build_reads_each_row_as_its_mask():
    """``Instance._of_rows`` over ``_pack`` reads each column as its set's
    mask, at widths on both sides of byte and 64-bit word boundaries."""
    rng = np.random.default_rng(3)
    for n in (1, 7, 8, 9, 63, 64, 65, 100, 505, 512, 513, 1016, 1024, 1025, 3000):
        for m in (1, 9, 25, 31):
            bits = rng.random((m, n)) < 0.3
            expected = tuple(sum(1 << int(e) for e in np.flatnonzero(row)) for row in bits)
            assert Instance._of_rows(n, _pack(bits[None], n)[:, 0]).masks == expected
    # a padding bit past n fails the public constructor's check
    rows = _pack(np.zeros((1, 2, 100), dtype=bool), 100)[:, 0]
    rows[1, 1] = 1 << 36
    with pytest.raises(ValueError, match=rf"masks\[1\] = {1 << 100:#x} has bits outside 0\.\.99"):
        Instance._of_rows(100, rows)


def test_q_one_gives_full_sets():
    inst = generate_instance(GeneratorConfig(n=12, m=4, q=1.0, seed=1), 0)
    assert all(len(s) == 12 for s in inst.sets)


def test_q_zero_keep_raw_gives_empty_sets():
    config = GeneratorConfig(
        n=12, m=4, q=0.0, seed=1, feasibility_policy=FeasibilityPolicy.KEEP_RAW
    )
    inst = generate_instance(config, 0)
    assert all(len(s) == 0 for s in inst.sets)
    assert not is_feasible(inst)


def test_resample_limit_error():
    config = GeneratorConfig(n=10, m=2, q=0.001, seed=5, max_redraws=25)
    with pytest.raises(ResampleLimitError) as err:
        generate_instance(config, 0)
    message = str(err.value)
    assert "feasible instance unreachable" in message
    assert "analytic feasibility probability" in message


def test_config_validation():
    bad = [
        dict(n=0, m=2, q=0.5, seed=1),
        dict(n=True, m=5, q=0.3, seed=1),
        dict(n=5, m=0, q=0.5, seed=1),
        dict(n=5, m=True, q=0.5, seed=1),
        dict(n=5, m=2, q=-0.1, seed=1),
        dict(n=5, m=2, q=1.0001, seed=1),
        dict(n=5, m=2, q=float("nan"), seed=1),
        dict(n=5, m=2, q=0.5, seed=-1),
        dict(n=5, m=2, q=0.5, seed=2**64),
        dict(n=5, m=2, q=0.5, seed=True),
        dict(n=5, m=2, q=0.5, seed=1, max_redraws=0),
        dict(n=5, m=2, q=0.5, seed=1, max_redraws=True),
        dict(n=5, m=2, q=0.5, seed=1, feasibility_policy="sometimes"),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)
    for q in (True, False, "0.3", None, 2):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            GeneratorConfig(n=5, m=2, q=q, seed=1)
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            CampaignSpec(n=5, q=q, m_values=(2,), p=2, count=1, seed=1)
    for q in (0, 1, 0.3, np.float64(0.3), np.float32(0.5)):
        assert GeneratorConfig(n=5, m=2, q=q, seed=1).q == q


def test_policy_accepts_value_strings():
    config = GeneratorConfig(n=5, m=2, q=0.5, seed=1, feasibility_policy="keep-raw")
    assert config.feasibility_policy is FeasibilityPolicy.KEEP_RAW


def test_instance_index_must_be_non_negative():
    config = GeneratorConfig(n=5, m=2, q=0.5, seed=1)
    for bad in (-1, True, 1.0):
        with pytest.raises(ValueError):
            generate_instance(config, bad)


def test_feasibility_probability_closed_form():
    assert feasibility_probability(GeneratorConfig(n=7, m=3, q=1.0, seed=0)) == 1.0
    assert feasibility_probability(GeneratorConfig(n=7, m=3, q=0.0, seed=0)) == 0.0
    p = feasibility_probability(GeneratorConfig(n=100, m=20, q=0.3, seed=0))
    assert p == pytest.approx((1 - 0.7**20) ** 100, abs=1e-15)
    assert p == pytest.approx(0.9234, abs=2e-4)
    low = feasibility_probability(GeneratorConfig(n=100, m=10, q=0.3, seed=0))
    assert low == pytest.approx(0.057, abs=5e-4)


def test_mean_set_cardinality_tracks_q_times_n():
    config = GeneratorConfig(
        n=40, m=6, q=0.3, seed=31, feasibility_policy=FeasibilityPolicy.KEEP_RAW
    )
    draws = 1500
    total_sets = draws * config.m
    cards = [
        len(s) for i in range(draws) for s in generate_instance(config, i).sets
    ]
    se = math.sqrt(config.n * config.q * (1 - config.q) / total_sets)
    assert abs(sum(cards) / total_sets - config.q * config.n) <= 3 * se


def test_fixed_membership_bits_are_uncorrelated():
    config = GeneratorConfig(
        n=8, m=2, q=0.3, seed=77, feasibility_policy=FeasibilityPolicy.KEEP_RAW
    )
    draws = 4000
    x = np.empty(draws)
    y = np.empty(draws)
    for i in range(draws):
        inst = generate_instance(config, i)
        x[i] = 0 in inst.sets[0]
        y[i] = 7 in inst.sets[1]
    covariance = float(np.mean(x * y) - np.mean(x) * np.mean(y))
    se = config.q * (1 - config.q) / math.sqrt(draws)
    assert abs(covariance) <= 3 * se
