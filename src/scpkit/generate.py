"""Random instance generation with deterministic per-instance substreams.

Membership bits are i.i.d. Bernoulli(q): element j lands in set i with
probability q.  Randomness comes from numpy's PCG64 seeded with
``SeedSequence(entropy=seed, spawn_key=(instance_index,))``, so instance k of
a run is the same no matter which worker draws it or in what order.  Within a
substream, candidate draw k occupies exactly the doubles [k*m*n, (k+1)*m*n).

The PCG64 state of a substream is computed here rather than by building a
``SeedSequence`` and a ``PCG64`` per instance: ``_pcg64_state`` runs the
SeedSequence hash (O'Neill's ``seed_seq_fe`` design, kept stable by numpy's
NEP 19) in plain ints, hashing the seed's run words once per seed, and then
applies PCG64's seeding step, state = ((inc + initstate) * MULT + inc) mod
2^128 with inc = 2 * initseq + 1.  ``_draws`` loads that state into one
reused generator per thread.  The substreams, and so every instance, are the
ones ``SeedSequence`` and ``PCG64`` give; a differential test holds them equal.
"""

from __future__ import annotations

import enum
import functools
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Instance
from .solvers import _BATCH_MAX_BYTES


class FeasibilityPolicy(str, enum.Enum):
    """What to do when a raw draw's sets fail to cover the universe."""

    REJECT_RESAMPLE = "reject-resample"
    KEEP_RAW = "keep-raw"


class ResampleLimitError(RuntimeError):
    """Reject-resample hit its redraw cap without finding a feasible draw."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the random instance distribution.

    q may be 0 or 1 (degenerate but well defined).  ``max_redraws`` bounds
    reject-resample; it is ignored under keep-raw.
    """

    n: int
    m: int
    q: float
    seed: int
    feasibility_policy: FeasibilityPolicy = FeasibilityPolicy.REJECT_RESAMPLE
    max_redraws: int = 10_000

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.feasibility_policy, FeasibilityPolicy):
            object.__setattr__(
                self, "feasibility_policy", FeasibilityPolicy(self.feasibility_policy)
            )
        if not isinstance(self.max_redraws, int) or self.max_redraws < 1:
            raise ValueError(f"max_redraws must be a positive integer, got {self.max_redraws!r}")


def generate_instance(config: GeneratorConfig, instance_index: int) -> Instance:
    """Draw instance ``instance_index`` of the stream defined by ``config``.

    Deterministic in (config, instance_index) alone.  Under reject-resample
    the result is always feasible or ``ResampleLimitError`` is raised once the
    first draw and ``config.max_redraws`` redraws are all rejected; under
    keep-raw the first draw is returned as-is, feasible or not.
    """
    if not isinstance(instance_index, int) or instance_index < 0:
        raise ValueError(f"instance_index must be a non-negative integer, got {instance_index!r}")
    return _build(_draws(config, [instance_index])[0], config.n)


def feasibility_probability(config: GeneratorConfig) -> float:
    """Closed-form probability that one raw draw covers the whole universe.

    Element j is missed by set i with probability 1-q, by all m sets with
    (1-q)^m, so all n elements are covered with (1 - (1-q)^m)^n.
    """
    return (1.0 - (1.0 - config.q) ** config.m) ** config.n


def _draws(config: GeneratorConfig, indices: Sequence[int]) -> np.ndarray:
    """The accepted draws of instances ``indices`` as an (N, m, n) bool array:
    ``draws[b, i, j]`` is True when element j is in set i of instance
    ``indices[b]``.

    Each instance's substream state is loaded into this thread's generator,
    and candidates are drawn into one reused float buffer.  Every instance
    first draws its first candidate, and the batch is screened at once, which
    costs less than a screen per instance where most first draws cover.  Under
    reject-resample a rejected instance then redraws in blocks of
    ``_block_width(config)`` candidates (floor(1/P), P being
    ``feasibility_probability(config)``), skipping the first candidate's
    doubles; the first candidate of a block that covers the universe wins, and
    a block never runs past the redraw cap, so the stream and the cap are
    those of drawing candidates one at a time.  Raises ``ResampleLimitError``
    once the first draw and ``config.max_redraws`` redraws of an instance are
    all rejected.
    """
    n, m, q = config.n, config.m, config.q
    width = _block_width(config)
    buffer = np.empty((width, m, n))
    draws = np.empty((len(indices), m, n), dtype=bool)
    rng = _generator()
    states = [_pcg64_state(config.seed, index) for index in indices]
    for b, state in enumerate(states):
        _restart(rng, state)
        rng.random(out=buffer[0])
        np.less(buffer[0], q, out=draws[b])
    if config.feasibility_policy is FeasibilityPolicy.KEEP_RAW:
        return draws
    for b in np.flatnonzero(~_covers_universe(draws)):
        _restart(rng, states[b], skip=m * n)
        left = config.max_redraws
        while left:
            block = buffer[: min(width, left)]
            rng.random(out=block)
            first = _first_cover(block, q)
            if first is not None:
                np.less(block[first], q, out=draws[b])
                break
            left -= len(block)
        else:
            raise ResampleLimitError(
                f"feasible instance unreachable: {config.max_redraws} redraws exhausted "
                f"at (n={n}, m={m}, q={q}), where the analytic feasibility probability "
                f"is {feasibility_probability(config):.4g}"
            )
    return draws


def _block_width(config: GeneratorConfig) -> int:
    """Candidates one redraw block of ``_draws`` holds: floor(1/P), at least 1
    and at most ``config.max_redraws`` and what ``_BATCH_MAX_BYTES`` holds of
    (m, n) doubles."""
    cap = max(1, min(config.max_redraws, _BATCH_MAX_BYTES // (8 * config.m * config.n)))
    p = feasibility_probability(config)
    return int(min(cap, 1 / p)) if p > 0 else cap


def _covers_universe(draws: np.ndarray) -> np.ndarray:
    """Which of an (N, m, n) bool batch of draws cover the universe."""
    return draws.any(axis=1).all(axis=1)


def _first_cover(block: np.ndarray, q: float) -> int | None:
    # The first candidate c of a (c, m, n) block of doubles whose sets cover
    # the universe: every element j has a set i with block[c, i, j] < q.
    covers = block.min(axis=1).max(axis=1) < q
    first = int(covers.argmax())
    return first if covers[first] else None


def _restart(rng: np.random.Generator, state: tuple[int, int], skip: int = 0) -> None:
    # Point the generator at the start of a substream, (state, inc) from
    # _pcg64_state, then ``skip`` doubles in.
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    if skip:
        rng.bit_generator.advance(skip)


_thread = threading.local()


def _generator() -> np.random.Generator:
    # This thread's generator: building a PCG64 runs a SeedSequence of its
    # own, so one is built per thread and re-stated for every instance.
    try:
        return _thread.rng
    except AttributeError:
        _thread.rng = np.random.Generator(np.random.PCG64(0))
        return _thread.rng


_MASK32 = 0xFFFF_FFFF
# SeedSequence's hash constants, and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# generate_state's hash constant before and after each of its 8 output words.
_OUT_HASH = tuple(
    (_INIT_B * _MULT_B**k & _MASK32, _INIT_B * _MULT_B ** (k + 1) & _MASK32) for k in range(8)
)


def _pcg64_state(seed: int, index: int) -> tuple[int, int]:
    """``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=(index,)))``.

    Each 32-bit word of the index, low word first (one word below 2^32), is
    hashed into the seed's four pool words; ``generate_state(4, np.uint64)``
    then hashes the pool into eight output words, and PCG64 is seeded with
    initstate = words 0-1 and initseq = words 2-3 of the 64-bit view.  The
    code is unrolled over the pool words, as it runs once per instance.
    """
    (p0, p1, p2, p3), h = _seed_pool(seed)
    lo, hi, a = _MIX_MULT_L, _MIX_MULT_R, _MULT_A
    while True:
        word = index & _MASK32
        x, h = h, h * a & _MASK32
        v = (word ^ x) * h & _MASK32
        v = (lo * p0 - hi * (v ^ v >> 16)) & _MASK32
        p0 = v ^ v >> 16
        x, h = h, h * a & _MASK32
        v = (word ^ x) * h & _MASK32
        v = (lo * p1 - hi * (v ^ v >> 16)) & _MASK32
        p1 = v ^ v >> 16
        x, h = h, h * a & _MASK32
        v = (word ^ x) * h & _MASK32
        v = (lo * p2 - hi * (v ^ v >> 16)) & _MASK32
        p2 = v ^ v >> 16
        x, h = h, h * a & _MASK32
        v = (word ^ x) * h & _MASK32
        v = (lo * p3 - hi * (v ^ v >> 16)) & _MASK32
        p3 = v ^ v >> 16
        index >>= 32
        if not index:
            break
    out = []
    for p, (x, h) in zip((p0, p1, p2, p3, p0, p1, p2, p3), _OUT_HASH):
        v = (p ^ x) * h & _MASK32
        out.append(v ^ v >> 16)
    initstate = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = (out[5] << 97 | out[4] << 65 | out[7] << 33 | out[6] << 1 | 1) & (2**128 - 1)
    return ((inc + initstate) * _PCG64_MULT + inc) & (2**128 - 1), inc


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[tuple[int, int, int, int], int]:
    # SeedSequence's pool after the seed's run words and the cross-mix, with
    # the hash constant reached: the part of the hash no index changes.  A
    # seed below 2^64 has at most two words, zero-padded to the four pool
    # words as they are whenever a spawn key follows.
    hash_const = _INIT_A
    pool = []
    for w in range(4):
        hash_const, value = _hashmix((seed >> 32 * w) & _MASK32, hash_const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hash_const, value = _hashmix(pool[src], hash_const)
                value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * value) & _MASK32
                pool[dst] = value ^ (value >> 16)
    return (pool[0], pool[1], pool[2], pool[3]), hash_const


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    # SeedSequence's hashmix: the advanced hash constant and the mixed word.
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return hash_const, value ^ (value >> 16)


def _build(bits: np.ndarray, n: int) -> Instance:
    packed = np.packbits(bits, axis=1, bitorder="little")
    data = packed.tobytes()
    width = packed.shape[1]
    masks = tuple(
        int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(bits.shape[0])
    )
    return Instance(n, masks)
