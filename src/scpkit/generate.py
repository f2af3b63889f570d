"""Random instance generation with deterministic per-instance substreams.

Membership bits are i.i.d. Bernoulli(q): element j lands in set i with
probability q.  Randomness comes from numpy's PCG64 seeded with
``SeedSequence(entropy=seed, spawn_key=(instance_index,))``, so instance k of
a run is the same no matter which worker draws it or in what order.  Within a
substream, candidate draw k occupies exactly the doubles [k*m*n, (k+1)*m*n).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import Instance


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
    return _build(_draw(config, instance_index), config.n)


def feasibility_probability(config: GeneratorConfig) -> float:
    """Closed-form probability that one raw draw covers the whole universe.

    Element j is missed by set i with probability 1-q, by all m sets with
    (1-q)^m, so all n elements are covered with (1 - (1-q)^m)^n.
    """
    return (1.0 - (1.0 - config.q) ** config.m) ** config.n


def _draw(config: GeneratorConfig, instance_index: int) -> np.ndarray:
    """The accepted draw of instance ``instance_index`` as an (m, n) bool array:
    ``bits[i, j]`` is True when element j is in set i."""
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(instance_index,))
    rng = np.random.Generator(np.random.PCG64(seq))
    n, m, q = config.n, config.m, config.q
    keep_raw = config.feasibility_policy is FeasibilityPolicy.KEEP_RAW
    for _ in range(config.max_redraws + 1):
        bits = rng.random((m, n)) < q
        if keep_raw or _covers_universe(bits):
            return bits
    raise ResampleLimitError(
        f"feasible instance unreachable: {config.max_redraws} redraws exhausted "
        f"at (n={n}, m={m}, q={q}), where the analytic feasibility probability "
        f"is {feasibility_probability(config):.4g}"
    )


def _covers_universe(bits: np.ndarray) -> bool:
    return bool(bits.any(axis=0).all())


def _build(bits: np.ndarray, n: int) -> Instance:
    packed = np.packbits(bits, axis=1, bitorder="little")
    data = packed.tobytes()
    width = packed.shape[1]
    masks = tuple(
        int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(bits.shape[0])
    )
    return Instance(n, masks)
