"""Instance and cover model for unicost set covering.

Elements are dense integers ``0..n-1``; every set of elements is stored as a
fixed-width bit mask (bit ``e`` set means element ``e`` is a member).  All
types are immutable after construction, so instances and solutions can be
shared freely between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class UncoverableError(ValueError):
    """Some elements of the universe cannot be covered by the available sets."""

    def __init__(self, elements: Sequence[int]):
        self.elements = tuple(elements)
        shown = ", ".join(str(e) for e in self.elements[:8])
        if len(self.elements) > 8:
            shown += ", ..."
        super().__init__(f"uncoverable elements: {shown}")


@dataclass(frozen=True)
class ElementSet:
    """A subset of the universe ``{0, ..., width-1}`` stored as a bit mask."""

    bits: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"width must be >= 0, got {self.width}")
        if self.bits < 0 or self.bits >> self.width:
            raise ValueError(f"bit mask {self.bits:#x} has bits beyond width {self.width}")

    @classmethod
    def from_elements(cls, width: int, elements: Iterable[int]) -> "ElementSet":
        bits = 0
        for e in elements:
            if not 0 <= e < width:
                raise ValueError(f"element {e} out of range 0..{width - 1}")
            bits |= 1 << e
        return cls(bits, width)

    @classmethod
    def empty(cls, width: int) -> "ElementSet":
        return cls(0, width)

    @classmethod
    def full(cls, width: int) -> "ElementSet":
        return cls((1 << width) - 1, width)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, element: int) -> bool:
        return 0 <= element < self.width and (self.bits >> element) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def elements(self) -> tuple[int, ...]:
        return tuple(self)

    def _check_width(self, other: "ElementSet") -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} != {other.width}")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check_width(other)
        return ElementSet(self.bits | other.bits, self.width)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check_width(other)
        return ElementSet(self.bits & other.bits, self.width)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check_width(other)
        return ElementSet(self.bits & ~other.bits, self.width)

    union = __or__
    intersection = __and__
    difference = __sub__


@dataclass(frozen=True)
class Instance:
    """A set-cover instance: universe size ``n`` and an ordered set family.

    Set indexing is stable and 0-based: ``sets[i]`` is the i-th subset in
    input order for the lifetime of the instance.  Duplicate and empty sets
    are permitted; they are distinct by index.
    """

    n: int
    sets: tuple[ElementSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(self.sets))
        if self.n < 1:
            raise ValueError(f"universe size must be >= 1, got {self.n}")
        if not self.sets:
            raise ValueError("instance needs at least one set")
        for i, s in enumerate(self.sets):
            if not isinstance(s, ElementSet):
                raise TypeError(f"sets[{i}] is not an ElementSet")
            if s.width != self.n:
                raise ValueError(f"sets[{i}] has width {s.width}, expected {self.n}")

    @classmethod
    def from_memberships(cls, n: int, memberships: Iterable[Iterable[int]]) -> "Instance":
        return cls(n, tuple(ElementSet.from_elements(n, ms) for ms in memberships))

    @property
    def m(self) -> int:
        return len(self.sets)

    def union_of(self, indices: Iterable[int]) -> ElementSet:
        """Union of ``sets[i]`` over the given indices (range-checked)."""
        sets = self.sets
        m = len(sets)
        bits = 0
        for i in indices:
            if not 0 <= i < m:
                raise ValueError(f"set index {i} out of range 0..{m - 1}")
            bits |= sets[i].bits
        return ElementSet(bits, self.n)


@dataclass(frozen=True)
class CoverSolution:
    """An ordered, duplicate-free selection of set indices and their union."""

    chosen: tuple[int, ...]
    covered: ElementSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "chosen", tuple(self.chosen))
        if len(set(self.chosen)) != len(self.chosen):
            raise ValueError("chosen indices must be pairwise distinct")

    @classmethod
    def from_indices(cls, instance: Instance, indices: Iterable[int]) -> "CoverSolution":
        chosen = tuple(indices)
        return cls(chosen, instance.union_of(chosen))

    @property
    def size(self) -> int:
        return len(self.chosen)


@dataclass(frozen=True)
class SolveStep:
    """One solver iteration: the sets it added, how many new elements they
    covered, and how many candidate subsets the step evaluated."""

    chosen: tuple[int, ...]
    newly_covered: int
    candidates_evaluated: int


@dataclass(frozen=True)
class SolveTrace:
    steps: tuple[SolveStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))


def is_feasible(instance: Instance) -> bool:
    """True iff the union of all sets equals the full universe."""
    return instance.union_of(range(instance.m)).bits == (1 << instance.n) - 1


def validate_cover(instance: Instance, cover: "CoverSolution | Sequence[int]") -> bool:
    """True iff the union of the chosen sets equals the full universe.

    The union is recomputed from the indices; an out-of-range or duplicate
    index raises ``ValueError`` rather than returning False.
    """
    indices = cover.chosen if isinstance(cover, CoverSolution) else tuple(cover)
    if len(set(indices)) != len(indices):
        raise ValueError("cover indices must be pairwise distinct")
    return instance.union_of(indices).bits == (1 << instance.n) - 1
