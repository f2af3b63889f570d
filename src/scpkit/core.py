"""Instance and cover model for unicost set covering.

Elements are dense integers ``0..n-1``; a set of elements is an int bit mask
(bit ``e`` set means element ``e`` is a member).  ``Instance`` holds plain
masks; ``ElementSet`` wraps one at the API edges.  All types are immutable,
so instances and solutions can be shared between workers.

This module also owns the packed layout that the solvers read: word w of a
set is a uint64 holding its elements 64*w .. 64*w + 63, low bit first, and
an instance is a (words, m) array, a batch of N instances a (words, N, m)
one.  ``_rows`` packs int masks and ``_pack`` bool membership draws;
``Instance._of_rows`` builds an instance from packed rows through the public
constructor.  ``Instance._packed`` caches an instance's rows, read-only and
outside its fields, so equality, hashing, ``repr``, ``dataclasses.replace``
and pickling see only ``n`` and ``masks``.  ``_reach`` gives the coverage
count of packed sets, the popcount of their union, and ``_missing`` the
elements outside that union.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


_INT_KINDS = {
    (1, None): "a positive integer",
    (0, None): "a non-negative integer",
    (0, 2**64): "an unsigned 64-bit integer",
}


def check_int(name: str, value: object, low: int = 1, high: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an int, not a bool, with
    ``low <= value`` and, if ``high`` is given, ``value < high``.  The bounds
    are one of the pairs of ``_INT_KINDS``, which name them in the message."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value >= high)
    ):
        raise ValueError(f"{name} must be {_INT_KINDS[low, high]}, got {value!r}")


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
        check_int("width", self.width, 0)
        if isinstance(self.bits, bool) or not isinstance(self.bits, int):
            raise TypeError(f"bit mask {self.bits!r} is not an int")
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
        # the binary digits, lowest first, so element e is digit e: each find
        # resumes where the last stopped, which keeps a listing linear in n
        digits = bin(self.bits)[:1:-1]
        e = digits.find("1")
        while e >= 0:
            yield e
            e = digits.find("1", e + 1)

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


def _rows(masks: tuple[int, ...], words: int) -> np.ndarray:
    """Int masks as a (words, m) uint64 array: word w of mask i is [w, i]."""
    raw = b"".join(s.to_bytes(words * 8, "little") for s in masks)
    return np.frombuffer(raw, dtype=np.uint64).reshape(len(masks), words).T.copy()


def _pack(draws: np.ndarray, n: int) -> np.ndarray:
    """An (N, m, n) bool array of memberships (``draws[b, i, j]``: element j
    is in set i of instance b) as a (words, N, m) uint64 array, word w of set
    i of instance b at [w, b, i], through one ``np.packbits`` call."""
    batch, m, _ = draws.shape
    packed = np.zeros((batch, m, ((n + 63) >> 6) * 8), dtype=np.uint8)
    packed[:, :, : (n + 7) >> 3] = np.packbits(draws, axis=2, bitorder="little")
    return np.ascontiguousarray(packed.view("<u8").transpose(2, 0, 1))


def _reach(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The union of the sets of a (words, ..., m) packed array, (words, ...),
    and the int32 count of its elements, the coverage count: an instance can
    be covered exactly when that count is n."""
    union = np.bitwise_or.reduce(sets, axis=-1)
    return union, np.bitwise_count(union).sum(axis=0, dtype=np.int32)


def _missing(rows: np.ndarray, n: int) -> tuple[int, ...]:
    """The elements of ``0..n-1`` that no set of a (words, m) packed array
    contains, ascending."""
    union = np.ascontiguousarray(np.bitwise_or.reduce(rows, axis=1), dtype="<u8")
    bits = np.unpackbits(union.view(np.uint8), count=n, bitorder="little")
    return tuple(np.flatnonzero(bits == 0).tolist())


@dataclass(frozen=True)
class Instance:
    """A set-cover instance: universe size ``n`` and an ordered set family.

    ``masks[i]`` is the i-th subset as an int bit mask, 0-based and stable for
    the lifetime of the instance; ``sets`` gives ``ElementSet`` views of them.
    Duplicate and empty sets are permitted; they are distinct by index.
    """

    n: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "masks", tuple(self.masks))
        check_int("universe size", self.n)
        if not self.masks:
            raise ValueError("instance needs at least one set")
        for i, b in enumerate(self.masks):
            if isinstance(b, bool) or not isinstance(b, int):
                raise TypeError(f"masks[{i}] is not an int")
            if b < 0 or b >> self.n:
                raise ValueError(f"masks[{i}] = {b:#x} has bits outside 0..{self.n - 1}")

    @classmethod
    def from_memberships(cls, n: int, memberships: Iterable[Iterable[int]]) -> "Instance":
        return cls(n, tuple(ElementSet.from_elements(n, ms).bits for ms in memberships))

    @classmethod
    def _of_rows(cls, n: int, rows: np.ndarray) -> "Instance":
        """The instance of a (words, m) uint64 array laid out as ``_packed``:
        one int per column, through the public constructor and its checks,
        with ``_packed`` seeded by a read-only copy of ``rows``."""
        width = 8 * rows.shape[0]
        data = np.ascontiguousarray(rows.T, dtype="<u8").tobytes()
        instance = cls(
            n, tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))
        )
        packed = rows.copy()
        packed.flags.writeable = False
        vars(instance)["_packed"] = packed
        return instance

    @functools.cached_property
    def _packed(self) -> np.ndarray:
        """The masks as a read-only (words, m) uint64 array: ``_rows`` of them,
        built on first use and kept in the instance's ``__dict__``."""
        rows = _rows(self.masks, (self.n + 63) >> 6)
        rows.flags.writeable = False
        return rows

    def __getstate__(self) -> dict:
        # the fields alone: a pickle is the same whether or not the packed
        # rows were built, and unpickling rebuilds them on first use
        return {"n": self.n, "masks": self.masks}

    @property
    def sets(self) -> tuple[ElementSet, ...]:
        """The family as ``ElementSet`` views of width ``n``, in index order."""
        return tuple(ElementSet(b, self.n) for b in self.masks)

    @property
    def m(self) -> int:
        return len(self.masks)

    def union_of(self, indices: Iterable[int]) -> ElementSet:
        """Union of ``masks[i]`` over the given indices (range-checked)."""
        masks = self.masks
        m = len(masks)
        bits = 0
        for i in indices:
            if not 0 <= i < m:
                raise ValueError(f"set index {i} out of range 0..{m - 1}")
            bits |= masks[i]
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


def uncoverable_elements(instance: Instance) -> tuple[int, ...]:
    """The elements that no set contains, ascending; empty iff a cover exists."""
    return _missing(instance._packed, instance.n)


def is_feasible(instance: Instance) -> bool:
    """True iff the union of all sets equals the full universe."""
    return not uncoverable_elements(instance)


def validate_cover(instance: Instance, cover: "CoverSolution | Sequence[int]") -> bool:
    """True iff the union of the chosen sets equals the full universe.

    The union is recomputed from the indices; an out-of-range or duplicate
    index raises ``ValueError`` rather than returning False.
    """
    indices = cover.chosen if isinstance(cover, CoverSolution) else tuple(cover)
    if len(set(indices)) != len(indices):
        raise ValueError("cover indices must be pairwise distinct")
    return instance.union_of(indices).bits == (1 << instance.n) - 1
