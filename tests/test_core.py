import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scpkit import (
    CoverSolution,
    ElementSet,
    GeneratorConfig,
    Instance,
    UncoverableError,
    generate_instance,
    is_feasible,
    parse_instance,
    parse_orlib_scp,
    big_step_greedy,
    classical_greedy,
    serialize_instance,
    validate_cover,
)
from scpkit.core import _rows


def test_elementset_basics():
    s = ElementSet.from_elements(8, [5, 1, 3])
    assert len(s) == 3
    assert list(s) == [1, 3, 5]
    assert s.elements() == (1, 3, 5)
    assert 3 in s and 0 not in s and 8 not in s and -1 not in s


def test_elementset_empty_and_full():
    assert len(ElementSet.empty(12)) == 0
    assert ElementSet.full(12).elements() == tuple(range(12))
    assert ElementSet.full(0).bits == 0


def test_elementset_rejects_bad_masks():
    with pytest.raises(ValueError):
        ElementSet(1 << 4, 4)
    with pytest.raises(ValueError):
        ElementSet(-1, 4)
    with pytest.raises(ValueError):
        ElementSet.from_elements(4, [4])
    with pytest.raises(ValueError):
        ElementSet.from_elements(4, [-1])
    for width in (True, 1.5, "3", None, -1):
        with pytest.raises(ValueError, match="width must be a non-negative integer"):
            ElementSet(1, width)
    for bits in (True, False, 1.5, "1", None):
        with pytest.raises(TypeError, match="is not an int"):
            ElementSet(bits, 3)


def test_elementset_set_algebra():
    a = ElementSet.from_elements(6, [0, 1, 2])
    b = ElementSet.from_elements(6, [2, 3])
    assert (a | b).elements() == (0, 1, 2, 3)
    assert (a & b).elements() == (2,)
    assert (a - b).elements() == (0, 1)
    assert a.union(b) == a | b
    assert a.intersection(b) == a & b
    assert a.difference(b) == a - b


def test_elementset_width_mismatch():
    a = ElementSet.from_elements(6, [0])
    b = ElementSet.from_elements(7, [0])
    for op in (lambda: a | b, lambda: a & b, lambda: a - b):
        with pytest.raises(ValueError):
            op()


def test_elementset_is_immutable_and_hashable():
    s = ElementSet.from_elements(5, [2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.bits = 3
    assert s == ElementSet(4, 5)
    assert hash(s) == hash(ElementSet(4, 5))


@given(st.integers(0, 24), st.data())
def test_elementset_roundtrips_elements(width, data):
    elements = data.draw(st.lists(st.integers(0, max(width - 1, 0)), unique=True))
    if width == 0:
        elements = []
    s = ElementSet.from_elements(width, elements)
    assert s.elements() == tuple(sorted(elements))
    assert ElementSet.from_elements(width, s.elements()) == s


def test_instance_validation():
    for n in (0, True, 1.5, "3", None):
        with pytest.raises(ValueError, match="universe size must be a positive integer"):
            Instance(n, (0b1,))
    with pytest.raises(ValueError, match="at least one set"):
        Instance(3, ())
    with pytest.raises(ValueError, match="bits outside"):
        Instance(3, (0b1, 1 << 3))
    with pytest.raises(ValueError, match="bits outside"):
        Instance(3, (0b1, -1))
    for mask in (ElementSet(0b10, 3), True, False, 1.0):
        with pytest.raises(TypeError, match=r"masks\[1\] is not an int"):
            Instance(3, (0b1, mask))
    assert Instance(3, [0b111, 0]).masks == (0b111, 0)


def test_every_constructor_yields_int_masks():
    built = [
        generate_instance(GeneratorConfig(n=70, m=6, q=0.4, seed=3), 0),
        parse_instance("4 2\n2 0 3\n1 2\n"),
        parse_orlib_scp("3 2\n1 1\n2 1 2\n1 1\n1 2\n"),
        Instance.from_memberships(5, [[0, 4], []]),
    ]
    for inst in built:
        assert all(type(b) is int for b in inst.masks)
        for i in range(inst.m):
            assert inst.sets[i] == ElementSet(inst.masks[i], inst.n)
        again = parse_instance(serialize_instance(inst))
        assert again == inst and hash(again) == hash(inst)
    assert built[2].masks == (0b011, 0b101)


def test_packed_rows_are_a_read_only_cache_outside_the_fields():
    inst = generate_instance(GeneratorConfig(n=130, m=9, q=0.3, seed=3), 0)
    fresh = pickle.dumps(inst)
    rows = inst._packed
    assert rows is inst._packed
    assert rows.dtype == np.uint64 and rows.shape == (3, 9)
    assert np.array_equal(rows, _rows(inst.masks, 3))
    # word w of column i holds bits 64w..64w+63 of mask i
    for i, mask in enumerate(inst.masks):
        assert [int(word) for word in rows[:, i]] == [mask >> 64 * w & (2**64 - 1) for w in range(3)]
    with pytest.raises(ValueError):
        rows[0, 0] = 1
    # the cache is no field: equality, hash, repr, replace and pickling see
    # n and masks alone, as before it was built
    assert [f.name for f in dataclasses.fields(Instance)] == ["n", "masks"]
    twin = Instance(inst.n, inst.masks)
    assert inst == twin and hash(inst) == hash(twin) and repr(inst) == repr(twin)
    assert pickle.dumps(inst) == fresh == pickle.dumps(twin)
    for copy in (pickle.loads(fresh), pickle.loads(pickle.dumps(inst)), dataclasses.replace(inst)):
        assert copy == inst and hash(copy) == hash(inst)
        assert "_packed" not in vars(copy)
        assert np.array_equal(copy._packed, rows)
    other = dataclasses.replace(inst, masks=inst.masks[:-1])
    assert other != inst and other._packed.shape == (3, 8)


def test_every_constructor_gives_the_same_traces():
    """generate_instance and the bulk parser build through Instance._of_rows,
    which seeds _packed; the others build it on first use.  Either way the
    rows are _rows of the masks, read-only, and no pickle or copy holds them."""
    inst = generate_instance(GeneratorConfig(n=70, m=12, q=0.3, seed=3), 0)
    built = [
        inst,
        parse_instance(serialize_instance(inst)),
        Instance(inst.n, list(inst.masks)),
        Instance.from_memberships(inst.n, (s.elements() for s in inst.sets)),
    ]
    assert "_packed" in vars(built[0]) and "_packed" in vars(built[1])
    fresh = pickle.dumps(Instance(inst.n, inst.masks))
    expected = [classical_greedy(inst)] + [big_step_greedy(inst, p) for p in (2, 3)]
    for other in built:
        assert [classical_greedy(other)] + [big_step_greedy(other, p) for p in (2, 3)] == expected
        rows = other._packed
        assert rows.dtype == np.uint64 and np.array_equal(rows, _rows(inst.masks, 2))
        assert not rows.flags.writeable
        assert pickle.dumps(other) == fresh
        for copy in (pickle.loads(fresh), pickle.loads(pickle.dumps(other)), dataclasses.replace(other)):
            assert copy == inst and "_packed" not in vars(copy)


def test_instance_from_memberships():
    inst = Instance.from_memberships(5, [[0, 1], [], [4, 2]])
    assert inst.m == 3
    assert inst.sets[0].elements() == (0, 1)
    assert inst.sets[1].elements() == ()
    assert inst.sets[2].elements() == (2, 4)


def test_instance_accepts_duplicate_sets():
    inst = Instance.from_memberships(3, [[0, 1], [0, 1], [2]])
    assert inst.sets[0] == inst.sets[1]
    assert is_feasible(inst)


def test_union_of_checks_range():
    inst = Instance.from_memberships(4, [[0], [1, 2]])
    assert inst.union_of([0, 1]).elements() == (0, 1, 2)
    assert inst.union_of([]).elements() == ()
    with pytest.raises(ValueError, match=r"set index 2 out of range 0\.\.1"):
        inst.union_of([2])
    with pytest.raises(ValueError):
        inst.union_of([-1])


def test_cover_solution():
    inst = Instance.from_memberships(3, [[0, 1], [2]])
    cover = CoverSolution.from_indices(inst, [1, 0])
    assert cover.size == 2
    assert cover.covered == ElementSet.full(3)
    with pytest.raises(ValueError):
        CoverSolution((0, 0), ElementSet.empty(3))


def test_is_feasible():
    assert is_feasible(Instance.from_memberships(3, [[0, 2], [1]]))
    assert not is_feasible(Instance.from_memberships(3, [[0, 2], [0]]))
    assert not is_feasible(Instance.from_memberships(1, [[]]))


def test_validate_cover():
    inst = Instance.from_memberships(4, [[0, 1], [2, 3], [0, 3]])
    assert validate_cover(inst, [0, 1])
    assert validate_cover(inst, CoverSolution.from_indices(inst, [1, 0]))
    assert not validate_cover(inst, [0, 2])
    with pytest.raises(ValueError):
        validate_cover(inst, [0, 0])
    with pytest.raises(ValueError):
        validate_cover(inst, [0, 9])


def test_uncoverable_error_payload():
    err = UncoverableError([4, 7])
    assert err.elements == (4, 7)
    assert "uncoverable elements: 4, 7" in str(err)
    long = UncoverableError(range(20))
    assert str(long).endswith("...")
