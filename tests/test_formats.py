import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpkit import (
    GeneratorConfig,
    Instance,
    ParseError,
    classical_greedy,
    generate_instance,
    is_feasible,
    parse_instance,
    parse_orlib_scp,
    serialize_instance,
    validate_cover,
)
from scpkit.formats import _parse_bulk, _parse_lines

from helpers import families, to_instance


def test_serialize_one_set():
    assert serialize_instance(Instance.from_memberships(3, [[0, 2]])) == "3 1\n2 0 2\n"


def test_serialize_empty_set():
    assert serialize_instance(Instance.from_memberships(2, [[]])) == "2 1\n0\n"


def test_serialize_worked_example(example1):
    lines = serialize_instance(example1).splitlines()
    assert lines[0] == "10 5"
    assert lines[1] == "6 0 1 2 3 4 5"
    assert len(lines) == 6


def test_parse_inverse_of_serialize():
    inst = parse_instance("3 1\n2 0 2\n")
    assert inst == Instance.from_memberships(3, [[0, 2]])


def test_parse_tolerates_extra_whitespace():
    inst = parse_instance("\n  3   2 \n\n 2  0 2\n1 1\n\n")
    assert inst == Instance.from_memberships(3, [[0, 2], [1]])


def test_parse_reports_out_of_range_with_line():
    with pytest.raises(ParseError) as err:
        parse_instance("3 1\n2 0 5\n")
    assert str(err.value) == "element 5 out of range at line 2"
    assert err.value.line == 2


def test_parse_error_cases():
    cases = [
        ("", "empty input"),
        ("3\n", "malformed header"),
        ("3 1 9\n", "malformed header"),
        ("0 1\n1 0\n", "malformed header"),
        ("x 1\n", "invalid integer"),
        ("3 2\n1 0\n", "truncated set list"),
        ("3 1\n2 0\n", "truncated set list"),
        ("3 1\n1 0 1\n", "expected 1 elements, found 2"),
        ("3 1\n-1\n", "negative cardinality"),
        ("3 1\n2 0 0\n", "duplicate element 0"),
        ("3 1\n1 0\n1 1\n", "trailing content"),
        ("3 1\n1 z\n", "invalid integer 'z'"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_instance(text)


def test_parse_error_line_numbers_count_blank_lines():
    with pytest.raises(ParseError) as err:
        parse_instance("2 1\n\n\n1 9\n")
    assert err.value.line == 4


@given(families(max_n=18, max_m=6))
@settings(max_examples=150)
def test_native_round_trip(nf):
    inst = to_instance(*nf)
    assert parse_instance(serialize_instance(inst)) == inst


def test_native_round_trip_on_generated_instances():
    config = GeneratorConfig(n=100, m=20, q=0.3, seed=404)
    for i in range(30):
        inst = generate_instance(config, i)
        assert parse_instance(serialize_instance(inst)) == inst


def assert_parses_like_the_loop(text):
    try:
        expected = _parse_lines(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse_instance(text)
        assert (str(got.value), got.value.line) == (str(err), err.line)
    else:
        assert parse_instance(text) == expected


@st.composite
def native_lines(draw):
    """An instance's native token lines, elements in any order, with leading zeros."""
    n, family = draw(families(max_n=30, max_m=8, feasible=False))
    rows = [[n, len(family)]] + [
        [len(s)] + draw(st.permutations(sorted(s))) for s in family
    ]
    return n, [[str(v).zfill(len(str(v)) + draw(st.integers(0, 2))) for v in row] for row in rows]


@st.composite
def native_texts(draw, lines):
    """The lines as text with runs of spaces and blank lines around them."""
    spaces = st.text(" ", max_size=3)
    out = []
    for toks in lines:
        out.extend(draw(st.lists(spaces, max_size=2)))
        out.append(draw(spaces) + " ".join(t + draw(spaces) for t in toks))
    out.extend(draw(st.lists(spaces, max_size=2)))
    return "\n".join(out) + draw(st.sampled_from(["", "\n"]))


@given(st.data())
@settings(max_examples=200)
def test_bulk_parse_matches_the_loop_on_valid_texts(data):
    _, lines = data.draw(native_lines())
    text = data.draw(native_texts(lines))
    assert _parse_bulk(text) is not None
    assert_parses_like_the_loop(text)


_LINE_MUTATIONS = [
    "drop line",
    "duplicate line",
    "drop token",
    "extra token",
    "zero",
    "wrong cardinality",
    "out of range",
    "duplicate element",
    "plus sign",
    "underscore",
    "non-ASCII digit",
    "19 digits",
]
_TEXT_MUTATIONS = {"tab": (" ", "\t"), "form feed": (" ", "\x0c"), "CRLF": ("\n", "\r\n")}


@given(st.data(), st.sampled_from(_LINE_MUTATIONS + list(_TEXT_MUTATIONS)))
@settings(max_examples=300)
def test_bulk_parse_matches_the_loop_on_mutated_texts(data, mutation):
    n, lines = data.draw(native_lines())
    index = st.integers(0, len(lines) - 1)
    row = lines[data.draw(index)]
    token = data.draw(st.integers(0, len(row) - 1))
    body = lines[data.draw(st.integers(1, len(lines) - 1))]
    if mutation == "drop line":
        del lines[data.draw(index)]
    elif mutation == "duplicate line":
        lines.insert(data.draw(index), list(row))
    elif mutation == "drop token":
        del row[token]
    elif mutation == "extra token":
        row.insert(token, str(data.draw(st.integers(0, 3))))
    elif mutation == "zero":
        row[token] = "0"
    elif mutation == "wrong cardinality":
        body[0] = str(max(0, int(body[0]) + data.draw(st.sampled_from([-1, 1]))))
    elif mutation == "out of range":
        body.append(str(n + data.draw(st.integers(0, 3))))
        body[0] = str(int(body[0]) + 1)
    elif mutation == "duplicate element":
        body.extend([data.draw(st.sampled_from(body[1:]))] if len(body) > 1 else ["0", "0"])
        body[0] = str(len(body) - 1)
    elif mutation == "plus sign":
        row[token] = "+" + row[token]
    elif mutation == "underscore":
        row[token] = row[token][0] + "_" + row[token][1:] if len(row[token]) > 1 else "0_" + row[token]
    elif mutation == "non-ASCII digit":
        row[token] = row[token][:-1] + chr(0x660 + int(row[token][-1]))
    elif mutation == "19 digits":
        row[token] = row[token].zfill(19) if data.draw(st.booleans()) else "9" * 19
    text = data.draw(native_texts(lines))
    if mutation in _TEXT_MUTATIONS:
        old, new = _TEXT_MUTATIONS[mutation]
        text = text.replace(old, new) if data.draw(st.booleans()) else text.replace(old, new, 1)
    assert_parses_like_the_loop(text)


@pytest.mark.parametrize(
    "text",
    ["", "\n", " 7 ", "3 0\n", "0 1\n0\n", "3\n1 0\n", "3 1 9\n1 0\n", "3 1\n\n1 0 \n\n"],
)
def test_bulk_parse_matches_the_loop_on_edge_texts(text):
    assert_parses_like_the_loop(text)


def test_bulk_parse_reads_18_digit_tokens_and_leaves_19_to_the_loop():
    text = "3 1\n2 000000000000000000 000000000000000002\n"
    assert _parse_bulk(text) == parse_instance(text) == Instance.from_memberships(3, [[0, 2]])
    text = text.replace(" 0000", " 00000")
    assert _parse_bulk(text) is None
    assert parse_instance(text) == Instance.from_memberships(3, [[0, 2]])


def test_sparse_huge_header_parses_without_a_dense_scratch():
    text = "1000000000 1\n1 5\n"
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst == _parse_lines(text) == Instance(10**9, (1 << 5,))
    assert peak < 1 << 20


def test_orlib_transposes_rows_into_column_sets():
    # 2 rows, 2 columns; row 1 covered by column 1, row 2 by both columns
    text = "2 2\n1 1\n1 1\n2 1 2\n"
    inst = parse_orlib_scp(text)
    assert inst == Instance.from_memberships(2, [[0, 1], [1]])


def test_orlib_accepts_arbitrary_line_wrapping():
    wrapped = "2 2 1 1\n1\n1 2 1\n2"
    assert parse_orlib_scp(wrapped) == parse_orlib_scp("2 2\n1 1\n1 1\n2 1 2\n")


def test_orlib_rejects_zero_rows():
    with pytest.raises(ParseError, match="zero rows"):
        parse_orlib_scp("0 5\n")
    with pytest.raises(ParseError, match="zero columns"):
        parse_orlib_scp("5 0\n")


def test_orlib_warns_on_non_unit_costs():
    text = "2 2\n3 1\n1 1\n1 2\n"
    with pytest.warns(UserWarning, match="non-unit"):
        inst = parse_orlib_scp(text)
    assert inst.m == 2


def test_orlib_unit_costs_do_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_orlib_scp("1 2\n1 1\n2 1 2\n")


def test_orlib_error_cases():
    cases = [
        ("2 2\n1 1\n1 1\n2 1", "truncated"),
        ("2 2\n1 1\n", "truncated"),
        ("2", "truncated"),
        ("2 2\n1 1\n1 3\n1 1\n", "out of range"),
        ("2 2\n1 1\n1 0\n1 1\n", "out of range"),
        ("1 1\n1\n1 1 7\n", "trailing tokens"),
        ("2 2\n1 1\n-1\n1 1\n", "negative cover count"),
        ("a 2\n", "invalid integer"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_orlib_scp(text)


def test_orlib_rows_without_cover_are_allowed_but_infeasible():
    inst = parse_orlib_scp("2 1\n1\n1 1\n0\n")
    assert not is_feasible(inst)


def test_orlib_instance_is_solvable_when_feasible():
    text = "3 3\n1 1 1\n2 1 2\n2 2 3\n1 3\n"
    inst = parse_orlib_scp(text)
    cover, _ = classical_greedy(inst)
    assert validate_cover(inst, cover)
