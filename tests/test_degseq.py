import pytest

from sombortrees.degseq import (
    DegreeSequence,
    DegreeSequenceError,
    NotTreeRealizableError,
    is_tree_realizable,
    parse_degree_sequence,
    require_tree_realizable,
)
from sombortrees.oracle import realizable_sequences


def test_parse_comma_separated():
    seq = parse_degree_sequence("4,3,3,2,1,1,1,1,1,1")
    assert seq.degrees == (4, 3, 3, 2, 1, 1, 1, 1, 1, 1)


def test_parse_whitespace_separated():
    seq = parse_degree_sequence("1 1")
    assert seq.degrees == (1, 1)


def test_parse_unsorted_input_is_sorted_with_flag():
    seq = parse_degree_sequence("1,3,2")
    assert seq.degrees == (3, 2, 1)


@pytest.mark.parametrize("text", ["[2,1,1]", "(2, 1, 1)", "  2 1,1  "])
def test_parse_brackets_and_mixed_separators(text):
    seq = parse_degree_sequence(text)
    assert seq.degrees == (2, 1, 1)


@pytest.mark.parametrize("text", ["", "   ", "[]"])
def test_parse_empty_input(text):
    with pytest.raises(DegreeSequenceError):
        parse_degree_sequence(text)


def test_parse_non_integer_token():
    with pytest.raises(DegreeSequenceError, match="non-integer"):
        parse_degree_sequence("3,two,1")


def test_parse_negative_degree():
    with pytest.raises(DegreeSequenceError, match="negative"):
        parse_degree_sequence("3,-1,1")


def test_sequence_must_be_non_increasing():
    with pytest.raises(DegreeSequenceError):
        DegreeSequence((1, 2))


@pytest.mark.parametrize(
    "degrees, message", [((), "non-empty"), ((2, -1, 1), "negative")], ids=["empty", "negative"]
)
def test_sequence_rejects_empty_and_negative(degrees, message):
    with pytest.raises(DegreeSequenceError, match=message):
        DegreeSequence(degrees)


def test_sequence_rejects_non_integers():
    with pytest.raises(DegreeSequenceError):
        DegreeSequence((2.0, 1, 1))


def test_render_is_canonical():
    seq = DegreeSequence((4, 3, 3, 2, 1, 1, 1, 1, 1, 1))
    assert seq.render() == "4,3,3,2,1,1,1,1,1,1"


def test_parse_render_round_trip():
    for degrees in [(0,), (1, 1), (4, 3, 3, 2, 1, 1, 1, 1, 1, 1)]:
        seq = DegreeSequence(degrees)
        assert parse_degree_sequence(seq.render()) == seq


def test_realizable_examples():
    assert is_tree_realizable(DegreeSequence((4, 3, 3, 2, 1, 1, 1, 1, 1, 1)))
    assert is_tree_realizable(DegreeSequence((0,)))
    assert not is_tree_realizable(DegreeSequence((2, 2, 2, 1, 1, 1)))


def test_single_vertex_cases():
    assert is_tree_realizable(DegreeSequence((0,)))
    assert not is_tree_realizable(DegreeSequence((1,)))
    assert not is_tree_realizable(DegreeSequence((0, 0)))


def test_require_realizable_raises():
    with pytest.raises(NotTreeRealizableError):
        require_tree_realizable(DegreeSequence((2, 2, 2)))


def test_realizable_sequences_have_leaf_and_positive_max():
    # every realizable sequence with n >= 2 ends in a leaf degree
    for seq in realizable_sequences(max_n=8):
        assert seq.degrees[0] >= 1
        assert seq.degrees[-1] == 1
