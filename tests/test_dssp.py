"""Eight-class to three-class label reduction."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssph import DSSP_CODES, reduce_dssp, reduce_dssp_string
from ssph.errors import UnknownDsspCode

EXPECTED = {
    "H": "H", "G": "H", "I": "H",
    "E": "E", "B": "E",
    "T": "C", "S": "C", "C": "C",
}


@pytest.mark.parametrize("code,reduced", sorted(EXPECTED.items()))
def test_each_dssp_code_reduces_correctly(code, reduced):
    assert reduce_dssp(code) == reduced


def test_the_eight_codes_partition_into_three_classes():
    assert set(DSSP_CODES) == set(EXPECTED)
    by_class = {c: [k for k, v in EXPECTED.items() if v == c] for c in "HEC"}
    assert len(by_class["H"]) == 3
    assert len(by_class["E"]) == 2
    assert len(by_class["C"]) == 3


@pytest.mark.parametrize("bad", ["Q", "X", "h", " ", "1", ""])
def test_unknown_codes_are_rejected(bad):
    with pytest.raises(UnknownDsspCode):
        reduce_dssp(bad)


def test_reduce_string_all_codes():
    assert reduce_dssp_string("HGIEBTSC") == "HHHEECCC"


def test_reduce_string_empty():
    assert reduce_dssp_string("") == ""


def test_reduce_string_reports_offending_position():
    with pytest.raises(UnknownDsspCode, match="position 1"):
        reduce_dssp_string("HXH")


def test_reduce_string_reports_first_offence_only():
    with pytest.raises(UnknownDsspCode, match="position 2"):
        reduce_dssp_string("HGZZZ")


@given(st.text(alphabet=DSSP_CODES, max_size=200))
def test_property_reduction_preserves_length_and_alphabet(labels):
    reduced = reduce_dssp_string(labels)
    assert len(reduced) == len(labels)
    assert set(reduced) <= set("HEC")


@given(st.text(alphabet="HEC", max_size=100))
def test_property_reduction_is_identity_on_three_class_strings(labels):
    assert reduce_dssp_string(labels) == labels


@given(st.text(alphabet=DSSP_CODES + "hXZ\n é", max_size=60))
def test_property_reduction_matches_the_per_character_rule(labels):
    bad = [(pos, ch) for pos, ch in enumerate(labels) if ch not in EXPECTED]
    if bad:
        pos, ch = bad[0]
        message = f"position {pos}: {ch!r} is not a DSSP code"
        with pytest.raises(UnknownDsspCode, match=f"^{re.escape(message)}$"):
            reduce_dssp_string(labels)
    else:
        assert reduce_dssp_string(labels) == "".join(map(EXPECTED.get, labels))
