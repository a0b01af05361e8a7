"""FASTA, labeled datasets, prediction records, and the model file format."""

import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_model
from ssph import (ALPHABET, ClassModelSet, FastaRecord, LabeledRecord,
                  format_fasta, format_label_records, format_labeled_dataset,
                  format_models, parse_fasta, parse_label_records,
                  parse_labeled_dataset, parse_models, read_models,
                  write_models)
from ssph.errors import (EmptyRecord, LengthMismatch, MissingHeader,
                         ModelFormatError)
from ssph.io import atomic_write_text


def models_equal(a, b):
    return all(
        np.array_equal(a[label].initial, b[label].initial)
        and np.array_equal(a[label].transition, b[label].transition)
        and np.array_equal(a[label].emission, b[label].emission)
        for label in "HEC")


def random_model_set(seed, num_states=2):
    rng = np.random.default_rng(seed)
    return ClassModelSet({label: random_model(rng, num_states, 21)
                          for label in "HEC"})


# --------------------------------------------------------------------- fasta

def test_parse_fasta_concatenates_wrapped_lines():
    records = parse_fasta(">p1\nACDE\nFGHI\n")
    assert records == [FastaRecord("p1", "ACDEFGHI")]


def test_parse_fasta_folds_non_canonical_residues():
    records = parse_fasta(">p1\nAbZ\n")
    assert records == [FastaRecord("p1", "AXX")]


def test_parse_fasta_multiple_records_and_blank_lines():
    text = "\n>first\nACD\n\nEFG\n>second\nKLM\n"
    records = parse_fasta(text)
    assert [r.id for r in records] == ["first", "second"]
    assert [r.sequence for r in records] == ["ACDEFG", "KLM"]


def test_parse_fasta_rejects_headerless_data():
    with pytest.raises(MissingHeader):
        parse_fasta("ACDE\n")


def test_parse_fasta_rejects_empty_sequence():
    with pytest.raises(EmptyRecord, match="p1"):
        parse_fasta(">p1\n>p2\nACD\n")


def test_parse_fasta_rejects_blank_record_id():
    with pytest.raises(ValueError):
        parse_fasta("> \nACD\n")


def test_parse_fasta_empty_input_gives_no_records():
    assert parse_fasta("") == []


def test_fasta_round_trip():
    records = [FastaRecord("a", "ACDEFG"), FastaRecord("b|x 1", "XXKLM")]
    assert parse_fasta(format_fasta(records)) == records


@given(st.lists(
    st.tuples(st.text(alphabet="abcdefgh123_", min_size=1, max_size=10),
              st.text(alphabet=ALPHABET, min_size=1, max_size=60)),
    max_size=8))
@settings(max_examples=60, deadline=None)
def test_property_fasta_round_trip(pairs):
    records = [FastaRecord(f"{i}_{rid}", seq)
               for i, (rid, seq) in enumerate(pairs)]
    assert parse_fasta(format_fasta(records)) == records


# ----------------------------------------------------------- labeled records

def test_parse_labeled_dataset_reduces_dssp_labels():
    records = parse_labeled_dataset(">x\nACDEG\nHGIEB\n")
    assert records == [LabeledRecord("x", "ACDEG", "HHHEE")]


def test_parse_labeled_dataset_passes_three_class_labels_through():
    records = parse_labeled_dataset(">x\nACDEG\nHHECC\n")
    assert records[0].labels == "HHECC"


def test_parse_labeled_dataset_rejects_length_mismatch():
    with pytest.raises(LengthMismatch, match="'x'"):
        parse_labeled_dataset(">x\nACDE\nHHH\n")


def test_parse_labeled_dataset_rejects_truncated_record():
    with pytest.raises(EmptyRecord):
        parse_labeled_dataset(">x\nACDE\n")
    with pytest.raises(EmptyRecord):
        parse_labeled_dataset(">x\nACDE\n>y\nACD\nHHH\n")


def test_parse_labeled_dataset_rejects_missing_header():
    with pytest.raises(MissingHeader):
        parse_labeled_dataset("ACDE\nHHHH\n")


def test_labeled_dataset_round_trip():
    records = [LabeledRecord("a", "ACDEF", "HHECC"),
               LabeledRecord("b", "KLM", "EEE")]
    assert parse_labeled_dataset(format_labeled_dataset(records)) == records


def test_parse_label_records_two_line_format():
    records = parse_label_records(">a\nHHEC\n>b\nCCC\n")
    assert records == [("a", "HHEC"), ("b", "CCC")]


def test_parse_label_records_reduces_dssp():
    assert parse_label_records(">a\nGIB\n") == [("a", "HHE")]


def test_parse_label_records_rejects_missing_label_line():
    with pytest.raises(EmptyRecord, match="'a'"):
        parse_label_records(">a\n>b\nHEC\n")


def test_label_readers_reject_blank_record_id():
    with pytest.raises(ValueError, match="empty record id"):
        parse_label_records(">\nHEC\n")
    with pytest.raises(ValueError, match="empty record id"):
        parse_labeled_dataset(">  \nACD\nHEC\n")


def test_label_records_round_trip():
    records = [("a", "HEC"), ("b", "CCCHH")]
    assert parse_label_records(format_label_records(records)) == records


# ------------------------------------------------------------- atomic writes

@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_atomic_write_text_mode_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.txt", "HEC\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_text_failure_leaves_no_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(tmp_path / "out.txt", "\ud800")  # not encodable
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------- model file

def test_model_file_layout():
    text = format_models(random_model_set(1))
    lines = text.splitlines()
    assert lines[0] == "SSPH-HMM v1"
    assert lines[1] == f"alphabet {ALPHABET}"
    assert lines[2] == "model H"
    assert lines[3] == "states 2"
    assert lines[4].startswith("initial ")
    assert len(lines[4].split(" ")) == 3
    assert lines[5].startswith("transition ")
    emission_row = next(l for l in lines if l.startswith("emission "))
    assert len(emission_row.split(" ")) == 22
    assert "model E" in lines and "model C" in lines
    assert text.endswith("\n")


def test_model_round_trip_is_bit_identical():
    for seed in range(5):
        models = random_model_set(seed, num_states=seed % 3 + 1)
        assert models_equal(parse_models(format_models(models)), models)


def test_model_file_round_trip_through_disk(tmp_path):
    models = random_model_set(9, num_states=3)
    path = tmp_path / "models.txt"
    write_models(models, path)
    assert models_equal(read_models(path), models)
    # a second write is byte-identical
    text = path.read_bytes()
    write_models(models, path)
    assert path.read_bytes() == text


def test_parse_models_rejects_wrong_version():
    text = format_models(random_model_set(2)).replace("SSPH-HMM v1",
                                                      "SSPH-HMM v2", 1)
    with pytest.raises(ModelFormatError, match="line 1"):
        parse_models(text)


def test_parse_models_rejects_wrong_alphabet():
    text = format_models(random_model_set(2))
    text = text.replace(f"alphabet {ALPHABET}", "alphabet ACDEFG", 1)
    with pytest.raises(ModelFormatError, match="line 2"):
        parse_models(text)


def test_parse_models_rejects_bad_row_sum_with_line_number():
    lines = format_models(random_model_set(3)).splitlines()
    target = next(i for i, l in enumerate(lines) if l.startswith("transition"))
    fields = lines[target].split(" ")
    fields[1] = repr(float(fields[1]) + 0.1)  # break the row sum
    lines[target] = " ".join(fields)
    with pytest.raises(ModelFormatError, match=f"line {target + 1}"):
        parse_models("\n".join(lines) + "\n")


def test_parse_models_rejects_out_of_range_probability():
    lines = format_models(random_model_set(3)).splitlines()
    target = next(i for i, l in enumerate(lines) if l.startswith("initial"))
    lines[target] = "initial 1.5 -0.5"
    with pytest.raises(ModelFormatError, match=f"line {target + 1}"):
        parse_models("\n".join(lines) + "\n")
    lines[target] = "initial nan 0.4"
    with pytest.raises(ModelFormatError, match=f"line {target + 1}"):
        parse_models("\n".join(lines) + "\n")


def test_parse_models_rejects_non_numeric_field():
    lines = format_models(random_model_set(4)).splitlines()
    target = next(i for i, l in enumerate(lines) if l.startswith("initial"))
    fields = lines[target].split(" ")
    fields[1] = "zero.5"
    lines[target] = " ".join(fields)
    with pytest.raises(ModelFormatError, match="non-numeric"):
        parse_models("\n".join(lines) + "\n")


def test_parse_models_rejects_missing_block():
    lines = format_models(random_model_set(5)).splitlines()
    cut = lines.index("model C")
    with pytest.raises(ModelFormatError, match="end of file"):
        parse_models("\n".join(lines[:cut]) + "\n")


def test_parse_models_rejects_wrong_field_count():
    lines = format_models(random_model_set(6)).splitlines()
    target = next(i for i, l in enumerate(lines) if l.startswith("initial"))
    lines[target] = lines[target] + " 0.0"
    with pytest.raises(ModelFormatError, match="expected 2 values"):
        parse_models("\n".join(lines) + "\n")


@pytest.mark.parametrize("count", ["\u00b2", "\u0662", "-1", "2.0", ""])
def test_parse_models_rejects_a_non_ascii_or_malformed_state_count(count):
    lines = format_models(random_model_set(6)).splitlines()
    target = lines.index("states 2")
    lines[target] = f"states {count}"
    with pytest.raises(ModelFormatError, match=f"line {target + 1}: expected"):
        parse_models("\n".join(lines) + "\n")


def test_parse_models_rejects_trailing_content():
    text = format_models(random_model_set(7)) + "extra junk\n"
    with pytest.raises(ModelFormatError, match="trailing"):
        parse_models(text)


def test_parse_models_accepts_trailing_blank_lines():
    text = format_models(random_model_set(8)) + "\n\n"
    assert models_equal(parse_models(text), random_model_set(8))


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_property_model_round_trip(seed, num_states):
    models = random_model_set(seed, num_states=num_states)
    assert models_equal(parse_models(format_models(models)), models)
