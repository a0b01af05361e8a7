"""FASTA, labeled datasets, prediction records, and the model file format."""

import os
import re
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io
from helpers import faulty_rows, random_model
from ssph import (ALPHABET, ClassModelSet, FastaRecord, Hmm, LabeledRecord,
                  format_fasta, format_label_records, format_labeled_dataset,
                  format_models, parse_fasta, parse_label_records,
                  parse_labeled_dataset, parse_models, planted_dataset,
                  planted_models, read_models, write_models)
from ssph.errors import (EmptyRecord, LengthMismatch, MissingHeader,
                         ModelFormatError, SsphError, UnknownDsspCode)
from ssph.io import atomic_write_text, read_text, write_texts


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
    with pytest.raises(MissingHeader, match="^expected '>' header, got 'ACDE'$"):
        parse_fasta("\n  ACDE\n>p1\nKLM\n")


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


def test_labeled_record_with_an_extra_line_reports_its_length_first():
    # The first two lines are a record of their own before the third is
    # reported, so a length mismatch in them wins.
    with pytest.raises(LengthMismatch, match="^record 'x': sequence length 4 "
                                             "!= label length 3$"):
        parse_labeled_dataset(">x\nACDE\nHHH\nEEE\n")
    with pytest.raises(MissingHeader, match="^expected '>' header, got 'EEE'$"):
        parse_labeled_dataset(">x\nACD\nHHH\nEEE\n")


def test_short_record_before_a_blank_header_reports_the_short_record():
    # The record is checked before the next header's id is read.
    with pytest.raises(EmptyRecord, match="^record 'x' is missing its "
                                          "sequence or label line$"):
        parse_labeled_dataset(">x\nACDE\n>\n")


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


@pytest.mark.parametrize("mode", [0o600, 0o640], ids=["0o600", "0o640"])
def test_write_texts_keeps_the_mode_of_an_existing_file(tmp_path, mode):
    # As ``open(path, "w")`` does, under a umask that would give 0o644 to a
    # new file; a symlink's target lends its mode, and the link is replaced.
    (tmp_path / "a").write_text("OLD\n")
    (tmp_path / "target").write_text("OLD\n")
    (tmp_path / "link").symlink_to("target")
    for name in ("a", "target"):
        (tmp_path / name).chmod(mode)
    old = os.umask(0o022)
    try:
        write_texts([(tmp_path / "a", "NEW\n"), (tmp_path / "link", "NEW\n")])
    finally:
        os.umask(old)
    for name in ("a", "link"):
        assert (tmp_path / name).read_text() == "NEW\n"
        assert not (tmp_path / name).is_symlink()
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "link",
                                                          "target"]


def test_read_text_of_a_file_not_utf8_names_its_path(tmp_path):
    path = tmp_path / "bad.fa"
    path.write_bytes(b">a\nAC\xffDE\n")
    with pytest.raises(ValueError) as excinfo:
        read_text(path)
    assert str(excinfo.value) == ("'utf-8' codec can't decode byte 0xff in "
                                  "position 5: invalid start byte: "
                                  f"{str(path)!r}")


def test_atomic_write_text_failure_leaves_no_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(tmp_path / "out.txt", "\ud800")  # not encodable
    assert list(tmp_path.iterdir()) == []


def test_write_texts_renames_nothing_when_a_later_text_fails(tmp_path):
    # The first output already exists; the second text cannot be encoded,
    # so the first keeps its bytes and no temp file is left.
    (tmp_path / "a").write_bytes(b"OLD\n")
    with pytest.raises(UnicodeEncodeError):
        write_texts([(tmp_path / "a", "NEW\n"), (tmp_path / "b", "\ud800")])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == \
        {"a": b"OLD\n"}


# ---------------------------------------------------------------- line breaks
# Characters that ``str.splitlines`` breaks lines at but the readers do not:
# VT, FF, FS, GS, RS, NEL, U+2028, U+2029 and a CR not followed by LF.
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                   "\u2029", "\r"]


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_record_readers_break_lines_at_lf_only(char):
    with pytest.raises(EmptyRecord) as excinfo:
        parse_fasta(f">a desc{char}ACDE\n")
    assert str(excinfo.value) == \
        f"record {'a desc' + char + 'ACDE'!r} has no sequence"
    # Inside a sequence line the character is whitespace, and is dropped.
    assert parse_fasta(f">a\nAC{char}DE\n") == [FastaRecord("a", "ACDE")]
    with pytest.raises(UnknownDsspCode, match="^position 2: "):
        parse_label_records(f">a\nHH{char}EE\n")


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_parse_models_breaks_lines_at_lf_only(char):
    text = format_models(random_model_set(3)).replace("\n", char, 1)
    with pytest.raises(ModelFormatError) as excinfo:
        parse_models(text)
    first = f"SSPH-HMM v1{char}alphabet {ALPHABET}"
    assert str(excinfo.value) == \
        f"line 1: expected 'SSPH-HMM v1', got {first!r}"


def test_readers_read_crlf_files_as_lf_files():
    text = format_models(random_model_set(3))
    assert models_equal(parse_models(text.replace("\n", "\r\n")),
                        random_model_set(3))
    assert parse_fasta(">a\r\nAC\r\nDE\r\n") == [FastaRecord("a", "ACDE")]
    assert parse_label_records(">a\r\nHHEE\r\n") == [("a", "HHEE")]


# A final LF adds no empty line, and only one CR before an LF goes with it.
@pytest.mark.parametrize("text, message", [
    ("", "line 1: unexpected end of file"),
    ("SSPH-HMM v1", "line 2: unexpected end of file"),
    ("SSPH-HMM v1\n", "line 2: unexpected end of file"),
    ("SSPH-HMM v1\r\n", "line 2: unexpected end of file"),
    ("SSPH-HMM v1\n\n", f"line 2: expected 'alphabet {ALPHABET}', got ''"),
    ("SSPH-HMM v1\r\r\n",
     "line 1: expected 'SSPH-HMM v1', got 'SSPH-HMM v1\\r'"),
    ("SSPH-HMM v1\r", "line 1: expected 'SSPH-HMM v1', got 'SSPH-HMM v1\\r'"),
])
def test_parse_models_numbers_lines_by_lf(text, message):
    with pytest.raises(ModelFormatError) as excinfo:
        parse_models(text)
    assert str(excinfo.value) == message


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
    lines[target] = "transition 0.5 0.15"  # sums to 0.65
    message = f"line {target + 1}: 'transition' row sums to 0.65, not 1"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
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
    # The error names the line that holds the content, past blank lines.
    text = format_models(planted_models(leak=0.1))
    assert len(text.splitlines()) == 23
    with pytest.raises(ModelFormatError) as excinfo:
        parse_models(text + "\n\n\njunk\n")
    assert str(excinfo.value) == \
        "line 27: trailing content after model blocks"


def test_parse_models_accepts_trailing_blank_lines():
    text = format_models(random_model_set(8)) + "\n\n"
    assert models_equal(parse_models(text), random_model_set(8))


def test_parse_models_reports_a_short_file_before_allocating_its_rows():
    # The block declares 4 million states and ends at its 'states' line.
    text = f"SSPH-HMM v1\nalphabet {ALPHABET}\nmodel H\nstates 4000000\n"
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError) as excinfo:
            parse_models(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == "line 5: unexpected end of file"
    assert peak < 1_000_000


# ---------------------------------------------------- parser memory bound

PARSERS = [parse_fasta, parse_label_records, parse_labeled_dataset,
           parse_models]
# Every parser's tracemalloc peak is at most PEAK_CONSTANT bytes plus a
# fixed multiple of len(text). Any text: WORST_BYTES_PER_CHAR. The worst
# measured (CPython 3.11) is 71.5 bytes per character, for FASTA records
# of one astral character each as id and sequence (">😀\n😀\n" repeated):
# each line is its own 80-byte str object. Benchmark-shaped files:
# SHAPED_BYTES_PER_CHAR; measured 3.0-3.8 for the record formats and 8.7
# for a model file padded with blank lines to 100 times its size (an
# 8-byte list slot per blank line).
PEAK_CONSTANT = 16_384
WORST_BYTES_PER_CHAR = 80
SHAPED_BYTES_PER_CHAR = 10


def traced_peak(call):
    """tracemalloc peak of ``call()``, after one untraced call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def failing_peak(parse, text):
    """:func:`traced_peak` of ``parse(text)``, which may fail on ``text`` as
    a failed run would."""
    def call():
        try:
            parse(text)
        except (SsphError, ValueError):
            pass
    return traced_peak(call)


def shaped_text(parse):
    """A valid input for ``parse`` shaped like the benchmark's: twelve
    planted chains of 4 to 1000 residues, 90 labelled chains of 110, or a
    3-state model file."""
    if parse is parse_models:
        return format_models(random_model_set(5, num_states=3))
    if parse is parse_labeled_dataset:
        return format_labeled_dataset(planted_dataset(90, 110, seed=3,
                                                      stay=0.95))
    chains = [planted_dataset(1, round(4 * 250 ** (i / 11)), seed=100 + i,
                              stay=0.95)[0] for i in range(12)]
    if parse is parse_fasta:
        return format_fasta([FastaRecord(f"p{i}", c.sequence)
                             for i, c in enumerate(chains)])
    return format_label_records([(f"p{i}", c.labels)
                                 for i, c in enumerate(chains)])


@pytest.mark.parametrize("copies", [1, 10, 100])
@pytest.mark.parametrize("parse", PARSERS)
def test_parser_peak_is_linear_in_a_benchmark_shaped_input(parse, copies):
    text = shaped_text(parse)
    # A model file holds three blocks, so it grows by trailing blank lines.
    text = (text + "\n" * (len(text) * (copies - 1)) if parse is parse_models
            else text * copies)
    # Valid: a parse error would fail the test.
    assert traced_peak(lambda: parse(text)) \
        <= PEAK_CONSTANT + SHAPED_BYTES_PER_CHAR * len(text)


@pytest.mark.parametrize("parse", PARSERS)
def test_parser_peak_of_the_measured_worst_case_is_under_the_bound(parse):
    text = ">\U0001F600\n\U0001F600\n" * 25_000
    assert failing_peak(parse, text) \
        <= PEAK_CONSTANT + WORST_BYTES_PER_CHAR * len(text)


# Characters that make short, costly lines: line breaks, headers, letters
# the formats use, and non-ASCII ones of two and four bytes.
_MEMORY_CHARS = st.sampled_from(["\n", "\r", ">", " ", "A", "H", "x", "0",
                                 "€", "\U0001F600"]) | st.characters()


@given(st.text(_MEMORY_CHARS, min_size=1, max_size=12),
       st.sampled_from(PARSERS))
@settings(max_examples=60, deadline=None)
def test_property_parser_peak_is_bounded_on_any_text(unit, parse):
    # The drawn unit repeated to about 4000 characters, so the per-character
    # term, not the constant, carries the bound.
    text = unit * (4000 // len(unit))
    assert failing_peak(parse, text) \
        <= PEAK_CONSTANT + WORST_BYTES_PER_CHAR * len(text)


def planted_lines():
    """The planted model file as lines: 2 states, so model H is lines 3-9
    (initial on line 5, transitions on 6-7, emissions on 8-9)."""
    return format_models(planted_models(leak=0.1)).splitlines()


def emission_with_first(value):
    fields = planted_lines()[7].split(" ")
    return " ".join(["emission", value] + fields[2:])


# Each case: {0-based line index: replacement, appended at the end of the
# file, or None to cut the file there}, and the exact message. Several errors in one file report the one
# on the earliest line.
MODEL_ERRORS = [
    ({0: "SSPH-HMM v2"}, "line 1: expected 'SSPH-HMM v1', got 'SSPH-HMM v2'"),
    ({1: "alphabet ACDEFG"},
     f"line 2: expected 'alphabet {ALPHABET}', got 'alphabet ACDEFG'"),
    ({9: "model C"}, "line 10: expected 'model E', got 'model C'"),
    ({3: "states two"}, "line 4: expected 'states <k>', got 'states two'"),
    ({3: "states 0"}, "line 4: states must be >= 1"),
    ({5: "emission 0.85 0.15"},
     "line 6: expected 'transition' row, got 'emission 0.85 0.15'"),
    ({4: "initial 0.6 0.4 0.0"},
     "line 5: expected 2 values on 'initial' row, got 3"),
    ({6: "transition 0.3 x"}, "line 7: 'transition' row has a non-numeric field"),
    ({4: "initial 1.5 -0.5"}, "line 5: 'initial' row has entries outside [0, 1]"),
    ({7: emission_with_first("nan")},
     "line 8: 'emission' row has entries outside [0, 1]"),
    ({5: "transition 0.5 0.15"}, "line 6: 'transition' row sums to 0.65, not 1"),
    ({8: emission_with_first("0.5")},
     "line 9: 'emission' row sums to 1.337738095238095, not 1"),
    ({7: None}, "line 8: unexpected end of file"),
    ({9: None}, "line 10: unexpected end of file"),
    ({23: "", 24: "junk"}, "line 25: trailing content after model blocks"),
    # The earliest line wins across the row checks, whatever their kind.
    ({4: "initial 0.5 0.4", 7: "emision 1.0"},
     "line 5: 'initial' row sums to 0.9, not 1"),
    ({5: "transition 0.85 x", 8: emission_with_first("nan")},
     "line 6: 'transition' row has a non-numeric field"),
    ({5: "transition 0.5 0.15", 7: emission_with_first("2.0")},
     "line 6: 'transition' row sums to 0.65, not 1"),
    ({7: emission_with_first("2.0"), 8: "emission 1.0"},
     "line 8: 'emission' row has entries outside [0, 1]"),
    ({6: "transition 0.3 0.3", 8: None},
     "line 7: 'transition' row sums to 0.6, not 1"),
    ({8: emission_with_first("0.5"), 10: "states x"},
     "line 9: 'emission' row sums to 1.337738095238095, not 1"),
    # Python's int() refuses strings of more than 4300 digits by default.
    ({3: "states " + "9" * 5000}, "line 4: states has too many digits"),
]


@pytest.mark.parametrize("edits, message", MODEL_ERRORS)
def test_parse_models_error_messages(edits, message):
    lines = planted_lines()
    for index, line in sorted(edits.items()):
        if line is None:
            del lines[index:]
        elif index == len(lines):
            lines.append(line)
        else:
            lines[index] = line
    with pytest.raises(ModelFormatError) as excinfo:
        parse_models("\n".join(lines) + "\n")
    assert str(excinfo.value) == message


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_property_model_values_parse_to_the_bits_of_float(x):
    lines = planted_lines()
    lines[4] = f"initial {x!r} {1.0 - x!r}"
    initial = parse_models("\n".join(lines) + "\n")["H"].initial
    assert initial.tobytes() == \
        np.array([float(repr(x)), float(repr(1.0 - x))]).tobytes()


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=21,
                max_size=21).filter(lambda v: sum(v) > 0),
       st.integers(min_value=0, max_value=1))
@settings(max_examples=200, deadline=None)
def test_property_emission_rows_parse_to_the_bits_of_float(weights, row):
    values = [float(v) for v in np.array(weights) / sum(weights)]
    lines = planted_lines()
    lines[7 + row] = "emission " + " ".join(repr(v) for v in values)
    emission = parse_models("\n".join(lines) + "\n")["H"].emission
    assert emission[row].tobytes() == \
        np.array([float(repr(v)) for v in values]).tobytes()


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=21,
                max_size=21),
       st.integers(min_value=0, max_value=1))
@settings(max_examples=200, deadline=None)
def test_property_row_sum_message_prints_the_sum_of_the_row(values, row):
    total = float(np.array(values).sum())
    if abs(total - 1.0) <= 1e-9:
        return
    lines = planted_lines()
    lines[7 + row] = "emission " + " ".join(repr(v) for v in values)
    with pytest.raises(ModelFormatError) as excinfo:
        parse_models("\n".join(lines) + "\n")
    assert str(excinfo.value) == \
        f"line {8 + row}: 'emission' row sums to {total!r}, not 1"


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_property_model_round_trip(seed, num_states):
    models = random_model_set(seed, num_states=num_states)
    assert models_equal(parse_models(format_models(models)), models)


def row_fault(row):
    """The end of the model reader's message for ``row`` if the ``Hmm``
    constructor rejects the row on its own, else None."""
    try:
        Hmm(initial=[1.0], transition=[[1.0]], emission=[row])
    except ValueError as exc:
        if "outside" in str(exc):
            return "has entries outside [0, 1]"
        return f"sums to {float(np.sum(row))!r}, not 1"
    return None


@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=300, deadline=None)
def test_property_model_rows_are_checked_as_the_constructor_checks_them(
        seed, k, block, data):
    rows = [*data.draw(faulty_rows(k + 1, k)),
            *data.draw(faulty_rows(k, len(ALPHABET)))]
    keywords = ["initial"] + ["transition"] * k + ["emission"] * k
    lines = format_models(random_model_set(seed, k)).splitlines()
    first = 2 + block * (3 + 2 * k) + 2  # index of the block's initial row
    for i, (keyword, row) in enumerate(zip(keywords, rows)):
        lines[first + i] = keyword + " " + " ".join(map(repr, row.tolist()))
    text = "\n".join(lines) + "\n"
    try:
        Hmm(initial=rows[0], transition=rows[1:k + 1], emission=rows[k + 1:])
        rejected = False
    except ValueError:
        rejected = True
    faults = [(first + 1 + i, keyword, fault)
              for i, (keyword, row) in enumerate(zip(keywords, rows))
              if (fault := row_fault(row))]
    assert rejected == bool(faults)
    if rejected:
        line_no, keyword, fault = faults[0]
        with pytest.raises(ModelFormatError) as excinfo:
            parse_models(text)
        assert str(excinfo.value) == f"line {line_no}: '{keyword}' row {fault}"
    else:
        model = parse_models(text)["HEC"[block]]
        assert model.initial.tobytes() == rows[0].tobytes()
        assert model.transition.tobytes() == np.array(rows[1:k + 1]).tobytes()
        assert model.emission.tobytes() == np.array(rows[k + 1:]).tobytes()


# ------------------------------------------------- differential: the readers
# reference_io holds the line-by-line readers these replaced. Each reader
# must return the same records, or raise the same error type and message,
# apart from two deliberate message changes (see expected_outcome).

HEADERS = [">a", ">b c", " >d ", ">>e", ">", "> ", ">a\x85ACDE"]
BODY_LINES = ["ACDE", "acdx", "A C", "ACDEF", "HHEC", "HGIEB", "HE", "CC",
              " EEE ", "HXC", "b",
              *(f"HE{char}CC" for char in NOT_LINE_BREAKS)]
BLANK_LINES = ["", "   ", "\t", *NOT_LINE_BREAKS]


@st.composite
def record_texts(draw):
    """Headers, residue and DSSP lines and blank lines, in records of any
    number of lines, sometimes after data that has no header."""
    body = st.sampled_from(BODY_LINES + BLANK_LINES)
    lines = draw(st.lists(body, max_size=2))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lines.append(draw(st.sampled_from(HEADERS)))
        lines += draw(st.lists(body, max_size=4))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def outcome(parse, text):
    try:
        result = parse(text)
    except (SsphError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, ClassModelSet):
        return [[result[label].initial.tolist(),
                 result[label].transition.tolist(),
                 result[label].emission.tolist()] for label in "HEC"]
    return result


def expected_outcome(reference, text):
    expected = outcome(reference, text)
    if expected == (MissingHeader, "sequence data before any '>' header"):
        # FASTA now words this as the two fixed-line formats do.
        first = next(line.strip() for line in reference_io._lines(text)
                     if line.strip())
        return MissingHeader, f"expected '>' header, got {first!r}"
    if isinstance(expected, tuple) and expected[0] is ModelFormatError:
        # Row sums now print as Python floats, not as np.float64(...).
        return ModelFormatError, re.sub(r"np\.float64\(([^)]*)\)", r"\1",
                                        expected[1])
    return expected


@pytest.mark.parametrize("parse, reference", [
    (parse_fasta, reference_io.parse_fasta),
    (parse_labeled_dataset, reference_io.parse_labeled_dataset),
    (parse_label_records, reference_io.parse_label_records),
], ids=["fasta", "labeled_dataset", "label_records"])
@given(text=record_texts())
@settings(max_examples=200, deadline=None)
def test_property_record_readers_match_the_reference(parse, reference, text):
    assert outcome(parse, text) == expected_outcome(reference, text)


MODEL_LINES = ["", "  ", "junk", "SSPH-HMM v1", "model H", "model E",
               "states 0", "states 1", "states 3", "states " + "1" * 5000,
               "initial 1.0", "initial 0.5 0.5", "transition 0.5 0.5",
               "emission 1.0",
               *NOT_LINE_BREAKS, "SSPH-HMM v1\r", "model H\x1cstates 1",
               "initial 1.0\u2028", "transition 0.5\x0c0.5"]
MODEL_FIELDS = ["0.5", "0", "1", "1.5", "-0.0", "nan", "inf", "1e-300", "x",
                ""]


# Faults of one probability row: a field replaced by a value out of range,
# by one that moves the row sum off 1 or by a non-numeric one; a field
# dropped or added; the keyword replaced.
ROW_FAULTS = ["1.5", "-0.5", "nan", "0.25", "0", "x", "", "drop", "extra",
              "keyword"]


def fault_row(line, field, fault):
    fields = line.split(" ")
    if fault == "drop":
        del fields[-1]
    elif fault == "extra":
        fields.append("0")
    elif fault == "keyword":
        fields[0] = "row"
    elif len(fields) == 1:  # an earlier "drop" took the row's only value
        fields.append(fault)
    else:
        fields[1 + field % (len(fields) - 1)] = fault
    return " ".join(fields)


@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2),
       st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.integers(min_value=0, max_value=30),
                          st.sampled_from(ROW_FAULTS)),
                max_size=2),
       st.lists(st.tuples(st.sampled_from(["delete", "copy", "replace",
                                           "field", "truncate", "append"]),
                          st.integers(min_value=0, max_value=200),
                          st.integers(min_value=0, max_value=30),
                          st.sampled_from(MODEL_LINES + MODEL_FIELDS)),
                max_size=3))
@settings(max_examples=200, deadline=None)
def test_property_model_parser_matches_the_reference(seed, num_states, block,
                                                     row_faults, mutations):
    lines = format_models(random_model_set(seed, num_states)).splitlines()
    # Up to two faulty rows in one model block, so that the error order
    # between rows of a block is compared too; then edits anywhere.
    first_row = 2 + block * (3 + 2 * num_states) + 2
    for row, field, fault in row_faults:
        i = first_row + row % (1 + 2 * num_states)
        lines[i] = fault_row(lines[i], field, fault)
    for kind, i, j, token in mutations:
        i %= len(lines) + 1
        if kind == "append" or i == len(lines):
            lines.append(token)
        elif kind == "delete":
            del lines[i]
        elif kind == "copy":
            lines.insert(i, lines[i])
        elif kind == "replace":
            lines[i] = token
        elif kind == "truncate":
            del lines[i:]
        else:
            fields = lines[i].split(" ")
            fields[j % len(fields)] = token
            lines[i] = " ".join(fields)
    text = "\n".join(lines) + "\n"
    assert outcome(parse_models, text) == \
        expected_outcome(reference_io.parse_models, text)
