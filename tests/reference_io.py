"""Reference readers for the differential tests in test_io.py.

These are the line-by-line readers ``ssph.io`` used before one ``>id``
record reader and a cursor-free model parser replaced them: the FASTA header
state machine, the positional chunker behind the two fixed-line formats, and
the line-cursor model parser. They are kept as written, so the tests can
show that the readers in ``ssph.io`` return the same records, or raise the
same errors, line for line. Two deliberate changes: the model parser names
the line that holds trailing content, as ``ssph.io`` now does, and every
reader splits its text with ``_lines`` below, which breaks lines at LF only,
where ``str.splitlines`` also broke them at CR, VT, FF, NEL, U+2028 and
others.
"""

import numpy as np

from ssph import ClassModelSet, Hmm
from ssph.dssp import CLASS_ORDER, reduce_dssp_string
from ssph.errors import (EmptyRecord, LengthMismatch, MissingHeader,
                         ModelFormatError)
from ssph.hmm import ROW_SUM_TOL
from ssph.io import FastaRecord, LabeledRecord
from ssph.predictor import ALPHABET, fold_residues


def _lines(text):
    """Lines ended by LF, each without one CR before its LF; the text after
    the last LF is a line unless it is empty."""
    *lines, last = text.split("\n")
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return lines + [last] if last else lines


def _record_id(header):
    rec_id = header[1:].strip()
    if not rec_id:
        raise ValueError("header line with empty record id")
    return rec_id


def parse_fasta(text):
    records = []
    current_id = None
    parts = []

    def finalize():
        sequence = fold_residues("".join(parts))
        if not sequence:
            raise EmptyRecord(f"record {current_id!r} has no sequence")
        records.append(FastaRecord(current_id, sequence))

    for line in _lines(text):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if current_id is not None:
                finalize()
            current_id = _record_id(line)
            parts = []
        else:
            if current_id is None:
                raise MissingHeader("sequence data before any '>' header")
            parts.append(line)
    if current_id is not None:
        finalize()
    return records


def _read_records(text, body):
    lines = [line.strip() for line in _lines(text)]
    lines = [line for line in lines if line]
    k = len(body)
    for i in range(0, len(lines), k + 1):
        header = lines[i]
        if not header.startswith(">"):
            raise MissingHeader(f"expected '>' header, got {header!r}")
        rec_id = _record_id(header)
        fields = lines[i + 1:i + 1 + k]
        if len(fields) < k or any(part.startswith(">") for part in fields):
            raise EmptyRecord(f"record {rec_id!r} is missing its "
                              f"{' or '.join(body)} line")
        yield rec_id, fields


def parse_labeled_dataset(text):
    records = []
    for rec_id, (residues, dssp) in _read_records(text, ("sequence", "label")):
        sequence = fold_residues(residues)
        labels = reduce_dssp_string(dssp)
        if len(sequence) != len(labels):
            raise LengthMismatch(
                f"record {rec_id!r}: sequence length {len(sequence)} != "
                f"label length {len(labels)}")
        records.append(LabeledRecord(rec_id, sequence, labels))
    return records


def parse_label_records(text):
    return [(rec_id, reduce_dssp_string(labels))
            for rec_id, (labels,) in _read_records(text, ("label",))]


class _LineCursor:
    def __init__(self, text):
        self.lines = _lines(text)
        self.pos = 0  # 0-based; reported line numbers are 1-based

    @property
    def line_no(self):
        return self.pos

    def next(self):
        if self.pos >= len(self.lines):
            raise ModelFormatError(
                f"line {self.pos + 1}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def done(self):
        return all(not line.strip() for line in self.lines[self.pos:])


def _parse_prob_row(cursor, keyword, width):
    line = cursor.next()
    line_no = cursor.line_no
    fields = line.split(" ")
    if fields[0] != keyword:
        raise ModelFormatError(
            f"line {line_no}: expected '{keyword}' row, got {line!r}")
    if len(fields) != width + 1:
        raise ModelFormatError(
            f"line {line_no}: expected {width} values on '{keyword}' row, "
            f"got {len(fields) - 1}")
    try:
        row = np.array([float(f) for f in fields[1:]])
    except ValueError:
        raise ModelFormatError(
            f"line {line_no}: '{keyword}' row has a non-numeric field") from None
    if not np.all((row >= 0.0) & (row <= 1.0)):  # also rejects NaN
        raise ModelFormatError(
            f"line {line_no}: '{keyword}' row has entries outside [0, 1]")
    if abs(row.sum() - 1.0) > ROW_SUM_TOL:
        raise ModelFormatError(
            f"line {line_no}: '{keyword}' row sums to {row.sum()!r}, not 1")
    return row


def _parse_model_block(cursor, tag):
    line = cursor.next()
    if line != f"model {tag}":
        raise ModelFormatError(
            f"line {cursor.line_no}: expected 'model {tag}', got {line!r}")
    line = cursor.next()
    fields = line.split(" ")
    if (len(fields) != 2 or fields[0] != "states"
            or not (fields[1].isascii() and fields[1].isdigit())):
        raise ModelFormatError(
            f"line {cursor.line_no}: expected 'states <k>', got {line!r}")
    try:
        k = int(fields[1])
    except ValueError:  # more digits than int() converts
        raise ModelFormatError(
            f"line {cursor.line_no}: states has too many digits") from None
    if k < 1:
        raise ModelFormatError(f"line {cursor.line_no}: states must be >= 1")
    initial = _parse_prob_row(cursor, "initial", k)
    transition = np.stack([_parse_prob_row(cursor, "transition", k)
                           for _ in range(k)])
    emission = np.stack([_parse_prob_row(cursor, "emission", len(ALPHABET))
                         for _ in range(k)])
    return Hmm(initial=initial, transition=transition, emission=emission)


def parse_models(text):
    cursor = _LineCursor(text)
    line = cursor.next()
    if line != "SSPH-HMM v1":
        raise ModelFormatError(
            f"line {cursor.line_no}: expected 'SSPH-HMM v1', got {line!r}")
    line = cursor.next()
    if line != f"alphabet {ALPHABET}":
        raise ModelFormatError(
            f"line {cursor.line_no}: expected 'alphabet {ALPHABET}', "
            f"got {line!r}")
    models = {tag: _parse_model_block(cursor, tag) for tag in CLASS_ORDER}
    if not cursor.done():
        # Changed on purpose, as in ssph.io: name the line that holds the
        # trailing content, not the first line after the model blocks.
        line_no = next(i for i, line in enumerate(cursor.lines, start=1)
                       if i > cursor.line_no and line.strip())
        raise ModelFormatError(
            f"line {line_no}: trailing content after model blocks")
    return ClassModelSet(models)
