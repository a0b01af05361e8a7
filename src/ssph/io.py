"""File formats: FASTA ingestion, labeled training data, prediction files,
and the text model format.

Model files look like::

    SSPH-HMM v1
    alphabet ACDEFGHIKLMNPQRSTVWYX
    model H
    states 2
    initial 0.5 0.5
    transition 0.9 0.1
    transition 0.2 0.8
    emission <21 numbers>
    emission <21 numbers>
    model E
    ...
    model C
    ...

Probabilities are printed with ``repr`` so the underlying binary values
round-trip exactly. All files are UTF-8 with LF line endings.

The labeled dataset format is three lines per record: a ``>id`` header, the
residue sequence, and a label line (either 8-letter DSSP, which is reduced to
{H,E,C}, or already 3-letter). Prediction/truth files are two lines per
record: ``>id`` then one label line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .dssp import CLASS_ORDER, reduce_dssp_string
from .errors import (EmptyRecord, LengthMismatch, MissingHeader,
                     ModelFormatError)
from .hmm import ROW_SUM_TOL, Hmm
from .predictor import ALPHABET, ClassModelSet, fold_residues

MODEL_FORMAT_VERSION = "SSPH-HMM v1"


@dataclass(frozen=True)
class FastaRecord:
    id: str
    sequence: str


@dataclass(frozen=True)
class LabeledRecord:
    id: str
    sequence: str
    labels: str


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial file.
    The file gets the permissions a plain ``open(path, "w")`` would give."""
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(6).hex()}.tmp"
    # O_EXCL never opens an existing file; mode 0o666 is masked by the umask.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _record_id(header: str) -> str:
    """The id of a stripped ``>id`` header line; it may not be empty."""
    rec_id = header[1:].strip()
    if not rec_id:
        raise ValueError("header line with empty record id")
    return rec_id


def parse_fasta(text: str) -> list[FastaRecord]:
    """Parse FASTA text into records. Sequence lines are concatenated,
    whitespace-stripped, uppercased, and non-canonical residues fold to 'X'."""
    records: list[FastaRecord] = []
    current_id: str | None = None
    parts: list[str] = []

    def finalize() -> None:
        sequence = fold_residues("".join(parts))
        if not sequence:
            raise EmptyRecord(f"record {current_id!r} has no sequence")
        records.append(FastaRecord(current_id, sequence))

    for line in text.splitlines():
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


def format_fasta(records: list[FastaRecord]) -> str:
    return "".join(f">{rec.id}\n{rec.sequence}\n" for rec in records)


def _read_records(text: str, body: tuple[str, ...]
                  ) -> Iterator[tuple[str, list[str]]]:
    """Yield (id, lines) for records of a ">id" line plus one line for each
    name in ``body``. Lines are stripped and blank lines are skipped."""
    lines = [line.strip() for line in text.splitlines()]
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


def parse_labeled_dataset(text: str) -> list[LabeledRecord]:
    """Parse three-line records (">id", sequence, labels). DSSP label strings
    are reduced to {H,E,C}; already-reduced strings pass through unchanged."""
    records: list[LabeledRecord] = []
    for rec_id, (residues, dssp) in _read_records(text, ("sequence", "label")):
        sequence = fold_residues(residues)
        labels = reduce_dssp_string(dssp)
        if len(sequence) != len(labels):
            raise LengthMismatch(
                f"record {rec_id!r}: sequence length {len(sequence)} != "
                f"label length {len(labels)}")
        records.append(LabeledRecord(rec_id, sequence, labels))
    return records


def format_labeled_dataset(records: list[LabeledRecord]) -> str:
    return "".join(f">{rec.id}\n{rec.sequence}\n{rec.labels}\n"
                   for rec in records)


def parse_label_records(text: str) -> list[tuple[str, str]]:
    """Parse a prediction/truth file: two lines per record, ">id" then one
    label line over {H,E,C} (DSSP letters are reduced)."""
    return [(rec_id, reduce_dssp_string(labels))
            for rec_id, (labels,) in _read_records(text, ("label",))]


def format_label_records(records: list[tuple[str, str]]) -> str:
    return "".join(f">{rec_id}\n{labels}\n" for rec_id, labels in records)


def _format_row(keyword: str, values: np.ndarray) -> str:
    return keyword + " " + " ".join(repr(float(v)) for v in values)


def format_models(models: ClassModelSet) -> str:
    """Serialize a model set to the text format above (exact round-trip)."""
    lines = [MODEL_FORMAT_VERSION, f"alphabet {ALPHABET}"]
    for tag in CLASS_ORDER:
        model = models[tag]
        lines.append(f"model {tag}")
        lines.append(f"states {model.num_states}")
        lines.append(_format_row("initial", model.initial))
        for row in model.transition:
            lines.append(_format_row("transition", row))
        for row in model.emission:
            lines.append(_format_row("emission", row))
    return "\n".join(lines) + "\n"


class _LineCursor:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0  # 0-based; reported line numbers are 1-based

    @property
    def line_no(self) -> int:
        return self.pos

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(
                f"line {self.pos + 1}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def done(self) -> bool:
        return all(not line.strip() for line in self.lines[self.pos:])


def _parse_prob_row(cursor: _LineCursor, keyword: str, width: int) -> np.ndarray:
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


def _parse_model_block(cursor: _LineCursor, tag: str) -> Hmm:
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
    k = int(fields[1])
    if k < 1:
        raise ModelFormatError(f"line {cursor.line_no}: states must be >= 1")
    initial = _parse_prob_row(cursor, "initial", k)
    transition = np.stack([_parse_prob_row(cursor, "transition", k)
                           for _ in range(k)])
    emission = np.stack([_parse_prob_row(cursor, "emission", len(ALPHABET))
                         for _ in range(k)])
    return Hmm(initial=initial, transition=transition, emission=emission)


def parse_models(text: str) -> ClassModelSet:
    """Parse the text model format, validating structure and stochasticity.
    Raises :class:`ModelFormatError` naming the offending line."""
    cursor = _LineCursor(text)
    line = cursor.next()
    if line != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"line {cursor.line_no}: expected '{MODEL_FORMAT_VERSION}', "
            f"got {line!r}")
    line = cursor.next()
    if line != f"alphabet {ALPHABET}":
        raise ModelFormatError(
            f"line {cursor.line_no}: expected 'alphabet {ALPHABET}', "
            f"got {line!r}")
    models = {tag: _parse_model_block(cursor, tag) for tag in CLASS_ORDER}
    if not cursor.done():
        raise ModelFormatError(
            f"line {cursor.line_no + 1}: trailing content after model blocks")
    return ClassModelSet(models)


def write_models(models: ClassModelSet, destination: str | Path) -> None:
    atomic_write_text(destination, format_models(models))


def read_models(source: str | Path) -> ClassModelSet:
    return parse_models(Path(source).read_text(encoding="utf-8"))
