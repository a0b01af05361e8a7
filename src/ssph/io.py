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
round-trip exactly. A parsed block becomes a model through the checked
``Hmm`` constructor, and every error names the first offending line.

This module reads and writes every file of a run: ``read_text`` reads each
input, and ``write_texts`` writes a run's outputs all or nothing. All files
are UTF-8, and a leading byte-order mark is dropped when one is read.
``read_text`` decodes a file's bytes and ends its lines as text mode would:
CRLF and a lone CR each become LF. The parsers take text: only LF ends a
line there, one CR before it is dropped, so CRLF text reads as LF text, and
no other character (such as FF, NEL or U+2028) breaks a line.

The labeled dataset format is three lines per record: a ``>id`` header, the
residue sequence, and a label line (either 8-letter DSSP, which is reduced to
{H,E,C}, or already 3-letter). Prediction/truth files are two lines per
record: ``>id`` then one label line. All three record formats (these two and
FASTA) are split by one reader: lines are stripped, blank lines are skipped,
every record starts with a non-empty ``>id``, and data before it is an error.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterator

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


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file ``path``, without a leading byte-order
    mark, with its line ends made as text mode makes them: CRLF and a lone
    CR each become LF. A file that is not UTF-8 raises :class:`ValueError`
    ending with the path as given, as an :class:`OSError` message does."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{exc}: {os.fspath(path)!r}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def write_texts(outputs: list[tuple[str | Path, str]]) -> None:
    """Write each ``(path, text)`` pair, all or nothing. Two paths that
    land on one file (one name in one directory, once the directory's
    symlinks are resolved) are refused first, and then a path that is a
    directory. A symlink at the path itself, to a directory or not, is
    replaced by a regular file, as ``os.replace`` does, and its target
    keeps its bytes. Each text then goes to a new temp file beside its
    path, and the temp files are renamed in order only once all are
    written, so a failure before the renames changes no path. Each file
    gets the permissions a plain ``open(path, "w")`` would give: those of
    the regular file at its path (through a symlink too), if there is one,
    else 0o666 less the umask. On any failure the temp files left are
    removed, and an :class:`OSError` names the path as given, never a temp
    file."""
    landings = {Path(os.path.realpath(Path(p).parent), Path(p).name)
                for p, _ in outputs}  # the files os.replace writes
    if len(landings) < len(outputs):
        raise ValueError("two outputs land on one file: " + " and ".join(
            os.fspath(p) for p, _ in outputs))
    staged: list[tuple[Path, str | Path]] = []  # (temp file, path)
    try:
        for path, _ in outputs:
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, text in outputs:
            target = Path(path)
            tmp = target.parent / f"{target.name}.{os.urandom(6).hex()}.tmp"
            # O_EXCL never opens an existing file; the umask masks 0o666.
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with open(fd, "wb") as handle:
                if os.path.isfile(path):  # keep an existing file's mode
                    os.fchmod(fd, os.stat(path).st_mode & 0o777)
                handle.write(text.encode("utf-8"))
        while staged:
            tmp, path = staged[0]
            os.replace(tmp, path)
            staged.pop(0)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as ``write_texts`` writes one output."""
    write_texts([(path, text)])


def _lines(text: str) -> list[str]:
    """The lines of ``text``. Only LF breaks a line, one CR before an LF is
    dropped with it, and a final LF adds no empty line."""
    if "\r" in text:  # spares replace's far slower two-character scan
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the text after the final LF, or an empty text
    return lines


def _record_id(header: str) -> str:
    """The id of a stripped ``>id`` header line; it may not be empty."""
    rec_id = header[1:].strip()
    if not rec_id:
        raise ValueError("header line with empty record id")
    return rec_id


def _read_records(text: str) -> Iterator[tuple[str, list[str]]]:
    """Yield (id, body lines) for each ``>id`` header of ``text``. Lines are
    stripped, blank lines are skipped, and data before the first header
    raises :class:`MissingHeader`. A record is yielded before the next
    header's id is read, so its own errors are raised first."""
    rec_id: str | None = None
    body: list[str] = []
    for line in _lines(text):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if rec_id is not None:
                yield rec_id, body
            rec_id, body = _record_id(line), []
        elif rec_id is None:
            raise MissingHeader(f"expected '>' header, got {line!r}")
        else:
            body.append(line)
    if rec_id is not None:
        yield rec_id, body


def parse_fasta(text: str) -> list[FastaRecord]:
    """Parse FASTA text into records. Sequence lines are concatenated,
    whitespace-stripped, uppercased, and non-canonical residues fold to 'X'."""
    records: list[FastaRecord] = []
    for rec_id, body in _read_records(text):
        sequence = fold_residues("".join(body))
        if not sequence:
            raise EmptyRecord(f"record {rec_id!r} has no sequence")
        records.append(FastaRecord(rec_id, sequence))
    return records


def format_fasta(records: list[FastaRecord]) -> str:
    return "".join(f">{rec.id}\n{rec.sequence}\n" for rec in records)


def _fixed_records(text: str, fields: tuple[str, ...]
                   ) -> Iterator[tuple[str, list[str]]]:
    """Yield (id, lines) for records of one line per name in ``fields``.
    A record with more lines is handed over before the first extra line is
    reported as a missing header."""
    k = len(fields)
    for rec_id, body in _read_records(text):
        if len(body) < k:
            raise EmptyRecord(f"record {rec_id!r} is missing its "
                              f"{' or '.join(fields)} line")
        yield rec_id, body[:k]
        if len(body) > k:
            raise MissingHeader(f"expected '>' header, got {body[k]!r}")


def parse_labeled_dataset(text: str) -> list[LabeledRecord]:
    """Parse three-line records (">id", sequence, labels). DSSP label strings
    are reduced to {H,E,C}; already-reduced strings pass through unchanged."""
    records: list[LabeledRecord] = []
    for rec_id, (residues, dssp) in _fixed_records(text, ("sequence", "label")):
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
            for rec_id, (labels,) in _fixed_records(text, ("label",))]


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


def _split_row(line_no: int, line: str, keyword: str,
               width: int) -> list[float]:
    """The ``width`` numbers of ``line``, a ``keyword`` row on line
    ``line_no``, each converted by ``float``."""
    fields = line.split(" ")
    if fields[0] != keyword:
        raise ModelFormatError(
            f"line {line_no}: expected '{keyword}' row, got {line!r}")
    if len(fields) != width + 1:
        raise ModelFormatError(
            f"line {line_no}: expected {width} values on '{keyword}' row, "
            f"got {len(fields) - 1}")
    try:
        return list(map(float, fields[1:]))
    except ValueError:
        raise ModelFormatError(
            f"line {line_no}: '{keyword}' row has a non-numeric field") from None


def _read_model(take: Callable[[], tuple[int, str]], k: int) -> Hmm:
    """The ``k``-state model whose 'initial' row ``take`` returns next. Rows
    are taken one by one, so a file that ends early costs nothing for the
    rows it lacks.

    Each row is split and converted on its own, and the ``Hmm`` constructor
    checks the rows of a well-formed block. If a row is malformed or the
    constructor rejects the rows, the rows read are checked one at a time,
    in line order, so the error names the first row that checking row by
    row would; a row sums to the same bits on its own as in the
    constructor's check."""
    layout = chain([("initial", k)], repeat(("transition", k), k),
                   repeat(("emission", len(ALPHABET)), k))
    taken: list[tuple[int, str]] = []  # (line number, keyword) of each row
    rows: list[list[float]] = []
    try:
        for keyword, width in layout:
            line_no, line = take()
            taken.append((line_no, keyword))
            rows.append(_split_row(line_no, line, keyword, width))
        return Hmm(initial=rows[0], transition=rows[1:k + 1],
                   emission=rows[k + 1:])
    except (ModelFormatError, ValueError):
        for (line_no, keyword), values in zip(taken, rows):
            row = np.array(values)
            if not (row.min() >= 0.0 and row.max() <= 1.0):  # rejects NaN
                raise ModelFormatError(f"line {line_no}: '{keyword}' row "
                                       "has entries outside [0, 1]") from None
            if abs(row.sum() - 1.0) > ROW_SUM_TOL:
                raise ModelFormatError(
                    f"line {line_no}: '{keyword}' row sums to "
                    f"{float(row.sum())!r}, not 1") from None
        raise


def parse_models(text: str) -> ClassModelSet:
    """Parse the text model format, validating structure and stochasticity.
    Raises :class:`ModelFormatError` naming the offending line."""
    lines = _lines(text)
    numbered = enumerate(lines, start=1)
    eof = (len(lines) + 1, None)  # what ``take`` gets past the last line

    def take(expected: str | None = None) -> tuple[int, str]:
        """The next line's number and text, checked against ``expected``."""
        line_no, line = next(numbered, eof)
        if line is None:
            raise ModelFormatError(f"line {line_no}: unexpected end of file")
        if expected is not None and line != expected:
            raise ModelFormatError(
                f"line {line_no}: expected '{expected}', got {line!r}")
        return line_no, line

    take(MODEL_FORMAT_VERSION)
    take(f"alphabet {ALPHABET}")
    models = {}
    for tag in CLASS_ORDER:
        take(f"model {tag}")
        line_no, line = take()
        fields = line.split(" ")
        if (len(fields) != 2 or fields[0] != "states"
                or not (fields[1].isascii() and fields[1].isdigit())):
            raise ModelFormatError(
                f"line {line_no}: expected 'states <k>', got {line!r}")
        try:
            k = int(fields[1])
        except ValueError:  # more digits than int() converts
            raise ModelFormatError(
                f"line {line_no}: states has too many digits") from None
        if k < 1:
            raise ModelFormatError(f"line {line_no}: states must be >= 1")
        models[tag] = _read_model(take, k)
    for line_no, line in numbered:
        if line.strip():
            raise ModelFormatError(
                f"line {line_no}: trailing content after model blocks")
    return ClassModelSet(models)


def write_models(models: ClassModelSet, destination: str | Path) -> None:
    atomic_write_text(destination, format_models(models))


def read_models(source: str | Path) -> ClassModelSet:
    return parse_models(read_text(source))
