"""Sliding-window secondary-structure prediction.

Each residue is classified by scoring the window centered on it under three
class-specific HMMs (helix, strand, coil); the class whose model assigns the
highest Viterbi path probability wins. :func:`predict_structures` labels
many sequences at once: it joins those with a complete window into one
residue string and scores every window of it in slices of
:data:`CHUNK_WINDOWS` windows, one max-product pass per class model and
slice over the slice's residues, so memory is a few bytes per residue plus
one slice. :func:`predict_structure` is its one-sequence form.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .dssp import CLASS_ORDER
from .errors import EmptySequence
from .hmm import Hmm, _log_params, _window_scores
from .hmm import sequence_score  # noqa: F401 (perfbench traces it here)

# Residue alphabet: the 20 canonical amino acids plus 'X' for anything else.
# Symbol indices follow this ordering (A=0 ... X=20).
ALPHABET = "ACDEFGHIKLMNPQRSTVWYX"
UNKNOWN_RESIDUE = "X"

# Equal window scores go to the label listed first here.
TIE_BREAK = "HCE"

# Windows per slice of the joined residues, so per kernel call. Large
# enough that numpy's per-call cost is spread over many windows. At
# half-width 5 a slice's scoring arrays take about 60 to 130 bytes per
# window (1 to 4 states; tracemalloc peak over one full slice): the slice's
# symbols, three float vectors per state and one more in the kernel, and
# the scores kept for the other classes, each 8 bytes per window.
CHUNK_WINDOWS = 8192


class _FoldTable(dict):
    """``str.translate`` table: each alphabet letter, in either case, to its
    upper case; whitespace deleted; every other character to 'X'."""

    def __missing__(self, code: int) -> str | None:
        return None if chr(code).isspace() else UNKNOWN_RESIDUE


_FOLD = _FoldTable({ord(c): c for c in ALPHABET}
                   | {ord(c.lower()): c for c in ALPHABET})
# Folded ASCII byte -> symbol index; fold_residues emits alphabet letters only.
_INDEX = np.zeros(128, dtype=np.intp)
_INDEX[[ord(c) for c in ALPHABET]] = np.arange(len(ALPHABET))
_TIE_BREAK_BYTES = np.frombuffer(TIE_BREAK.encode("ascii"), dtype=np.uint8)


def fold_residues(sequence: str) -> str:
    """Uppercase a residue string, drop whitespace, and map every character
    outside the alphabet (B, Z, J, U, O, non-ASCII, ...) to 'X'."""
    return sequence.translate(_FOLD)


def encode_residues(sequence: str) -> np.ndarray:
    """Residue string -> integer symbol indices (folding unknowns to 'X')."""
    folded = fold_residues(sequence).encode("ascii")
    return _INDEX[np.frombuffer(folded, dtype=np.uint8)]


class ClassModelSet:
    """The three per-class models, all over the 21-letter residue alphabet,
    copied from a mapping keyed by class label, so later changes to that
    mapping do not reach the set. ``models[label]`` gives one class's model."""

    def __init__(self, models: Mapping[str, Hmm]) -> None:
        if set(models) != set(CLASS_ORDER):
            raise ValueError(f"expected one model per label in "
                             f"{CLASS_ORDER!r}, got labels {list(models)!r}")
        for label in CLASS_ORDER:
            size = models[label].alphabet_size
            if size != len(ALPHABET):
                raise ValueError(f"{label} model has alphabet size {size}, "
                                 f"expected {len(ALPHABET)}")
        self._models = {label: models[label] for label in CLASS_ORDER}

    def __getitem__(self, label: str) -> Hmm:
        return self._models[label]


def _first_max(first: np.ndarray, second: np.ndarray, third: np.ndarray
               ) -> np.ndarray:
    """Per element, the index (0, 1 or 2) of the largest of the three score
    vectors, the lowest index on ties: ``np.argmax`` over their stack, so 0
    where all three are -inf, without building the (3, m) stack."""
    return np.where(third > np.maximum(first, second), 2, second > first)


def _label_windows(params: list, residues: str, width: int) -> bytes:
    """The :data:`TIE_BREAK` label of every ``width``-residue window of
    ``residues``, given each label's log parameters in that order."""
    symbols = encode_residues(residues)
    scores = [_window_scores(*p, symbols, width) for p in params]
    return _TIE_BREAK_BYTES[_first_max(*scores)].tobytes()


def predict_structures(models: ClassModelSet, sequences: Iterable[str],
                       half_width: int = 5, boundary_label: str = "C"
                       ) -> list[str]:
    """Predict a per-residue label string for each of ``sequences``.

    Every position with a complete window of 2*half_width+1 residues gets
    the class whose model scores its window highest; equal scores go to the
    label first in :data:`TIE_BREAK`, so a window every model scores -inf is
    'H'. The first and last ``half_width`` positions (which have no complete
    window) receive ``boundary_label``, and so does every position of a
    sequence shorter than one window. Each output has one label per residue
    of ``fold_residues(sequence)``, which drops whitespace. ``sequences``
    must hold strings; a bare ``str`` raises :class:`TypeError`.

    The folded sequences with a complete window are joined into one residue
    string, whose window ``s`` is centered on its residue ``s + half_width``,
    and its windows are scored in slices of :data:`CHUNK_WINDOWS`, one pass
    per class model over every window of a slice; a window that spans two
    sequences is scored and its label dropped. Memory is a few bytes per
    input residue plus one slice's scoring arrays.
    """
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    if boundary_label not in tuple(CLASS_ORDER):  # one letter, not a substring
        raise ValueError(f"boundary_label must be one of {CLASS_ORDER!r}")
    if isinstance(sequences, str):
        raise TypeError("sequences must be an iterable of str, not a str")
    params = [_log_params(models[label]) for label in TIE_BREAK]
    folded = [fold_residues(sequence) for sequence in sequences]
    if not all(folded):
        raise EmptySequence("residue sequence is empty")
    width = 2 * half_width + 1
    residues = "".join(f for f in folded if len(f) >= width)
    labels = bytearray()
    for start in range(0, len(residues) - width + 1, CHUNK_WINDOWS):
        labels += _label_windows(
            params, residues[start:start + CHUNK_WINDOWS + width - 1], width)
    text = labels.decode("ascii")
    out = []
    offset = 0  # where each joined sequence's windows start in ``text``
    for f in folded:
        if len(f) < width:
            out.append(boundary_label * len(f))
        else:
            margin = boundary_label * half_width  # half_width < len(f) here
            out.append(margin + text[offset:offset + len(f) - width + 1]
                       + margin)
            offset += len(f)
    return out


def predict_structure(models: ClassModelSet, sequence: str,
                      half_width: int = 5, boundary_label: str = "C") -> str:
    """Predict a per-residue label string for one ``sequence``: the
    one-sequence form of :func:`predict_structures`, with the same labels,
    tie-break and errors."""
    labels, = predict_structures(models, [sequence], half_width,
                                 boundary_label)
    return labels
