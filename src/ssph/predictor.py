"""Sliding-window secondary-structure prediction.

Each residue is classified by scoring the window centered on it under three
class-specific HMMs (helix, strand, coil); the class whose model assigns the
highest Viterbi path probability wins. :func:`predict_structures` labels
many sequences at once: it joins them into one residue string and scores
every window of it in slices of :data:`CHUNK_WINDOWS` center positions, one
max-product pass per class model and slice over the slice's residues, so
memory is a few bytes per residue plus one slice. :func:`predict_structure`
is its one-sequence form.
"""

from __future__ import annotations

from itertools import accumulate
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

# Window centers per slice of the joined residues, so at most this many
# windows per kernel call. Large enough that numpy's per-call cost is spread
# over many windows. At half-width 5 a slice's scoring arrays take about 90
# to 130 bytes per window (1 to 4 states; tracemalloc peak over one full
# slice): the slice's symbols and a few float vectors per state, each 8
# bytes per window.
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


_CLASS_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}


class ClassModelSet:
    """The three per-class models, all over the 21-letter residue alphabet,
    built from a mapping keyed by class label and held in
    :data:`CLASS_ORDER`. ``models[label]`` gives the model of one class."""

    def __init__(self, models: Mapping[str, Hmm]) -> None:
        if set(models) != set(CLASS_ORDER):
            raise ValueError(f"expected one model per label in "
                             f"{CLASS_ORDER!r}, got labels {list(models)!r}")
        for label in CLASS_ORDER:
            size = models[label].alphabet_size
            if size != len(ALPHABET):
                raise ValueError(f"{label} model has alphabet size {size}, "
                                 f"expected {len(ALPHABET)}")
        self._models = tuple(models[label] for label in CLASS_ORDER)

    def __getitem__(self, label: str) -> Hmm:
        return self._models[_CLASS_INDEX[label]]


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
    of ``fold_residues(sequence)``, which drops whitespace.

    The folded sequences are joined into one residue string and its window
    centers are walked in slices of :data:`CHUNK_WINDOWS` positions, one
    pass per class model over every window of a slice; a window that spans
    two sequences, or is centered in a margin, is scored and its label
    dropped, and a slice with no centered window is skipped. Memory is a few
    bytes per input residue plus one slice's scoring arrays.
    """
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    if boundary_label not in tuple(CLASS_ORDER):  # one letter, not a substring
        raise ValueError(f"boundary_label must be one of {CLASS_ORDER!r}")
    params = [_log_params(models[label]) for label in TIE_BREAK]
    folded = [fold_residues(sequence) for sequence in sequences]
    if not all(folded):
        raise EmptySequence("residue sequence is empty")
    residues = "".join(folded)
    # Per residue, whether a complete window of its own sequence is centered
    # on it: not in the half_width margins, nor in a sequence too short for
    # one window.
    centered = np.frombuffer(b"".join(
        (b"\1" * (len(f) - 2 * half_width)).center(len(f), b"\0")
        for f in folded), dtype=bool)
    labels = np.full(len(residues), ord(boundary_label), dtype=np.uint8)
    last = len(residues) - half_width
    for start in range(half_width, last, CHUNK_WINDOWS):
        stop = min(start + CHUNK_WINDOWS, last)
        keep = centered[start:stop]
        if not keep.any():
            continue
        symbols = encode_residues(residues[start - half_width:
                                           stop + half_width])
        scores = [_window_scores(*p, symbols, 2 * half_width + 1)
                  for p in params]
        labels[start:stop][keep] = \
            _TIE_BREAK_BYTES[np.argmax(scores, axis=0)[keep]]
    text = labels.tobytes().decode("ascii")
    return [text[end - len(f):end]
            for f, end in zip(folded, accumulate(map(len, folded)))]


def predict_structure(models: ClassModelSet, sequence: str,
                      half_width: int = 5, boundary_label: str = "C") -> str:
    """Predict a per-residue label string for one ``sequence``: the
    one-sequence form of :func:`predict_structures`, with the same labels,
    tie-break and errors."""
    labels, = predict_structures(models, [sequence], half_width,
                                 boundary_label)
    return labels
