"""Sliding-window secondary-structure prediction.

Each residue is classified by scoring the window centered on it under three
class-specific HMMs (helix, strand, coil); the class whose model assigns the
highest Viterbi path probability wins. :func:`predict_structures` labels
many sequences in one pass: it joins those with a complete window as it
reads them and scores the join's windows in slices of :data:`CHUNK_WINDOWS`
windows, one max-product pass per class model and slice over the slice's
residues, so memory is one slice plus the sequences it spans and the
labels. :func:`predict_structure` is its one-sequence form.

The windows are scored by the kernel :mod:`ssph.hmm` chooses for the
process, compiled or numpy, so every label is the float64 label of
:func:`ssph.hmm.viterbi` on its window.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np

from .dssp import CLASS_ORDER
from .errors import EmptySequence
from .hmm import Hmm, _chosen_kernel, _log_params
from .hmm import sequence_score  # noqa: F401 (perfbench traces it here)

# Residue alphabet: the 20 canonical amino acids plus 'X' for anything else.
# Symbol indices follow this ordering (A=0 ... X=20).
ALPHABET = "ACDEFGHIKLMNPQRSTVWYX"
UNKNOWN_RESIDUE = "X"

# Equal window scores go to the label listed first here.
TIE_BREAK = "HCE"

# Windows per slice of the joined residues, so per kernel call. Large
# enough that each call's fixed cost is spread over many windows. At
# half-width 5 a slice's scoring arrays take about 50 to 64 bytes per
# window (1 to 4 states; tracemalloc peak over one full slice): the slice's
# symbols and each class's float64 scores, 8 bytes per window each, and
# then either the emissions the kernel gathers, 8 bytes per state, or the
# label pick's temporaries. The C kernel's block buffers, 8 KB per state,
# come on top, unseen by tracemalloc. The numpy fallback keeps three
# float64 vectors per state, not one: 56 to 129 bytes per window.
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
    ``residues``, given each label's float64 log parameters in that order:
    one kernel call per class over every window."""
    kernel = _chosen_kernel()
    symbols = encode_residues(residues)
    labels = _first_max(*[kernel(*p, symbols, width) for p in params])
    return _TIE_BREAK_BYTES[labels].tobytes()


def _record_labels(params: list, sequences: Iterable[str], half_width: int,
                   boundary_label: str) -> Iterator[str]:
    """Yield the labels of each of ``sequences`` in order, as
    :func:`predict_structures` returns them, reading one sequence at a
    time.

    The folded sequences with a complete window make up the join: window
    ``s`` of it is centered on its residue ``s + half_width``. Each
    sequence is folded as it is read, and a long enough one is added to a
    buffer of the join's residues from the next slice's first on. Every
    :data:`CHUNK_WINDOWS` windows of the join are labelled by one
    :func:`_label_windows` call as soon as the buffer holds them, and the
    last, shorter slice once the input ends; a window that spans two
    sequences is labelled and its label dropped. A sequence is yielded as
    soon as its windows and those of every sequence before it are
    labelled, so memory is one slice plus the sequences it spans."""
    width = 2 * half_width + 1
    span = CHUNK_WINDOWS + width - 1  # residues of a full slice
    pending: deque[int] = deque()  # folded lengths of the unyielded records
    # The join from the next slice's first residue on, the labels of the
    # join's windows from the last slice labelled on, and where the first
    # pending long record's windows start in them (past their end while the
    # windows that span it and the record before are not yet labelled).
    residues, labels, lead = "", "", 0
    for sequence in chain(sequences, [None]):  # None: the input has ended
        if sequence is not None:
            folded = fold_residues(sequence)
            if not folded:
                raise EmptySequence("residue sequence is empty")
            pending.append(len(folded))
            residues += folded if len(folded) >= width else ""
        start = 0
        while len(residues) - start >= (width if sequence is None else span):
            cut = min(lead, len(labels))  # labels yielded or dropped
            labels = labels[cut:] + _label_windows(
                params, residues[start:start + span], width).decode()
            lead -= cut
            start += CHUNK_WINDOWS
        residues = residues[start:]
        while pending and (pending[0] < width
                           or lead + pending[0] - width < len(labels)):
            n = pending.popleft()
            if n < width:
                yield boundary_label * n
                continue
            margin = boundary_label * half_width  # half_width < n here
            yield margin + labels[lead:lead + n - width + 1] + margin
            lead += n  # past its windows and those that span the next


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

    The sequences are read and labelled in one pass (:func:`_record_labels`):
    those with a complete window are joined, and the join's windows are
    scored in slices of :data:`CHUNK_WINDOWS`, one pass per class model over
    every window of a slice. Memory is one slice's scoring arrays, the
    sequences that slice spans and the returned labels.
    """
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    if boundary_label not in tuple(CLASS_ORDER):  # one letter, not a substring
        raise ValueError(f"boundary_label must be one of {CLASS_ORDER!r}")
    if isinstance(sequences, str):
        raise TypeError("sequences must be an iterable of str, not a str")
    params = [_log_params(models[label]) for label in TIE_BREAK]
    return list(_record_labels(params, sequences, half_width,
                               boundary_label))


def predict_structure(models: ClassModelSet, sequence: str,
                      half_width: int = 5, boundary_label: str = "C") -> str:
    """Predict a per-residue label string for one ``sequence``: the
    one-sequence form of :func:`predict_structures`, with the same labels,
    tie-break and errors."""
    labels, = predict_structures(models, [sequence], half_width,
                                 boundary_label)
    return labels
