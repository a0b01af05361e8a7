"""Sliding-window secondary-structure prediction.

Each residue is classified by scoring the window centered on it under three
class-specific HMMs (helix, strand, coil); the class whose model assigns the
highest Viterbi path probability wins. All windows of a sequence are scored
together, one batched max-product pass per class model.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .dssp import CLASS_ORDER
from .errors import EmptySequence
from .hmm import Hmm, _log_params, _max_product_scores
from .hmm import sequence_score  # noqa: F401 (perfbench traces it here)

# Residue alphabet: the 20 canonical amino acids plus 'X' for anything else.
# Symbol indices follow this ordering (A=0 ... X=20).
ALPHABET = "ACDEFGHIKLMNPQRSTVWYX"
UNKNOWN_RESIDUE = "X"

# Equal window scores go to the label listed first here.
TIE_BREAK = "HCE"


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


def predict_structure(models: ClassModelSet, sequence: str,
                      half_width: int = 5, boundary_label: str = "C") -> str:
    """Predict a per-residue label string for ``sequence``.

    Every position with a complete window of 2*half_width+1 residues gets
    the class whose model scores its window highest; equal scores go to the
    label first in :data:`TIE_BREAK`, so a window every model scores -inf is
    'H'. All windows are scored in one batch per class model. The first and
    last ``half_width`` positions (which have no complete window) receive
    ``boundary_label``. The output has the same length as the input.
    """
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    if boundary_label not in tuple(CLASS_ORDER):  # one letter, not a substring
        raise ValueError(f"boundary_label must be one of {CLASS_ORDER!r}")
    encoded = encode_residues(sequence)
    n = encoded.shape[0]
    if n == 0:
        raise EmptySequence("residue sequence is empty")
    labels = np.full(n, ord(boundary_label), dtype=np.uint8)
    if n > 2 * half_width:
        windows = np.lib.stride_tricks.sliding_window_view(
            encoded, 2 * half_width + 1)
        scores = [_max_product_scores(*_log_params(models[label]), windows)
                  for label in TIE_BREAK]
        labels[half_width:n - half_width] = _TIE_BREAK_BYTES[
            np.argmax(scores, axis=0)]
    return labels.tobytes().decode("ascii")
