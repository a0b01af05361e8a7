"""Sliding-window secondary-structure prediction.

Each residue is classified by scoring the window centered on it under three
class-specific HMMs (helix, strand, coil); the class whose model assigns the
highest Viterbi path probability wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dssp import CLASS_ORDER
from .errors import EmptySequence, EmptyWindow
from .hmm import Hmm, sequence_score

# Residue alphabet: the 20 canonical amino acids plus 'X' for anything else.
# Symbol indices follow this ordering (A=0 ... X=20).
ALPHABET = "ACDEFGHIKLMNPQRSTVWYX"
UNKNOWN_RESIDUE = "X"

# Equal window scores go to the label listed first here.
TIE_BREAK = "HCE"

_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}


def fold_residues(sequence: str) -> str:
    """Uppercase a residue string, drop whitespace, and map every character
    outside the alphabet (B, Z, J, U, O, ...) to 'X'."""
    out = []
    for ch in sequence.upper():
        if ch.isspace():
            continue
        out.append(ch if ch in _INDEX else UNKNOWN_RESIDUE)
    return "".join(out)


def encode_residues(sequence: str) -> np.ndarray:
    """Residue string -> integer symbol indices (folding unknowns to 'X')."""
    return np.array([_INDEX[ch] for ch in fold_residues(sequence)],
                    dtype=np.intp)


_FIELD_OF = dict(zip(CLASS_ORDER, ("helix", "strand", "coil")))


@dataclass(frozen=True)
class ClassModelSet:
    """The three per-class models, all over the 21-letter residue alphabet.
    ``models[label]`` gives the model of one class in :data:`CLASS_ORDER`."""

    helix: Hmm
    strand: Hmm
    coil: Hmm

    @classmethod
    def from_labels(cls, models: Mapping[str, Hmm]) -> ClassModelSet:
        """Build the set from a mapping keyed by class label."""
        return cls(**{_FIELD_OF[label]: models[label] for label in CLASS_ORDER})

    def __getitem__(self, label: str) -> Hmm:
        return getattr(self, _FIELD_OF[label])

    def __post_init__(self) -> None:
        for label, name in _FIELD_OF.items():
            size = self[label].alphabet_size
            if size != len(ALPHABET):
                raise ValueError(f"{name} model has alphabet size {size}, "
                                 f"expected {len(ALPHABET)}")


@dataclass(frozen=True)
class WindowScores:
    """Log-scores of one window under each class model plus the chosen label."""

    helix: float
    coil: float
    strand: float
    chosen: str


def choose_class(helix: float, coil: float, strand: float) -> str:
    """Argmax over the three scores with the fixed tie-break order
    helix > coil > strand (helix wins a three-way tie; coil wins a
    coil/strand tie)."""
    scores = (helix, coil, strand)  # in TIE_BREAK order
    return TIE_BREAK[scores.index(max(scores))]


def _classify_encoded(models: ClassModelSet, window: np.ndarray) -> WindowScores:
    helix = sequence_score(models.helix, window)
    coil = sequence_score(models.coil, window)
    strand = sequence_score(models.strand, window)
    return WindowScores(helix, coil, strand, choose_class(helix, coil, strand))


def classify_window(models: ClassModelSet, window: str) -> WindowScores:
    """Score one residue window under all three class models."""
    encoded = encode_residues(window)
    if encoded.size == 0:
        raise EmptyWindow("window is empty")
    return _classify_encoded(models, encoded)


def predict_structure(models: ClassModelSet, sequence: str,
                      half_width: int = 5, boundary_label: str = "C") -> str:
    """Predict a per-residue label string for ``sequence``.

    Every position with a complete window of 2*half_width+1 residues is
    classified by :func:`classify_window`; the first and last ``half_width``
    positions (which have no complete window) receive ``boundary_label``.
    The output has the same length as the input.
    """
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    if boundary_label not in CLASS_ORDER:
        raise ValueError(f"boundary_label must be one of {CLASS_ORDER!r}")
    encoded = encode_residues(sequence)
    n = encoded.shape[0]
    if n == 0:
        raise EmptySequence("residue sequence is empty")
    labels = [boundary_label] * n
    for i in range(half_width, n - half_width):
        window = encoded[i - half_width:i + half_width + 1]
        labels[i] = _classify_encoded(models, window).chosen
    return "".join(labels)
