"""Per-class model training from labeled records.

Training data for each class is the set of residue windows whose center has
that class's true label, so the models are fit to the same objects the
predictor scores at inference time.
"""

from __future__ import annotations

import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dssp import CLASS_ORDER
from .errors import ClassHasNoData, LengthMismatch
from .hmm import LikelihoodTrace, baum_welch, new_random_hmm
from .io import LabeledRecord
from .predictor import ALPHABET, ClassModelSet, encode_residues


def class_windows(records: list[LabeledRecord],
                  half_width: int = 5) -> dict[str, np.ndarray]:
    """Encoded windows of length 2*half_width+1 grouped by the true label of
    the center residue: one (windows, 2*half_width+1) ``intp`` array per
    class, rows in record order, then position order. Positions without a
    complete window contribute none, so a class without windows gets zero
    rows; when no record has a window, and one row of 2*half_width+1
    ``intp`` would pass ``sys.maxsize`` bytes, which no numpy array can
    have, it gets zero columns too. Raises :class:`LengthMismatch` when a
    record does not have one label per encoded residue, and ``ValueError``
    naming the first center label that is not a class."""
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    width = 2 * half_width + 1
    encoded: list[np.ndarray] = []
    codes: list[str] = []
    for rec in records:
        residues = encode_residues(rec.sequence)
        n = residues.shape[0]
        if n != len(rec.labels):
            raise LengthMismatch(
                f"record {rec.id!r}: sequence length {n} != "
                f"label length {len(rec.labels)}")
        center = rec.labels[half_width:n - half_width]
        rest = center.lstrip(CLASS_ORDER)
        if rest:
            raise ValueError(f"record {rec.id!r}: label {rest[0]!r} "
                             f"is not one of {CLASS_ORDER!r}")
        encoded.append(residues)
        # Per residue, its label if a complete window is centered on it and
        # "." if not: the margins are half_width each, or the whole record.
        codes.append(center.center(n, "."))
    if sum(map(len, codes)) < width:
        fits = width <= sys.maxsize // np.dtype(np.intp).itemsize
        return {c: np.empty((0, width if fits else 0), dtype=np.intp)
                for c in CLASS_ORDER}
    # Every window of the joined records, tagged by the code of its center;
    # a window that spans two records is centered on a "." and never taken.
    windows = sliding_window_view(np.concatenate(encoded), width)
    centers = np.frombuffer("".join(codes).encode("ascii"),
                            dtype=np.uint8)[half_width:-half_width]
    return {c: windows[centers == ord(c)] for c in CLASS_ORDER}


def train_models(records: list[LabeledRecord], *, num_states: int = 2,
                 half_width: int = 5, max_iters: int = 100, tol: float = 1e-6,
                 seed: int = 0, pseudocount: float = 1e-6
                 ) -> tuple[ClassModelSet, dict[str, LikelihoodTrace]]:
    """Fit one model per class on its centered windows via Baum-Welch.

    Class models start from seeded random initializations (seed, seed+1,
    seed+2 for H, E, C), so identical inputs give identical models. Raises
    :class:`ClassHasNoData` naming the first class with no windows.
    """
    windows = class_windows(records, half_width)
    for label in CLASS_ORDER:
        if not len(windows[label]):
            raise ClassHasNoData(f"class {label} has no training windows")
    trained = {}
    traces: dict[str, LikelihoodTrace] = {}
    for offset, label in enumerate(CLASS_ORDER):
        init = new_random_hmm(num_states, len(ALPHABET), seed + offset)
        trained[label], traces[label] = baum_welch(
            init, windows[label], max_iters=max_iters, tol=tol,
            pseudocount=pseudocount)
    return ClassModelSet(trained), traces
