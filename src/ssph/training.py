"""Per-class model training from labeled records.

Training data for each class is the set of residue windows whose center has
that class's true label, so the models are fit to the same objects the
predictor scores at inference time.
"""

from __future__ import annotations

import numpy as np

from .dssp import CLASS_ORDER
from .errors import ClassHasNoData, LengthMismatch
from .hmm import LikelihoodTrace, baum_welch, new_random_hmm
from .io import LabeledRecord
from .predictor import ALPHABET, ClassModelSet, encode_residues


def class_windows(records: list[LabeledRecord],
                  half_width: int = 5) -> dict[str, list[np.ndarray]]:
    """Encoded windows of length 2*half_width+1 grouped by the true label of
    the center residue. Positions without a complete window contribute none.
    Raises :class:`LengthMismatch` when a record does not have one label per
    encoded residue."""
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    windows: dict[str, list[np.ndarray]] = {c: [] for c in CLASS_ORDER}
    for rec in records:
        encoded = encode_residues(rec.sequence)
        n = encoded.shape[0]
        if n != len(rec.labels):
            raise LengthMismatch(
                f"record {rec.id!r}: sequence length {n} != "
                f"label length {len(rec.labels)}")
        for i in range(half_width, n - half_width):
            label = rec.labels[i]
            if label not in windows:
                raise ValueError(f"record {rec.id!r}: label {label!r} "
                                 f"is not one of {CLASS_ORDER!r}")
            windows[label].append(encoded[i - half_width:i + half_width + 1])
    return windows


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
        if not windows[label]:
            raise ClassHasNoData(f"class {label} has no training windows")
    trained = {}
    traces: dict[str, LikelihoodTrace] = {}
    for offset, label in enumerate(CLASS_ORDER):
        init = new_random_hmm(num_states, len(ALPHABET), seed + offset)
        trained[label], traces[label] = baum_welch(
            init, windows[label], max_iters=max_iters, tol=tol,
            pseudocount=pseudocount)
    return ClassModelSet(trained), traces
