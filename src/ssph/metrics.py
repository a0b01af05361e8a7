"""Prediction scoring: 3x3 confusion matrix, Q3, and per-class recall."""

from __future__ import annotations

import numpy as np

from .dssp import CLASS_ORDER
from .errors import LengthMismatch, NoResidues

_TO_INDEX = str.maketrans({c: chr(i) for i, c in enumerate(CLASS_ORDER)})


def confusion(pred: str, truth: str) -> np.ndarray:
    """3x3 count matrix with rows = true class and columns = predicted class,
    both ordered H, E, C."""
    if len(pred) != len(truth):
        raise LengthMismatch(
            f"prediction length {len(pred)} != truth length {len(truth)}")
    # First position of a label outside the classes (the length if none).
    t_bad, p_bad = (len(s) - len(s.lstrip(CLASS_ORDER)) for s in (truth, pred))
    if min(t_bad, p_bad) < len(truth):
        bad = truth[t_bad] if t_bad <= p_bad else pred[p_bad]
        raise ValueError(f"label {bad!r} is not one of {CLASS_ORDER!r}")
    t, p = (np.frombuffer(s.translate(_TO_INDEX).encode("ascii"), np.uint8)
            for s in (truth, pred))
    return np.bincount(3 * t + p, minlength=9).reshape(3, 3)


def q3(matrix: np.ndarray) -> float:
    """Fraction of residues on the diagonal (overall 3-class accuracy)."""
    total = int(matrix.sum())
    if total == 0:
        raise NoResidues("confusion matrix has no counts")
    return float(np.trace(matrix)) / total


def per_class_recall(matrix: np.ndarray) -> tuple[float | None, ...]:
    """Recall for H, E, C in that order. A class absent from the truth has
    undefined recall, reported as None rather than 0."""
    out = []
    for i in range(3):
        row_sum = int(matrix[i].sum())
        out.append(float(matrix[i, i]) / row_sum if row_sum else None)
    return tuple(out)


def format_report(matrix: np.ndarray) -> str:
    """Human-readable report: matrix, Q3, per-class recall."""
    lines = ["confusion matrix (rows = true, cols = predicted)"]
    header = "      " + "".join(f"{c:>8}" for c in CLASS_ORDER)
    lines.append(header)
    for i, c in enumerate(CLASS_ORDER):
        lines.append(f"{c:>6}" + "".join(f"{int(v):>8}" for v in matrix[i]))
    lines.append(f"Q3: {q3(matrix):.4f}")
    for c, recall in zip(CLASS_ORDER, per_class_recall(matrix)):
        value = "undefined" if recall is None else f"{recall:.4f}"
        lines.append(f"recall {c}: {value}")
    return "\n".join(lines) + "\n"


def format_report_csv(matrix: np.ndarray) -> str:
    """Machine-readable CSV report with the same content as the text form.
    Undefined recalls are left as empty fields."""
    lines = ["true\\pred," + ",".join(CLASS_ORDER)]
    for i, c in enumerate(CLASS_ORDER):
        lines.append(c + "," + ",".join(str(int(v)) for v in matrix[i]))
    lines.append("metric,value")
    lines.append(f"q3,{q3(matrix)!r}")
    for c, recall in zip(CLASS_ORDER, per_class_recall(matrix)):
        lines.append(f"recall_{c}," + ("" if recall is None else repr(recall)))
    return "\n".join(lines) + "\n"
