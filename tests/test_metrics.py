"""Confusion matrix, Q3, and per-class recall."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ssph import (confusion, format_report, format_report_csv,
                  per_class_recall, q3)
from ssph.errors import LengthMismatch, NoResidues


def test_confusion_perfect_agreement_is_diagonal():
    matrix = confusion("HEC", "HEC")
    assert np.array_equal(matrix, np.eye(3, dtype=np.int64))


def test_confusion_all_coil_prediction():
    matrix = confusion("CCC", "HEC")
    expected = np.zeros((3, 3), dtype=np.int64)
    expected[:, 2] = 1  # every true class predicted as C
    assert np.array_equal(matrix, expected)


def test_confusion_mixed_case():
    matrix = confusion("HHEECC", "HEHECC")
    # rows = true, cols = predicted, order H E C
    assert matrix[0, 0] == 1 and matrix[0, 1] == 1
    assert matrix[1, 0] == 1 and matrix[1, 1] == 1
    assert matrix[2, 2] == 2
    assert matrix.sum() == 6


def test_confusion_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion("HE", "HEC")


def test_confusion_rejects_unknown_labels():
    with pytest.raises(ValueError, match="'X'"):
        confusion("HXC", "HEC")
    with pytest.raises(ValueError):
        confusion("HEC", "HQC")


def test_q3_perfect():
    assert q3(np.diag([1, 1, 1])) == 1.0


def test_q3_seven_of_ten():
    matrix = np.array([[3, 1, 0], [0, 2, 1], [1, 0, 2]])
    assert q3(matrix) == pytest.approx(0.7)


def test_q3_all_wrong():
    matrix = np.array([[0, 5, 0], [0, 0, 3], [2, 0, 0]])
    assert q3(matrix) == 0.0


def test_q3_rejects_empty_matrix():
    with pytest.raises(NoResidues):
        q3(np.zeros((3, 3), dtype=np.int64))


def test_per_class_recall_diagonal():
    assert per_class_recall(np.diag([4, 2, 9])) == (1.0, 1.0, 1.0)


def test_per_class_recall_absent_class_is_undefined():
    matrix = np.array([[3, 0, 1], [0, 0, 0], [0, 0, 5]])
    recall = per_class_recall(matrix)
    assert recall[0] == pytest.approx(0.75)
    assert recall[1] is None
    assert recall[2] == 1.0


def test_per_class_recall_helix_row():
    matrix = np.array([[64, 20, 16], [0, 1, 0], [0, 0, 1]])
    assert per_class_recall(matrix)[0] == pytest.approx(0.64)


def test_format_report_contains_matrix_and_metrics():
    matrix = np.array([[64, 20, 16], [5, 90, 5], [10, 10, 80]])
    report = format_report(matrix)
    assert "confusion matrix" in report
    assert "64" in report and "90" in report
    assert "Q3: 0.7800" in report
    assert "recall H: 0.6400" in report


def test_format_report_marks_undefined_recall():
    matrix = np.array([[2, 0, 0], [0, 0, 0], [0, 0, 3]])
    assert "recall E: undefined" in format_report(matrix)


def test_format_report_csv_fields():
    matrix = np.array([[64, 20, 16], [5, 90, 5], [10, 10, 80]])
    lines = format_report_csv(matrix).splitlines()
    assert lines[0] == "true\\pred,H,E,C"
    assert lines[1] == "H,64,20,16"
    assert any(l.startswith("q3,0.78") for l in lines)
    assert any(l.startswith("recall_H,0.64") for l in lines)


def test_format_report_csv_undefined_recall_is_empty_field():
    matrix = np.array([[2, 0, 0], [0, 0, 0], [0, 0, 3]])
    assert "recall_E,\n" in format_report_csv(matrix)


label_strings = st.text(alphabet="HEC", min_size=1, max_size=120)


@given(label_strings)
def test_property_self_confusion_is_perfect(labels):
    assert q3(confusion(labels, labels)) == 1.0


@given(label_strings, st.randoms(use_true_random=False))
def test_property_joint_permutation_invariance(labels, rnd):
    pred = "".join(rnd.choice("HEC") for _ in labels)
    order = list(range(len(labels)))
    rnd.shuffle(order)
    base = confusion(pred, labels)
    shuffled = confusion("".join(pred[i] for i in order),
                         "".join(labels[i] for i in order))
    assert np.array_equal(base, shuffled)


@given(label_strings, label_strings)
def test_property_total_count_equals_length(a, b):
    n = min(len(a), len(b))
    assert confusion(a[:n], b[:n]).sum() == n


@pytest.mark.parametrize("pred,truth,bad", [
    ("HHX", "HQC", "Q"),   # truth is bad first
    ("HXC", "HEQ", "X"),   # prediction is bad first
    ("HXC", "HQC", "Q"),   # both bad at one position: truth wins
    ("HEC\n", "HECé", "é"),
])
def test_confusion_names_the_first_bad_label(pred, truth, bad):
    message = f"label {bad!r} is not one of 'HEC'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        confusion(pred, truth)


def loop_confusion(pred, truth):
    """Per-character reference: the label at the first position where either
    string is bad, truth before prediction."""
    index = {c: i for i, c in enumerate("HEC")}
    matrix = np.zeros((3, 3), dtype=np.int64)
    for p, t in zip(pred, truth):
        if t not in index or p not in index:
            return t if t not in index else p
        matrix[index[t], index[p]] += 1
    return matrix


@given(st.lists(st.tuples(st.sampled_from("HECHECHECXh\né"),
                          st.sampled_from("HECHECHECXh\né")), max_size=40))
def test_property_confusion_matches_the_per_character_loop(pairs):
    pred = "".join(p for p, _ in pairs)
    truth = "".join(t for _, t in pairs)
    expected = loop_confusion(pred, truth)
    if isinstance(expected, str):
        message = f"label {expected!r} is not one of 'HEC'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            confusion(pred, truth)
    else:
        assert np.array_equal(confusion(pred, truth), expected)


# The numpy-scalar formulas the int ones replaced, kept as the reference for
# the report's numbers: every float must have the same bits.
def numpy_q3(matrix):
    total = int(matrix.sum())
    if total == 0:
        raise NoResidues("confusion matrix has no counts")
    return float(np.trace(matrix)) / total


def numpy_recall(matrix):
    out = []
    for i in range(3):
        row_sum = int(matrix[i].sum())
        out.append(float(matrix[i, i]) / row_sum if row_sum else None)
    return tuple(out)


def numpy_report(matrix):
    lines = ["confusion matrix (rows = true, cols = predicted)",
             "      " + "".join(f"{c:>8}" for c in "HEC")]
    for i, c in enumerate("HEC"):
        lines.append(f"{c:>6}" + "".join(f"{int(v):>8}" for v in matrix[i]))
    lines.append(f"Q3: {numpy_q3(matrix):.4f}")
    for c, recall in zip("HEC", numpy_recall(matrix)):
        value = "undefined" if recall is None else f"{recall:.4f}"
        lines.append(f"recall {c}: {value}")
    return "\n".join(lines) + "\n"


def numpy_report_csv(matrix):
    lines = ["true\\pred,H,E,C"]
    for i, c in enumerate("HEC"):
        lines.append(c + "," + ",".join(str(int(v)) for v in matrix[i]))
    lines.append("metric,value")
    lines.append(f"q3,{numpy_q3(matrix)!r}")
    for c, recall in zip("HEC", numpy_recall(matrix)):
        lines.append(f"recall_{c}," + ("" if recall is None else repr(recall)))
    return "\n".join(lines) + "\n"


def bits(value):
    return None if value is None else value.hex()


@st.composite
def count_matrices(draw):
    """An int64 3x3 count matrix, counts up to 2**40, often with zero rows."""
    counts = st.integers(0, 2**40) | st.integers(0, 9) | st.just(0)
    matrix = np.array(draw(st.lists(counts, min_size=9, max_size=9)),
                      dtype=np.int64).reshape(3, 3)
    for i in draw(st.sets(st.integers(0, 2))):
        matrix[i] = 0
    return matrix


@given(count_matrices())
@example(np.zeros((3, 3), dtype=np.int64))
def test_property_report_numbers_match_the_numpy_formulas(matrix):
    assert [bits(r) for r in per_class_recall(matrix)] == \
        [bits(r) for r in numpy_recall(matrix)]
    if not matrix.any():
        for function in (q3, format_report, format_report_csv):
            with pytest.raises(NoResidues):
                function(matrix)
        return
    assert bits(q3(matrix)) == bits(numpy_q3(matrix))
    assert format_report(matrix) == numpy_report(matrix)
    assert format_report_csv(matrix) == numpy_report_csv(matrix)
