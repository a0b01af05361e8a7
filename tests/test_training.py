"""Per-class window extraction, model fitting, and the synthetic generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssph import (LabeledRecord, baum_welch, class_windows, new_random_hmm,
                  planted_dataset, planted_models, predict_structure,
                  sample_observations, train_models)
from ssph.dssp import CLASS_ORDER
from ssph.errors import (ClassHasNoData, EmptyObservation, LengthMismatch,
                         NoTrainingData, SymbolOutOfRange)
from ssph.predictor import ALPHABET, encode_residues
from ssph.synthetic import CLASS_RESIDUE_GROUPS


def reference_class_windows(records, half_width):
    """The per-residue loop that the one-array-per-class version replaced,
    kept as its reference: one window view appended per centered position."""
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    windows = {c: [] for c in CLASS_ORDER}
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


def assert_same_outcome(records, half_width):
    """``class_windows`` gives the reference's windows as one intp array per
    class, or raises the reference's exception type with its message."""
    try:
        expected = reference_class_windows(records, half_width)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            class_windows(records, half_width)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    got = class_windows(records, half_width)
    assert list(got) == list(CLASS_ORDER)
    width = 2 * half_width + 1
    for c in CLASS_ORDER:
        assert got[c].dtype == np.intp
        assert got[c].shape == (len(expected[c]), width)
        assert got[c].tolist() == [w.tolist() for w in expected[c]]


@st.composite
def labeled_records(draw):
    """Up to four records of 0-40 residues; some carry a label outside the
    classes, or one label too many or too few."""
    records = []
    for k in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 40))
        sequence = draw(st.text(alphabet=ALPHABET + "bx", min_size=n,
                                max_size=n))
        labels = list(draw(st.text(alphabet=CLASS_ORDER, min_size=n,
                                   max_size=n)))
        if n and draw(st.integers(0, 5)) == 0:
            labels[draw(st.integers(0, n - 1))] = draw(st.sampled_from("Qhé"))
        change = draw(st.sampled_from([0] * 8 + [-1, 1]))
        labels = labels[:n + change] if change < 0 else labels + ["C"] * change
        records.append(LabeledRecord(f"r{k}", sequence, "".join(labels)))
    return records


def test_class_windows_groups_by_center_label():
    rec = LabeledRecord("r", "ACDEF", "HECCH")
    windows = class_windows([rec], half_width=1)
    # centers at positions 1..3 with labels E, C, C
    assert len(windows["H"]) == 0
    assert len(windows["E"]) == 1
    assert len(windows["C"]) == 2
    assert windows["E"][0].tolist() == [0, 1, 2]   # ACD
    assert windows["C"][0].tolist() == [1, 2, 3]   # CDE
    assert windows["C"][1].tolist() == [2, 3, 4]   # DEF


def test_class_windows_skips_incomplete_windows():
    rec = LabeledRecord("r", "ACD", "HEH")
    windows = class_windows([rec], half_width=2)
    assert all(len(v) == 0 for v in windows.values())


def test_class_windows_rejects_a_zero_half_width():
    rec = LabeledRecord("r", "ACD", "HEH")
    with pytest.raises(ValueError, match="^half_width must be >= 1$"):
        class_windows([rec], half_width=0)


def test_class_windows_rejects_bad_label():
    rec = LabeledRecord("r", "ACD", "HQH")
    with pytest.raises(ValueError, match="'Q'"):
        class_windows([rec], half_width=1)


@pytest.mark.parametrize("sequence, labels, lengths", [
    ("ACDEFGHIKL", "HHH", "10 != label length 3"),        # labels too short
    ("ACD", "HHHHHH", "3 != label length 6"),             # labels too long
    ("ACDE FGHIK", "HHHHHEEEEE", "9 != label length 10"),  # space dropped
])
def test_class_windows_rejects_records_of_unequal_length(sequence, labels,
                                                         lengths):
    message = f"record 'x': sequence length {lengths}"
    with pytest.raises(LengthMismatch, match=f"^{message}$"):
        class_windows([LabeledRecord("x", sequence, labels)], half_width=1)


@settings(max_examples=400, deadline=None)
@given(records=labeled_records(), half_width=st.integers(1, 4))
def test_class_windows_matches_the_per_residue_loop(records, half_width):
    assert_same_outcome(records, half_width)


@pytest.mark.parametrize("bad", ["Q", "h", "é"])
def test_class_windows_reports_the_first_bad_center_label(bad):
    records = [LabeledRecord("ok", "ACDEFGHIK", "HHHEEECCC"),
               LabeledRecord("bad", "ACDEFGHIK", f"{bad}HH{bad}EQCCh")]
    with pytest.raises(ValueError, match=f"^record 'bad': label '{bad}' is "
                                         f"not one of 'HEC'$"):
        class_windows(records, half_width=2)
    for half_width in (1, 2, 3, 4, 5):
        assert_same_outcome(records, half_width)


def test_class_windows_reports_a_length_mismatch_in_a_later_record():
    records = [LabeledRecord("a", "ACDEFGH", "HHHEEEC"),
               LabeledRecord("b", "ACDEF", "HHHEEE"),
               LabeledRecord("c", "ACD", "HQ")]
    with pytest.raises(LengthMismatch, match="^record 'b': sequence length "
                                             "5 != label length 6$"):
        class_windows(records, half_width=1)
    assert_same_outcome(records, 1)


def test_class_windows_empty_class_is_a_zero_row_array():
    for records in ([], [LabeledRecord("r", "ACDEFGH", "HHHHHHH")]):
        windows = class_windows(records, half_width=2)
        for c in "EC":
            assert windows[c].shape == (0, 5)
            assert windows[c].dtype == np.intp
    assert windows["H"].shape == (3, 5)


def test_baum_welch_takes_a_window_array_as_its_rows():
    windows = class_windows(planted_dataset(12, 40, seed=9), half_width=3)
    for offset, c in enumerate(CLASS_ORDER):
        model = new_random_hmm(3, len(ALPHABET), seed=offset)
        rows = [r.tolist() for r in windows[c]]
        got, got_trace = baum_welch(model, windows[c], max_iters=6, tol=1e-12)
        want, want_trace = baum_welch(model, rows, max_iters=6, tol=1e-12)
        assert got_trace == want_trace
        for name in ("initial", "transition", "emission"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("array, error, message", [
    (np.empty((0, 5), dtype=np.intp), NoTrainingData, "^training collection "
                                                        "is empty$"),
    (np.empty((3, 0), dtype=np.intp), EmptyObservation, "is empty"),
    (np.zeros((2, 4)), ValueError, "^observation symbols must be integers, "
                                   "got dtype float64$"),
    (np.array([[0, 1, 21], [2, 3, 4]]), SymbolOutOfRange,
     r"^symbols must be in \[0, 21\); got range \[0, 21\]$"),
    (np.zeros((2, 3, 4), dtype=np.intp), ValueError, "must be 1-D"),
])
def test_baum_welch_window_array_errors_match_its_rows(array, error, message):
    model = new_random_hmm(2, len(ALPHABET), seed=0)
    for training in (array, [r.tolist() for r in array]):
        with pytest.raises(error, match=message):
            baum_welch(model, training, max_iters=2)


def test_train_models_requires_data_for_every_class():
    rec = LabeledRecord("r", "ACDEFGH", "HHHHHHH")
    with pytest.raises(ClassHasNoData, match="class E"):
        train_models([rec], half_width=1, max_iters=1)


@pytest.mark.parametrize("pseudocount", [float("nan"), float("inf"), -1.0,
                                         -1e-12])
def test_train_models_rejects_a_bad_pseudocount(pseudocount):
    records = planted_dataset(4, 20, seed=3)
    with pytest.raises(ValueError, match="^pseudocount must be a finite "
                                         "number >= 0$"):
        train_models(records, half_width=2, max_iters=2,
                     pseudocount=pseudocount)


def test_train_models_allows_a_zero_pseudocount():
    records = planted_dataset(6, 30, seed=3)
    _, traces = train_models(records, half_width=2, max_iters=2,
                             pseudocount=0.0)
    assert all(traces[c] for c in CLASS_ORDER)


def test_train_models_is_deterministic():
    records = planted_dataset(8, 30, seed=3)
    a, traces_a = train_models(records, half_width=2, max_iters=3, seed=5)
    b, traces_b = train_models(records, half_width=2, max_iters=3, seed=5)
    for label in "HEC":
        assert np.array_equal(a[label].emission, b[label].emission)
    assert traces_a == traces_b


def test_train_models_seed_matters():
    records = planted_dataset(8, 30, seed=3)
    a, _ = train_models(records, half_width=2, max_iters=3, seed=5)
    b, _ = train_models(records, half_width=2, max_iters=3, seed=6)
    assert not np.array_equal(a["H"].emission, b["H"].emission)


def test_train_models_traces_are_monotone():
    records = planted_dataset(10, 40, seed=4)
    _, traces = train_models(records, half_width=2, max_iters=8, tol=1e-12)
    for label in "HEC":
        assert np.all(np.diff(traces[label]) >= -1e-9)


def test_trained_models_recover_planted_structure():
    # With distinct residue groups the trained helix model should put most of
    # its emission mass on helix-group symbols, and so on for the others.
    records = planted_dataset(40, 60, seed=11, stay=0.9)
    models, _ = train_models(records, half_width=2, max_iters=10, seed=0)
    for label in "HEC":
        model = models[label]
        group = CLASS_RESIDUE_GROUPS[label]
        weights = model.initial @ model.emission
        assert weights[group].sum() > 0.5


# ----------------------------------------------------------------- synthetic

def test_planted_models_have_disjoint_groups():
    groups = list(CLASS_RESIDUE_GROUPS.values())
    seen = np.concatenate(groups)
    assert len(seen) == 21
    assert len(np.unique(seen)) == 21


def test_planted_models_emit_only_within_their_group():
    models = planted_models(leak=0.0)
    for label in "HEC":
        emission = models[label].emission
        outside = np.setdiff1d(np.arange(21), CLASS_RESIDUE_GROUPS[label])
        assert np.all(emission[:, outside] == 0.0)
        assert np.allclose(emission.sum(axis=1), 1.0)


def test_planted_models_leak_spreads_mass():
    models = planted_models(leak=0.2)
    assert np.all(models["H"].emission > 0.0)


def test_planted_models_rejects_bad_leak():
    with pytest.raises(ValueError):
        planted_models(leak=1.0)


def test_sample_observations_deterministic_and_in_range():
    models = planted_models()
    rng = np.random.default_rng(0)
    a = sample_observations(models["H"], 50, rng)
    b = sample_observations(models["H"], 50, np.random.default_rng(0))
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 21
    # with no leak every symbol stays in the helix group
    assert np.all(np.isin(a, CLASS_RESIDUE_GROUPS["H"]))


def test_sample_observations_rejects_length_zero():
    with pytest.raises(ValueError, match="^length must be >= 1$"):
        sample_observations(planted_models()["H"], 0,
                            np.random.default_rng(0))


def test_planted_dataset_shape_and_determinism():
    records = planted_dataset(5, 25, seed=8)
    assert len(records) == 5
    assert all(len(r.sequence) == 25 and len(r.labels) == 25 for r in records)
    assert all(set(r.labels) <= set("HEC") for r in records)
    again = planted_dataset(5, 25, seed=8)
    assert records == again


def test_planted_dataset_residues_match_their_labels():
    # leak 0 means each residue must come from its label's group
    for rec in planted_dataset(3, 40, seed=2):
        for ch, label in zip(rec.sequence, rec.labels):
            idx = "ACDEFGHIKLMNPQRSTVWYX".index(ch)
            assert idx in CLASS_RESIDUE_GROUPS[label]


def test_end_to_end_recovery_smoke():
    records = planted_dataset(30, 50, seed=6, stay=0.9)
    models, _ = train_models(records[:25], half_width=2, max_iters=5, seed=0)
    correct = total = 0
    for rec in records[25:]:
        pred = predict_structure(models, rec.sequence, half_width=2)
        correct += sum(p == t for p, t in zip(pred, rec.labels))
        total += len(pred)
    assert correct / total > 0.5
