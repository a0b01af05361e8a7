"""Per-class window extraction, model fitting, and the synthetic generator."""

import numpy as np
import pytest

from ssph import (LabeledRecord, class_windows, planted_dataset,
                  planted_models, predict_structure, sample_observations,
                  train_models)
from ssph.errors import ClassHasNoData, LengthMismatch
from ssph.synthetic import CLASS_RESIDUE_GROUPS


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


def test_train_models_requires_data_for_every_class():
    rec = LabeledRecord("r", "ACDEFGH", "HHHHHHH")
    with pytest.raises(ClassHasNoData, match="class E"):
        train_models([rec], half_width=1, max_iters=1)


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
