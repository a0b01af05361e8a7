"""Window classification and the sliding-window predictor."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import random_model, single_symbol_stub, stub_model_set
from ssph import (ALPHABET, ClassModelSet, encode_residues, fold_residues,
                  new_random_hmm, planted_dataset, planted_models,
                  predict_structure, predict_structures, predictor, viterbi)
from ssph.errors import EmptySequence
from ssph.hmm import _log_params, _max_product_scores

FIXTURE_SEQUENCE = "ACDEIKLMRSTV"
# Expected labels for the stub models with half_width 2, frozen from the
# enumeration oracle: each interior window's three scores were computed by
# direct path enumeration and the tie-break chain applied by hand.
FIXTURE_LABELS = "CCHHEEEECCCC"


# ------------------------------------------------------------------ encoding

def test_alphabet_is_the_fixed_bijection():
    assert ALPHABET == "ACDEFGHIKLMNPQRSTVWYX"
    assert len(ALPHABET) == 21
    encoded = encode_residues(ALPHABET)
    assert encoded.tolist() == list(range(21))


def test_fold_residues_handles_case_whitespace_and_unknowns():
    assert fold_residues("AbZ") == "AXX"
    assert fold_residues("ac de\n") == "ACDE"
    assert fold_residues("BJOUZ") == "XXXXX"
    assert fold_residues("") == ""
    assert fold_residues("ßıﬁ") == "XXX"
    assert fold_residues("a\u00a0c\u2003d\u3000e\x1cf\tg") == "ACDEFG"
    assert fold_residues("w*1-.\x00") == "WXXXXX"


def test_fold_residues_matches_the_per_character_rule():
    text = "".join(chr(c) for c in range(0x3100))
    folded = "".join(ch.upper() if ch.upper() in ALPHABET and ch.isascii()
                     else "X" for ch in text if not ch.isspace())
    assert fold_residues(text) == folded
    assert encode_residues(text).tolist() == [ALPHABET.index(c)
                                              for c in folded]


def test_encode_residues_folds_before_encoding():
    assert encode_residues("AXB").tolist() == [0, 20, 20]
    assert encode_residues("a x\nß").tolist() == [0, 20, 20]
    assert encode_residues("").tolist() == []
    assert encode_residues("ACD").dtype == np.intp


# ----------------------------------------------------------- class tie-break

def centre_label(p_h, p_e, p_c):
    """Label of the one complete window of "AAA" under single-state stubs
    that emit 'A' with probability p_H, p_E and p_C."""
    models = ClassModelSet({"H": single_symbol_stub(p_h),
                            "E": single_symbol_stub(p_e),
                            "C": single_symbol_stub(p_c)})
    pred = predict_structure(models, "AAA", half_width=1)
    assert pred[0] == pred[2] == "C"
    return pred[1]


@pytest.mark.parametrize("p_h,p_e,p_c,label", [
    pytest.param(0.3, 0.4, 0.6, "C", id="largest-C"),
    pytest.param(math.exp(-1), math.exp(-3), math.exp(-5), "H",
                 id="largest-H"),
    pytest.param(math.exp(-9), math.exp(-3), math.exp(-5), "E",
                 id="largest-E"),
    pytest.param(math.exp(-2), math.exp(-2), math.exp(-2), "H",
                 id="three-way-tie"),
    pytest.param(math.exp(-8), math.exp(-2), math.exp(-2), "C",
                 id="coil-strand-tie"),
    pytest.param(math.exp(-2), math.exp(-7), math.exp(-2), "H",
                 id="helix-coil-tie"),
    pytest.param(math.exp(-2), math.exp(-2), math.exp(-7), "H",
                 id="helix-strand-tie"),
])
def test_window_label_follows_the_tie_break(p_h, p_e, p_c, label):
    assert centre_label(p_h, p_e, p_c) == label


# Probabilities on a k/20 grid: equal k give bit-equal window scores, so
# ties are exact and the expected label does not hang on float rounding.
_grid = st.integers(min_value=1, max_value=20)


@given(_grid, _grid, _grid)
def test_property_centre_label_is_the_first_maximum(k_h, k_e, k_c):
    expected = max("HCE", key={"H": k_h, "E": k_e, "C": k_c}.get)
    assert centre_label(k_h / 20, k_e / 20, k_c / 20) == expected


def test_window_scores_match_the_oracle():
    models = planted_models(leak=0.1)
    window = "ACDEF"  # drawn from the helix model's residue group
    encoded = encode_residues(window)
    for label in "HEC":
        score = _max_product_scores(*_log_params(models[label]),
                                    encoded[None])[0]
        best, _ = oracle.best_path_probability(models[label], encoded)
        assert math.exp(score) == pytest.approx(best, rel=1e-10)
    assert predict_structure(models, window, half_width=2) == "CCHCC"


def test_class_model_set_rejects_wrong_alphabet():
    wrong = new_random_hmm(2, 4, seed=0)
    ok = new_random_hmm(2, 21, seed=0)
    with pytest.raises(ValueError, match="alphabet"):
        ClassModelSet({"H": wrong, "E": ok, "C": ok})
    for labels in ("HE", "HECX", "HEX", ""):  # missing, extra, both, none
        with pytest.raises(ValueError, match="label"):
            ClassModelSet({label: ok for label in labels})


def test_class_model_set_gives_each_label_its_model():
    given_models = {label: new_random_hmm(2, 21, seed=i)
                    for i, label in enumerate("CEH")}
    models = ClassModelSet(given_models)
    for label in "HEC":
        assert models[label] is given_models[label]
    for label in ("Q", "", "HE"):
        with pytest.raises(KeyError):
            models[label]


# --------------------------------------------------------- predict_structure

def test_predict_structure_frozen_fixture():
    pred = predict_structure(stub_model_set(), FIXTURE_SEQUENCE, half_width=2)
    assert pred == FIXTURE_LABELS


def test_predict_structure_short_sequence_is_all_boundary():
    assert predict_structure(stub_model_set(), "ACD", half_width=5) == "CCC"


def test_predict_structure_boundary_label_is_configurable():
    models = stub_model_set()
    assert predict_structure(models, "ACD", half_width=5,
                             boundary_label="E") == "EEE"
    pred = predict_structure(models, FIXTURE_SEQUENCE, half_width=2,
                             boundary_label="H")
    assert pred == "HH" + FIXTURE_LABELS[2:10] + "HH"


@pytest.mark.parametrize("label", ["Q", "", "HE", "HEC"])
def test_predict_structure_rejects_bad_boundary_label(label):
    with pytest.raises(ValueError):
        predict_structure(stub_model_set(), "ACDEF", boundary_label=label)


def test_predict_structure_labels_each_residue_not_each_character():
    # Whitespace is not a residue: 13 characters, 11 residues, 11 labels.
    sequence = "ACDEF GHIK\nLM"
    pred = predict_structure(stub_model_set(), sequence, half_width=2)
    assert len(pred) == len(fold_residues(sequence)) == 11
    assert pred == predict_structure(stub_model_set(), "ACDEFGHIKLM", 2)


def test_predict_structure_rejects_empty_sequence():
    with pytest.raises(EmptySequence):
        predict_structure(stub_model_set(), "")
    with pytest.raises(EmptySequence):  # nothing left once folded
        predict_structures(stub_model_set(), ["ACDEFGHIKLM", "AC", " \t\n"])


def test_predict_structure_rejects_zero_half_width():
    with pytest.raises(ValueError):
        predict_structure(stub_model_set(), "ACDEF", half_width=0)


def test_predict_structure_is_deterministic():
    models = planted_models(leak=0.05)
    seq = "ACDEIKLMRSTVACDEIKLMRSTV"
    assert predict_structure(models, seq, half_width=3) == \
        predict_structure(models, seq, half_width=3)


def test_predict_structure_locality():
    # Changing one residue may only move labels within half_width of it.
    models = planted_models(leak=0.1)
    rng = np.random.default_rng(17)
    seq = "".join(ALPHABET[i] for i in rng.integers(0, 21, size=40))
    half_width = 3
    base = predict_structure(models, seq, half_width=half_width)
    for j in (0, 7, 20, 39):
        replacement = "A" if seq[j] != "A" else "C"
        mutated = seq[:j] + replacement + seq[j + 1:]
        pred = predict_structure(models, mutated, half_width=half_width)
        for i, (a, b) in enumerate(zip(base, pred)):
            if a != b:
                assert abs(i - j) <= half_width


@given(st.integers(min_value=1, max_value=4),
       st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                max_size=40))
@settings(max_examples=50, deadline=None)
def test_property_output_length_and_alphabet(half_width, symbols):
    models = planted_models(leak=0.2)
    seq = "".join(ALPHABET[i] for i in symbols)
    pred = predict_structure(models, seq, half_width=half_width)
    assert len(pred) == len(seq)
    assert set(pred) <= set("HEC")
    for i in range(len(seq)):
        if i < half_width or i >= len(seq) - half_width:
            assert pred[i] == "C"


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=5,
                max_size=5))
@settings(max_examples=50, deadline=None)
def test_property_interior_labels_follow_the_tie_break_chain(symbols):
    models = planted_models(leak=0.2)
    window = "".join(ALPHABET[i] for i in symbols)
    pred = predict_structure(models, window, half_width=2)
    assert pred[2] == max("HCE", key=lambda label: viterbi(
        models[label], encode_residues(window)).log_prob)


# ------------------------------------------- batched scoring vs the old loop

def reference_predict(models, sequence, half_width, boundary_label):
    """The per-window loop that batched scoring replaced: three Viterbi
    scores per window, and the first maximum in H, C, E order."""
    encoded = encode_residues(sequence)
    labels = [boundary_label] * len(encoded)
    for i in range(half_width, len(encoded) - half_width):
        window = encoded[i - half_width:i + half_width + 1]
        labels[i] = max("HCE", key=lambda label: viterbi(
            models[label], window).log_prob)
    return "".join(labels)


def regression_model_sets():
    rng = np.random.default_rng(31)
    random_set = ClassModelSet(
        {label: random_model(rng, 3, len(ALPHABET)) for label in "HEC"})
    return [planted_models(0.0), planted_models(0.05), random_set,
            planted_models(0.1)]


# Fixed windows: one from each planted residue group, a mixed one and an
# all-unknown one.
FIXED_WINDOWS = ("ACDEF", "IKLMN", "RSTVW", "AIRAI", "XXXXX")


@pytest.mark.parametrize("boundary_label", ["H", "E", "C"])
@pytest.mark.parametrize("half_width", [1, 2, 3, 4, 5])
def test_predict_structure_matches_the_per_window_loop(half_width,
                                                       boundary_label):
    rng = np.random.default_rng(half_width)
    width = 2 * half_width + 1
    for models in regression_model_sets():
        seqs = ["".join(ALPHABET[i] for i in rng.integers(0, 21, length))
                for length in (1, width - 1, width, width + 1, 60)]
        for seq in seqs + list(FIXED_WINDOWS):
            assert predict_structure(models, seq, half_width, boundary_label) \
                == reference_predict(models, seq, half_width, boundary_label)


@pytest.mark.parametrize("chunk_windows", [1, 4, 7])
@pytest.mark.parametrize("boundary_label", ["H", "E", "C"])
@pytest.mark.parametrize("half_width", [1, 2, 3])
def test_predict_structures_matches_the_per_window_loop_across_records(
        monkeypatch, half_width, boundary_label, chunk_windows):
    # Records too short for a window (1, 2w) and of exactly one window
    # (2w+1) at the start, in the middle and at the end, between records
    # that span several chunks, so chunk boundaries fall inside records,
    # between them and next to the short ones. The last records carry
    # whitespace, lower case and letters outside the alphabet, so their
    # folded lengths differ from their text's. The sequences come from a
    # one-shot generator, as in ``ssph predict``.
    monkeypatch.setattr(predictor, "CHUNK_WINDOWS", chunk_windows)
    rng = np.random.default_rng(40 + half_width)
    width = 2 * half_width + 1
    short = [1, width - 1, width]
    lengths = short + [width + 5, 3 * width] + short + [width + 20] + short
    text = list(ALPHABET + ALPHABET.lower() + "BZJUOé*- \t\n")
    for models in regression_model_sets():
        seqs = ["".join(ALPHABET[i] for i in rng.integers(0, 21, length))
                for length in lengths]
        seqs += ["M" + "".join(rng.choice(text, length))
                 for length in (0, width - 1, width, width + 1, 4 * width)]
        assert predict_structures(models, (seq for seq in seqs), half_width,
                                  boundary_label) \
            == [reference_predict(models, fold_residues(seq), half_width,
                                  boundary_label)
                for seq in seqs]


def test_predict_structures_memory_grows_by_a_few_bytes_per_residue():
    # Twelve planted chains of 4 to 1000 residues, the shape of the
    # predict-proteome benchmark input, at 10x and 100x. Labelling keeps a
    # few bytes per residue (folded text, window mask, labels) plus one
    # chunk's scoring arrays, so 8 bytes per added residue is an upper bound;
    # holding 8-byte symbol indices for the whole input would exceed it.
    lengths = [round(4 * 250 ** (i / 11)) for i in range(12)]
    chains = [planted_dataset(1, length, seed=100 + i)[0].sequence
              for i, length in enumerate(lengths)]
    models = planted_models(0.05)

    def peak(copies):
        sequences = chains * copies
        tracemalloc.start()
        try:
            predict_structures(models, sequences)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100) - peak(10) <= 8 * 90 * sum(lengths)


def test_predict_structures_of_no_sequences_is_empty():
    assert predict_structures(stub_model_set(), []) == []


@pytest.mark.parametrize("half_width, boundary_label, message", [
    (0, "C", "half_width must be >= 1"),
    (-1, "C", "half_width must be >= 1"),
    (2, "Q", "boundary_label must be one of 'HEC'"),
    (2, "HE", "boundary_label must be one of 'HEC'"),
])
def test_predict_structures_rejects_bad_arguments_as_predict_structure(
        half_width, boundary_label, message):
    for call in (lambda: predict_structure(stub_model_set(), "ACDEF",
                                           half_width, boundary_label),
                 lambda: predict_structures(stub_model_set(), ["ACDEF"],
                                            half_width, boundary_label)):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_window_no_class_can_emit_is_labelled_helix():
    # With leak 0 each planted model emits only its own third of the
    # alphabet, so a window mixing the strand (I, K) and coil (R, S, T)
    # groups scores -inf under all three; the tie-break makes it 'H'.
    models = planted_models(0.0)
    window = encode_residues("IKRST")
    assert all(viterbi(models[label], window).log_prob == -math.inf
               for label in "HEC")
    assert predict_structure(models, "IKRST", half_width=2) == "CCHCC"
    assert predict_structure(models, "IKRSTIKRST", half_width=2) == "CCHHHHHHCC"
