"""Window classification and the sliding-window predictor."""

import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import (kernel_in_use, kernels, random_model,
                     single_symbol_stub, stub_model_set)
from ssph import (ALPHABET, ClassModelSet, _ckernel, encode_residues,
                  fold_residues, hmm, new_random_hmm, planted_dataset,
                  planted_models, predict_structure, predict_structures,
                  predictor, viterbi)
from ssph.errors import EmptySequence
from ssph.hmm import _log_params, _window_scores

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
    for name, kernel in kernels():
        with kernel_in_use(kernel):
            assert centre_label(k_h / 20, k_e / 20, k_c / 20) == expected, name


# Window scores on a small grid plus -inf, so that two- and three-way ties
# and windows every class scores -inf are common. Scores are never NaN.
_score_grid = st.sampled_from([-math.inf, -3.0, -2.5, -1.0, -0.0, 0.0])


@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda m: st.lists(st.lists(_score_grid, min_size=m, max_size=m),
                       min_size=3, max_size=3)))
@settings(max_examples=300, deadline=None)
def test_property_first_max_is_argmax_over_the_stack(scores):
    first, second, third = (np.array(s) for s in scores)
    picked = predictor._first_max(first, second, third)
    assert picked.tolist() == np.argmax(np.stack(scores), axis=0).tolist()


def test_window_scores_match_the_oracle():
    models = planted_models(leak=0.1)
    window = "ACDEF"  # drawn from the helix model's residue group
    encoded = encode_residues(window)
    for label in "HEC":
        score = _window_scores(*_log_params(models[label]), encoded,
                               len(encoded))[0]
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
    # The set keeps its own mapping: replacing the caller's entry leaves it.
    kept = given_models["E"]
    given_models["E"] = new_random_hmm(2, 21, seed=9)
    assert models["E"] is kept


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
    for name, kernel in kernels():
        with kernel_in_use(kernel):
            pred = predict_structure(models, seq, half_width=half_width)
        assert len(pred) == len(seq), name
        assert set(pred) <= set("HEC"), name
        for i in range(len(seq)):
            if i < half_width or i >= len(seq) - half_width:
                assert pred[i] == "C", name


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=5,
                max_size=5))
@settings(max_examples=50, deadline=None)
def test_property_interior_labels_follow_the_tie_break_chain(symbols):
    models = planted_models(leak=0.2)
    window = "".join(ALPHABET[i] for i in symbols)
    expected = max("HCE", key=lambda label: viterbi(
        models[label], encode_residues(window)).log_prob)
    for name, kernel in kernels():
        with kernel_in_use(kernel):
            pred = predict_structure(models, window, half_width=2)
        assert pred[2] == expected, name


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
    # one-shot generator, as in ``ssph predict``. Each kernel labels them.
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
        expected = [reference_predict(models, fold_residues(seq), half_width,
                                      boundary_label)
                    for seq in seqs]
        for name, kernel in kernels():
            monkeypatch.setattr(hmm, "_kernel", kernel)
            assert predict_structures(models, (seq for seq in seqs),
                                      half_width, boundary_label) \
                == expected, name


KernelCall = namedtuple("KernelCall", "windows symbols")


def counting_kernel(monkeypatch):
    """Make the kernel the one ``_ckernel.load`` gives (the numpy one where
    the compiled one cannot be built), wrapped to record each window kernel
    call as a :class:`KernelCall`: its number of windows and its symbols.
    The E-step entries pass through unrecorded."""
    kernel = _ckernel.load() or hmm._NUMPY_KERNEL
    calls = []

    class Counted:
        def __getattr__(self, name):  # forward and counts
            return getattr(kernel, name)

        def __call__(self, log_init, log_trans, log_emit, symbols, width):
            calls.append(KernelCall(len(symbols) - width + 1, symbols))
            return kernel(log_init, log_trans, log_emit, symbols, width)

    monkeypatch.setattr(hmm, "_kernel", Counted())
    return calls


def slice_windows(calls):
    """The number of windows of each slice, after checking that the calls
    come as exactly three per slice, one per class, each over the same
    symbols, so over every window of that slice."""
    assert len(calls) % 3 == 0
    slices = [calls[k:k + 3] for k in range(0, len(calls), 3)]
    for first, *rest in slices:
        assert all(c.symbols is first.symbols for c in rest)
    return [first.windows for first, *_ in slices]


def full_slices(windows, chunk_windows):
    """The window counts of the slices of ``windows`` joined windows."""
    full, last = divmod(windows, chunk_windows)
    return [chunk_windows] * full + ([last] if last else [])


@pytest.mark.parametrize("half_width", [1, 2, 5])
def test_predict_structures_of_only_short_records_scores_nothing(
        monkeypatch, half_width):
    # Every record is shorter than one window, so no slice has a centered
    # window and the kernel never runs; every residue gets the boundary
    # label.
    calls = counting_kernel(monkeypatch)
    rng = np.random.default_rng(50 + half_width)
    width = 2 * half_width + 1
    seqs = ["".join(ALPHABET[i] for i in rng.integers(0, 21, length))
            for length in [1, width - 1] * 40 + list(range(1, width))]
    for models in regression_model_sets():
        for boundary_label in "HEC":
            assert predict_structures(models, seqs, half_width,
                                      boundary_label) \
                == [boundary_label * len(seq) for seq in seqs]
    assert calls == []


@pytest.mark.parametrize("half_width", [10**18, 10**19])
def test_predict_structures_of_a_half_width_too_wide_to_build(monkeypatch,
                                                              half_width):
    # No boundary string of half_width labels is built when no record has a
    # complete window: at 10**18 it would not fit in memory, and 10**19 is
    # past sys.maxsize.
    calls = counting_kernel(monkeypatch)
    seqs = ["ACDEFGHIKL", "A", "MNPQRSTVWYX" * 30]
    for boundary_label in "HEC":
        assert predict_structures(stub_model_set(), seqs, half_width,
                                  boundary_label) \
            == [boundary_label * len(seq) for seq in seqs]
    assert calls == []


@pytest.mark.parametrize("chunk_windows", [1, 3, 8, 13])
def test_predict_structures_mixes_short_and_long_records_across_chunks(
        monkeypatch, chunk_windows):
    # Runs of short records several chunks long next to long records whose
    # windows span a chunk boundary. Only the records with a window are
    # joined, so the kernel scores each window of that join once per class
    # and never a window inside a short record. A slice may hold only
    # windows that span two records when CHUNK_WINDOWS <= 2 * half_width
    # (here at 1 and 3); at the default 8192 every slice keeps a window for
    # every half-width below 4096.
    monkeypatch.setattr(predictor, "CHUNK_WINDOWS", chunk_windows)
    calls = counting_kernel(monkeypatch)
    half_width = 2
    width = 2 * half_width + 1
    rng = np.random.default_rng(60 + chunk_windows)
    lengths = [4] * 12 + [width + 9] + [1, 4] * 6 + [3 * width] + [4] * 5 \
        + [width] + [2] * 9 + [width + 1]
    seqs = ["".join(ALPHABET[i] for i in rng.integers(0, 21, length))
            for length in lengths]
    for models in regression_model_sets():
        assert predict_structures(models, seqs, half_width) \
            == [reference_predict(models, seq, half_width, "C")
                for seq in seqs]
    windows = sum(n for n in lengths if n >= width) - width + 1
    assert windows < sum(lengths) - width + 1
    assert slice_windows(calls) == \
        full_slices(windows, chunk_windows) * len(regression_model_sets())


@pytest.mark.parametrize("chunk_windows", [7, 64, 8192])
@pytest.mark.parametrize("tied", ["planted-0.05", "identical"])
def test_predict_structures_scores_each_window_once_per_class(
        monkeypatch, tied, chunk_windows):
    # Three kernel calls per slice, each over every window of the slice,
    # also on sets whose classes tie: the planted models with leak 0.05,
    # whose H and E models mirror each other, and three identical class
    # models, which tie on every window, so every label is 'H'. No window
    # is scored a second time.
    monkeypatch.setattr(predictor, "CHUNK_WINDOWS", chunk_windows)
    calls = counting_kernel(monkeypatch)
    rng = np.random.default_rng(90)
    model = random_model(rng, 3, len(ALPHABET))
    models = {"planted-0.05": planted_models(0.05),
              "identical": ClassModelSet({label: model for label in "HEC"})
              }[tied]
    lengths = [30, 3, 200, 11, 450, 5]
    seqs = ["".join(ALPHABET[i] for i in rng.integers(0, 21, length))
            for length in lengths]
    labels = predict_structures(models, seqs, 2)
    assert labels == [reference_predict(models, seq, 2, "C") for seq in seqs]
    if tied == "identical":
        assert all(set(pred[2:-2]) <= {"H"} for pred in labels)
    windows = sum(n for n in lengths if n >= 5) - 4
    assert slice_windows(calls) == full_slices(windows, chunk_windows)


def record_labels(models, sequences, half_width, boundary_label="C"):
    """The generator behind :func:`predict_structures`, on ``models``."""
    params = [_log_params(models[label]) for label in predictor.TIE_BREAK]
    return predictor._record_labels(params, sequences, half_width,
                                    boundary_label)


class CountingReads:
    """An iterator over ``items`` that counts the items read from it."""

    def __init__(self, items):
        self.items, self.reads = iter(items), 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self.items)
        self.reads += 1
        return item


def reads_when_labelled(lengths, width, chunk_windows):
    """For each record of folded ``lengths``, how many records have been read
    when its labels and those of every record before it are known. A record
    shorter than a window needs only itself read. A longer one needs the
    slice that holds its last window of the join: a full slice as soon as
    the long records read hold its residues, the last one once every
    record is read."""
    joined = np.cumsum([n if n >= width else 0 for n in lengths])
    reads = []
    for i, n in enumerate(lengths):
        if n < width:
            reads.append(i + 1)
            continue
        last = joined[i] - width  # the record's last window in the join
        needed = (last // chunk_windows + 1) * chunk_windows + width - 1
        reads.append(min(int(np.searchsorted(joined, needed)) + 1,
                         len(lengths)))
    return list(np.maximum.accumulate(reads))


def test_record_labels_yields_the_first_record_before_reading_the_rest(
        monkeypatch):
    # Each record of 40 residues fills its own slices, so the first one's
    # labels come out once it alone has been read.
    monkeypatch.setattr(predictor, "CHUNK_WINDOWS", 4)
    models = planted_models(0.05)
    rng = np.random.default_rng(70)
    seqs = ["".join(ALPHABET[i] for i in rng.integers(0, 21, 40))
            for _ in range(50)]
    source = CountingReads(seqs)
    labels = record_labels(models, source, 2)
    assert next(labels) == reference_predict(models, seqs[0], 2, "C")
    assert source.reads == 1


@pytest.mark.parametrize("chunk_windows", [1, 3, 8, 13])
@pytest.mark.parametrize("half_width", [1, 2, 3])
def test_record_labels_yields_each_record_as_soon_as_it_is_labelled(
        monkeypatch, half_width, chunk_windows):
    # The layouts of the two tests above: runs of short records next to
    # long ones whose windows span slice boundaries, then records whose
    # text folds to a different length. The generator yields, in order,
    # what predict_structures returns at the default slice size, each
    # record as soon as the slices holding its windows (and those of every
    # record before it) are labelled.
    width = 2 * half_width + 1
    rng = np.random.default_rng(80 + 4 * half_width + chunk_windows)
    short = [1, width - 1, width]
    lengths = ([width - 1] * 12 + [width + 9] + [1, width - 1] * 6
               + [3 * width] + [width - 1] * 5 + [width] + [2] * 9
               + [width + 1] + short + [width + 5, 3 * width] + short
               + [width + 20] + short)
    text = list(ALPHABET + ALPHABET.lower() + "BZJUOé*- \t\n")
    seqs = ["".join(ALPHABET[i] for i in rng.integers(0, 21, length))
            for length in lengths]
    seqs += ["M" + "".join(rng.choice(text, length))
             for length in (0, width - 1, width, width + 1, 4 * width)]
    folded = [len(fold_residues(seq)) for seq in seqs]
    model_sets = regression_model_sets()
    expected = [predict_structures(models, seqs, half_width, "E")
                for models in model_sets]
    monkeypatch.setattr(predictor, "CHUNK_WINDOWS", chunk_windows)
    for models, labelled in zip(model_sets, expected):
        source = CountingReads(seqs)
        yielded = [(labels, source.reads) for labels
                   in record_labels(models, source, half_width, "E")]
        assert [labels for labels, _ in yielded] == labelled
        assert [reads for _, reads in yielded] == \
            reads_when_labelled(folded, width, chunk_windows)


def test_predict_structures_memory_grows_by_a_few_bytes_per_residue():
    # Twelve planted chains of 4 to 1000 residues, the shape of the
    # predict-proteome benchmark input, at 10x and 100x. Labelling keeps one
    # slice's scoring arrays, the records that slice spans and the returned
    # labels, about one byte per residue, so 3 bytes per added residue is an
    # upper bound; a folded and a joined copy of the whole input beside them
    # would exceed it.
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

    assert peak(100) - peak(10) <= 3 * 90 * sum(lengths)


def test_predict_structures_of_no_sequences_is_empty():
    assert predict_structures(stub_model_set(), []) == []


def test_predict_structures_rejects_a_bare_string():
    # A str would be labelled one character at a time, each a one-residue
    # sequence given the boundary label.
    with pytest.raises(TypeError, match="sequences must be an iterable"):
        predict_structures(stub_model_set(), "ACDEFGHIKLMNP", half_width=2)
    assert predict_structures(stub_model_set(),
                              (s for s in ["ACDEFGHIKLMNP", "AC"]),
                              half_width=2) \
        == [predict_structure(stub_model_set(), "ACDEFGHIKLMNP", 2), "CC"]


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
