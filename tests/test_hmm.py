"""Core HMM numerics checked against the exhaustive enumeration reference."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import oracle
import reference_estep
import ssph
from helpers import faulty_rows, random_model, random_stochastic, small_cases
from ssph import (Hmm, backward_log_likelihood, baum_welch,
                  forward_log_likelihood, new_random_hmm, sequence_score,
                  viterbi)
from ssph.errors import EmptyObservation, NoTrainingData, SymbolOutOfRange
from ssph.hmm import (ROW_SUM_TOL, _check_stochastic, _EStep,
                      _length_batches, _log_params, _reestimate,
                      _window_scores)


def expected_counts(model, batches):
    """One E-step of ``model`` over ``batches`` with freshly built buffers."""
    return _EStep(model.num_states, batches)(model)


def uniform_hmm(num_states, alphabet_size):
    return Hmm(
        initial=np.full(num_states, 1.0 / num_states),
        transition=np.full((num_states, num_states), 1.0 / num_states),
        emission=np.full((num_states, alphabet_size), 1.0 / alphabet_size),
    )


# ---------------------------------------------------------------- model type

def test_hmm_rejects_bad_row_sums():
    with pytest.raises(ValueError, match="sum to 1"):
        Hmm(initial=np.array([0.6, 0.6]),
            transition=np.full((2, 2), 0.5),
            emission=np.full((2, 3), 1.0 / 3))


def test_hmm_rejects_entries_outside_unit_interval():
    with pytest.raises(ValueError, match="outside"):
        Hmm(initial=np.array([1.5, -0.5]),
            transition=np.full((2, 2), 0.5),
            emission=np.full((2, 3), 1.0 / 3))
    with pytest.raises(ValueError, match="outside"):
        Hmm(initial=np.array([np.nan, 0.4]),
            transition=np.full((2, 2), 0.5),
            emission=np.full((2, 3), 1.0 / 3))


def test_hmm_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        Hmm(initial=np.array([0.5, 0.5]),
            transition=np.full((3, 3), 1.0 / 3),
            emission=np.full((2, 3), 1.0 / 3))


def test_hmm_tolerates_row_sum_within_slack():
    eps = 5e-10  # inside the 1e-9 row-sum tolerance
    model = Hmm(initial=np.array([0.5 + eps, 0.5]),
                transition=np.full((2, 2), 0.5),
                emission=np.full((2, 4), 0.25))
    assert model.num_states == 2
    assert model.alphabet_size == 4


def test_hmm_is_immutable():
    model = uniform_hmm(2, 3)
    with pytest.raises(ValueError):
        model.initial[0] = 0.9
    with pytest.raises(Exception):
        model.initial = np.array([1.0, 0.0])


def test_hmm_copies_the_callers_arrays_and_leaves_them_writeable():
    arrays = (np.array([0.5, 0.5]), np.full((2, 2), 0.5),
              np.full((2, 3), 1.0 / 3))
    model = Hmm(*arrays)
    kept = (model.initial, model.transition, model.emission)
    for given_array, kept_array in zip(arrays, kept):
        assert given_array.flags.writeable
        assert not kept_array.flags.writeable
        assert not np.shares_memory(given_array, kept_array)
        assert np.array_equal(given_array, kept_array)
    arrays[0][0] = 0.9
    assert model.initial.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("initial, emission, message", [
    (np.full((1, 2), 0.5), np.full((2, 3), 1.0 / 3),
     r"initial must be a non-empty 1-D vector"),
    (np.array([0.5, 0.5]), np.full(3, 1.0 / 3),
     r"emission must have shape \(2, alphabet_size\)"),
], ids=["2-D initial", "1-D emission"])
def test_hmm_rejects_initial_and_emission_of_the_wrong_rank(initial, emission,
                                                            message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Hmm(initial=initial, transition=np.full((2, 2), 0.5),
            emission=emission)


def old_check_stochastic(rows, name):
    """The row check as written before its min/max form."""
    if not np.all((rows >= 0.0) & (rows <= 1.0)):  # also rejects NaN
        raise ValueError(f"{name} has entries outside [0, 1]")
    sums = rows.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        raise ValueError(f"{name} rows must sum to 1 within {ROW_SUM_TOL}")


def check_outcome(check, rows):
    try:
        check(rows, "rows")
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("rows", [
    [math.nan], [math.inf], [-math.inf], [-0.0, 1.0], [1.0 + 2**-52],
    [-2**-1074, 1.0], [0.5, 0.5 + 0.999999 * ROW_SUM_TOL],
    [0.5, 0.5 + 1.000001 * ROW_SUM_TOL], [[1.0], [math.nan]],
    [[0.5, 0.5], [1.5, -0.5]], [[1.0, 0.0], [0.5, 0.5 - 2 * ROW_SUM_TOL]],
])
def test_row_check_matches_the_old_formula_on_edge_arrays(rows):
    rows = np.array(rows)
    assert check_outcome(_check_stochastic, rows) == \
        check_outcome(old_check_stochastic, rows)


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=21), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_property_row_check_matches_the_old_formula(num_rows, width, flat,
                                                    data):
    rows = data.draw(faulty_rows(num_rows, width))
    if flat:
        rows = rows[0]
    assert check_outcome(_check_stochastic, rows) == \
        check_outcome(old_check_stochastic, rows)


def test_new_random_hmm_single_cell_is_all_ones():
    model = new_random_hmm(1, 1, seed=0)
    assert model.initial.tolist() == [1.0]
    assert model.transition.tolist() == [[1.0]]
    assert model.emission.tolist() == [[1.0]]


def test_new_random_hmm_is_deterministic():
    a = new_random_hmm(2, 21, seed=42)
    b = new_random_hmm(2, 21, seed=42)
    assert np.array_equal(a.initial, b.initial)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.emission, b.emission)


def test_new_random_hmm_seed_changes_model():
    a = new_random_hmm(2, 21, seed=42)
    b = new_random_hmm(2, 21, seed=43)
    assert not (np.array_equal(a.initial, b.initial)
                and np.array_equal(a.transition, b.transition)
                and np.array_equal(a.emission, b.emission))


@pytest.mark.parametrize("num_states,alphabet_size", [(0, 3), (2, 0), (-1, 4)])
def test_new_random_hmm_rejects_empty_dimensions(num_states, alphabet_size):
    with pytest.raises(ValueError):
        new_random_hmm(num_states, alphabet_size, seed=0)


def test_new_random_hmm_entries_strictly_positive():
    model = new_random_hmm(4, 9, seed=11)
    assert np.all(model.initial > 0)
    assert np.all(model.transition > 0)
    assert np.all(model.emission > 0)


# ------------------------------------------------------------------- viterbi

def test_viterbi_single_state_uniform_emission():
    model = uniform_hmm(1, 4)
    result = viterbi(model, [0, 1, 2])
    assert result.path == [0, 0, 0]
    assert result.log_prob == pytest.approx(math.log(0.015625), abs=1e-12)


def test_viterbi_rejects_empty_observation():
    with pytest.raises(EmptyObservation):
        viterbi(uniform_hmm(2, 4), [])


def test_viterbi_rejects_a_2d_observation():
    with pytest.raises(ValueError, match="^observation sequence must be 1-D$"):
        viterbi(uniform_hmm(2, 4), [[0, 1], [1, 0]])


@pytest.mark.parametrize("obs", [[4], [0, 7], [-1]])
def test_viterbi_rejects_out_of_range_symbols(obs):
    with pytest.raises(SymbolOutOfRange):
        viterbi(uniform_hmm(2, 4), obs)


def test_viterbi_matches_enumeration_on_small_cases():
    for model, obs in small_cases(150, seed=101):
        result = viterbi(model, obs)
        best, _ = oracle.best_path_probability(model, obs)
        assert math.exp(result.log_prob) == pytest.approx(best, rel=1e-10)


def test_viterbi_path_attains_the_reported_probability():
    for model, obs in small_cases(150, seed=202):
        result = viterbi(model, obs)
        assert len(result.path) == len(obs)
        direct = oracle.path_probability(model.initial, model.transition,
                                         model.emission, obs, result.path)
        assert direct == pytest.approx(math.exp(result.log_prob), rel=1e-10)


def test_viterbi_ties_resolve_to_lowest_state_index():
    # Every path through a fully uniform model scores the same.
    result = viterbi(uniform_hmm(3, 2), [0, 1, 0, 1, 1])
    assert result.path == [0, 0, 0, 0, 0]


def test_viterbi_impossible_observation_scores_minus_inf():
    model = Hmm(initial=np.array([1.0]),
                transition=np.array([[1.0]]),
                emission=np.array([[1.0, 0.0]]))
    result = viterbi(model, [0, 1, 0])
    assert result.log_prob == -np.inf
    assert len(result.path) == 3
    best, _ = oracle.best_path_probability(model, [0, 1, 0])
    assert best == 0.0


# --------------------------------------------------------- forward / backward

def test_forward_single_state_uniform_emission():
    assert forward_log_likelihood(uniform_hmm(1, 4), [0, 1, 2]) == \
        pytest.approx(math.log(0.015625), abs=1e-12)


def test_forward_matches_enumeration_sum():
    for model, obs in small_cases(150, seed=303):
        total = oracle.total_probability(model, obs)
        assert math.exp(forward_log_likelihood(model, obs)) == \
            pytest.approx(total, rel=1e-10)


def test_forward_dominates_viterbi():
    for model, obs in small_cases(150, seed=404):
        assert forward_log_likelihood(model, obs) >= \
            viterbi(model, obs).log_prob - 1e-9


def test_backward_certain_observation_scores_zero():
    model = Hmm(initial=np.array([1.0]),
                transition=np.array([[1.0]]),
                emission=np.array([[1.0, 0.0]]))
    assert backward_log_likelihood(model, [0, 0]) == pytest.approx(0.0, abs=1e-15)


def test_backward_matches_enumeration_sum():
    for model, obs in small_cases(150, seed=505):
        total = oracle.total_probability(model, obs)
        assert math.exp(backward_log_likelihood(model, obs)) == \
            pytest.approx(total, rel=1e-10)


def test_backward_agrees_with_forward_on_long_sequences():
    rng = np.random.default_rng(606)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(2, 9))
        model = random_model(rng, n, m)
        obs = rng.integers(0, m, size=int(rng.integers(1, 201))).tolist()
        f = forward_log_likelihood(model, obs)
        b = backward_log_likelihood(model, obs)
        assert abs(f - b) <= 1e-8


@pytest.mark.parametrize("fn", [forward_log_likelihood, backward_log_likelihood])
def test_likelihood_input_validation(fn):
    model = uniform_hmm(2, 4)
    with pytest.raises(EmptyObservation):
        fn(model, [])
    with pytest.raises(SymbolOutOfRange):
        fn(model, [0, 9])


def test_non_integer_observations_are_rejected():
    model = uniform_hmm(2, 4)
    scorers = (viterbi, sequence_score, forward_log_likelihood,
               backward_log_likelihood,
               lambda m, obs: baum_welch(m, [obs], max_iters=1))
    for score in scorers:
        for obs in ([1.7], ["1"], np.array([1.9, 0.2]), [True, False],
                    [0.5, 2.9, 1.2]):
            with pytest.raises(ValueError, match="^observation symbols "
                                                 "must be integers"):
                score(model, obs)
        with pytest.raises(EmptyObservation):  # np.asarray([]) is float
            score(model, [])
    with pytest.raises(ValueError, match="must be integers"):
        baum_welch(model, [[0, 1], [0.5, 1.0]])
    for dtype in (np.uint8, np.int32, np.uint64):
        obs = np.array([0, 3, 1], dtype=dtype)
        assert viterbi(model, obs) == viterbi(model, [0, 3, 1])
        assert forward_log_likelihood(model, obs) == \
            forward_log_likelihood(model, [0, 3, 1])


# --------------------------------------------------------- zero probability

def single_symbol_hmm():
    """One state that only ever emits symbol 0."""
    return Hmm(initial=np.array([1.0]), transition=np.array([[1.0]]),
               emission=np.array([[1.0, 0.0]]))


def underflowing_hmm():
    """Symbol 1 needs the 1e-200 step 0 -> 1 and then a 1e-200 emission, so
    [0, 1] has probability 1e-400, which underflows double precision."""
    return Hmm(initial=np.array([1.0, 0.0]),
               transition=np.array([[1.0, 1e-200], [0.0, 1.0]]),
               emission=np.array([[1.0, 0.0], [1.0, 1e-200]]))


@pytest.mark.parametrize("make", [single_symbol_hmm, underflowing_hmm])
def test_zero_probability_likelihood_is_minus_inf_without_warnings(make):
    model = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert forward_log_likelihood(model, [0, 1]) == -np.inf
        assert backward_log_likelihood(model, [0, 1]) == -np.inf
        assert forward_log_likelihood(model, [1]) == -np.inf
        assert backward_log_likelihood(model, [1]) == -np.inf


@pytest.mark.parametrize("make", [single_symbol_hmm, underflowing_hmm])
def test_baum_welch_rejects_a_zero_probability_sequence(make):
    with pytest.raises(ValueError, match="^a training sequence has zero "
                                         "probability under the model$"):
        baum_welch(make(), [[0, 0], [0, 1]], max_iters=3)


# -------------------------------------------------------- unreachable states

# State 1 is never entered, and emits symbol 0 with probability 1 against
# state 0's 1/21, so without a guard its scaled beta grows by 21 per step
# (or 10.5 when it can leave to state 0) and overflows within 400 steps.
UNREACHABLE_TRANSITIONS = ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, 0.5]])


def unreachable_state_hmm(transition):
    return Hmm(initial=np.array([1.0, 0.0]), transition=np.array(transition),
               emission=np.array([[1 / 21] * 21, [1.0] + [0.0] * 20]))


@pytest.mark.parametrize("transition", UNREACHABLE_TRANSITIONS)
def test_unreachable_state_keeps_long_likelihoods_finite(transition):
    model = unreachable_state_hmm(transition)
    obs = [0] * 400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = forward_log_likelihood(model, obs)
        b = backward_log_likelihood(model, obs)
    assert f == pytest.approx(400 * math.log(1 / 21), rel=1e-12)
    assert abs(f - b) <= 1e-8


@pytest.mark.parametrize("transition", UNREACHABLE_TRANSITIONS)
def test_unreachable_state_trains_without_error(transition):
    model = unreachable_state_hmm(transition)
    seqs = [[0] * 400, [0] * 400, [0, 1, 2] * 100]
    batches = _length_batches(model, seqs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expected_counts(model, batches)
        _, trace = baum_welch(model, seqs, max_iters=5, tol=1e-12)
    # Every path stays in state 0, so the counts are exact integers.
    emit = np.zeros((2, 21))
    emit[0, :3] = [900, 100, 100]
    exact = (np.array([3.0, 0.0]), np.array([[1097.0, 0.0], [0.0, 0.0]]),
             emit, 1100 * math.log(1 / 21))
    assert_counts_close(got, exact, 1e-9)
    # One step reaches the maximum, state 0 emitting 0, 1, 2 at 9/11, 1/11,
    # 1/11, up to the pull of the pseudocount floor.
    best = 900 * math.log(9 / 11) + 200 * math.log(1 / 11)
    assert trace[0] == pytest.approx(best, abs=1e-4)
    assert trace[-1] == pytest.approx(best, abs=1e-4)


def test_zero_count_rows_keep_their_row_at_pseudocount_zero():
    # State 1 is never entered, so at pseudocount 0 its transition and
    # emission counts total 0: with no evidence, both rows stay as they were.
    model = Hmm(initial=[1, 0], transition=[[1, 0], [0, 1]],
                emission=[[0.5, 0.5], [0.5, 0.5]])
    trained, trace = baum_welch(model, [[0, 1, 0]], pseudocount=0.0)
    assert np.array_equal(trained.transition[1], model.transition[1])
    assert np.array_equal(trained.emission[1], model.emission[1])
    assert trained.emission[0] == pytest.approx([2 / 3, 1 / 3], rel=1e-15)
    assert np.diff(trace).min() >= -1e-9


# ---------------------------------------------------------- MAP-EM objective

def map_objective_steps(model, sequences, pseudocount, iters):
    """Log-likelihoods and MAP-EM objectives of the models that ``iters``
    Baum-Welch steps produce. With a pseudocount floor, EM maximizes
    log-likelihood + pseudocount * (sum of ln of every model entry), the
    log-posterior under a Dirichlet prior; only that sum must not fall."""
    e_step = _EStep(model.num_states, _length_batches(model, sequences))
    counts = e_step(model)
    lls, objectives = [], []
    for _ in range(iters):
        model = _reestimate(model, *counts[:3], pseudocount)
        counts = e_step(model)
        log_prior = sum(np.log(rows).sum() for rows in
                        (model.initial, model.transition, model.emission))
        lls.append(counts[3])
        objectives.append(counts[3] + pseudocount * log_prior)
    return np.array(lls), np.array(objectives)


def assert_never_falls(objectives):
    drops = np.diff(objectives) / np.abs(objectives[:-1])
    assert drops.min() >= -1e-9


@pytest.mark.parametrize("transition", UNREACHABLE_TRANSITIONS)
def test_em_objective_never_falls_where_the_likelihood_does(transition):
    model = unreachable_state_hmm(transition)
    seqs = [[0] * 300, [0] * 300, [0, 1, 2] * 100]
    lls, objectives = map_objective_steps(model, seqs, 1e-6, 30)
    assert np.diff(lls).min() < -1e-8  # the pseudocount floor's pull
    assert_never_falls(objectives)


@pytest.mark.parametrize("pseudocount", [1e-6, 1e-3, 0.1, 1.0])
def test_em_objective_never_falls_on_random_models(pseudocount):
    rng = np.random.default_rng(4004)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        model = random_model(rng, int(rng.integers(1, 4)), m)
        seqs = [rng.integers(0, m, size=int(rng.integers(1, 30)))
                for _ in range(int(rng.integers(1, 8)))]
        assert_never_falls(map_objective_steps(model, seqs, pseudocount,
                                               20)[1])


# ------------------------------------------------------------------ E-step

def enumerated_counts(model, sequences):
    """Expected start/transition/emission counts and total log-likelihood,
    summed over every state path of every sequence."""
    n, m = model.num_states, model.alphabet_size
    start, trans, emit = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
    total_ll = 0.0
    for obs in sequences:
        paths, probs = oracle.all_path_probabilities(
            model.initial, model.transition, model.emission, obs)
        total = probs.sum()
        total_ll += math.log(total)
        post = probs / total
        np.add.at(start, paths[:, 0], post)
        for t, symbol in enumerate(obs):
            np.add.at(emit[:, symbol], paths[:, t], post)
            if t:
                np.add.at(trans, (paths[:, t - 1], paths[:, t]), post)
    return start, trans, emit, total_ll


def _logsumexp(a, axis=-1):
    top = np.max(a, axis=axis, keepdims=True)
    is_top = a == top
    ties = np.sum(is_top, axis=axis, dtype=float)
    with np.errstate(invalid="ignore"):
        rest = np.sum(np.exp(np.where(is_top, -np.inf, a - top)), axis=axis)
    return np.log1p(rest / ties) + np.log(ties) + np.squeeze(top, axis)


def logspace_counts(model, batches):
    """The log-space E-step that the scaled recursions replaced, kept as a
    second reference: log-alpha and log-beta lattices, log-sum-exp per step
    and a (batch, length - 1, states, states) log-xi tensor."""
    log_init, log_trans, log_emit = _log_params(model)
    n, m = model.num_states, model.alphabet_size
    start, trans, emit = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
    total_ll = 0.0
    for obs in batches:
        batch, length = obs.shape
        alpha = np.empty((batch, length, n))
        alpha[:, 0] = log_init + log_emit[:, obs[:, 0]].T
        for t in range(1, length):
            step = alpha[:, t - 1][:, :, None] + log_trans[None]
            alpha[:, t] = _logsumexp(step, axis=1) + log_emit[:, obs[:, t]].T
        beta = np.zeros((batch, length, n))
        for t in range(length - 2, -1, -1):
            step = (log_trans[None]
                    + (log_emit[:, obs[:, t + 1]].T + beta[:, t + 1])[:, None])
            beta[:, t] = _logsumexp(step, axis=2)
        ll = _logsumexp(alpha[:, -1], axis=1)
        total_ll += float(ll.sum())
        gamma = np.exp(alpha + beta - ll[:, None, None])
        start += gamma[:, 0].sum(axis=0)
        np.add.at(emit.T, obs.reshape(-1), gamma.reshape(-1, n))
        if length > 1:
            emit_next = log_emit[:, obs].transpose(1, 2, 0)
            log_xi = (alpha[:, :-1, :, None]
                      + log_trans[None, None]
                      + (emit_next[:, 1:] + beta[:, 1:])[:, :, None, :]
                      - ll[:, None, None, None])
            trans += np.exp(log_xi).sum(axis=(0, 1))
    return start, trans, emit, total_ll


def assert_counts_close(got, expected, tol):
    for a, b in zip(got[:3], expected[:3]):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= tol
    assert abs(got[3] - expected[3]) <= tol


def sample(rng, model, length):
    """Observations drawn from ``model``, so their probability is nonzero."""
    state = rng.choice(model.num_states, p=model.initial)
    obs = []
    for _ in range(length):
        obs.append(int(rng.choice(model.alphabet_size,
                                  p=model.emission[state])))
        state = rng.choice(model.num_states, p=model.transition[state])
    return obs


def test_expected_counts_match_enumeration_on_small_cases():
    rng = np.random.default_rng(1212)
    for i, (model, _) in enumerate(small_cases(120, seed=1111)):
        if i % 2:
            model = random_model_with_zeros(rng, model.num_states,
                                            model.alphabet_size)
        # Mixed lengths in one call, length 1 included, some repeated.
        lengths = [1, int(rng.integers(1, 8)), int(rng.integers(2, 8)), 4, 4]
        seqs = [sample(rng, model, k) for k in lengths]
        got = expected_counts(model, _length_batches(model, seqs))
        assert_counts_close(got, enumerated_counts(model, seqs), 1e-10)


def test_expected_counts_match_the_log_space_e_step():
    rng = np.random.default_rng(1313)
    for num_states, alphabet_size, lengths in (
            (3, 21, [11] * 300),
            (4, 6, [1, 1, 2, 5, 5, 40, 40, 40]),
            (2, 3, [200, 200, 150])):
        for make in (random_model, random_model_with_zeros):
            model = make(rng, num_states, alphabet_size)
            seqs = [sample(rng, model, k) for k in lengths]
            batches = _length_batches(model, seqs)
            assert_counts_close(expected_counts(model, batches),
                                logspace_counts(model, batches), 1e-9)


# ------------------------------------------------------ reused E-step buffers

def assert_bit_identical(got, expected):
    for a, b in zip(got[:3], expected[:3]):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    assert got[3] == expected[3]


def reference_cases(seed):
    """Models with and without zero entries, on sequences of mixed lengths
    (length 1 included) that they give nonzero probability, and every
    unreachable-state model."""
    rng = np.random.default_rng(seed)
    for i in range(40):
        make = random_model_with_zeros if i % 2 else random_model
        model = make(rng, int(rng.integers(1, 5)), int(rng.integers(1, 8)))
        lengths = [1, 1, 2, 7, 7, 7, int(rng.integers(1, 30)),
                   int(rng.integers(1, 30))]
        yield model, [sample(rng, model, k) for k in lengths]
    for transition in UNREACHABLE_TRANSITIONS:
        yield (unreachable_state_hmm(transition),
               [[0] * 400, [0] * 400, [0, 1, 2] * 100, [0], [4], [0, 7]])


def test_e_step_equals_the_allocating_e_step_bit_for_bit():
    for model, seqs in reference_cases(2121):
        batches = _length_batches(model, seqs)
        assert_bit_identical(expected_counts(model, batches),
                             reference_estep._expected_counts(model, batches))


def plain_reestimate(start, trans, emit, pseudocount):
    """The M-step as plain division of every row by its total."""
    rows = [counts + pseudocount for counts in (start, trans, emit)]
    return Hmm(*(r / r.sum(axis=-1, keepdims=True) for r in rows))


def test_baum_welch_equals_em_on_the_allocating_e_step_bit_for_bit():
    # Every count total is positive at pseudocount 1e-6, so the M-step is
    # plain division.
    for model, seqs in reference_cases(2222):
        batches = _length_batches(model, seqs)
        current, trace = model, []
        start, trans, emit, ll_prev = reference_estep._expected_counts(
            current, batches)
        for _ in range(6):
            current = plain_reestimate(start, trans, emit, 1e-6)
            start, trans, emit, ll = reference_estep._expected_counts(
                current, batches)
            trace.append(ll)
            if ll - ll_prev < 1e-9:
                break
            ll_prev = ll
        got, got_trace = baum_welch(model, seqs, max_iters=6, tol=1e-9)
        assert got_trace == trace
        for name in ("initial", "transition", "emission"):
            assert np.array_equal(getattr(got, name), getattr(current, name))


def test_likelihoods_equal_the_allocating_recursions_bit_for_bit():
    for model, seqs in reference_cases(2323):
        for obs in seqs[:3] + seqs[-2:]:
            emit = reference_estep._emit_probs(model, np.array([obs]))
            alpha, scale = reference_estep._scaled_forward(model, emit)
            beta = reference_estep._scaled_backward(model, emit, alpha, scale)
            first = model.initial @ (emit[:, 0, 0] * beta[:, 0, 0])
            assert forward_log_likelihood(model, obs) == \
                reference_estep._log_total(scale)
            assert backward_log_likelihood(model, obs) == \
                reference_estep._log_total(np.append(scale[1:], first))


def test_reused_buffers_forget_the_previous_model():
    rng = np.random.default_rng(2424)
    b = random_model_with_zeros(rng, 3, 6)
    seqs = [sample(rng, b, k) for k in (1, 4, 4, 9, 9, 9, 16)]
    a = random_model(rng, 3, 6)  # no zeros: every sequence is possible
    batches = _length_batches(a, seqs)
    e_step = _EStep(3, batches)
    first = e_step(a)
    assert_bit_identical(e_step(b), reference_estep._expected_counts(b, batches))
    assert_bit_identical(e_step(a), first)
    assert_bit_identical(first, reference_estep._expected_counts(a, batches))


def test_a_reused_e_step_allocates_no_lattice():
    # numpy reports its array buffers to tracemalloc. Working arrays are
    # allocated when the E-step is built; a call then allocates only
    # per-step vectors, far less than one (states, length, batch) lattice.
    model = new_random_hmm(3, 21, seed=6)
    windows = np.random.default_rng(6).integers(0, 21, size=(3000, 11))
    e_step = _EStep(3, _length_batches(model, windows))
    first = e_step(model)
    tracemalloc.start()
    try:
        again = e_step(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_bit_identical(again, first)
    assert peak < windows.size * 3 * 8 / 4


def test_zero_probability_raises_at_the_first_and_at_a_later_e_step():
    message = "^a training sequence has zero probability under the model$"
    for make in (single_symbol_hmm, underflowing_hmm):
        zero = make()
        possible = uniform_hmm(zero.num_states, zero.alphabet_size)
        batches = _length_batches(zero, [[0, 0], [0, 1], [0]])
        e_step = _EStep(zero.num_states, batches)
        with pytest.raises(ValueError, match=message):
            e_step(zero)
        first = e_step(possible)
        with pytest.raises(ValueError, match=message):
            e_step(zero)
        assert_bit_identical(e_step(possible), first)


def test_concurrent_baum_welch_calls_match_their_sequential_runs():
    rng = np.random.default_rng(2525)
    cases = []
    for seed in (1, 2):
        model = new_random_hmm(3, 21, seed=seed)
        cases.append((model, [rng.integers(0, 21, size=k)
                              for k in [11] * 600 + [3, 5, 5, 40]]))
    sequential = [baum_welch(model, seqs, max_iters=8, tol=1e-12)
                  for model, seqs in cases]
    results = [[], []]
    barrier = threading.Barrier(2)

    def run(i):
        barrier.wait()
        for _ in range(3):
            results[i].append(baum_welch(*cases[i], max_iters=8, tol=1e-12))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for expected, runs in zip(sequential, results):
        assert len(runs) == 3
        for fitted, trace in runs:
            assert trace == expected[1]
            for name in ("initial", "transition", "emission"):
                assert np.array_equal(getattr(fitted, name),
                                      getattr(expected[0], name))


# ------------------------------------------------------------ dependencies

def test_importing_the_cli_does_not_load_scipy():
    src = str(Path(ssph.__file__).resolve().parents[1])
    code = "import sys, ssph.cli; assert 'scipy' not in sys.modules"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------- baum_welch

def test_baum_welch_zero_iterations_is_identity():
    model = new_random_hmm(2, 4, seed=3)
    result, trace = baum_welch(model, [[0, 1, 2]], max_iters=0)
    assert result is model
    assert trace == []


def test_baum_welch_single_state_converges_to_frequencies():
    model = Hmm(initial=np.array([1.0]),
                transition=np.array([[1.0]]),
                emission=np.array([[0.5, 0.5]]))
    result, trace = baum_welch(model, [[0, 0, 0, 0]], max_iters=10)
    assert result.emission[0, 0] >= 0.999
    assert len(trace) >= 1


def test_baum_welch_trace_is_monotone():
    rng = np.random.default_rng(77)
    model = new_random_hmm(2, 5, seed=77)
    training = [rng.integers(0, 5, size=30).tolist() for _ in range(20)]
    _, trace = baum_welch(model, training, max_iters=50, tol=1e-12)
    deltas = np.diff(trace)
    assert np.all(deltas >= -1e-9)


def test_baum_welch_improves_likelihood():
    rng = np.random.default_rng(88)
    model = new_random_hmm(2, 4, seed=88)
    training = [rng.integers(0, 4, size=25).tolist() for _ in range(10)]
    trained, trace = baum_welch(model, training, max_iters=30)
    before = sum(forward_log_likelihood(model, s) for s in training)
    after = sum(forward_log_likelihood(trained, s) for s in training)
    assert after >= before
    assert trace[-1] == pytest.approx(after, rel=1e-9)


def test_baum_welch_output_satisfies_model_invariants():
    rng = np.random.default_rng(99)
    model = new_random_hmm(3, 6, seed=99)
    training = [rng.integers(0, 6, size=15).tolist() for _ in range(8)]
    result, _ = baum_welch(model, training, max_iters=20)
    for rows in (result.initial[None, :], result.transition, result.emission):
        assert np.all(rows > 0)  # pseudocount floor keeps entries positive
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)


def test_baum_welch_handles_mixed_lengths():
    rng = np.random.default_rng(31)
    model = new_random_hmm(2, 4, seed=31)
    training = [rng.integers(0, 4, size=k).tolist()
                for k in (1, 3, 3, 7, 12, 12, 12, 2)]
    result, trace = baum_welch(model, training, max_iters=15, tol=1e-12)
    assert np.all(np.diff(trace) >= -1e-9)
    assert result.num_states == 2


def test_baum_welch_is_deterministic():
    rng = np.random.default_rng(55)
    model = new_random_hmm(2, 5, seed=55)
    training = [rng.integers(0, 5, size=20).tolist() for _ in range(6)]
    a, trace_a = baum_welch(model, training, max_iters=25)
    b, trace_b = baum_welch(model, training, max_iters=25)
    assert np.array_equal(a.initial, b.initial)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.emission, b.emission)
    assert trace_a == trace_b


def test_baum_welch_rejects_empty_training_collection():
    with pytest.raises(NoTrainingData):
        baum_welch(uniform_hmm(2, 4), [])


def test_baum_welch_rejects_empty_sequence():
    with pytest.raises(EmptyObservation):
        baum_welch(uniform_hmm(2, 4), [[0, 1], []])


def test_baum_welch_rejects_bad_arguments():
    model = uniform_hmm(2, 4)
    with pytest.raises(ValueError):
        baum_welch(model, [[0]], max_iters=-1)
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            baum_welch(model, [[0]], tol=tol)


@pytest.mark.parametrize("pseudocount", [float("nan"), float("inf"), -1.0,
                                         -1e-12])
def test_baum_welch_rejects_a_bad_pseudocount_before_any_e_step(pseudocount):
    # The E-step would reject the zero-probability sequence; the pseudocount
    # is checked first, with no warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, seqs in ((uniform_hmm(2, 4), [[0, 1], [3]]),
                            (single_symbol_hmm(), [[0, 1]])):
            with pytest.raises(ValueError, match="^pseudocount must be a "
                                                 "finite number >= 0$"):
                baum_welch(model, seqs, max_iters=3, pseudocount=pseudocount)


def test_baum_welch_allows_a_zero_pseudocount():
    model = new_random_hmm(2, 4, seed=8)
    result, trace = baum_welch(model, [[0, 1, 2], [2, 2]], max_iters=4,
                               pseudocount=0.0)
    assert len(trace) >= 1
    assert result.emission[:, 3].max() == 0.0  # symbol 3 is never seen


# ------------------------------------------------------------- sequence_score

def test_sequence_score_is_viterbi_log_prob():
    for model, obs in small_cases(40, seed=707):
        assert sequence_score(model, obs) == viterbi(model, obs).log_prob


def test_sequence_score_invariant_under_state_relabeling():
    rng = np.random.default_rng(808)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        model = random_model(rng, n, m)
        perm = rng.permutation(n)
        relabeled = Hmm(initial=model.initial[perm],
                        transition=model.transition[np.ix_(perm, perm)],
                        emission=model.emission[perm])
        obs = rng.integers(0, m, size=10).tolist()
        assert sequence_score(model, obs) == \
            pytest.approx(sequence_score(relabeled, obs), rel=1e-10)


# ------------------------------------------------------ window max-product

def random_model_with_zeros(rng, num_states, alphabet_size):
    """Random model with about a third of its entries exactly 0 (log -inf);
    each row keeps its largest entry so it still sums to 1."""
    def rows(shape):
        u = random_stochastic(rng, shape)
        drop = rng.random(shape) < 0.35
        np.put_along_axis(drop, np.argmax(u, axis=-1)[..., None], False, -1)
        u[drop] = 0.0
        return u / u.sum(axis=-1, keepdims=True)

    return Hmm(initial=rows(num_states),
               transition=rows((num_states, num_states)),
               emission=rows((num_states, alphabet_size)))


def batched_scores(model, symbols, width):
    """The score of every ``width``-symbol window of the 1-D run
    ``symbols``, as the predictor computes them."""
    return _window_scores(*_log_params(model), np.asarray(symbols), width)


def viterbi_windows(model, symbols, width):
    """``viterbi(...).log_prob`` of every ``width``-symbol window of
    ``symbols``, one window at a time."""
    return np.array([viterbi(model, row).log_prob
                     for row in sliding_window_view(symbols, width)])


@pytest.mark.parametrize("batch,length", [(1, 1), (1, 9), (6, 1), (6, 9)])
def test_batched_scores_equal_viterbi_bit_for_bit(batch, length):
    # ``batch`` windows of ``length`` symbols: a run of batch + length - 1.
    rng = np.random.default_rng(100 * batch + length)
    for num_states in (1, 2, 4):
        for make in (random_model, random_model_with_zeros):
            model = make(rng, num_states, 3)
            symbols = rng.integers(0, 3, size=batch + length - 1)
            scores = batched_scores(model, symbols, length)
            assert scores.shape == (batch,)
            assert scores.tobytes() == \
                viterbi_windows(model, symbols, length).tobytes()


def test_batched_scores_keep_impossible_rows_at_minus_inf():
    model = Hmm(initial=np.array([1.0]), transition=np.array([[1.0]]),
                emission=np.array([[1.0, 0.0]]))
    assert batched_scores(model, [0, 1, 0, 0, 0], 3).tolist() == \
        [-np.inf, -np.inf, 0.0]


def test_batched_scores_agree_with_the_oracle_on_small_cases():
    for model, obs in small_cases(150, seed=909):
        best, _ = oracle.best_path_probability(model, obs)
        score = batched_scores(model, obs, len(obs))[0]
        assert math.exp(score) == pytest.approx(best, rel=1e-10)


@st.composite
def model_and_run(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    length = draw(st.integers(min_value=1, max_value=30))
    zeros = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2**32 - 1)))
    model = (random_model_with_zeros if zeros else random_model)(rng, n, m)
    return model, rng.integers(0, m, size=length)


@given(model_and_run())
@settings(max_examples=150, deadline=None)
def test_property_batched_scores_equal_viterbi(case):
    model, symbols = case
    for width in range(1, len(symbols) + 1):
        scores = batched_scores(model, symbols, width)
        assert scores.shape == (len(symbols) - width + 1,)
        assert scores.tobytes() == \
            viterbi_windows(model, symbols, width).tobytes()


def symbol_layouts(symbols):
    """The same 1-D symbols as ``intp``, ``int32`` and ``uint8`` arrays and
    as a strided (non-contiguous) view."""
    strided = np.repeat(symbols, 3)[::3]
    assert not strided.flags.c_contiguous
    return {"intp": symbols.astype(np.intp), "int32": symbols.astype(np.int32),
            "uint8": symbols.astype(np.uint8), "strided": strided}


def _layout_test_models():
    rng = np.random.default_rng(1212)
    planted = ssph.planted_models(leak=0.0)
    cases = ([(f"{n}-state", random_model_with_zeros(rng, n, 21))
              for n in (1, 2, 3, 4)]
             + [(f"planted-{label}", planted[label]) for label in "HEC"])
    return [pytest.param(name, model, id=name) for name, model in cases]


@pytest.fixture(scope="module")
def planted_symbols():
    """Three leak-0 planted chains, joined and encoded: 2460 symbols, so
    2450 windows of 11."""
    chains = ssph.planted_dataset(3, 820, seed=21, leak=0.0)
    return ssph.encode_residues("".join(c.sequence for c in chains))


@pytest.mark.parametrize("name, model", _layout_test_models())
def test_batched_scores_do_not_depend_on_the_window_layout(
        planted_symbols, name, model):
    assert len(planted_symbols) - 10 >= 2416
    expected = viterbi_windows(model, planted_symbols, 11)
    if name.startswith("planted"):  # leak 0: some windows are impossible
        assert np.isneginf(expected).any() and np.isfinite(expected).any()
    for layout, symbols in symbol_layouts(planted_symbols).items():
        scores = batched_scores(model, symbols, 11)
        assert scores.tobytes() == expected.tobytes(), layout


# ------------------------------------------------------------------ properties

@st.composite
def tiny_model_and_obs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=2, max_value=5))
    length = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, m)
    obs = rng.integers(0, m, size=length).tolist()
    return model, obs


@given(tiny_model_and_obs())
@settings(max_examples=150, deadline=None)
def test_property_oracle_equivalence(case):
    model, obs = case
    best, _ = oracle.best_path_probability(model, obs)
    total = oracle.total_probability(model, obs)
    assert abs(math.exp(viterbi(model, obs).log_prob) - best) <= 1e-10
    assert abs(math.exp(forward_log_likelihood(model, obs)) - total) <= 1e-10


@given(tiny_model_and_obs())
@settings(max_examples=150, deadline=None)
def test_property_forward_backward_agree_and_dominate(case):
    model, obs = case
    f = forward_log_likelihood(model, obs)
    b = backward_log_likelihood(model, obs)
    assert abs(f - b) <= 1e-8
    assert f >= viterbi(model, obs).log_prob - 1e-9


@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_property_random_models_are_stochastic(num_states, alphabet_size, seed):
    model = new_random_hmm(num_states, alphabet_size, seed)
    assert abs(model.initial.sum() - 1.0) <= 1e-9
    assert np.allclose(model.transition.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(model.emission.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(model.initial > 0)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=25, deadline=None)
def test_property_em_trace_monotone_and_stochastic(seed, num_states, alphabet):
    rng = np.random.default_rng(seed)
    model = random_model(rng, num_states, alphabet)
    training = [rng.integers(0, alphabet, size=int(rng.integers(2, 15))).tolist()
                for _ in range(int(rng.integers(1, 6)))]
    result, trace = baum_welch(model, training, max_iters=5, tol=1e-12)
    assert np.all(np.diff(trace) >= -1e-9)
    assert np.allclose(result.transition.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(result.emission.sum(axis=1), 1.0, atol=1e-9)
