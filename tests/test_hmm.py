"""Core HMM numerics checked against the exhaustive enumeration reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import random_model, random_stochastic, small_cases
from ssph import (Hmm, backward_log_likelihood, baum_welch,
                  forward_log_likelihood, new_random_hmm, sequence_score,
                  viterbi)
from ssph.errors import EmptyObservation, NoTrainingData, SymbolOutOfRange


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
    with pytest.raises(ValueError):
        baum_welch(model, [[0]], tol=0.0)


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
