"""Core HMM numerics checked against the exhaustive enumeration reference."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import ssph
from helpers import random_model, random_stochastic, small_cases
from ssph import (Hmm, backward_log_likelihood, baum_welch,
                  forward_log_likelihood, new_random_hmm, sequence_score,
                  viterbi)
from ssph.errors import EmptyObservation, NoTrainingData, SymbolOutOfRange
from ssph.hmm import _log_params, _logsumexp, _max_product_scores


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


# --------------------------------------------------------------- log-sum-exp

@pytest.mark.parametrize("axis", [0, 1, 2])
def test_logsumexp_is_bit_identical_to_scipy(axis):
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(axis)
    real = rng.normal(0.0, 20.0, (4, 5, 6))
    real[rng.uniform(size=real.shape) < 0.3] = -np.inf
    ties = rng.integers(-3, 1, (4, 5, 6)).astype(float)
    for a in (real, ties):
        lanes = np.moveaxis(a, axis, -1)  # a view: writes go into ``a``
        lanes[0, 0] = -np.inf
        lanes[1, 1] = -2.0
        expected = scipy_special.logsumexp(a, axis=axis)
        got = _logsumexp(a, axis=axis)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        for lane in lanes.reshape(-1, lanes.shape[-1]):
            assert np.array_equal(_logsumexp(lane),
                                  scipy_special.logsumexp(lane))


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


# ----------------------------------------------------- batched max-product

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


def batched_scores(model, obs):
    return _max_product_scores(*_log_params(model), np.asarray(obs))


@pytest.mark.parametrize("batch,length", [(1, 1), (1, 9), (6, 1), (6, 9)])
def test_batched_scores_equal_viterbi_bit_for_bit(batch, length):
    rng = np.random.default_rng(100 * batch + length)
    for num_states in (1, 2, 4):
        for make in (random_model, random_model_with_zeros):
            model = make(rng, num_states, 3)
            obs = rng.integers(0, 3, size=(batch, length))
            scores = batched_scores(model, obs)
            assert scores.shape == (batch,)
            for row, score in zip(obs, scores):
                assert score == viterbi(model, row).log_prob


def test_batched_scores_keep_impossible_rows_at_minus_inf():
    model = Hmm(initial=np.array([1.0]), transition=np.array([[1.0]]),
                emission=np.array([[1.0, 0.0]]))
    assert batched_scores(model, [[0, 1, 0], [0, 0, 0]]).tolist() == \
        [-np.inf, 0.0]


def test_batched_scores_agree_with_the_oracle_on_small_cases():
    for model, obs in small_cases(150, seed=909):
        best, _ = oracle.best_path_probability(model, obs)
        score = batched_scores(model, [obs])[0]
        assert math.exp(score) == pytest.approx(best, rel=1e-10)


@st.composite
def model_and_batch(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    batch = draw(st.integers(min_value=1, max_value=6))
    length = draw(st.integers(min_value=1, max_value=12))
    zeros = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2**32 - 1)))
    model = (random_model_with_zeros if zeros else random_model)(rng, n, m)
    return model, rng.integers(0, m, size=(batch, length))


@given(model_and_batch())
@settings(max_examples=150, deadline=None)
def test_property_batched_scores_equal_viterbi(case):
    model, obs = case
    scores = batched_scores(model, obs)
    assert [float(s) for s in scores] == \
        [viterbi(model, row).log_prob for row in obs]


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
