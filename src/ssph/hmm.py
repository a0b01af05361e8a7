"""Discrete-emission hidden Markov models: Viterbi decoding, forward/backward
likelihoods, and Baum-Welch re-estimation, all computed in log-space."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyObservation, NoTrainingData, SymbolOutOfRange

ROW_SUM_TOL = 1e-9

# A likelihood trace is the total log-likelihood recorded after each
# Baum-Welch iteration; it is non-decreasing up to numerical slack.
LikelihoodTrace = list[float]


def _check_stochastic(rows: np.ndarray, name: str) -> None:
    if not np.all((rows >= 0.0) & (rows <= 1.0)):  # also rejects NaN
        raise ValueError(f"{name} has entries outside [0, 1]")
    sums = rows.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        raise ValueError(f"{name} rows must sum to 1 within {ROW_SUM_TOL}")


@dataclass(frozen=True)
class Hmm:
    """A discrete-emission hidden Markov model.

    Attributes
    ----------
    initial : (num_states,) start distribution over hidden states.
    transition : (num_states, num_states) row-stochastic transition matrix.
    emission : (num_states, alphabet_size) row-stochastic emission matrix.

    All probability rows must sum to 1 within 1e-9. Instances are immutable
    (the arrays are marked read-only) and safe to share between threads.
    """

    initial: np.ndarray
    transition: np.ndarray
    emission: np.ndarray

    def __post_init__(self) -> None:
        initial = np.array(self.initial, dtype=float)
        transition = np.array(self.transition, dtype=float)
        emission = np.array(self.emission, dtype=float)
        if initial.ndim != 1 or initial.size < 1:
            raise ValueError("initial must be a non-empty 1-D vector")
        n = initial.shape[0]
        if transition.shape != (n, n):
            raise ValueError(f"transition must have shape ({n}, {n})")
        if emission.ndim != 2 or emission.shape[0] != n or emission.shape[1] < 1:
            raise ValueError(f"emission must have shape ({n}, alphabet_size)")
        _check_stochastic(initial, "initial")
        _check_stochastic(transition, "transition")
        _check_stochastic(emission, "emission")
        for name, arr in (("initial", initial), ("transition", transition),
                          ("emission", emission)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_states(self) -> int:
        return self.initial.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.emission.shape[1]


class ViterbiResult(NamedTuple):
    log_prob: float
    path: list[int]


def new_random_hmm(num_states: int, alphabet_size: int, seed: int) -> Hmm:
    """Seeded random model: each row drawn uniformly then normalized, so every
    entry is strictly positive. Identical seeds give identical models."""
    if num_states < 1:
        raise ValueError("num_states must be >= 1")
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be >= 1")
    rng = np.random.default_rng(seed)

    def rows(shape):
        u = rng.uniform(0.1, 1.0, shape)
        return u / u.sum(axis=-1, keepdims=True)

    return Hmm(
        initial=rows(num_states),
        transition=rows((num_states, num_states)),
        emission=rows((num_states, alphabet_size)),
    )


def _log_params(model: Hmm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with np.errstate(divide="ignore"):  # log(0) -> -inf is the intended value
        return (np.log(model.initial), np.log(model.transition),
                np.log(model.emission))


def _check_obs(model: Hmm, obs: Sequence[int]) -> np.ndarray:
    arr = np.asarray(obs, dtype=np.intp)
    if arr.ndim != 1:
        raise ValueError("observation sequence must be 1-D")
    if arr.size == 0:
        raise EmptyObservation("observation sequence is empty")
    if arr.min() < 0 or arr.max() >= model.alphabet_size:
        raise SymbolOutOfRange(
            f"symbols must be in [0, {model.alphabet_size}); "
            f"got range [{arr.min()}, {arr.max()}]")
    return arr


def viterbi(model: Hmm, obs: Sequence[int]) -> ViterbiResult:
    """Most probable hidden-state path for ``obs`` and its log-probability.

    Runs the max-product recursion in log-space; ties between equal-scoring
    predecessor states resolve to the lowest state index.
    """
    o = _check_obs(model, obs)
    log_init, log_trans, log_emit = _log_params(model)
    n, length = model.num_states, o.shape[0]

    delta = log_init + log_emit[:, o[0]]
    back = np.zeros((length, n), dtype=np.intp)
    for t in range(1, length):
        cand = delta[:, None] + log_trans  # cand[i, j]: best-into-i then i->j
        prev = np.argmax(cand, axis=0)     # argmax picks the lowest index on ties
        back[t] = prev
        delta = cand[prev, np.arange(n)] + log_emit[:, o[t]]

    state = int(np.argmax(delta))
    path = [0] * length
    path[-1] = state
    for t in range(length - 1, 0, -1):
        state = int(back[t, state])
        path[t - 1] = state
    return ViterbiResult(float(delta[path[-1]]), path)


def _max_product_scores(log_init: np.ndarray, log_trans: np.ndarray,
                        log_emit: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Best-path log score of each row of an integer (batch, length)
    observation array: the max-product recursion of :func:`viterbi` without
    the backtrace. ``max`` returns one of its inputs, so every score equals
    ``viterbi(...).log_prob`` bit for bit."""
    emit = log_emit.T[obs]  # (batch, length, states)
    delta = log_init + emit[:, 0]
    for t in range(1, obs.shape[1]):
        delta = np.max(delta[:, :, None] + log_trans, axis=1) + emit[:, t]
    return np.max(delta, axis=1)


def sequence_score(model: Hmm, obs: Sequence[int]) -> float:
    """Log-probability of the single best state path (the window score)."""
    o = _check_obs(model, obs)
    return float(_max_product_scores(*_log_params(model), o[None, :])[0])


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """ln(sum(exp(a))) along ``axis``, as log1p(rest / ties) + log(ties) + top:
    ``ties`` counts the entries equal to the maximum ``top``, ``rest`` sums
    exp(x - top) over the others, and an all -inf slice gives -inf. ``a`` has
    no NaN or +inf. Keep this float order; model files print with ``repr``."""
    top = np.max(a, axis=axis, keepdims=True)
    is_top = a == top
    ties = np.sum(is_top, axis=axis, dtype=float)
    with np.errstate(invalid="ignore"):  # -inf - -inf = NaN, where() drops it
        rest = np.sum(np.exp(np.where(is_top, -np.inf, a - top)), axis=axis)
    return np.log1p(rest / ties) + np.log(ties) + np.squeeze(top, axis)


def _forward_lattice(log_init: np.ndarray, log_trans: np.ndarray,
                     log_emit: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Log-alpha lattice, shape (batch, length, states), for a batch of
    equal-length observation sequences given as an integer (batch, length) array."""
    batch, length = obs.shape
    n = log_init.shape[0]
    alpha = np.empty((batch, length, n))
    alpha[:, 0] = log_init + log_emit[:, obs[:, 0]].T
    for t in range(1, length):
        step = alpha[:, t - 1][:, :, None] + log_trans[None]
        alpha[:, t] = _logsumexp(step, axis=1) + log_emit[:, obs[:, t]].T
    return alpha


def _backward_lattice(log_init: np.ndarray, log_trans: np.ndarray,
                      log_emit: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Log-beta lattice matching :func:`_forward_lattice`."""
    batch, length = obs.shape
    n = log_init.shape[0]
    beta = np.zeros((batch, length, n))
    for t in range(length - 2, -1, -1):
        step = (log_trans[None]
                + (log_emit[:, obs[:, t + 1]].T + beta[:, t + 1])[:, None, :])
        beta[:, t] = _logsumexp(step, axis=2)
    return beta


def forward_log_likelihood(model: Hmm, obs: Sequence[int]) -> float:
    """ln P(obs | model), summing over all state paths with log-sum-exp."""
    o = _check_obs(model, obs)
    log_init, log_trans, log_emit = _log_params(model)
    alpha = _forward_lattice(log_init, log_trans, log_emit, o[None, :])
    return float(_logsumexp(alpha[0, -1]))


def backward_log_likelihood(model: Hmm, obs: Sequence[int]) -> float:
    """ln P(obs | model) via the backward recursion; agrees with the forward
    value up to roundoff."""
    o = _check_obs(model, obs)
    log_init, log_trans, log_emit = _log_params(model)
    beta = _backward_lattice(log_init, log_trans, log_emit, o[None, :])
    first = log_init + log_emit[:, o[0]] + beta[0, 0]
    return float(_logsumexp(first))


def _expected_counts(model: Hmm, batches: list[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One E-step over all training sequences (grouped into equal-length
    batches). Returns expected start/transition/emission counts and the total
    log-likelihood of the data under ``model``."""
    log_init, log_trans, log_emit = _log_params(model)
    n, m = model.num_states, model.alphabet_size
    start = np.zeros(n)
    trans = np.zeros((n, n))
    emit = np.zeros((n, m))
    total_ll = 0.0
    for obs in batches:
        alpha = _forward_lattice(log_init, log_trans, log_emit, obs)
        beta = _backward_lattice(log_init, log_trans, log_emit, obs)
        ll = _logsumexp(alpha[:, -1], axis=1)
        if not np.all(np.isfinite(ll)):
            raise ValueError(
                "a training sequence has zero probability under the model")
        total_ll += float(ll.sum())
        gamma = np.exp(alpha + beta - ll[:, None, None])
        start += gamma[:, 0].sum(axis=0)
        np.add.at(emit.T, obs.reshape(-1), gamma.reshape(-1, n))
        if obs.shape[1] > 1:
            emit_next = log_emit[:, obs].transpose(1, 2, 0)  # (batch, length, n)
            log_xi = (alpha[:, :-1, :, None]
                      + log_trans[None, None]
                      + (emit_next[:, 1:] + beta[:, 1:])[:, :, None, :]
                      - ll[:, None, None, None])
            trans += np.exp(log_xi).sum(axis=(0, 1))
    return start, trans, emit, total_ll


def _reestimate(start: np.ndarray, trans: np.ndarray, emit: np.ndarray,
                pseudocount: float) -> Hmm:
    initial = start + pseudocount
    transition = trans + pseudocount
    emission = emit + pseudocount
    return Hmm(
        initial=initial / initial.sum(),
        transition=transition / transition.sum(axis=1, keepdims=True),
        emission=emission / emission.sum(axis=1, keepdims=True),
    )


def baum_welch(model: Hmm, training: Iterable[Sequence[int]],
               max_iters: int = 100, tol: float = 1e-6,
               pseudocount: float = 1e-6) -> tuple[Hmm, LikelihoodTrace]:
    """Re-estimate ``model`` on a collection of observation sequences.

    Parameters
    ----------
    model : starting point; its state count and alphabet are kept.
    training : observation sequences (integer symbol indices), each non-empty.
    max_iters : maximum number of EM iterations; 0 returns ``model`` unchanged.
    tol : stop once the total log-likelihood improves by less than this.
    pseudocount : floor added to every expected count before normalization,
        so no probability is re-estimated to exactly zero.

    Returns the re-estimated model and the trace of total log-likelihoods
    recorded after each iteration.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    seqs = [_check_obs(model, s) for s in training]
    if not seqs:
        raise NoTrainingData("training collection is empty")

    by_length: dict[int, list[np.ndarray]] = {}
    for s in seqs:
        by_length.setdefault(s.shape[0], []).append(s)
    batches = [np.stack(group) for _, group in sorted(by_length.items())]

    trace: LikelihoodTrace = []
    if max_iters == 0:
        return model, trace

    current = model
    start, trans, emit, ll_prev = _expected_counts(current, batches)
    for _ in range(max_iters):
        current = _reestimate(start, trans, emit, pseudocount)
        start, trans, emit, ll = _expected_counts(current, batches)
        trace.append(ll)
        if ll - ll_prev < tol:
            break
        ll_prev = ll
    return current, trace
