"""Discrete-emission hidden Markov models: Viterbi decoding in log-space, and
forward/backward likelihoods and Baum-Welch re-estimation with the scaled
recursions of Rabiner 1989 (Proc. IEEE 77(2), section V.A) in probability
space."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyObservation, NoTrainingData, SymbolOutOfRange

ROW_SUM_TOL = 1e-9

# Total log-likelihood after each Baum-Welch iteration. With pseudocount > 0
# this is MAP-EM, which never lowers log-likelihood + pseudocount * (sum of ln
# of every model entry); the likelihood alone can dip near convergence.
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


def _check_symbols(model: Hmm, arr: np.ndarray) -> np.ndarray:
    """``arr`` (one sequence, or a batch of equal-length ones) as ``intp``,
    if it is a non-empty integer array within the model's alphabet."""
    if arr.size == 0:
        raise EmptyObservation("observation sequence is empty")
    if arr.dtype.kind not in "iu":
        raise ValueError("observation symbols must be integers, "
                         f"got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= model.alphabet_size:
        raise SymbolOutOfRange(
            f"symbols must be in [0, {model.alphabet_size}); "
            f"got range [{arr.min()}, {arr.max()}]")
    return arr.astype(np.intp, copy=False)


def _check_obs(model: Hmm, obs: Sequence[int]) -> np.ndarray:
    arr = np.asarray(obs)
    if arr.ndim != 1:
        raise ValueError("observation sequence must be 1-D")
    return _check_symbols(model, arr)


def _length_batches(model: Hmm, training: Iterable[Sequence[int]]
                    ) -> list[np.ndarray]:
    """Training sequences stacked into one integer (batch, length) array per
    length, shortest first; symbols are checked once per batch."""
    by_length: dict[int, list[np.ndarray]] = {}
    for s in training:
        arr = np.asarray(s)
        if arr.ndim != 1:
            raise ValueError("observation sequence must be 1-D")
        by_length.setdefault(arr.shape[0], []).append(arr)
    return [_check_symbols(model, np.array(group))
            for _, group in sorted(by_length.items())]


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


def _scaled_forward(model: Hmm, emit: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward pass (Rabiner 1989, section V.A) over ``emit``, the
    (states, length, batch) probability of each observed symbol under each
    state. Returns the alphas, normalized to sum to 1 at each step, and the
    (length, batch) scale factors ``c``; ln P(obs) is the sum of ln c.

    A step whose total mass is 0, or underflows double precision, gets
    ``c = 0`` and all-zero alphas from then on: probability 0."""
    alpha = np.empty_like(emit)
    scale = np.empty(emit.shape[1:])
    a = model.initial[:, None] * emit[:, 0]
    for t in range(emit.shape[1]):
        if t:
            a = (model.transition.T @ alpha[:, t - 1]) * emit[:, t]
        c = a.sum(axis=0)
        scale[t] = c
        alpha[:, t] = a / np.where(c > 0.0, c, 1.0)
    return alpha, scale


def _scaled_backward(model: Hmm, emit: np.ndarray, alpha: np.ndarray,
                     scale: np.ndarray) -> np.ndarray:
    """Backward pass matching :func:`_scaled_forward`, divided by the same
    scale factors, so that alpha * beta is the state posterior.

    Beta is set to 0 wherever alpha is 0. The scaling bounds beta only for
    states the forward pass reaches; an unreachable state's beta could grow
    without limit and turn ``0 * inf`` into NaN. Zeroing it is exact: if
    alpha(t+1, j) = 0 then a(i, j) e_j(o_t+1) = 0 for every i with
    alpha(t, i) > 0, so no reachable beta and no posterior changes."""
    beta = np.where(alpha > 0.0, 1.0, 0.0)
    safe = np.where(scale > 0.0, scale, 1.0)
    for t in range(emit.shape[1] - 2, -1, -1):
        beta[:, t] *= model.transition @ (emit[:, t + 1] * beta[:, t + 1]
                                          / safe[t + 1])
    return beta


def _emit_probs(model: Hmm, obs: np.ndarray) -> np.ndarray:
    """(states, length, batch) emission probabilities of an integer
    (batch, length) observation array."""
    return np.take(model.emission, obs.T, axis=1)


def _log_total(scale: np.ndarray) -> float:
    with np.errstate(divide="ignore"):  # ln 0 = -inf: probability 0
        return float(np.log(scale).sum())


def forward_log_likelihood(model: Hmm, obs: Sequence[int]) -> float:
    """ln P(obs | model), summing over all state paths with the scaled forward
    recursion. -inf if the probability is 0, also when a step's total mass
    underflows double precision."""
    emit = _emit_probs(model, _check_obs(model, obs)[None])
    return _log_total(_scaled_forward(model, emit)[1])


def backward_log_likelihood(model: Hmm, obs: Sequence[int]) -> float:
    """ln P(obs | model) via the backward recursion, scaled by the forward
    pass's factors; agrees with the forward value up to roundoff, and is -inf
    where that is."""
    emit = _emit_probs(model, _check_obs(model, obs)[None])
    alpha, scale = _scaled_forward(model, emit)
    beta = _scaled_backward(model, emit, alpha, scale)
    first = model.initial @ (emit[:, 0, 0] * beta[:, 0, 0])
    return _log_total(np.append(scale[1:], first))


def _expected_counts(model: Hmm, batches: list[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One E-step over all training sequences (grouped into equal-length
    batches). Returns expected start/transition/emission counts and the total
    log-likelihood of the data under ``model``. Raises ``ValueError`` if a
    sequence has probability 0, which includes a step whose total mass
    underflows double precision."""
    n, m = model.num_states, model.alphabet_size
    start = np.zeros(n)
    trans = np.zeros((n, n))
    emit = np.zeros((n, m))
    total_ll = 0.0
    for obs in batches:
        obs_emit = _emit_probs(model, obs)
        alpha, scale = _scaled_forward(model, obs_emit)
        if not np.all(scale > 0.0):
            raise ValueError(
                "a training sequence has zero probability under the model")
        beta = _scaled_backward(model, obs_emit, alpha, scale)
        total_ll += _log_total(scale)
        gamma = alpha * beta  # state posteriors, (n, length, batch)
        start += gamma[:, 0].sum(axis=1)
        symbols = obs.T.reshape(-1)
        for k in range(n):
            emit[k] += np.bincount(symbols, weights=gamma[k].reshape(-1),
                                   minlength=m)
        if obs.shape[1] > 1:
            nxt = obs_emit[:, 1:] * beta[:, 1:] / scale[1:]
            trans += model.transition * (alpha[:, :-1].reshape(n, -1)
                                         @ nxt.reshape(n, -1).T)
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
    recorded after each iteration. Raises ``ValueError`` if a training
    sequence has probability 0 under a model it evaluates; a step whose total
    mass underflows double precision counts as probability 0.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if not tol > 0:  # also rejects NaN
        raise ValueError("tol must be > 0")
    batches = _length_batches(model, training)
    if not batches:
        raise NoTrainingData("training collection is empty")

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
