"""Discrete-emission hidden Markov models: Viterbi decoding in log-space, and
forward/backward likelihoods and Baum-Welch re-estimation with the scaled
recursions of Rabiner 1989 (Proc. IEEE 77(2), section V.A) in probability
space.

Window scores come from one max-product pass over every fixed-width window
of a symbol run, which gathers each symbol's emissions once and gives the
same bits as :func:`viterbi` on each window.

The scaled recursions fill arrays their caller owns. A likelihood call
allocates them for its one sequence; a Baum-Welch call allocates one set per
equal-length batch of its training data and every EM iteration reuses it.
The E-step after the last re-estimation runs the forward pass only."""

from __future__ import annotations

import math
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
    if not (rows.min() >= 0.0 and rows.max() <= 1.0):  # NaN fails both
        raise ValueError(f"{name} has entries outside [0, 1]")
    if np.abs(rows.sum(axis=-1) - 1.0).max() > ROW_SUM_TOL:
        raise ValueError(f"{name} rows must sum to 1 within {ROW_SUM_TOL}")


@dataclass(frozen=True)
class Hmm:
    """A discrete-emission hidden Markov model.

    Attributes
    ----------
    initial : (num_states,) start distribution over hidden states.
    transition : (num_states, num_states) row-stochastic transition matrix.
    emission : (num_states, alphabet_size) row-stochastic emission matrix.

    All probability rows must sum to 1 within 1e-9. The constructor is the
    only way a model is built: it copies the arrays, checks their shapes and
    rows, and marks the copies read-only, so instances are immutable and
    safe to share between threads.
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
    length, shortest first; symbols are checked once per batch. A 2-D array
    is taken whole as one batch of equal-length rows."""
    if isinstance(training, np.ndarray) and training.ndim == 2:
        return [_check_symbols(model, training)] if len(training) else []
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


def _window_scores(log_init: np.ndarray, log_trans: np.ndarray,
                   log_emit: np.ndarray, symbols: np.ndarray,
                   width: int) -> np.ndarray:
    """Best-path log score of every ``width``-symbol window of the 1-D
    integer run ``symbols``: entry ``s`` scores ``symbols[s:s + width]``.
    It is the max-product recursion of :func:`viterbi` without the
    backtrace, run on all windows at once. It makes the same additions and
    ``max`` returns one of its inputs, so every score equals
    ``viterbi(...).log_prob`` bit for bit.

    Each state's emissions are gathered once per symbol, and step ``t`` of
    every window adds the contiguous slice ``emit[j][t:t + m]`` of them, so
    no window array is built. ``delta`` holds one contiguous (m,) vector per
    state, and each step takes each target state's maximum over its
    predecessors as ``np.maximum`` over those vectors."""
    m = len(symbols) - width + 1
    states = range(len(log_init))
    emit = [log_emit[j].take(symbols) for j in states]
    delta = [log_init[j] + emit[j][:m] for j in states]
    for t in range(1, width):
        new = []
        for j in states:
            best = delta[0] + log_trans[0, j]
            for i in states[1:]:
                np.maximum(best, delta[i] + log_trans[i, j], out=best)
            best += emit[j][t:t + m]
            new.append(best)
        delta = new
    return np.max(delta, axis=0)


def sequence_score(model: Hmm, obs: Sequence[int]) -> float:
    """Log-probability of the single best state path (the window score)."""
    o = _check_obs(model, obs)
    return float(_window_scores(*_log_params(model), o, len(o))[0])


def _scaled_forward(model: Hmm, emit: np.ndarray, alpha: np.ndarray,
                    scale: np.ndarray) -> None:
    """Scaled forward pass (Rabiner 1989, section V.A) over ``emit``, the
    (states, length, batch) probability of each observed symbol under each
    state. Fills ``alpha`` (shaped like ``emit``) with the alphas, normalized
    to sum to 1 at each step, and ``scale`` (length, batch) with the scale
    factors ``c``; ln P(obs) is the sum of ln c.

    A step whose total mass is 0, or underflows double precision, gets
    ``c = 0`` and all-zero alphas from then on: probability 0."""
    np.multiply(model.initial[:, None], emit[:, 0], out=alpha[:, 0])
    for t in range(emit.shape[1]):
        a = alpha[:, t]
        if t:
            np.matmul(model.transition.T, alpha[:, t - 1], out=a)
            a *= emit[:, t]
        c = a.sum(axis=0, out=scale[t])
        a /= np.where(c > 0.0, c, 1.0)


def _scaled_backward(model: Hmm, emit: np.ndarray, alpha: np.ndarray,
                     scale: np.ndarray, beta: np.ndarray,
                     nxt: np.ndarray) -> None:
    """Backward pass matching :func:`_scaled_forward`, divided by the same
    scale factors, so that alpha * beta is the state posterior. ``scale``
    must be positive: pass 1 for a step whose ``c`` is 0. Fills ``beta``
    (shaped like ``alpha``) and ``nxt`` (states, length-1, batch) with the
    term ``e(t+1) * beta(t+1) / c(t+1)`` of each step, which the transition
    counts reuse.

    Beta is set to 0 wherever alpha is 0. The scaling bounds beta only for
    states the forward pass reaches; an unreachable state's beta could grow
    without limit and turn ``0 * inf`` into NaN. Zeroing it is exact: if
    alpha(t+1, j) = 0 then a(i, j) e_j(o_t+1) = 0 for every i with
    alpha(t, i) > 0, so no reachable beta and no posterior changes."""
    np.greater(alpha, 0.0, out=beta)
    for t in range(emit.shape[1] - 2, -1, -1):
        term = np.multiply(emit[:, t + 1], beta[:, t + 1], out=nxt[:, t])
        term /= scale[t + 1]
        beta[:, t] *= model.transition @ term


def _log_total(scale: np.ndarray) -> float:
    with np.errstate(divide="ignore"):  # ln 0 = -inf: probability 0
        return float(np.log(scale).sum())


def _forward_one(model: Hmm, obs: Sequence[int]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Emissions, alphas and scale factors of one sequence, as a batch of
    one."""
    emit = np.take(model.emission, _check_obs(model, obs)[:, None], axis=1)
    alpha = np.empty_like(emit)
    scale = np.empty(emit.shape[1:])
    _scaled_forward(model, emit, alpha, scale)
    return emit, alpha, scale


def forward_log_likelihood(model: Hmm, obs: Sequence[int]) -> float:
    """ln P(obs | model), summing over all state paths with the scaled forward
    recursion. -inf if the probability is 0, also when a step's total mass
    underflows double precision."""
    return _log_total(_forward_one(model, obs)[2])


def backward_log_likelihood(model: Hmm, obs: Sequence[int]) -> float:
    """ln P(obs | model) via the backward recursion, scaled by the forward
    pass's factors; agrees with the forward value up to roundoff, and is -inf
    where that is."""
    emit, alpha, scale = _forward_one(model, obs)
    beta = np.empty_like(alpha)
    nxt = np.empty((emit.shape[0], emit.shape[1] - 1, 1))
    _scaled_backward(model, emit, alpha, np.where(scale > 0.0, scale, 1.0),
                     beta, nxt)
    first = model.initial @ (emit[:, 0, 0] * beta[:, 0, 0])
    return _log_total(np.append(scale[1:], first))


class _EStep:
    """The E-step of one :func:`baum_welch` call, in two passes:
    :meth:`forward` gives the log-likelihood of the training data and
    :meth:`counts` the expected counts from the lattices it left, so a
    caller that needs only the likelihood skips the backward pass. The
    working arrays of each equal-length batch are allocated once, here, and
    every call refills them in place; an iteration allocates only per-step
    (states, batch) vectors. Each ``baum_welch`` call builds its own, so
    concurrent calls share nothing."""

    def __init__(self, num_states: int, batches: list[np.ndarray]) -> None:
        self._work = []
        for obs in batches:
            batch, length = obs.shape
            lattice = (num_states, length, batch)
            self._work.append((
                np.ascontiguousarray(obs.T),  # (length, batch) symbols
                np.empty(lattice),            # emission probabilities
                np.empty(lattice),            # alpha
                np.empty(lattice),            # beta, then the posteriors
                np.empty((num_states, length - 1, batch)),  # e * beta / c
                np.empty((length, batch)),    # scale factors
                np.empty((length, batch)),    # their logs
            ))

    def forward(self, model: Hmm) -> float:
        """Total log-likelihood of the training data under ``model``.
        Raises ``ValueError`` if a sequence has probability 0, which
        includes a step whose total mass underflows double precision."""
        total_ll = 0.0
        for steps, obs_emit, alpha, _, _, scale, log_scale in self._work:
            # Symbols were checked when the batches were built.
            np.take(model.emission, steps, axis=1, out=obs_emit, mode="clip")
            _scaled_forward(model, obs_emit, alpha, scale)
            if not np.all(scale > 0.0):
                raise ValueError(
                    "a training sequence has zero probability under the model")
            total_ll += float(np.log(scale, out=log_scale).sum())
        return total_ll

    def counts(self, model: Hmm
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expected start/transition/emission counts of the training data
        under ``model``, which the last :meth:`forward` call must have
        been given."""
        n, m = model.num_states, model.alphabet_size
        start = np.zeros(n)
        trans = np.zeros((n, n))
        emit = np.zeros((n, m))
        for steps, obs_emit, alpha, beta, nxt, scale, _ in self._work:
            _scaled_backward(model, obs_emit, alpha, scale, beta, nxt)
            gamma = np.multiply(alpha, beta, out=beta)  # state posteriors
            start += gamma[:, 0].sum(axis=1)
            symbols = steps.reshape(-1)
            for k in range(n):
                emit[k] += np.bincount(symbols, weights=gamma[k].reshape(-1),
                                       minlength=m)
            if steps.shape[0] > 1:
                trans += model.transition * (alpha[:, :-1].reshape(n, -1)
                                             @ nxt.reshape(n, -1).T)
        return start, trans, emit

    def __call__(self, model: Hmm
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Both passes: the expected counts and the log-likelihood."""
        total_ll = self.forward(model)
        return (*self.counts(model), total_ll)


def _normalized(counts: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Each row of ``counts`` divided by its total; a row whose total is 0
    keeps its row of ``previous``."""
    totals = counts.sum(axis=-1, keepdims=True)
    return np.divide(counts, totals, out=previous.copy(), where=totals > 0)


def _reestimate(previous: Hmm, start: np.ndarray, trans: np.ndarray,
                emit: np.ndarray, pseudocount: float) -> Hmm:
    return Hmm(
        initial=_normalized(start + pseudocount, previous.initial),
        transition=_normalized(trans + pseudocount, previous.transition),
        emission=_normalized(emit + pseudocount, previous.emission),
    )


def baum_welch(model: Hmm, training: Iterable[Sequence[int]],
               max_iters: int = 100, tol: float = 1e-6,
               pseudocount: float = 1e-6) -> tuple[Hmm, LikelihoodTrace]:
    """Re-estimate ``model`` on a collection of observation sequences.

    Parameters
    ----------
    model : starting point; its state count and alphabet are kept.
    training : observation sequences (integer symbol indices), each non-empty;
        a 2-D integer array is one batch of equal-length sequences.
    max_iters : maximum number of EM iterations; 0 returns ``model`` unchanged.
    tol : stop once the total log-likelihood improves by less than this.
    pseudocount : finite floor >= 0 added to every expected count before
        normalization, so no probability is re-estimated to exactly zero.
        At 0, a row whose counts total 0 has no evidence (a state the
        training data never visits, say) and keeps its current row, which
        leaves the likelihood unchanged.

    Returns the re-estimated model and the trace of total log-likelihoods
    recorded after each iteration. Raises ``ValueError`` if a training
    sequence has probability 0 under a model it evaluates; a step whose total
    mass underflows double precision counts as probability 0.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if not tol > 0:  # also rejects NaN
        raise ValueError("tol must be > 0")
    if not 0 <= pseudocount < math.inf:  # also rejects NaN
        raise ValueError("pseudocount must be a finite number >= 0")
    batches = _length_batches(model, training)
    if not batches:
        raise NoTrainingData("training collection is empty")

    trace: LikelihoodTrace = []
    if max_iters == 0:
        return model, trace

    e_step = _EStep(model.num_states, batches)
    current = model
    ll_prev = e_step.forward(current)
    for _ in range(max_iters):
        # The counts of the model after the last re-estimation are never
        # used, so its E-step runs the forward pass only.
        current = _reestimate(current, *e_step.counts(current), pseudocount)
        ll = e_step.forward(current)
        trace.append(ll)
        if ll - ll_prev < tol:
            break
        ll_prev = ll
    return current, trace
