"""Discrete-emission hidden Markov models: Viterbi decoding in log-space, and
forward/backward likelihoods and Baum-Welch re-estimation with the scaled
recursions of Rabiner 1989 (Proc. IEEE 77(2), section V.A) in probability
space.

:func:`viterbi` is the one max-product recursion here, and
:func:`sequence_score` is its log-probability. The kernel that scores every
window of a symbol run at once is ``predictor._window_scores``, beside its
compiled form, which makes the same additions in the same order.

The scaled recursions are the ``forward`` and ``backward`` methods of
``_EStep``, the one owner of their arrays: one set per equal-length batch of
sequences, built once per likelihood or Baum-Welch call and refilled in
place by every EM iteration. ``_EStep`` takes a model and the raw sequences,
and checks and groups them itself; the emission gather of ``forward`` clips
instead of checking again, so it relies on every model it runs on having
the alphabet they were checked against. ``forward`` records its model,
which ``backward`` and ``counts`` then use. The E-step after the last
re-estimation runs the forward pass only."""

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
    [[o]] = _length_batches(model, [obs])
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


def sequence_score(model: Hmm, obs: Sequence[int]) -> float:
    """Log-probability of the single best state path (the window score)."""
    return viterbi(model, obs).log_prob


def forward_log_likelihood(model: Hmm, obs: Sequence[int]) -> float:
    """ln P(obs | model), summing over all state paths with the scaled forward
    recursion. -inf if the probability is 0, also when a step's total mass
    underflows double precision."""
    return _EStep(model, [obs]).forward(model)


def backward_log_likelihood(model: Hmm, obs: Sequence[int]) -> float:
    """ln P(obs | model) via the backward recursion, scaled by the forward
    pass's factors; agrees with the forward value up to roundoff, and is -inf
    where that is."""
    e_step = _EStep(model, [obs])
    if e_step.forward(model) == -math.inf:
        return -math.inf
    [(emit, beta, scale)] = e_step.backward()
    first = model.initial @ (emit[:, 0, 0] * beta[:, 0, 0])
    with np.errstate(divide="ignore"):  # ln 0 = -inf: probability 0
        return float(np.log(np.append(scale[1:], first)).sum())


class _EStep:
    """The scaled forward and backward passes (Rabiner 1989, section V.A)
    of one :func:`baum_welch` or likelihood call on ``training``, which is
    checked against ``model`` and grouped into equal-length batches here by
    :func:`_length_batches`; empty ``training`` raises
    :class:`NoTrainingData`. Every model the passes later run on must have
    the state count and alphabet of ``model``. :meth:`forward` gives the
    log-likelihood of the data under a model, -inf if a sequence has
    probability 0; :meth:`counts` then gives that model's expected counts
    from the lattices it left, if that was finite, so a caller that needs
    only the likelihood skips the backward pass. The working arrays of each
    batch are allocated once, here, and every call refills them in place;
    an iteration allocates only per-step (states, batch) vectors. Each call
    builds its own, so concurrent calls share nothing."""

    def __init__(self, model: Hmm, training: Iterable[Sequence[int]]) -> None:
        batches = _length_batches(model, training)
        if not batches:
            raise NoTrainingData("training collection is empty")
        self._model: Hmm | None = None
        self._work = []
        for obs in batches:
            batch, length = obs.shape
            lattice = (model.num_states, length, batch)
            self._work.append((
                np.ascontiguousarray(obs.T),  # (length, batch) symbols
                np.empty(lattice),            # emission probabilities
                np.empty(lattice),            # alpha
                np.empty(lattice),            # beta, then the posteriors
                np.empty((model.num_states, length - 1, batch)),  # e * beta / c
                np.empty((length, batch)),    # scale factors c
                np.empty((length, batch)),    # their logs
            ))

    def forward(self, model: Hmm) -> float:
        """Total log-likelihood of the data under ``model``, which
        :meth:`backward` and :meth:`counts` then use. Each step's alphas are
        normalized to sum to 1 by its scale factor ``c``, and the
        log-likelihood is the sum of ln c. A step whose total mass is 0, or
        underflows double precision, gets ``c = 0`` and all-zero alphas from
        then on, so the total is -inf: probability 0."""
        self._model = model
        total_ll = 0.0
        for steps, emit, alpha, _, _, scale, log_scale in self._work:
            # Symbols were checked against this alphabet in __init__, so
            # clipping (half the time of the default mode) changes none.
            np.take(model.emission, steps, axis=1, out=emit, mode="clip")
            np.multiply(model.initial[:, None], emit[:, 0], out=alpha[:, 0])
            for t in range(emit.shape[1]):
                a = alpha[:, t]
                if t:
                    np.matmul(model.transition.T, alpha[:, t - 1], out=a)
                    a *= emit[:, t]
                c = a.sum(axis=0, out=scale[t])
                a /= np.where(c > 0.0, c, 1.0)
            with np.errstate(divide="ignore"):  # ln 0 = -inf: probability 0
                total_ll += float(np.log(scale, out=log_scale).sum())
        return total_ll

    def backward(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Backward pass of the last :meth:`forward`, divided by the same
        scale factors, so that alpha * beta is the state posterior. The
        scale factors must be positive, as they are when every sequence is
        possible. Returns the emission probabilities, betas and scale
        factors of each batch, and leaves the term ``e(t+1) * beta(t+1) /
        c(t+1)`` of each step for the transition counts.

        Beta is set to 0 wherever alpha is 0. The scaling bounds beta only
        for states the forward pass reaches; an unreachable state's beta
        could grow without limit and turn ``0 * inf`` into NaN. Zeroing it
        is exact: if alpha(t+1, j) = 0 then a(i, j) e_j(o_t+1) = 0 for every
        i with alpha(t, i) > 0, so no reachable beta and no posterior
        changes."""
        transition = self._model.transition
        for _, emit, alpha, beta, nxt, scale, _ in self._work:
            np.greater(alpha, 0.0, out=beta)
            for t in range(emit.shape[1] - 2, -1, -1):
                term = np.multiply(emit[:, t + 1], beta[:, t + 1], out=nxt[:, t])
                term /= scale[t + 1]
                beta[:, t] *= transition @ term
        return [(e, b, c) for _, e, _, b, _, c, _ in self._work]

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expected start/transition/emission counts of the training data
        under the model of the last :meth:`forward`."""
        model = self._model
        n, m = model.num_states, model.alphabet_size
        start = np.zeros(n)
        trans = np.zeros((n, n))
        emit = np.zeros((n, m))
        self.backward()
        for steps, _, alpha, beta, nxt, _, _ in self._work:
            gamma = np.multiply(alpha, beta, out=beta)  # state posteriors
            start += gamma[:, 0].sum(axis=1)
            symbols = steps.reshape(-1)
            for k in range(n):
                emit[k] += np.bincount(symbols, weights=gamma[k].reshape(-1),
                                       minlength=m)
            trans += model.transition * (alpha[:, :-1].reshape(n, -1)
                                         @ nxt.reshape(n, -1).T)
        return start, trans, emit


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
    e_step = _EStep(model, training)
    trace: LikelihoodTrace = []
    if max_iters == 0:
        return model, trace

    def log_likelihood(current: Hmm) -> float:
        ll = e_step.forward(current)
        if ll == -math.inf:
            raise ValueError(
                "a training sequence has zero probability under the model")
        return ll

    current = model
    ll_prev = log_likelihood(current)
    for _ in range(max_iters):
        # The counts of the model after the last re-estimation are never
        # used, so its E-step runs the forward pass only.
        current = _reestimate(current, *e_step.counts(), pseudocount)
        ll = log_likelihood(current)
        trace.append(ll)
        if ll - ll_prev < tol:
            break
        ll_prev = ll
    return current, trace
