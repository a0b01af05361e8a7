"""Discrete-emission hidden Markov models: Viterbi decoding in log-space, and
forward/backward likelihoods and Baum-Welch re-estimation with the scaled
recursions of Rabiner 1989 (Proc. IEEE 77(2), section V.A) in probability
space.

:func:`viterbi` is the one max-product recursion here, and
:func:`sequence_score` is its log-probability. :func:`_window_scores` runs
the same recursion, without the backtrace, over every fixed-width window
of a symbol run at once, with the bits of :func:`viterbi` on each window;
the predictor labels its windows with it.

The scaled recursions are the ``forward`` and ``backward`` methods of
``_EStep``, the one owner of their arrays: one set per equal-length batch of
sequences, built once per likelihood or Baum-Welch call and refilled in
place by every EM iteration. ``_EStep`` takes a model and the raw sequences,
and checks and groups them itself; ``forward`` refuses a model whose state
count or alphabet differs from the one they were checked against, since
the compiled kernel reads emissions by symbol without a further check.
``forward`` records its model, which ``backward`` and ``counts`` then use.
The E-step after the last re-estimation runs the forward pass only.

The window scores and the E-step run on one kernel, chosen once per
process by :func:`_chosen_kernel`: the compiled ``window_scores``,
``estep_forward`` and ``estep_counts`` of ``_kernel.c``, which
:mod:`ssph._ckernel` builds on first use with the C compiler Python was
built with into a library beside the source that later runs load, or
:data:`_NUMPY_KERNEL` where that library cannot be built or loaded. Both
have the same three entry points: a call scores windows, and ``forward``
and ``counts`` are the E-step. Each compiled entry makes the same IEEE
operations in the same order as its numpy form, so labels and trained
models have the same bytes whichever kernel runs. The E-step's order is
written down on ``_EStep``, with no BLAS call, so trained models do not
depend on the BLAS library either. The log-likelihood is numpy's sum of
numpy's logs of the scale factors under either kernel, so it, the
likelihood trace and the ``tol`` stop still rest on numpy's ``log``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _ckernel
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
    only way a model is built: it copies the arrays in C order (the compiled
    E-step reads them row by row, whatever the caller's layout), checks
    their shapes and rows, and marks the copies read-only, so instances are
    immutable and safe to share between threads.
    """

    initial: np.ndarray
    transition: np.ndarray
    emission: np.ndarray

    def __post_init__(self) -> None:
        initial = np.array(self.initial, dtype=float, order="C")
        transition = np.array(self.transition, dtype=float, order="C")
        emission = np.array(self.emission, dtype=float, order="C")
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


def _window_scores(log_init: np.ndarray, log_trans: np.ndarray,
                   log_emit: np.ndarray, symbols: np.ndarray,
                   width: int) -> np.ndarray:
    """Best-path log score of every ``width``-symbol window of the 1-D
    integer run ``symbols``: entry ``s`` scores ``symbols[s:s + width]``.
    It is the max-product recursion of :func:`viterbi` without the
    backtrace, run on all windows at once. Every float64 score equals
    ``viterbi(...).log_prob`` bit for bit.

    Each state's emissions are gathered once per symbol, and step ``t`` of
    every window adds the contiguous slice ``emit[j][t:t + m]`` of them, so
    no window array is built. ``delta`` holds one contiguous (m,) vector per
    state, and each step takes each target state's maximum over its
    predecessors as ``np.maximum`` over those vectors.

    A step allocates nothing: the initial and transition log parameters
    become 0-d arrays once per call, which cost less per add than Python
    floats, and every add and maximum writes into a ``new`` vector per state
    or one ``tmp``, allocated per call; ``delta`` and ``new`` swap after
    each step. This is exact because it makes the same additions in the
    same order as a plain allocating recursion, ``max`` returns one of its
    inputs, and the buffers live for one call only, so the result shares
    memory with no input and no other call."""
    m = len(symbols) - width + 1
    states = range(len(log_init))
    # Local names for what the step loop looks up on every ufunc call: on
    # a few thousand windows the lookups cost about a tenth of the kernel.
    add, maximum, rest = np.add, np.maximum, states[1:]
    init = [np.array(v) for v in log_init]
    trans = [[np.array(v) for v in row] for row in log_trans]
    emit = [log_emit[j].take(symbols) for j in states]
    delta = [add(init[j], emit[j][:m]) for j in states]
    new = [np.empty(m) for _ in states]
    tmp = np.empty(m)
    for t in range(1, width):
        for j in states:
            best = add(delta[0], trans[0][j], new[j])
            for i in rest:
                maximum(best, add(delta[i], trans[i][j], tmp), out=best)
            add(best, emit[j][t:t + m], best)
        delta, new = new, delta
    best = delta[0]
    for d in delta[1:]:
        maximum(best, d, out=best)
    return best


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
    [(steps, beta, scale)] = e_step.backward()
    first = model.initial @ (model.emission[:, steps[0, 0]] * beta[:, 0, 0])
    with np.errstate(divide="ignore"):  # ln 0 = -inf: probability 0
        return float(np.log(np.append(scale[1:], first)).sum())


# Windows per block of the E-step, and the lanes of its sums across
# windows; both are part of its summation order, which _kernel.c repeats.
E_STEP_BLOCK = 256
E_STEP_LANES = 8

class _Batch:
    """The arrays of one equal-length batch: its (length, batch) symbols,
    the (states, length, batch) alphas and the (length, batch) scale factors
    that the forward pass fills and the counts read, the scale factors'
    logs, and the numpy kernel's buffers, each made on its first use."""

    def __init__(self, obs: np.ndarray, num_states: int) -> None:
        self.steps = np.ascontiguousarray(obs.T)
        self.alpha = np.empty((num_states, *self.steps.shape))
        self.scale = np.empty(self.steps.shape)
        self.log_scale = np.empty(self.steps.shape)
        self._buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, shape: tuple[int, ...], dtype=float
               ) -> np.ndarray:
        """The batch's buffer ``name``, allocated on the first call."""
        if name not in self._buffers:
            self._buffers[name] = np.empty(shape, dtype)
        return self._buffers[name]


def _lane_sum(values: np.ndarray) -> np.ndarray:
    """``values`` added over its last axis, the windows, in the E-step's
    order: window b adds into lane b % E_STEP_LANES in window order, and
    the lanes are then added in lane order."""
    width = values.shape[-1]
    full = width - width % E_STEP_LANES
    lanes = values[..., :full].reshape(*values.shape[:-1], -1,
                                       E_STEP_LANES).sum(axis=-2)
    lanes[..., :width - full] += values[..., full:]
    total = lanes[..., 0]
    for lane in range(1, E_STEP_LANES):
        total = total + lanes[..., lane]
    return total


class _NumpyKernel:
    """The kernels in numpy, where the compiled ones cannot be built: the
    same IEEE operations in the same order, so the same bytes. A call is
    :func:`_window_scores`. In the E-step every sum over states is a loop
    of adds in state order, since numpy adds a reduced axis in its own
    order when it is the innermost one."""

    __call__ = staticmethod(_window_scores)

    @staticmethod
    def forward(model: Hmm, batch: _Batch) -> None:
        transition, alpha, scale = model.transition, batch.alpha, batch.scale
        product = batch.buffer("product", alpha[:, 0].shape)
        for t, symbols in enumerate(batch.steps):
            a, c = alpha[:, t], scale[t]
            # Symbols were checked against this alphabet in _EStep, so
            # clipping (half the time of the default mode) changes none.
            emit = model.emission.take(symbols, axis=1, mode="clip")
            if t:
                previous = alpha[:, t - 1]
                np.multiply(transition[0, :, None], previous[0], out=a)
                for i in range(1, len(a)):
                    a += np.multiply(transition[i, :, None], previous[i],
                                     out=product)
                a *= emit
            else:
                np.multiply(model.initial[:, None], emit, out=a)
            c[:] = a[0]
            for j in range(1, len(a)):
                c += a[j]
            a /= np.where(c > 0.0, c, 1.0)

    @staticmethod
    def backward(model: Hmm, batch: _Batch
                 ) -> tuple[np.ndarray, np.ndarray]:
        """The batch's betas, time reversed (step t at ``length - 1 - t``),
        and each window's transition sums, steps added from the last, in
        buffers of the batch."""
        transition, alpha, scale = model.transition, batch.alpha, batch.scale
        n, length, width = alpha.shape
        beta = batch.buffer("beta", alpha.shape)
        moves = batch.buffer("moves", (n, n, width))
        term = batch.buffer("term", (n, width))
        product = batch.buffer("product", (n, width))
        pairs = batch.buffer("pairs", (n, n, width))
        moves.fill(0.0)
        np.greater(alpha[:, -1], 0.0, out=beta[:, 0])
        for t in range(length - 2, -1, -1):
            model.emission.take(batch.steps[t + 1], axis=1, out=term,
                                mode="clip")
            term *= beta[:, length - 2 - t]
            term /= scale[t + 1]
            moves += np.multiply(alpha[:, t, None], term, out=pairs)
            b = beta[:, length - 1 - t]
            np.multiply(transition[:, 0, None], term[0], out=b)
            for j in range(1, n):
                b += np.multiply(transition[:, j, None], term[j], out=product)
            b *= alpha[:, t] > 0.0
        return beta, moves

    @classmethod
    def counts(cls, model: Hmm, batch: _Batch
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        gamma, moves = cls.backward(model, batch)
        n, m = model.emission.shape
        length, width = batch.steps.shape
        blocks = -(-width // E_STEP_BLOCK)
        # Each symbol's bin in its block's counts, steps from the last.
        keys = batch.buffer("keys", (length, width), np.intp)
        np.add(batch.steps[::-1], m * (np.arange(width) // E_STEP_BLOCK),
               out=keys)
        np.multiply(batch.alpha[:, ::-1], gamma, out=gamma)  # posteriors
        emitted = np.empty((n, m))
        for j in range(n):
            by_block = np.bincount(keys.reshape(-1),
                                   weights=gamma[j].reshape(-1),
                                   minlength=blocks * m)
            emitted[j] = np.add.accumulate(by_block.reshape(blocks, m))[-1]
        return _lane_sum(gamma[:, -1]), _lane_sum(moves), emitted


_NUMPY_KERNEL = _NumpyKernel()

_kernel = None  # the kernel of this process, chosen on first use


def _load_kernel(source: Path = _ckernel.SOURCE, cc: str | None = None):
    """The compiled kernel from ``source``, built with the compiler command
    ``cc`` (see :func:`ssph._ckernel.load`), or :data:`_NUMPY_KERNEL` where
    it cannot be built or loaded. Both give the same bytes."""
    return _ckernel.load(source, cc) or _NUMPY_KERNEL


def _chosen_kernel():
    """The kernel that scores windows and runs the E-step in this process:
    :func:`_load_kernel`'s, loaded on the first call."""
    global _kernel
    if _kernel is None:
        _kernel = _load_kernel()
    return _kernel


class _EStep:
    """The scaled forward and backward passes (Rabiner 1989, section V.A)
    of one :func:`baum_welch` or likelihood call on ``training``, which is
    checked against ``model`` and grouped into equal-length batches here by
    :func:`_length_batches`; empty ``training`` raises
    :class:`NoTrainingData`. Every model the passes later run on must have
    the state count and alphabet of ``model``. :meth:`forward` gives the
    log-likelihood of the data under a model, -inf if a sequence has
    probability 0; :meth:`counts` then gives that model's expected counts
    from the alphas it left, if that was finite, so a caller that needs
    only the likelihood skips the backward pass.

    Both run on the kernel of :func:`_chosen_kernel`: the compiled one of
    ``_kernel.c``, or :class:`_NumpyKernel` where that cannot be built.
    They make the same
    IEEE operations in the same order, none of them a BLAS call, so the
    counts have the same bytes on every BLAS and SIMD target:
    - a step's alpha of state j adds ``T[i][j] * alpha(t-1, i)`` over i in
      index order and then multiplies j's emission; the scale factor ``c``
      adds the alphas in state order, and divides them where it is > 0;
    - a step's beta of state i adds ``T[i][j] * term_j`` over j in index
      order, ``term_j = e_j(o_t+1) * beta(t+1, j) / c(t+1)``, and is 0
      where alpha is;
    - a window's transition sum ``alpha(t, i) * term_j`` adds its steps
      from the last to the first; the transition count is ``T[i][j]``
      times the sum of those over windows;
    - the start counts and the transition sums add across windows in
      ``E_STEP_LANES`` lanes: window b into lane b % E_STEP_LANES in window
      order, then the lanes in lane order;
    - the emission counts add each block of ``E_STEP_BLOCK`` windows on its
      own, steps from the last and windows in order, and then the blocks in
      order;
    - batches add their counts in order of length, and the log-likelihood
      is the sum of each batch's numpy sum of ln c.

    Each batch keeps its symbols, alphas and scale factors from
    :meth:`forward` to :meth:`counts`; the compiled counts use no more,
    and the numpy ones add their buffers on their first call. Every later
    call refills them in place. Each call builds its own, so concurrent
    calls share nothing."""

    def __init__(self, model: Hmm, training: Iterable[Sequence[int]]) -> None:
        batches = _length_batches(model, training)
        if not batches:
            raise NoTrainingData("training collection is empty")
        self._kernel = _chosen_kernel()
        self._shape = model.emission.shape
        self._model: Hmm | None = None
        self._work = [_Batch(obs, model.num_states) for obs in batches]

    def forward(self, model: Hmm) -> float:
        """Total log-likelihood of the data under ``model``, which
        :meth:`backward` and :meth:`counts` then use. Each step's alphas are
        normalized to sum to 1 by its scale factor ``c``, and the
        log-likelihood is the sum of ln c. A step whose total mass is 0, or
        underflows double precision, gets ``c = 0`` and all-zero alphas from
        then on, so the total is -inf: probability 0."""
        if model.emission.shape != self._shape:
            raise ValueError(f"the E-step's data was checked against "
                             f"{self._shape} emissions, not "
                             f"{model.emission.shape}")
        self._model = model
        total_ll = 0.0
        for batch in self._work:
            self._kernel.forward(model, batch)
            with np.errstate(divide="ignore"):  # ln 0 = -inf: probability 0
                total_ll += float(np.log(batch.scale, out=batch.log_scale)
                                  .sum())
        return total_ll

    def backward(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Backward pass of the last :meth:`forward`, in numpy whatever the
        kernel, divided by the same scale factors, so that alpha * beta is
        the state posterior. The scale factors must be positive, as they
        are when every sequence is possible. Returns the symbols, betas and
        scale factors of each batch.

        Beta is set to 0 wherever alpha is 0. The scaling bounds beta only
        for states the forward pass reaches; an unreachable state's beta
        could grow without limit and turn ``0 * inf`` into NaN. Zeroing it
        is exact: if alpha(t+1, j) = 0 then a(i, j) e_j(o_t+1) = 0 for every
        i with alpha(t, i) > 0, so no reachable beta and no posterior
        changes."""
        return [(batch.steps,
                 _NumpyKernel.backward(self._model, batch)[0][:, ::-1],
                 batch.scale) for batch in self._work]

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expected start/transition/emission counts of the training data
        under the model of the last :meth:`forward`."""
        model = self._model
        n, m = model.num_states, model.alphabet_size
        start, trans, emit = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
        for batch in self._work:
            batch_start, moves, emitted = self._kernel.counts(model, batch)
            start += batch_start
            trans += model.transition * moves
            emit += emitted
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
