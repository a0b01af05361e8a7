"""Two allocating references for ``ssph.hmm._EStep``: every call allocates
fresh emission, alpha, beta, posterior and transition-term arrays.

The first, :func:`_expected_counts` and the recursions it calls, makes the
E-step's arithmetic in the summation order ``_EStep`` documents, with
plain loops: over steps and states in Python, over the windows of a batch
with numpy's elementwise arithmetic, which rounds each window on its own,
and across windows with Python loops over Python floats in the lane and
block order of the E-step. Its counts and log-likelihood must equal the
E-step's bit for bit, under the compiled kernel and the numpy one.

The second, the ``blas_`` functions, is the E-step as it was before that
order was fixed, kept verbatim: its products are BLAS matrix products, so
its last bits depend on the BLAS kernel. The E-step agrees with it within
roundoff."""

from __future__ import annotations

import numpy as np

from ssph.hmm import E_STEP_BLOCK, E_STEP_LANES, Hmm


def _emit_probs(model: Hmm, obs: np.ndarray) -> np.ndarray:
    """(states, length, batch) emission probabilities of an integer
    (batch, length) observation array."""
    return np.take(model.emission, obs.T, axis=1)


def _log_total(scale: np.ndarray) -> float:
    with np.errstate(divide="ignore"):  # ln 0 = -inf: probability 0
        return float(np.log(scale).sum())


def _scaled_forward(model: Hmm, emit: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward pass (Rabiner 1989, section V.A) over ``emit``.
    Returns the alphas, normalized to sum to 1 at each step, and the
    (length, batch) scale factors ``c``; ln P(obs) is the sum of ln c.

    A step's alpha of state j adds ``T[i][j] * alpha(t-1, i)`` over i in
    index order and multiplies j's emission; ``c`` adds the alphas in state
    order. A step whose total mass is 0, or underflows double precision,
    gets ``c = 0`` and all-zero alphas from then on: probability 0."""
    n, length, _ = emit.shape
    alpha = np.empty_like(emit)
    scale = np.empty(emit.shape[1:])
    for t in range(length):
        a = []
        for j in range(n):
            if t == 0:
                a.append(model.initial[j] * emit[j, 0])
                continue
            total = model.transition[0, j] * alpha[0, t - 1]
            for i in range(1, n):
                total = total + model.transition[i, j] * alpha[i, t - 1]
            a.append(total * emit[j, t])
        c = a[0]
        for j in range(1, n):
            c = c + a[j]
        scale[t] = c
        for j in range(n):
            alpha[j, t] = a[j] / np.where(c > 0.0, c, 1.0)
    return alpha, scale


def _terms(model: Hmm, emit: np.ndarray, beta: np.ndarray,
           scale: np.ndarray, t: int) -> list[np.ndarray]:
    """``e_j(o_t+1) * beta(t+1, j) / c(t+1)`` of each state j."""
    return [emit[j, t + 1] * beta[j, t + 1] / scale[t + 1]
            for j in range(model.num_states)]


def _scaled_backward(model: Hmm, emit: np.ndarray, alpha: np.ndarray,
                     scale: np.ndarray) -> np.ndarray:
    """Backward pass matching :func:`_scaled_forward`, divided by the same
    scale factors, so that alpha * beta is the state posterior. A step's
    beta of state i adds ``T[i][j] * term_j`` over j in index order.

    Beta is set to 0 wherever alpha is 0. The scaling bounds beta only for
    states the forward pass reaches; an unreachable state's beta could grow
    without limit and turn ``0 * inf`` into NaN. Zeroing it is exact: if
    alpha(t+1, j) = 0 then a(i, j) e_j(o_t+1) = 0 for every i with
    alpha(t, i) > 0, so no reachable beta and no posterior changes."""
    n, length, _ = emit.shape
    beta = np.empty_like(alpha)
    beta[:, -1] = np.where(alpha[:, -1] > 0.0, 1.0, 0.0)
    for t in range(length - 2, -1, -1):
        term = _terms(model, emit, beta, scale, t)
        for i in range(n):
            total = model.transition[i, 0] * term[0]
            for j in range(1, n):
                total = total + model.transition[i, j] * term[j]
            beta[i, t] = np.where(alpha[i, t] > 0.0, 1.0, 0.0) * total
    return beta


def _window_moves(model: Hmm, emit: np.ndarray, alpha: np.ndarray,
                  beta: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(states, states, batch): each window's sum of ``alpha(t, i) *
    term_j`` over its steps, from the last to the first."""
    n, length, batch = alpha.shape
    moves = np.zeros((n, n, batch))
    for t in range(length - 2, -1, -1):
        term = _terms(model, emit, beta, scale, t)
        for i in range(n):
            for j in range(n):
                moves[i, j] = moves[i, j] + alpha[i, t] * term[j]
    return moves


def _lane_sum(values: np.ndarray) -> float:
    """The windows' ``values`` added as the E-step adds them: window b into
    lane b % E_STEP_LANES in window order, then the lanes in lane order."""
    lanes = [0.0] * E_STEP_LANES
    for b, value in enumerate(values.tolist()):
        lanes[b % E_STEP_LANES] += value
    total = lanes[0]
    for lane in lanes[1:]:
        total += lane
    return total


def _emission_counts(gamma: np.ndarray, obs: np.ndarray, alphabet_size: int
                     ) -> np.ndarray:
    """Each state's posteriors added by the symbol they were at: each block
    of E_STEP_BLOCK windows into counts of its own, steps from the last
    and windows in order, and the blocks' counts then in block order."""
    n, length, batch = gamma.shape
    counts = [[0.0] * alphabet_size for _ in range(n)]
    for b0 in range(0, batch, E_STEP_BLOCK):
        block = [[0.0] * alphabet_size for _ in range(n)]
        for t in range(length - 1, -1, -1):
            for b in range(b0, min(b0 + E_STEP_BLOCK, batch)):
                for j in range(n):
                    block[j][obs[b, t]] += float(gamma[j, t, b])
        for j in range(n):
            for s in range(alphabet_size):
                counts[j][s] += block[j][s]
    return np.array(counts)


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
        start += np.array([_lane_sum(gamma[j, 0]) for j in range(n)])
        moves = _window_moves(model, obs_emit, alpha, beta, scale)
        trans += model.transition * np.array(
            [[_lane_sum(moves[i, j]) for j in range(n)] for i in range(n)])
        emit += _emission_counts(gamma, obs, m)
    return start, trans, emit, total_ll


# ------------------------------------------- the E-step on BLAS, kept verbatim

def blas_scaled_forward(model: Hmm, emit: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
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


def blas_scaled_backward(model: Hmm, emit: np.ndarray, alpha: np.ndarray,
                         scale: np.ndarray) -> np.ndarray:
    beta = np.where(alpha > 0.0, 1.0, 0.0)
    safe = np.where(scale > 0.0, scale, 1.0)
    for t in range(emit.shape[1] - 2, -1, -1):
        beta[:, t] *= model.transition @ (emit[:, t + 1] * beta[:, t + 1]
                                          / safe[t + 1])
    return beta


def blas_expected_counts(model: Hmm, batches: list[np.ndarray]
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    n, m = model.num_states, model.alphabet_size
    start = np.zeros(n)
    trans = np.zeros((n, n))
    emit = np.zeros((n, m))
    total_ll = 0.0
    for obs in batches:
        obs_emit = _emit_probs(model, obs)
        alpha, scale = blas_scaled_forward(model, obs_emit)
        if not np.all(scale > 0.0):
            raise ValueError(
                "a training sequence has zero probability under the model")
        beta = blas_scaled_backward(model, obs_emit, alpha, scale)
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
