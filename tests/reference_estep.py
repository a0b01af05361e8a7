"""The allocating E-step that the reused-buffer ``ssph.hmm._EStep``
replaced, kept verbatim as the bit-for-bit reference: every call allocates
fresh emission, alpha, beta, posterior and transition-term arrays. The
in-place version must make the same arithmetic in the same order, so its
counts and log-likelihood equal these exactly."""

from __future__ import annotations

import numpy as np

from ssph.hmm import Hmm


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
