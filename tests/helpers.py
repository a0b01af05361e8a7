"""Shared test utilities: random stochastic arrays built straight from numpy
draws (independent of the package's own model generator) and the stub model
sets used by the predictor fixtures, and probability rows that carry faults
on the edges of the model row check."""

import math

import numpy as np
from hypothesis import strategies as st

from ssph import ClassModelSet, Hmm
from ssph.hmm import ROW_SUM_TOL


def random_stochastic(rng, shape):
    u = rng.random(shape) + 1e-3
    return u / u.sum(axis=-1, keepdims=True)


def random_model(rng, num_states, alphabet_size):
    return Hmm(
        initial=random_stochastic(rng, num_states),
        transition=random_stochastic(rng, (num_states, num_states)),
        emission=random_stochastic(rng, (num_states, alphabet_size)),
    )


def small_cases(count, seed, max_states=3, max_symbols=5, max_length=8):
    """Randomized (model, observations) pairs small enough for the
    enumeration oracle."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_states + 1))
        m = int(rng.integers(2, max_symbols + 1))
        length = int(rng.integers(1, max_length + 1))
        model = random_model(rng, n, m)
        obs = rng.integers(0, m, size=length).tolist()
        yield model, obs


def single_state_profile(group, in_weight=3.0, out_weight=0.25):
    """One-state model whose emission favors the symbol indices in ``group``.
    With a single state the window score is just the product of per-symbol
    emissions, which keeps hand verification honest."""
    weights = np.full(21, out_weight)
    weights[np.asarray(group)] = in_weight
    return Hmm(initial=np.array([1.0]), transition=np.array([[1.0]]),
               emission=(weights / weights.sum())[None, :])


def single_symbol_stub(p):
    """One-state model that emits 'A' (symbol 0) with probability ``p`` and
    each other symbol with (1 - p) / 20: k 'A's score k ln p."""
    emission = np.full(21, (1.0 - p) / 20)
    emission[0] = p
    return Hmm(initial=np.array([1.0]), transition=np.array([[1.0]]),
               emission=emission[None, :])


def stub_model_set():
    """Three single-state models over disjoint thirds of the alphabet."""
    return ClassModelSet({"H": single_state_profile(np.arange(0, 7)),
                          "E": single_state_profile(np.arange(7, 14)),
                          "C": single_state_profile(np.arange(14, 21))})


# Entries on the edges of the [0, 1] range check, and row-sum offsets a few
# ulps either side of the row-sum tolerance.
EDGE_ENTRIES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 1.5, -0.5,
                1.0 + 2**-52, -2**-1074]
SUM_OFFSETS = [sign * ROW_SUM_TOL * (1.0 + rel) for sign in (1.0, -1.0)
               for rel in (-1e-6, -1e-7, 0.0, 1e-7, 1e-6)]


@st.composite
def faulty_rows(draw, num_rows, width):
    """A (num_rows, width) float array of stochastic rows, each of which may
    carry faults: an entry replaced by one of :data:`EDGE_ENTRIES`, and a
    last entry set so that the row sums to about 1, or 1 plus one of
    :data:`SUM_OFFSETS`."""
    weights = st.floats(min_value=0.01, max_value=1.0)
    rows = np.array(draw(st.lists(st.lists(weights, min_size=width,
                                           max_size=width),
                                  min_size=num_rows, max_size=num_rows)))
    rows /= rows.sum(axis=1, keepdims=True)
    for row in rows:
        if draw(st.booleans()):
            row[draw(st.integers(0, width - 1))] = \
                draw(st.sampled_from(EDGE_ENTRIES))
        if draw(st.booleans()):
            offset = draw(st.sampled_from([0.0] + SUM_OFFSETS))
            row[-1] = 1.0 + offset - row[:-1].sum()
    return rows
