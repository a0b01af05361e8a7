"""Shared test utilities: random stochastic arrays and models built straight
from numpy draws (independent of the package's own model generator), the
stub model sets used by the predictor fixtures, probability rows that carry
faults on the edges of the model row check, the model and log-parameter
strategies of the window kernel tests, and the edge-case models and
sampled observations of the E-step tests."""

import functools
import math
from contextlib import contextmanager

import numpy as np
from hypothesis import strategies as st

from ssph import ALPHABET, ClassModelSet, Hmm, _ckernel, hmm
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


@functools.cache
def kernels():
    """The kernels by name: the compiled one (the numpy one again on a host
    where it cannot be built) and the numpy one."""
    return (("compiled", _ckernel.load() or hmm._NUMPY_KERNEL),
            ("numpy", hmm._NUMPY_KERNEL))


@contextmanager
def kernel_in_use(kernel):
    """Make ``kernel`` the one the predictor scores windows with, and each
    ``_EStep`` built inside the ``with`` block runs, as a host runs the
    kernel it loads."""
    saved = hmm._kernel
    hmm._kernel = kernel
    try:
        yield
    finally:
        hmm._kernel = saved


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


@st.composite
def model_and_run(draw):
    """A random model of 1 to 4 states over 1 to 5 symbols, with or without
    zero entries, and a run of 1 to 30 of its symbols."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    length = draw(st.integers(min_value=1, max_value=30))
    zeros = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2**32 - 1)))
    model = (random_model_with_zeros if zeros else random_model)(rng, n, m)
    return model, rng.integers(0, m, size=length)


def nudged(rng, log_params, dtype):
    """``log_params`` with each entry below 0 replaced by its nearest
    ``dtype`` value moved one ``dtype`` ulp up or down at random, as
    float64; 0 and -inf stay."""
    out = []
    for a in log_params:
        toward = np.where(rng.random(a.shape) < 0.5, -np.inf, 0.0)
        moved = np.nextafter(a.astype(dtype), toward.astype(dtype))
        out.append(np.where(np.isfinite(a) & (a < 0), moved, a))
    return tuple(out)


@st.composite
def near_tied_params(draw):
    """Float64 log parameters of three classes (in :data:`TIE_BREAK` order)
    over the residue alphabet, built to tie: random log parameters, some
    -inf and some 0, and two more sets that are a copy of them (an exact
    tie) or them with each entry below 0 moved one float64 or one float32
    ulp. So windows' three float64 scores are equal or differ in their last
    bits (by exactly one ulp where a path's only nonzero term is its
    initial one)."""
    n = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2**32 - 1)))
    shapes = (n,), (n, n), (n, len(ALPHABET))
    base = tuple(np.select([u < 0.1, u < 0.35],
                           [-np.inf, 0.0], np.log(u + 1e-3))
                 for u in map(rng.random, shapes))
    kinds = draw(st.lists(st.sampled_from(["copy", np.float64, np.float32]),
                          min_size=2, max_size=2))
    params = [base] + [base if kind == "copy" else nudged(rng, base, kind)
                       for kind in kinds]
    return [params[i] for i in draw(st.permutations(range(3)))]


def sample(rng, model, length):
    """Observations drawn from ``model``, so their probability is nonzero."""
    state = rng.choice(model.num_states, p=model.initial)
    obs = []
    for _ in range(length):
        obs.append(int(rng.choice(model.alphabet_size,
                                  p=model.emission[state])))
        state = rng.choice(model.num_states, p=model.transition[state])
    return obs


def sample_batch(rng, model, batch, length):
    """A (batch, length) array of ``batch`` sequences drawn from ``model``
    at once, so each has nonzero probability."""
    def draw(rows):
        cumulative = np.cumsum(rows, axis=-1)
        u = rng.random(len(rows)) * cumulative[:, -1]
        return (u[:, None] >= cumulative).sum(axis=-1)

    states = draw(np.broadcast_to(model.initial, (batch, model.num_states)))
    out = np.empty((batch, length), dtype=np.intp)
    for t in range(length):
        out[:, t] = draw(model.emission[states])
        states = draw(model.transition[states])
    return out


def underflowing_hmm():
    """Symbol 1 needs the 1e-200 step 0 -> 1 and then a 1e-200 emission, so
    [0, 1] has probability 1e-400, which underflows double precision."""
    return Hmm(initial=np.array([1.0, 0.0]),
               transition=np.array([[1.0, 1e-200], [0.0, 1.0]]),
               emission=np.array([[1.0, 0.0], [1.0, 1e-200]]))


# State 1 is never entered, and emits symbol 0 with probability 1 against
# state 0's 1/21, so without a guard its scaled beta grows by 21 per step
# (or 10.5 when it can leave to state 0) and overflows within 400 steps.
UNREACHABLE_TRANSITIONS = ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, 0.5]])


def unreachable_state_hmm(transition):
    return Hmm(initial=np.array([1.0, 0.0]), transition=np.array(transition),
               emission=np.array([[1 / 21] * 21, [1.0] + [0.0] * 20]))
