"""Exhaustive path-enumeration reference for small HMMs.

Everything here works in plain probability space by enumerating every hidden
state path and multiplying entries straight out of the model arrays, so it
shares no code and no numerical strategy with the dynamic programs it is
used to check. Only usable for tiny inputs: the number of paths is
num_states ** len(obs).
"""

import itertools

import numpy as np


def path_probability(initial, transition, emission, obs, path):
    """Probability of one (path, observations) pair by direct multiplication."""
    initial = np.asarray(initial, dtype=float)
    transition = np.asarray(transition, dtype=float)
    emission = np.asarray(emission, dtype=float)
    prob = initial[path[0]] * emission[path[0], obs[0]]
    for t in range(1, len(obs)):
        prob *= transition[path[t - 1], path[t]] * emission[path[t], obs[t]]
    return float(prob)


def all_path_probabilities(initial, transition, emission, obs):
    """Every state path (rows) paired with its probability."""
    initial = np.asarray(initial, dtype=float)
    transition = np.asarray(transition, dtype=float)
    emission = np.asarray(emission, dtype=float)
    obs = np.asarray(obs, dtype=np.intp)
    n = initial.shape[0]
    paths = np.array(list(itertools.product(range(n), repeat=obs.shape[0])),
                     dtype=np.intp)
    probs = initial[paths[:, 0]] * emission[paths[:, 0], obs[0]]
    for t in range(1, obs.shape[0]):
        probs = (probs * transition[paths[:, t - 1], paths[:, t]]
                       * emission[paths[:, t], obs[t]])
    return paths, probs


def best_path_probability(model, obs):
    """(max path probability, one path attaining it)."""
    paths, probs = all_path_probabilities(model.initial, model.transition,
                                          model.emission, obs)
    k = int(np.argmax(probs))
    return float(probs[k]), paths[k].tolist()


def total_probability(model, obs):
    """Sum of the probabilities of all state paths."""
    _, probs = all_path_probabilities(model.initial, model.transition,
                                      model.emission, obs)
    return float(probs.sum())
