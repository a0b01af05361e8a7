"""Synthetic labeled chains from planted class models.

Each class model concentrates its emission mass on its own third of the
residue alphabet, so windows carry a strong class signal; label runs follow a
geometric length distribution. Used by the demos and the recovery tests.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .dssp import CLASS_ORDER
from .hmm import Hmm
from .io import LabeledRecord
from .predictor import ALPHABET, ClassModelSet

# Disjoint thirds of the 21-letter alphabet, one per class.
CLASS_RESIDUE_GROUPS = {
    "H": np.arange(0, 7),
    "E": np.arange(7, 14),
    "C": np.arange(14, 21),
}


def _planted_hmm(group: np.ndarray, leak: float) -> Hmm:
    """Two-state model emitting (mostly) within ``group``: state 0 favors the
    first four symbols of the group, state 1 the last three. ``leak`` mixes in
    a uniform distribution over the whole alphabet."""
    m = len(ALPHABET)
    emission = np.zeros((2, m))
    emission[0, group[:4]] = 0.7 / 4
    emission[0, group[4:]] = 0.3 / 3
    emission[1, group[:4]] = 0.25 / 4
    emission[1, group[4:]] = 0.75 / 3
    emission = (1.0 - leak) * emission + leak / m
    emission /= emission.sum(axis=1, keepdims=True)
    return Hmm(
        initial=np.array([0.6, 0.4]),
        transition=np.array([[0.85, 0.15], [0.3, 0.7]]),
        emission=emission,
    )


def planted_models(leak: float = 0.0) -> ClassModelSet:
    """Deterministic planted model set with disjoint per-class residue groups."""
    if not 0.0 <= leak < 1.0:
        raise ValueError("leak must be in [0, 1)")
    return ClassModelSet({c: _planted_hmm(CLASS_RESIDUE_GROUPS[c], leak)
                          for c in CLASS_ORDER})


def sample_observations(model: Hmm, length: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Ancestral sampling of one observation sequence from ``model``."""
    if length < 1:
        raise ValueError("length must be >= 1")
    symbols = np.empty(length, dtype=np.intp)
    state = rng.choice(model.num_states, p=model.initial)
    for t in range(length):
        symbols[t] = rng.choice(model.alphabet_size, p=model.emission[state])
        state = rng.choice(model.num_states, p=model.transition[state])
    return symbols


def sample_labeled_record(models: ClassModelSet, length: int,
                          rng: np.random.Generator, rec_id: str,
                          stay: float = 0.85) -> LabeledRecord:
    """One chain: labels follow a Markov chain with self-transition ``stay``
    (geometric run lengths); residues within a run are sampled from that
    class's model."""
    labels = []
    current = CLASS_ORDER[rng.integers(len(CLASS_ORDER))]
    for _ in range(length):
        labels.append(current)
        if rng.random() > stay:
            others = [c for c in CLASS_ORDER if c != current]
            current = others[rng.integers(len(others))]
    residues = []
    for label, run in groupby(labels):
        symbols = sample_observations(models[label], len(list(run)), rng)
        residues.extend(ALPHABET[s] for s in symbols)
    return LabeledRecord(rec_id, "".join(residues), "".join(labels))


def planted_dataset(num_chains: int, length: int, *, seed: int = 0,
                    stay: float = 0.85, leak: float = 0.0) -> list[LabeledRecord]:
    """Reproducible list of labeled chains drawn from the planted models."""
    models = planted_models(leak)
    rng = np.random.default_rng(seed)
    return [sample_labeled_record(models, length, rng, f"chain{i:04d}", stay)
            for i in range(num_chains)]
