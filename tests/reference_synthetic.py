"""The ``Generator.choice`` sampler that the batched-uniform
``ssph.synthetic`` replaced, kept verbatim as the draw-for-draw reference:
one ``rng.choice`` call per initial state, per symbol and per next state.
The batched version must consume the same doubles in the same order, so its
symbols, its records and the generator state after each call equal these
exactly."""

from __future__ import annotations

from itertools import groupby

import numpy as np

from ssph.dssp import CLASS_ORDER
from ssph.hmm import Hmm
from ssph.io import LabeledRecord
from ssph.predictor import ALPHABET, ClassModelSet
from ssph.synthetic import planted_models


def sample_observations(model: Hmm, length: int,
                        rng: np.random.Generator) -> np.ndarray:
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
    models = planted_models(leak)
    rng = np.random.default_rng(seed)
    return [sample_labeled_record(models, length, rng, f"chain{i:04d}", stay)
            for i in range(num_chains)]
