"""Reference computations the benchmark checks the program's outputs against.

Written from the model definitions, not from the program's code: a model
file reader, a batched max-product (Viterbi) window scorer and a batched
Baum-Welch in scaled probability space (Rabiner 1989, section V.A). They
share no code with ``ssph`` beyond the file formats and the documented
conventions (alphabet order, class tie-break, random initialisation).
"""

from __future__ import annotations

import numpy as np

ALPHABET = "ACDEFGHIKLMNPQRSTVWYX"
CLASSES = "HEC"
_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}


def encode(sequence: str) -> np.ndarray:
    return np.array([_INDEX.get(ch, _INDEX["X"]) for ch in sequence],
                    dtype=np.intp)


def read_model_file(text: str) -> dict[str, tuple[np.ndarray, ...]]:
    """``{class: (initial, transition, emission)}`` from a model file.
    Lines this reader does not know are skipped, so header additions in later
    format versions do not break it."""
    models: dict[str, tuple[np.ndarray, ...]] = {}
    current = None
    rows: dict[str, list] = {}

    def finish():
        if current is not None:
            models[current] = (np.array(rows["initial"][0]),
                               np.array(rows["transition"]),
                               np.array(rows["emission"]))

    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "model":
            finish()
            current = fields[1]
            rows = {"initial": [], "transition": [], "emission": []}
        elif current is not None and fields[0] in rows:
            rows[fields[0]].append([float(f) for f in fields[1:]])
    finish()
    if set(models) != set(CLASSES):
        raise ValueError(f"model file has classes {sorted(models)}")
    return models


def _logs(params):
    with np.errstate(divide="ignore"):
        return tuple(np.log(p) for p in params)


def max_product_scores(params, windows: np.ndarray) -> np.ndarray:
    """Best-path log-probability of each row of ``windows`` (batch, length)."""
    log_init, log_trans, log_emit = _logs(params)
    delta = log_init[None, :] + log_emit[:, windows[:, 0]].T
    for t in range(1, windows.shape[1]):
        cand = delta[:, :, None] + log_trans[None]
        delta = cand.max(axis=1) + log_emit[:, windows[:, t]].T
    return delta.max(axis=1)


def choose(helix: float, strand: float, coil: float) -> str:
    """The documented tie-break: helix, then coil, then strand."""
    if helix >= coil and helix >= strand:
        return "H"
    if coil >= strand:
        return "C"
    return "E"


def random_model(num_states: int, alphabet_size: int, seed: int):
    """The program's documented seeded initialisation: rows drawn uniformly
    from [0.1, 1) in the order initial, transition, emission, normalised."""
    rng = np.random.default_rng(seed)

    def rows(shape):
        u = rng.uniform(0.1, 1.0, shape)
        return u / u.sum(axis=-1, keepdims=True)

    return (rows(num_states), rows((num_states, num_states)),
            rows((num_states, alphabet_size)))


def class_windows(records, half_width: int) -> dict[str, np.ndarray]:
    """Encoded windows grouped by the label of their centre residue, as a
    (count, 2*half_width+1) array per class."""
    out: dict[str, list] = {c: [] for c in CLASSES}
    width = 2 * half_width + 1
    for sequence, labels in records:
        encoded = encode(sequence)
        for i in range(half_width, len(sequence) - half_width):
            out[labels[i]].append(encoded[i - half_width:i + half_width + 1])
    return {c: (np.stack(v) if v else np.zeros((0, width), dtype=np.intp))
            for c, v in out.items()}


def _e_step(params, obs: np.ndarray):
    """Expected counts and total log-likelihood by scaled forward-backward."""
    initial, transition, emission = params
    batch, length = obs.shape
    n = initial.shape[0]
    emit = emission[:, obs].transpose(1, 2, 0)          # (batch, length, n)
    alpha = np.empty((batch, length, n))
    scale = np.empty((batch, length))
    a = initial[None, :] * emit[:, 0]
    scale[:, 0] = a.sum(axis=1)
    alpha[:, 0] = a / scale[:, 0, None]
    for t in range(1, length):
        a = (alpha[:, t - 1] @ transition) * emit[:, t]
        scale[:, t] = a.sum(axis=1)
        alpha[:, t] = a / scale[:, t, None]
    beta = np.ones((batch, length, n))
    for t in range(length - 2, -1, -1):
        beta[:, t] = ((emit[:, t + 1] * beta[:, t + 1]) @ transition.T
                      / scale[:, t + 1, None])
    gamma = alpha * beta
    start = gamma[:, 0].sum(axis=0)
    symbols = obs.reshape(-1)
    counts = np.stack([np.bincount(symbols, weights=gamma[..., k].reshape(-1),
                                   minlength=emission.shape[1])
                       for k in range(n)])
    nxt = emit[:, 1:] * beta[:, 1:] / scale[:, 1:, None]
    trans = np.einsum("bti,ij,btj->ij", alpha[:, :-1], transition, nxt)
    return start, trans, counts, float(np.log(scale).sum())


def log_likelihood(params, obs: np.ndarray) -> float:
    return _e_step(params, obs)[3]


def baum_welch(params, obs: np.ndarray, max_iters: int, tol: float,
               pseudocount: float = 1e-6):
    """Returns the final parameters and the per-iteration log-likelihoods,
    with the program's documented stopping rule (stop once an iteration
    improves the total log-likelihood by less than ``tol``)."""
    trace: list[float] = []
    start, trans, counts, ll_prev = _e_step(params, obs)
    for _ in range(max_iters):
        initial = start + pseudocount
        transition = trans + pseudocount
        emission = counts + pseudocount
        params = (initial / initial.sum(),
                  transition / transition.sum(axis=1, keepdims=True),
                  emission / emission.sum(axis=1, keepdims=True))
        start, trans, counts, ll = _e_step(params, obs)
        trace.append(ll)
        if ll - ll_prev < tol:
            break
        ll_prev = ll
    return params, trace
