"""Sliding-window secondary-structure prediction.

Each residue is classified by scoring the window centered on it under three
class-specific HMMs (helix, strand, coil); the class whose model assigns the
highest Viterbi path probability wins. :func:`predict_structures` labels
many sequences at once: it joins those with a complete window into one
residue string and scores every window of it in slices of
:data:`CHUNK_WINDOWS` windows, one max-product pass per class model and
slice over the slice's residues, so memory is a few bytes per residue plus
one slice. :func:`predict_structure` is its one-sequence form.

This module owns the window kernel, :func:`_window_scores`: one
max-product pass over every fixed-width window of a symbol run, which
gathers each symbol's emissions once. The pass runs in the dtype of the log
parameters it is given; in float64 it gives the same bits as
:func:`ssph.hmm.viterbi` on each window. The passes run in float32 first,
and a rounding bound (:func:`_window_doubt`, which rests on the kernel's
order of additions) proves which windows' labels equal those of float64
scores; only the other windows are scored again in float64, so every label
is the float64 label bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .dssp import CLASS_ORDER
from .errors import EmptySequence
from .hmm import Hmm, _log_params
from .hmm import sequence_score  # noqa: F401 (perfbench traces it here)

# Residue alphabet: the 20 canonical amino acids plus 'X' for anything else.
# Symbol indices follow this ordering (A=0 ... X=20).
ALPHABET = "ACDEFGHIKLMNPQRSTVWYX"
UNKNOWN_RESIDUE = "X"

# Equal window scores go to the label listed first here.
TIE_BREAK = "HCE"

# Windows per slice of the joined residues, so per kernel call. Large
# enough that numpy's per-call cost is spread over many windows. At
# half-width 5 a slice's scoring arrays take about 57 to 69 bytes per
# window (1 to 4 states; tracemalloc peak over one full slice) when the
# float32 pass proves every label, and 67 to 145 when every window is in
# doubt: the slice's symbols and labels, 8 bytes per window each, three
# float32 vectors per state and one more in the kernel, and the float32
# scores kept for the other classes, 4 bytes per window each, plus the
# doubted windows' indices and one float64 pass over at most the slice.
CHUNK_WINDOWS = 8192


class _FoldTable(dict):
    """``str.translate`` table: each alphabet letter, in either case, to its
    upper case; whitespace deleted; every other character to 'X'."""

    def __missing__(self, code: int) -> str | None:
        return None if chr(code).isspace() else UNKNOWN_RESIDUE


_FOLD = _FoldTable({ord(c): c for c in ALPHABET}
                   | {ord(c.lower()): c for c in ALPHABET})
# Folded ASCII byte -> symbol index; fold_residues emits alphabet letters only.
_INDEX = np.zeros(128, dtype=np.intp)
_INDEX[[ord(c) for c in ALPHABET]] = np.arange(len(ALPHABET))
_TIE_BREAK_BYTES = np.frombuffer(TIE_BREAK.encode("ascii"), dtype=np.uint8)


def fold_residues(sequence: str) -> str:
    """Uppercase a residue string, drop whitespace, and map every character
    outside the alphabet (B, Z, J, U, O, non-ASCII, ...) to 'X'."""
    return sequence.translate(_FOLD)


def encode_residues(sequence: str) -> np.ndarray:
    """Residue string -> integer symbol indices (folding unknowns to 'X')."""
    folded = fold_residues(sequence).encode("ascii")
    return _INDEX[np.frombuffer(folded, dtype=np.uint8)]


class ClassModelSet:
    """The three per-class models, all over the 21-letter residue alphabet,
    copied from a mapping keyed by class label, so later changes to that
    mapping do not reach the set. ``models[label]`` gives one class's model."""

    def __init__(self, models: Mapping[str, Hmm]) -> None:
        if set(models) != set(CLASS_ORDER):
            raise ValueError(f"expected one model per label in "
                             f"{CLASS_ORDER!r}, got labels {list(models)!r}")
        for label in CLASS_ORDER:
            size = models[label].alphabet_size
            if size != len(ALPHABET):
                raise ValueError(f"{label} model has alphabet size {size}, "
                                 f"expected {len(ALPHABET)}")
        self._models = {label: models[label] for label in CLASS_ORDER}

    def __getitem__(self, label: str) -> Hmm:
        return self._models[label]


def _first_max(first: np.ndarray, second: np.ndarray, third: np.ndarray
               ) -> np.ndarray:
    """Per element, the index (0, 1 or 2) of the largest of the three score
    vectors, the lowest index on ties: ``np.argmax`` over their stack, so 0
    where all three are -inf, without building the (3, m) stack."""
    return np.where(third > np.maximum(first, second), 2, second > first)


# Unit roundoff of float32 and float64.
_U32 = 2.0 ** -24
_U64 = 2.0 ** -53


def _gamma(k: int, u: float) -> float:
    """Higham's bound on the relative error of ``k`` roundings at unit
    roundoff ``u``."""
    return k * u / (1 - k * u)


def _window_doubt(first: np.ndarray, second: np.ndarray, third: np.ndarray,
                  width: int) -> np.ndarray:
    """Per window, whether the float32 scores ``first``, ``second`` and
    ``third`` of its three classes, from float32 copies of the float64 log
    parameters, leave its label in doubt. Where they do not, the label
    :func:`_first_max` picks from them is the float64 scores' label.

    Take the float64 log parameters as exact. A window's exact score S is
    the maximum over state paths of a sum of 2*width terms (one initial,
    width - 1 transitions and width emissions), each <= 0. Rounding is
    monotone, so a computed score is the maximum over paths of each path's
    rounded left-to-right sum, and a sum of terms of one sign has a relative
    error of at most ``_gamma(k, u)`` (Higham 2002, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3): k = 2*width - 1 additions at
    u = 2**-53 in float64, and in float32 (u = 2**-24) one more rounding of
    each term. This takes k = 2*width for float64 and k = 4*width for
    float32, where Higham's lemma 3.3 needs 2*width; the slack is used
    below. The bounds carry over to the maximum, so a class's float32 score
    X and float64 score Y both lie within that relative error of S, and
    |Y - X| <= kappa * |X| with kappa = (g32 + g64) / (1 - g32). The model
    holds: a nonzero log of a float64 probability lies in [-745, -2**-53],
    so no float32 term is subnormal, a finite path sum of under 10**35
    terms does not overflow, and -inf comes only from log 0, so a score is
    -inf in float32 exactly where it is in float64.

    Let b be a window's best float32 score and r the runner-up. If
    b - r > kappa * (|b| + |r|), that is b > r * q with
    q = (1 - kappa) / (1 + kappa), then b's class has a float64 score of at
    least b * (1 + kappa) and every other class at most r * (1 - kappa), so
    the float64 label is b's. The test runs in float64 on the float32
    scores, where only q and the product r * q are rounded: a relative
    error of 5 * 2**-53 at most, far inside the slack of 2*width * 2**-24
    in kappa. So a window is in doubt when r * q >= b, which holds for
    every exact tie, also of two scores of 0.0, so that :data:`TIE_BREAK`
    decides ties in float64. A finite b against an r of -inf is proven. A
    b of -inf is proven too: all three float64 scores are then -inf and the
    label is 'H' at either precision. No product is NaN, since q is finite
    and positive. From 4 * width * 2**-24 >= 1/4 (width >= 2**20) on, the
    bound is not used and every window is in doubt."""
    if 4 * width * _U32 >= 0.25:
        return np.ones(len(first), dtype=bool)
    g32 = _gamma(4 * width, _U32)
    kappa = (g32 + _gamma(2 * width, _U64)) / (1 - g32)
    high = np.maximum(first, second)
    best = np.maximum(high, third)
    runner = np.maximum(np.minimum(first, second), np.minimum(high, third))
    return ((runner * np.float64((1 - kappa) / (1 + kappa)) >= best)
            & (best > -math.inf))


def _window_scores(log_init: np.ndarray, log_trans: np.ndarray,
                   log_emit: np.ndarray, symbols: np.ndarray,
                   width: int) -> np.ndarray:
    """Best-path log score of every ``width``-symbol window of the 1-D
    integer run ``symbols``: entry ``s`` scores ``symbols[s:s + width]``.
    It is the max-product recursion of :func:`viterbi` without the
    backtrace, run on all windows at once in the dtype of ``log_emit``. In
    float64 every score equals ``viterbi(...).log_prob`` bit for bit.

    Each state's emissions are gathered once per symbol, and step ``t`` of
    every window adds the contiguous slice ``emit[j][t:t + m]`` of them, so
    no window array is built. ``delta`` holds one contiguous (m,) vector per
    state, and each step takes each target state's maximum over its
    predecessors as ``np.maximum`` over those vectors.

    A step allocates nothing: the initial and transition log parameters
    become 0-d arrays of the kernel's dtype once per call, and every add and
    maximum writes into a ``new`` vector per state or one ``tmp``, allocated
    per call; ``delta`` and ``new`` swap after each step. The 0-d operands
    must have the kernel's dtype: a float64 one would turn a float32 add
    into a float64 add, and a Python float costs more per add. This is
    exact because it makes the same additions in the same order as a plain
    allocating recursion, ``max`` returns one of its inputs, and the buffers
    live for one call only, so the result shares memory with no input and
    no other call."""
    dtype = log_emit.dtype
    m = len(symbols) - width + 1
    states = range(len(log_init))
    # Local names for what the step loop looks up on every ufunc call: on
    # a few thousand windows the lookups cost about a tenth of the kernel.
    add, maximum, rest = np.add, np.maximum, states[1:]
    init = [np.array(v, dtype) for v in log_init]
    trans = [[np.array(v, dtype) for v in row] for row in log_trans]
    emit = [log_emit[j].take(symbols) for j in states]
    delta = [add(init[j], emit[j][:m]) for j in states]
    new = [np.empty(m, dtype) for _ in states]
    tmp = np.empty(m, dtype)
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


def _label_windows(screen: list, exact: list, residues: str, width: int
                   ) -> bytes:
    """The :data:`TIE_BREAK` label of every ``width``-residue window of
    ``residues``, given each label's log parameters in that order, as
    float32 copies (``screen``) and in float64 (``exact``). Every window is
    scored in float32, and the windows :func:`_window_doubt` leaves in
    doubt are scored again in float64 with one kernel call per class: on a
    run of their symbols, ``width`` per window, of which every
    ``width``-th score is kept, or on the whole slice when that run would
    be longer, so the float64 pass never scores more than the slice."""
    symbols = encode_residues(residues)
    scores = [_window_scores(*p, symbols, width) for p in screen]
    labels = _first_max(*scores)
    doubt = np.flatnonzero(_window_doubt(*scores, width))
    if len(doubt):
        if len(doubt) * width < len(symbols):
            run = symbols[(doubt[:, None] + np.arange(width)).ravel()]
            keep = slice(None, None, width)
        else:
            run, keep = symbols, doubt
        labels[doubt] = _first_max(
            *[_window_scores(*p, run, width)[keep] for p in exact])
    return _TIE_BREAK_BYTES[labels].tobytes()


def predict_structures(models: ClassModelSet, sequences: Iterable[str],
                       half_width: int = 5, boundary_label: str = "C"
                       ) -> list[str]:
    """Predict a per-residue label string for each of ``sequences``.

    Every position with a complete window of 2*half_width+1 residues gets
    the class whose model scores its window highest; equal scores go to the
    label first in :data:`TIE_BREAK`, so a window every model scores -inf is
    'H'. The first and last ``half_width`` positions (which have no complete
    window) receive ``boundary_label``, and so does every position of a
    sequence shorter than one window. Each output has one label per residue
    of ``fold_residues(sequence)``, which drops whitespace. ``sequences``
    must hold strings; a bare ``str`` raises :class:`TypeError`.

    The folded sequences with a complete window are joined into one residue
    string, whose window ``s`` is centered on its residue ``s + half_width``,
    and its windows are scored in slices of :data:`CHUNK_WINDOWS`, one pass
    per class model over every window of a slice; a window that spans two
    sequences is scored and its label dropped. Memory is a few bytes per
    input residue plus one slice's scoring arrays.
    """
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    if boundary_label not in tuple(CLASS_ORDER):  # one letter, not a substring
        raise ValueError(f"boundary_label must be one of {CLASS_ORDER!r}")
    if isinstance(sequences, str):
        raise TypeError("sequences must be an iterable of str, not a str")
    exact = [_log_params(models[label]) for label in TIE_BREAK]
    screen = [[a.astype(np.float32) for a in p] for p in exact]
    folded = [fold_residues(sequence) for sequence in sequences]
    if not all(folded):
        raise EmptySequence("residue sequence is empty")
    width = 2 * half_width + 1
    residues = "".join(f for f in folded if len(f) >= width)
    labels = bytearray()
    for start in range(0, len(residues) - width + 1, CHUNK_WINDOWS):
        labels += _label_windows(
            screen, exact, residues[start:start + CHUNK_WINDOWS + width - 1],
            width)
    text = labels.decode("ascii")
    out = []
    offset = 0  # where each joined sequence's windows start in ``text``
    for f in folded:
        if len(f) < width:
            out.append(boundary_label * len(f))
        else:
            margin = boundary_label * half_width  # half_width < len(f) here
            out.append(margin + text[offset:offset + len(f) - width + 1]
                       + margin)
            offset += len(f)
    return out


def predict_structure(models: ClassModelSet, sequence: str,
                      half_width: int = 5, boundary_label: str = "C") -> str:
    """Predict a per-residue label string for one ``sequence``: the
    one-sequence form of :func:`predict_structures`, with the same labels,
    tie-break and errors."""
    labels, = predict_structures(models, [sequence], half_width,
                                 boundary_label)
    return labels
