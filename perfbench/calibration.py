"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other machines, the same work can take
30% longer for minutes at a time. Before every timed step the benchmark
therefore times one fixed calibration kernel and scales the step by
``REFERENCE_S / kernel time``: the result is what the step would take on a
machine where the kernel takes ``REFERENCE_S``. The kernel is chosen to match
the step's dominant work, so both slow down together:

* ``interp``: a Python loop over tiny numpy arrays (a 3-state max-product
  recursion), like per-window Viterbi scoring;
* ``array``: log-sum-exp over a (3000, 3, 3) array, like a batched
  forward/backward step;
* ``spawn``: a fresh interpreter that imports numpy and exits, like the
  start-up of a cold command (process creation, file reads, loading shared
  libraries), which an in-process loop does not track.

Neither kernel touches ``ssph``, so a change to the program cannot change
them. Raw timings are reported alongside the scaled ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Typical kernel times on a lightly loaded 2-core Intel Xeon VM (Python 3.11,
# numpy 2.4); scaled timings are in seconds of that machine.
REFERENCE_S = {"interp": 0.015, "array": 0.017, "spawn": 0.15}

_rng = np.random.default_rng(0)
_log_trans = np.log(_rng.dirichlet(np.ones(3), size=3))
_log_emit = np.log(_rng.dirichlet(np.ones(21), size=3))
_obs = _rng.integers(0, 21, size=11)
_lattice = _rng.random((3000, 3, 3))
_states = np.arange(3)


def _interp() -> None:
    for _ in range(250):
        delta = _log_emit[:, _obs[0]].copy()
        for t in range(1, _obs.shape[0]):
            cand = delta[:, None] + _log_trans
            prev = np.argmax(cand, axis=0)
            delta = cand[prev, _states] + _log_emit[:, _obs[t]]


def _array() -> None:
    for _ in range(16):
        top = _lattice.max(axis=1, keepdims=True)
        np.log(np.exp(_lattice - top).sum(axis=1)) + top[:, 0]


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"],
                   stdout=subprocess.DEVNULL, check=True, timeout=60)


KERNELS = {"interp": _interp, "array": _array, "spawn": _spawn}


def measure(kind: str) -> float:
    """Seconds one run of the ``kind`` kernel takes right now."""
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start


def factor(kind: str) -> float:
    """Reference kernel time over the current one: a time measured now,
    multiplied by this, is the time on the reference machine (a rate is
    divided by it)."""
    return REFERENCE_S[kind] / measure(kind)
