"""Building and loading the compiled kernels of ``_kernel.c``, called
through ctypes; :mod:`ssph.hmm` chooses between them and its numpy kernels.

:func:`load` builds ``_kernel-<key>.so`` beside the source, where the key
is a CRC-32 of the C bytes and the compile command, and every later call,
in any process, loads that file. The build writes a temp file and renames
it, so a reader never sees part of a library and concurrent builds each
land a whole one. A build that will fail again, where the compiler is not
found or exits with an error, leaves ``_kernel-<key>.failed`` in its
place, so later calls with the same source and command fail at once
instead of running the compiler again; deleting that file retries. Other
failures, a compiler killed by a signal or a full disk, leave no marker.
Where the library cannot be built or loaded, :func:`load` returns None."""

from __future__ import annotations

import ctypes
import functools
import os
import sysconfig
import tempfile
import zlib
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
# The flags of every build: never -ffast-math or -Ofast, which would let the
# compiler reorder the kernel's adds.
CFLAGS = ["-O3", "-ffp-contract=off", "-shared", "-fPIC"]


class Kernel:
    """The kernels in the shared library at ``library``. Called with the
    arguments of ``hmm._window_scores``, in float64, it returns the
    same bytes: each call gathers every state's emissions of the run once,
    and the C scores the windows into a new array. :meth:`forward` and
    :meth:`counts` are the E-step of ``hmm._EStep``, with the bytes of its
    numpy form."""

    def __init__(self, library: Path) -> None:
        self.library = library
        lib = ctypes.CDLL(str(library))
        size, pointer = ctypes.c_ssize_t, ctypes.c_void_p
        self._scores = lib.window_scores
        self._scores.argtypes = [size] * 3 + [pointer] * 4
        self._scores.restype = ctypes.c_int
        self._forward = lib.estep_forward
        self._forward.argtypes = [size] * 4 + [pointer] * 6
        self._forward.restype = None
        self._counts = lib.estep_counts
        self._counts.argtypes = [size] * 4 + [pointer] * 8
        self._counts.restype = ctypes.c_int

    def __call__(self, log_init: np.ndarray, log_trans: np.ndarray,
                 log_emit: np.ndarray, symbols: np.ndarray, width: int
                 ) -> np.ndarray:
        init = np.ascontiguousarray(log_init, np.float64)
        trans = np.ascontiguousarray(log_trans, np.float64)
        n, m = len(init), len(symbols) - width + 1
        if trans.shape != (n, n) or len(log_emit) != n or width < 1 or m < 1:
            raise ValueError("window kernel arguments do not fit together")
        emit = np.asarray(log_emit, np.float64).take(symbols, axis=1)
        scores = np.empty(m)
        if self._scores(n, width, m, init.ctypes.data, trans.ctypes.data,
                        emit.ctypes.data, scores.ctypes.data):
            raise MemoryError("the window kernel found no memory for its "
                              "buffers")
        return scores

    @staticmethod
    def _sizes(model, batch) -> tuple[int, int, int, int]:
        """States, symbols, length and batch of an E-step call, after a
        check that every array is what the C reads: C-contiguous float64
        model arrays, alphas and scale factors, and intp symbols, of shapes
        that fit together. Symbols must also lie within the alphabet, which
        ``hmm._EStep`` checks once for all the calls it makes."""
        n, m = model.emission.shape
        steps = batch.steps
        shapes = ((model.initial, (n,)), (model.transition, (n, n)),
                  (model.emission, (n, m)), (batch.alpha, (n, *steps.shape)),
                  (batch.scale, steps.shape))
        if (steps.dtype != np.intp or not steps.flags.c_contiguous
                or any(a.dtype != np.float64 or a.shape != shape
                       or not a.flags.c_contiguous for a, shape in shapes)):
            raise ValueError("E-step kernel arguments do not fit together")
        return n, m, *steps.shape

    def forward(self, model, batch) -> None:
        """The scaled forward pass of ``model`` over the (length, batch)
        symbols ``batch.steps``, into ``batch.alpha`` and ``batch.scale``."""
        self._forward(*self._sizes(model, batch), model.initial.ctypes.data,
                      model.transition.ctypes.data,
                      model.emission.ctypes.data, batch.steps.ctypes.data,
                      batch.alpha.ctypes.data, batch.scale.ctypes.data)

    def counts(self, model, batch
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The backward pass over the lattices the last :meth:`forward`
        left in ``batch``, and the batch's expected start counts, transition
        sums (before the transition probabilities multiply them) and
        emission counts."""
        sizes = self._sizes(model, batch)
        n, m = sizes[:2]
        start, moves, emitted = np.empty(n), np.empty((n, n)), np.zeros((n, m))
        if self._counts(*sizes, model.transition.ctypes.data,
                        model.emission.ctypes.data, batch.steps.ctypes.data,
                        batch.alpha.ctypes.data, batch.scale.ctypes.data,
                        start.ctypes.data, moves.ctypes.data,
                        emitted.ctypes.data):
            raise MemoryError("the E-step kernel found no memory for its "
                              "buffers")
        return start, moves, emitted


def library(source: Path, cc: str) -> Path:
    """The shared library of the C kernel ``source`` built by the compiler
    command ``cc``, built first if it does not exist yet. Raises
    :class:`OSError` where the build fails, now or in an earlier call that
    left its failure marker."""
    command = [*cc.split(), *CFLAGS]
    key = zlib.crc32(source.read_bytes() + " ".join(command).encode())
    target = source.with_name(f"_kernel-{key:08x}.so")
    failed = target.with_suffix(".failed")
    if not target.exists():
        if failed.exists():
            raise OSError(f"{' '.join(command)} failed before; delete "
                          f"{failed} to build again")
        import subprocess  # only a build needs it

        fd, temp = tempfile.mkstemp(prefix="_kernel-", suffix=".so",
                                    dir=source.parent)
        os.close(fd)
        try:
            try:
                built = subprocess.run([*command, "-o", temp, str(source)],
                                       capture_output=True)
            except FileNotFoundError as error:
                failed.write_text(f"{error}\n", encoding="utf-8")
                raise
            if built.returncode:
                error = OSError(f"{' '.join(command)} exited "
                                f"{built.returncode}: {built.stderr!r}")
                if built.returncode > 0:  # not killed by a signal
                    failed.write_text(f"{error}\n", encoding="utf-8")
                raise error
            os.chmod(temp, 0o755)  # mkstemp made it private to its owner
            os.replace(temp, target)
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
    return target


@functools.lru_cache(maxsize=None)
def load(source: Path = SOURCE, cc: str | None = None) -> Kernel | None:
    """The kernel built from ``source`` with the compiler command ``cc``
    (by default the one Python was built with), or None where it cannot be
    built or loaded. The result is kept for the process, so a build that
    fails without a marker runs its compiler once per process."""
    cc = cc or sysconfig.get_config_var("CC")
    if not cc:
        return None
    try:
        return Kernel(library(source, cc))
    except OSError:
        return None
