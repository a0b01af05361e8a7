"""The compiled window kernel: ``_kernel.c``, the C form of
``predictor._window_scores``, built on first use with the C compiler Python
was built with and called through ctypes.

:func:`load` builds ``_kernel-<key>.so`` beside the source, where the key
is a CRC-32 of the C bytes and the compile command, and every later call,
in any process, loads that file. The build writes a temp file and renames
it, so a reader never sees part of a library and concurrent builds each
land a whole one. Where the library cannot be built or loaded, :func:`load`
returns None and the predictor scores with the numpy kernel."""

from __future__ import annotations

import ctypes
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
    """The kernel in the shared library at ``library``: called with the
    arguments of ``predictor._window_scores``, in float64, it returns the
    same bytes. Each call gathers every state's emissions of the run once,
    and the C scores the windows into a new array."""

    def __init__(self, library: Path) -> None:
        self.library = library
        scores = ctypes.CDLL(str(library)).window_scores
        scores.argtypes = [ctypes.c_ssize_t] * 3 + [ctypes.c_void_p] * 4
        scores.restype = ctypes.c_int
        self._scores = scores

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


def library(source: Path, cc: str) -> Path:
    """The shared library of the C kernel ``source`` built by the compiler
    command ``cc``, built first if it does not exist yet. Raises
    :class:`OSError` where the build fails."""
    command = [*cc.split(), *CFLAGS]
    key = zlib.crc32(source.read_bytes() + " ".join(command).encode())
    target = source.with_name(f"_kernel-{key:08x}.so")
    if not target.exists():
        import subprocess  # only a build needs it

        fd, temp = tempfile.mkstemp(prefix="_kernel-", suffix=".so",
                                    dir=source.parent)
        os.close(fd)
        try:
            built = subprocess.run([*command, "-o", temp, str(source)],
                                   capture_output=True)
            if built.returncode:
                raise OSError(f"{' '.join(command)} exited "
                              f"{built.returncode}: {built.stderr!r}")
            os.chmod(temp, 0o755)  # mkstemp made it private to its owner
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
    return target


def load(source: Path = SOURCE, cc: str | None = None) -> Kernel | None:
    """The kernel built from ``source`` with the compiler command ``cc``
    (by default the one Python was built with), or None where it cannot be
    built or loaded."""
    cc = cc or sysconfig.get_config_var("CC")
    if not cc:
        return None
    try:
        return Kernel(library(source, cc))
    except OSError:
        return None
