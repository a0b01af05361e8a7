"""The compiled window kernel (``src/ssph/_kernel.c``): its scores are the
numpy kernel's float64 bytes, with the library built for each SIMD target
this CPU has, and its build falls back to the numpy kernel or lands one
whole library when processes race."""

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (kernel_in_use, model_and_run, near_tied_params,
                     random_model, random_model_with_zeros)
from ssph import (_ckernel, planted_dataset, planted_models,
                  predict_structures, predictor)
from ssph.hmm import _log_params
from ssph.predictor import _window_scores

SRC = Path(predictor.__file__).resolve().parents[1]


def compiled_kernel():
    """The kernel :func:`_load_kernel` gives; skips the test on a host
    where the compiled one cannot be built."""
    kernel = predictor._load_kernel()
    if kernel is _window_scores:
        pytest.skip("the compiled window kernel cannot be built here")
    return kernel


@st.composite
def kernel_inputs(draw):
    """Float64 log parameters, a symbol run and a window width: random
    models of 1 to 8 states, with or without zero entries (-inf logs), a
    leak-0 planted class model, or one class of a near-tied set; widths 1
    to 81 (half-widths 1 to 40 and the even widths between); and a few
    windows, or 511, 512, 513 and 8192, across the kernel's 512-window
    blocks."""
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2**32 - 1)))
    source = draw(st.sampled_from(["random", "zeros", "planted", "tied"]))
    if source == "planted":
        params = _log_params(planted_models(0.0)[draw(st.sampled_from("HEC"))])
    elif source == "tied":
        params = draw(near_tied_params())[draw(st.integers(0, 2))]
    else:
        make = random_model if source == "random" else random_model_with_zeros
        params = _log_params(make(rng, draw(st.sampled_from(range(1, 9))),
                                  draw(st.sampled_from([1, 2, 5, 21]))))
    # sampled_from draws evenly, where integers() favours small values.
    width = draw(st.sampled_from(range(1, 82)))
    windows = draw(st.sampled_from([1, 2, 3, 7, 40, 511, 512, 513, 8192]))
    symbols = rng.integers(0, params[2].shape[1], size=windows + width - 1)
    return params, symbols, width


def assert_same_scores(kernel, params, symbols, width):
    scores = kernel(*params, symbols, width)
    assert scores.dtype == np.float64
    assert scores.tobytes() == _window_scores(*params, symbols, width).tobytes()


@given(kernel_inputs())
@settings(max_examples=300, deadline=None)
def test_property_compiled_kernel_gives_the_numpy_kernel_bytes(case):
    assert_same_scores(compiled_kernel(), *case)


@given(model_and_run())
@settings(max_examples=100, deadline=None)
def test_property_compiled_kernel_gives_the_numpy_kernel_bytes_at_every_width(
        case):
    model, symbols = case
    params = _log_params(model)
    for width in range(1, len(symbols) + 1):
        assert_same_scores(compiled_kernel(), params, symbols, width)


# One library per SIMD target this CPU runs, built without the per-CPU
# dispatch, so each target's loop is tested where the dispatch would pick
# another: flag, and the CPU flag it needs. The CPU's flags come from
# /proc/cpuinfo, not from numpy, whose feature table can follow the
# dispatch that NPY_DISABLE_CPU_FEATURES limits.
def cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="ascii")
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


X86 = platform.machine().lower() in ("x86_64", "amd64")
TARGETS = [pytest.param(flag, id=flag.lstrip("-"), marks=pytest.mark.skipif(
               not X86 or (needs and needs not in cpu_flags()),
               reason=f"this CPU does not run {flag} code"))
           for flag, needs in (("-march=x86-64", None), ("-mavx2", "avx2"),
                               ("-mavx512f", "avx512f"))]


@pytest.fixture(scope="module")
def target_kernel(tmp_path_factory):
    """A function from a target flag to the compiled kernel built for that
    target alone, each built once."""
    compiled_kernel()
    directory = tmp_path_factory.mktemp("targets")
    kernels = {}

    def build(flag):
        if flag not in kernels:
            library = directory / f"{flag.lstrip('-')}.so"
            subprocess.run([*sysconfig.get_config_var("CC").split(),
                            *_ckernel.CFLAGS, "-DKERNEL_ONE_TARGET", flag,
                            "-o", str(library), str(_ckernel.SOURCE)],
                           check=True)
            kernels[flag] = _ckernel.Kernel(library)
        return kernels[flag]

    return build


@pytest.mark.parametrize("flag", TARGETS)
@given(case=kernel_inputs())
@settings(max_examples=60, deadline=None)
def test_property_each_target_build_gives_the_numpy_kernel_bytes(
        target_kernel, flag, case):
    assert_same_scores(target_kernel(flag), *case)


def test_compiled_kernel_rejects_arguments_that_do_not_fit():
    kernel = compiled_kernel()
    init, trans, emit = _log_params(random_model(np.random.default_rng(5),
                                                 2, 4))
    symbols = np.arange(4)
    for args in ((init, trans[:1], emit, symbols, 2),
                 (init, trans, emit[:1], symbols, 2),
                 (init, trans, emit, symbols, 0),
                 (init, trans, emit, symbols, 5)):
        with pytest.raises(ValueError, match="do not fit"):
            kernel(*args)


def labels_with(kernel):
    chains = [c.sequence for c in planted_dataset(6, 150, seed=12)]
    with kernel_in_use(kernel):
        return predict_structures(planted_models(0.05), chains, 3)


@pytest.mark.parametrize("cc", ["no-such-compiler", "false"])
def test_a_failed_build_falls_back_to_the_numpy_kernel(tmp_path, cc):
    # A compiler that does not exist, and one that exits with an error:
    # the numpy kernel scores, with the same labels, and the build leaves
    # no temp file beside the source.
    source = tmp_path / "_kernel.c"
    shutil.copy(_ckernel.SOURCE, source)
    kernel = predictor._load_kernel(source, str(tmp_path / cc)
                                    if cc.startswith("no-") else cc)
    assert kernel is _window_scores
    assert os.listdir(tmp_path) == ["_kernel.c"]
    assert labels_with(kernel) == labels_with(compiled_kernel())


BUILD = """
import hashlib, sys
from pathlib import Path
from ssph import predictor
kernel = predictor._load_kernel(Path(sys.argv[1]))
print(kernel.library, hashlib.sha256(kernel.library.read_bytes()).hexdigest())
"""


def test_concurrent_builds_load_the_same_library(tmp_path):
    # Two processes build into one fresh directory at once. Each renames a
    # whole library into place, so both load one path with the same bytes,
    # and no temp file is left.
    compiled_kernel()
    source = tmp_path / "_kernel.c"
    shutil.copy(_ckernel.SOURCE, source)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    children = [subprocess.Popen([sys.executable, "-c", BUILD, str(source)],
                                 stdout=subprocess.PIPE, env=env, text=True)
                for _ in range(2)]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    (path, digest), = {tuple(out.split()) for out in outputs}
    library = Path(path)
    assert library.parent == tmp_path
    assert set(os.listdir(tmp_path)) == {"_kernel.c", library.name}
    assert hashlib.sha256(library.read_bytes()).hexdigest() == digest
