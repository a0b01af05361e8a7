"""The compiled kernels (``src/ssph/_kernel.c``): the window kernel's scores
are the numpy kernel's float64 bytes, and the E-step's likelihoods and
counts are its numpy form's bytes, with the library built for each SIMD
target this CPU has; the build falls back to the numpy kernels, tries a
failed build once per source and command, and lands one whole library when
processes race; and the command line writes the same bytes under the numpy
kernels as under the compiled ones."""

import hashlib
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (UNREACHABLE_TRANSITIONS, kernel_in_use, kernels,
                     model_and_run, near_tied_params, random_model,
                     random_model_with_zeros, sample_batch, underflowing_hmm,
                     unreachable_state_hmm)
from ssph import (FastaRecord, Hmm, _ckernel, format_fasta,
                  format_label_records, format_labeled_dataset, hmm,
                  planted_dataset, planted_models, predict_structures)
from ssph.cli import main
from ssph.hmm import E_STEP_BLOCK, _EStep, _log_params, _window_scores

SRC = Path(hmm.__file__).resolve().parents[1]


def compiled_kernel():
    """The kernel ``hmm._load_kernel`` gives; skips the test on a host
    where the compiled one cannot be built."""
    kernel = hmm._load_kernel()
    if kernel is hmm._NUMPY_KERNEL:
        pytest.skip("the compiled kernels cannot be built here")
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
    # its failure marker beside the source and no temp file.
    source = tmp_path / "_kernel.c"
    shutil.copy(_ckernel.SOURCE, source)
    kernel = hmm._load_kernel(source, str(tmp_path / cc)
                              if cc.startswith("no-") else cc)
    assert kernel is hmm._NUMPY_KERNEL
    marker, rest = sorted(os.listdir(tmp_path))
    assert re.fullmatch(r"_kernel-[0-9a-f]{8}\.failed", marker)
    assert rest == "_kernel.c"
    assert labels_with(kernel) == labels_with(compiled_kernel())


def logging_compiler(tmp_path, ending):
    """A copy of the kernel source, and a compiler command that appends a
    line to the returned log on each run and then runs the shell line
    ``ending``."""
    source = tmp_path / "src" / "_kernel.c"
    source.parent.mkdir()
    shutil.copy(_ckernel.SOURCE, source)
    runs = tmp_path / "runs"
    cc = tmp_path / "cc"
    cc.write_text(f"#!/bin/sh\necho run >> '{runs}'\n{ending}\n")
    cc.chmod(0o755)
    return source, str(cc), runs


def load_in_a_new_process(source, cc):
    """:func:`_ckernel.load` as a new process makes it, with no result kept
    from earlier calls in this one."""
    _ckernel.load.cache_clear()
    return _ckernel.load(source, cc)


def test_a_failed_build_runs_the_compiler_once_per_command(tmp_path):
    # A compiler that logs each run and fails. A second load with the same
    # command and source does not run it, in this process or a new one;
    # deleting the marker, or another command, builds again.
    source, cc, runs = logging_compiler(tmp_path, "exit 1")
    for _ in range(2):
        assert load_in_a_new_process(source, cc) is None
        assert hmm._load_kernel(source, cc) is hmm._NUMPY_KERNEL
    assert runs.read_text() == "run\n"
    [marker] = source.parent.glob("_kernel-*.failed")
    marker.unlink()
    assert load_in_a_new_process(source, cc) is None
    assert _ckernel.load(source, f"{cc} -O2") is None
    assert runs.read_text() == "run\n" * 3
    assert len(list(source.parent.glob("_kernel-*.failed"))) == 2


def test_a_compiler_killed_by_a_signal_leaves_no_failure_marker(tmp_path):
    # A kill need not come again, so the build falls back without a marker
    # or a temp file, and the next process runs the compiler again.
    source, cc, runs = logging_compiler(tmp_path, "kill -KILL $$")
    for _ in range(2):
        assert load_in_a_new_process(source, cc) is None
    assert hmm._load_kernel(source, cc) is hmm._NUMPY_KERNEL
    assert runs.read_text() == "run\n" * 2
    assert os.listdir(source.parent) == ["_kernel.c"]


BUILD = """
import hashlib, sys
from pathlib import Path
from ssph import hmm
kernel = hmm._load_kernel(Path(sys.argv[1]))
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


# ----------------------------------------------------------------- E-step

def tiny_model(rng, num_states, alphabet_size):
    """A random model with about a third of its entries near 1e-300, so
    that its alphas and betas reach subnormal numbers and 0."""
    def rows(shape):
        u = rng.random(shape) + 1e-3
        u[rng.random(shape) < 0.35] *= 1e-300
        return u / u.sum(axis=-1, keepdims=True)

    return Hmm(initial=rows(num_states),
               transition=rows((num_states, num_states)),
               emission=rows((num_states, alphabet_size)))


@st.composite
def e_step_inputs(draw):
    """A model and a (batch, length) batch of its sequences: random models
    of 1 to 8 states over 1, 2, 5 or 21 symbols, with or without zero
    entries or with entries near 1e-300, an unreachable-state model, or
    the underflowing model on 0/1 runs, most of which it gives
    probability 0; lengths 1 to 30; batches of 1, 2, 7, E_STEP_BLOCK - 1,
    E_STEP_BLOCK, E_STEP_BLOCK + 1 and several blocks of windows."""
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2**32 - 1)))
    source = draw(st.sampled_from(["random", "zeros", "tiny", "unreachable",
                                   "underflowing"]))
    length = draw(st.sampled_from(range(1, 31)))
    batch = draw(st.sampled_from([1, 2, 7, E_STEP_BLOCK - 1, E_STEP_BLOCK,
                                  E_STEP_BLOCK + 1, 3 * E_STEP_BLOCK + 5]))
    if source == "underflowing":
        symbols = (rng.random((batch, length)) < 0.02).astype(np.intp)
        return underflowing_hmm(), symbols
    if source == "unreachable":
        model = unreachable_state_hmm(
            draw(st.sampled_from(UNREACHABLE_TRANSITIONS)))
    else:
        make = {"random": random_model, "zeros": random_model_with_zeros,
                "tiny": tiny_model}[source]
        model = make(rng, draw(st.sampled_from(range(1, 9))),
                     draw(st.sampled_from([1, 2, 5, 21])))
    return model, sample_batch(rng, model, batch, length)


def e_step_bytes(kernel, model, symbols):
    """The bytes of forward's log-likelihood, alphas and scale factors
    under ``kernel``, and of the three counts where the likelihood is
    finite."""
    with kernel_in_use(kernel):
        e_step = _EStep(model, symbols)
    ll = e_step.forward(model)
    arrays = [batch.alpha for batch in e_step._work]
    arrays += [batch.scale for batch in e_step._work]
    if ll > -math.inf:
        arrays += e_step.counts()
    return np.float64(ll).tobytes(), [a.tobytes() for a in arrays]


def assert_same_e_step(kernel, model, symbols):
    assert (e_step_bytes(kernel, model, symbols)
            == e_step_bytes(hmm._NUMPY_KERNEL, model, symbols))


@given(e_step_inputs())
@settings(max_examples=200, deadline=None)
def test_property_compiled_e_step_gives_the_numpy_e_step_bytes(case):
    assert_same_e_step(compiled_kernel(), *case)


def test_compiled_e_step_gives_the_numpy_e_step_bytes_over_mixed_lengths():
    # Several batches, one per length, whose counts add in length order.
    rng = np.random.default_rng(31)
    model = random_model_with_zeros(rng, 3, 21)
    symbols = [row for length in (1, 11, 4, 11, 30)
               for row in sample_batch(rng, model, 300, length)]
    assert_same_e_step(compiled_kernel(), model, symbols)


@pytest.mark.parametrize("transition", UNREACHABLE_TRANSITIONS)
def test_compiled_e_step_gives_the_numpy_e_step_bytes_where_beta_overflows(
        transition):
    # Without the mask an unreachable state's beta grows by 10.5 or 21 per
    # step and overflows within 400 steps; 0 * inf would then be NaN. The
    # batch spans a block edge.
    model = unreachable_state_hmm(transition)
    symbols = np.zeros((E_STEP_BLOCK + 3, 400), dtype=np.intp)
    symbols[::2, 1::3] = 1
    assert_same_e_step(compiled_kernel(), model, symbols)


def test_compiled_e_step_rejects_arguments_that_do_not_fit():
    kernel = compiled_kernel()
    rng = np.random.default_rng(8)
    model = random_model(rng, 2, 4)
    e_step = _EStep(model, rng.integers(0, 4, size=(5, 3)))
    [batch] = e_step._work
    kernel.forward(model, batch)
    for call in (kernel.forward, kernel.counts):
        with pytest.raises(ValueError, match="do not fit"):
            call(random_model(rng, 3, 4), batch)
    # The C reads emissions by symbol, so the E-step refuses a model whose
    # alphabet differs from the one it checked the symbols against.
    for other in (random_model(rng, 2, 3), random_model(rng, 2, 5)):
        with pytest.raises(ValueError, match="checked against"):
            e_step.forward(other)
    batch.steps = batch.steps.astype(np.int32)
    with pytest.raises(ValueError, match="do not fit"):
        kernel.forward(model, batch)


@pytest.mark.parametrize("flag", TARGETS)
@given(case=e_step_inputs())
@settings(max_examples=60, deadline=None)
def test_property_each_target_build_gives_the_numpy_e_step_bytes(
        target_kernel, flag, case):
    assert_same_e_step(target_kernel(flag), *case)


# ----------------------------------------------------------- command line

def test_the_cli_writes_the_same_bytes_under_the_numpy_kernels(tmp_path,
                                                               capsys):
    # `ssph train`, `predict` and `eval --csv` run once as a host without a
    # compiler runs them, on the numpy window kernel and E-step, and once
    # on the compiled kernels: the model file, the predictions, both
    # reports and stdout have the same bytes.
    chains = planted_dataset(12, 60, seed=21, stay=0.9)
    data, fasta, truth = (tmp_path / name for name in
                          ("train.txt", "test.fa", "truth.txt"))
    data.write_text(format_labeled_dataset(chains[:9]), encoding="utf-8")
    fasta.write_text(format_fasta([FastaRecord(c.id, c.sequence)
                                   for c in chains[9:]]), encoding="utf-8")
    truth.write_text(format_label_records([(c.id, c.labels)
                                           for c in chains[9:]]),
                     encoding="utf-8")
    runs = {}
    for name, kernel in kernels():
        run = tmp_path / name
        run.mkdir()
        with kernel_in_use(kernel):
            assert main(["train", "--data", str(data), "--out",
                         str(run / "models.txt"), "--states", "3",
                         "--window", "3", "--iters", "5"]) == 0
            assert main(["predict", "--models", str(run / "models.txt"),
                         "--fasta", str(fasta), "--out",
                         str(run / "pred.txt"), "--window", "3"]) == 0
            assert main(["eval", "--pred", str(run / "pred.txt"),
                         "--truth", str(truth), "--window", "3", "--out",
                         str(run / "report.txt"), "--csv",
                         str(run / "report.csv")]) == 0
        runs[name] = ({path.name: path.read_bytes()
                       for path in sorted(run.iterdir())},
                      capsys.readouterr())
    files, _ = runs["numpy"]
    assert sorted(files) == ["models.txt", "pred.txt", "report.csv",
                             "report.txt"]
    assert runs["numpy"] == runs["compiled"]
