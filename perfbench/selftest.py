"""Small-size tests of the benchmark itself.

    python3 perfbench/selftest.py

They show that corrupted prediction and model files count as failed
operations, that windows every model scores -inf are counted, that a run on a
seed not used while the benchmark was written passes on every workload, that
the tracer leaves no wrapper behind, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402

run.cap_threads()

import ssph.cli  # noqa: E402
import ssph.io  # noqa: E402
import ssph.synthetic  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Sizes(
    model_chains=12, model_length=60, model_iters=2, proteome_chains=6,
    proteome_max=120, check_windows=64, train_chains=6, train_length=40,
    train_iters=3, cold_records=2, cold_length=40)
UNSEEN_SEED = 424242


def small_run(name, seed=7, trace=0):
    with contextlib.redirect_stderr(io.StringIO()):
        return run.run_workload(name, seed, 0, trace, 0.0, sizes=SMALL,
                                emit=lambda line: None)


@contextlib.contextmanager
def after_command(command, corrupt):
    """Make every in-process ``ssph <command>`` call ``corrupt(argv)`` once
    the real command has returned."""
    real = ssph.cli.main

    def patched(argv=None):
        code = real(argv)
        if argv and argv[0] == command:
            corrupt(argv)
        return code

    ssph.cli.main = patched
    try:
        yield
    finally:
        ssph.cli.main = real


def edit_output(argv, edit):
    path = Path(argv[argv.index("--out") + 1])
    path.write_text(edit(path.read_text()))


def rotate_interior_labels(text):
    """H->E->C->H everywhere but the boundary positions, so only the
    reference scorer can catch it."""
    table = str.maketrans("HEC", "ECH")
    w = workloads.HALF_WIDTH
    return "".join(
        line if line.startswith(">") or len(line) <= 2 * w + 1
        else line[:w] + line[w:-w - 1].translate(table) + line[-w - 1:]
        for line in text.splitlines(keepends=True))


def first_label_to_helix(text):
    lines = text.splitlines(keepends=True)
    lines[1] = "H" + lines[1][1:]
    return "".join(lines)


def swap_emissions(text):
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("emission"))
    fields = lines[row].split()
    fields[1], fields[2] = fields[2], fields[1]
    lines[row] = " ".join(fields) + "\n"
    return "".join(lines)


class CorruptedOutputsFail(unittest.TestCase):

    def assert_all_failed(self, result):
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])

    def test_prediction_with_wrong_labels(self):
        with after_command("predict",
                           lambda argv: edit_output(argv, rotate_interior_labels)):
            self.assert_all_failed(small_run("predict-proteome"))

    def test_prediction_with_wrong_boundary_label(self):
        with after_command("predict",
                           lambda argv: edit_output(argv, first_label_to_helix)):
            self.assert_all_failed(small_run("predict-proteome"))

    def test_trained_model_with_swapped_probabilities(self):
        with after_command("train",
                           lambda argv: edit_output(argv, swap_emissions)):
            result = small_run("train-windows")
        self.assert_all_failed(result)

    def test_truncated_trained_model(self):
        with after_command("train", lambda argv: edit_output(
                argv, lambda text: text[:len(text) // 2])):
            self.assert_all_failed(small_run("train-windows"))

    def test_prediction_model_that_does_not_parse(self):
        real_execute = workloads.PredictProteome.execute

        def execute(self_, ctx, index, tracer_=None):
            ctx["model"].write_text("SSPH-HMM v1\nnot a model\n")
            return real_execute(self_, ctx, index, tracer_)

        workloads.PredictProteome.execute = execute
        try:
            self.assert_all_failed(small_run("predict-proteome"))
        finally:
            workloads.PredictProteome.execute = real_execute


class NegInfWindows(unittest.TestCase):

    def test_counted_from_the_reference_sample(self):
        # The planted models emit each class only from its own residues, so
        # a window that spans two classes is impossible under all three.
        workload = workloads.PredictProteome(7, SMALL)
        directory = run.WORK / "neginf"
        directory.mkdir(parents=True)
        try:
            ctx = workload.setup(directory)
            ssph.io.write_models(ssph.synthetic.planted_models(),
                                 ctx["model"])
            op = workload.execute(ctx, 0)
            workload.check(ctx, op)
        finally:
            shutil.rmtree(directory)
            with contextlib.suppress(OSError):
                run.WORK.rmdir()
        self.assertGreater(op.values["all_neginf_windows"], 0)
        self.assertFalse(any("reference scorer" in p for p in op.problems))


class UnseenSeedPasses(unittest.TestCase):

    def test_every_workload_untraced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = small_run(name, seed=UNSEEN_SEED)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
                for key, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, key)

    def test_every_workload_traced(self):
        originals = {(m, a): getattr(sys.modules[m], a)
                     for m, a, _, _ in tracer.WRAP_TABLE}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = small_run(name, seed=UNSEEN_SEED, trace=1)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
                values = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(values["hmm.sequence_score.calls"],
                                 3 * values["predictor.windows"])
                if name == "train-windows":
                    self.assertGreater(values["hmm.baum_welch.iterations"], 0)
                    self.assertEqual(values["predictor.windows"], 0)
                else:
                    self.assertGreater(values["predictor.windows"], 0)
                    self.assertEqual(values["hmm.baum_welch.iterations"], 0)
        for (module, attr), original in originals.items():
            self.assertIs(getattr(sys.modules[module], attr), original)


class NeedsSources(unittest.TestCase):

    def test_exits_nonzero_without_sources(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "predict-proteome", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            with contextlib.suppress(OSError):
                run.WORK.rmdir()
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(ValueError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
