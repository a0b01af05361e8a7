"""The benchmark's three workloads.

Each workload has a set-up (timed, and repeated so its median is steady), an
operation that drives ``ssph.cli.main`` the way a user runs the command, and
a check of the operation's outputs against the benchmark's own reference
computations (``reference.py``). The program sees only the files the
benchmark writes from its seed.

* ``predict-proteome``: one ``ssph predict`` over a FASTA of planted chains
  whose lengths run from below one window to about 1000, then one
  ``ssph eval --csv`` against the truth. Almost all time is per-window
  Viterbi scoring; no EM runs.
* ``train-windows``: one ``ssph train --states 3`` on about 9k labelled
  windows. Almost all time is forward, backward and the E-step; no Viterbi.
* ``cli-cold``: one fresh interpreter running ``python -m ssph.cli predict``
  on a single 200-residue record. Almost all time is interpreter start and
  imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
import ssph.cli
import ssph.errors
import ssph.io
import ssph.synthetic

ROOT = Path(__file__).resolve().parent.parent
HALF_WIDTH = 5
BOUNDARY_LABEL = "C"
Q3_FLOOR = 0.6
LL_REL_TOL = 1e-8
PARAM_ABS_TOL = 1e-7
TIE_TOL = 1e-9
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Sizes:
    stay: float = 0.95          # label runs average 20 residues
    model_chains: int = 40      # training set behind the prediction model
    model_length: int = 100
    model_iters: int = 5
    proteome_chains: int = 12   # lengths spread geometrically min..max
    proteome_min: int = 4
    proteome_max: int = 1000
    check_windows: int = 256    # windows re-scored by the reference
    train_chains: int = 90      # 90 x (110 - 10) = 9000 windows
    train_length: int = 110
    train_iters: int = 5
    cold_records: int = 8
    cold_length: int = 200


FULL = Sizes()


class SetupError(RuntimeError):
    """The program failed while the benchmark was setting up its inputs."""


@dataclass
class Op:
    """One operation: its timings and values, the bytes it produced (which
    must repeat exactly across operations with the same key), and the
    problems its check found."""

    key: object = 0
    run: int | None = None      # tracer run id of a traced operation
    traced: bool = False
    values: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def derive(seed: int, tag: int) -> int:
    """An independent 32-bit seed for one input, derived from the run seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``ssph.cli.main`` in this process, looked up at call time so the
    tracer's wrapper is used when installed; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ssph.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def planted(num_chains: int, length: int, seed: int, stay: float):
    """(sequence, labels) pairs from ``ssph.synthetic.planted_dataset``."""
    chains = ssph.synthetic.planted_dataset(num_chains, length, seed=seed,
                                            stay=stay)
    return [(c.sequence, c.labels) for c in chains]


def write_fasta(path: Path, records) -> None:
    lines = []
    for rec_id, sequence in records:
        lines.append(f">{rec_id}")
        lines.extend(sequence[i:i + 60] for i in range(0, len(sequence), 60))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def label_text(records) -> str:
    return "".join(f">{rec_id}\n{labels}\n" for rec_id, labels in records)


def parse_label_text(text: str) -> list[tuple[str, str]]:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if len(lines) % 2 or any(not h.startswith(">") for h in lines[::2]):
        raise ValueError("not a two-line label file")
    return [(h[1:], labels) for h, labels in zip(lines[::2], lines[1::2])]


def read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def build_model(directory: Path, seed: int, sizes: Sizes) -> Path:
    """Train the prediction model as a user would: ``ssph train`` on a
    seeded planted training set."""
    data = directory / "model_train.txt"
    data.write_text("".join(
        f">m{i:04d}\n{seq}\n{labels}\n" for i, (seq, labels)
        in enumerate(planted(sizes.model_chains, sizes.model_length,
                             derive(seed, 1), sizes.stay))), encoding="utf-8")
    model = directory / "model.txt"
    code, _, err = run_cli([
        "train", "--data", str(data), "--out", str(model), "--states", "3",
        "--window", str(HALF_WIDTH), "--iters", str(sizes.model_iters),
        "--seed", str(derive(seed, 2) % 1000)])
    if code != 0:
        raise SetupError(f"ssph train exited {code}: {err.strip()}")
    return model


def q3_of(pairs) -> float:
    hits = total = 0
    for pred, truth in pairs:
        hits += sum(p == t for p, t in zip(pred, truth))
        total += len(truth)
    return hits / total


class Workload:
    name = ""
    kernel = "interp"           # calibration kernel matching the operation
    setup_kernel = "interp"     # and the one matching the set-up
    traces_in_process = True    # False: the operation runs in a child

    def __init__(self, seed: int, sizes: Sizes = FULL):
        self.seed = seed
        self.sizes = sizes

    def setup(self, directory: Path) -> dict:
        raise NotImplementedError

    def fingerprint(self, ctx: dict) -> bytes:
        """Bytes every repetition of the set-up must reproduce."""
        raise NotImplementedError

    def execute(self, ctx: dict, index: int, tracer=None) -> Op:
        raise NotImplementedError

    def check(self, ctx: dict, op: Op) -> None:
        raise NotImplementedError

    def peak_rss_mb(self, ctx: dict) -> float:
        """Peak RSS of the process that ran the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class PredictProteome(Workload):
    name = "predict-proteome"

    def lengths(self) -> list[int]:
        s = self.sizes
        ratio = (s.proteome_max / s.proteome_min) ** (1 / (s.proteome_chains - 1))
        return [round(s.proteome_min * ratio ** i)
                for i in range(s.proteome_chains)]

    def setup(self, directory):
        model = build_model(directory, self.seed, self.sizes)
        records = []
        for i, length in enumerate(self.lengths()):
            (sequence, labels), = planted(1, length, derive(self.seed, 100 + i),
                                          self.sizes.stay)
            records.append((f"q{i:03d}_len{length}", sequence, labels))
        order = np.random.default_rng(derive(self.seed, 3)).permutation(
            len(records))
        records = [records[i] for i in order]
        fasta, truth = directory / "proteome.fa", directory / "truth.txt"
        write_fasta(fasta, [(r[0], r[1]) for r in records])
        truth.write_text(label_text([(r[0], r[2]) for r in records]),
                         encoding="utf-8")
        return {"dir": directory, "model": model, "fasta": fasta,
                "truth": truth, "records": records,
                "residues": sum(len(r[1]) for r in records)}

    def fingerprint(self, ctx):
        return (ctx["model"].read_bytes() + ctx["fasta"].read_bytes()
                + ctx["truth"].read_bytes())

    def execute(self, ctx, index, tracer=None):
        pred, csv = ctx["dir"] / "pred.txt", ctx["dir"] / "report.csv"
        for path in (pred, csv):
            path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code_p, _, err_p = run_cli([
            "predict", "--models", str(ctx["model"]), "--fasta",
            str(ctx["fasta"]), "--out", str(pred), "--window", str(HALF_WIDTH)])
        t1 = time.perf_counter()
        code_e, report, err_e = run_cli([
            "eval", "--pred", str(pred), "--truth", str(ctx["truth"]),
            "--window", str(HALF_WIDTH), "--csv", str(csv)])
        t2 = time.perf_counter()
        op = Op(outputs={"pred": read_bytes(pred), "csv": read_bytes(csv),
                         "report": report.encode()})
        residues = ctx["residues"]
        op.values = {"predict_s": t1 - t0, "eval_s": t2 - t1, "op_s": t2 - t0,
                     "predict_residues_per_s": residues / (t1 - t0),
                     "eval_residues_per_s": residues / (t2 - t1)}
        if code_p:
            op.problems.append(f"predict exited {code_p}: {err_p.strip()}")
        if code_e:
            op.problems.append(f"eval exited {code_e}: {err_e.strip()}")
        return op

    def _reference_sample(self, ctx):
        """Seeded sample of complete windows with the reference scorer's
        three class scores; computed once per run."""
        if "sample" not in ctx:
            w = HALF_WIDTH
            spots = [(r, i) for r, rec in enumerate(ctx["records"])
                     for i in range(w, len(rec[1]) - w)]
            rng = np.random.default_rng(derive(self.seed, 4))
            picks = rng.choice(len(spots), min(self.sizes.check_windows,
                                               len(spots)), replace=False)
            spots = [spots[p] for p in sorted(picks)]
            windows = np.stack([
                ref.encode(ctx["records"][r][1][i - w:i + w + 1])
                for r, i in spots])
            models = ref.read_model_file(ctx["model"].read_text())
            scores = {c: ref.max_product_scores(models[c], windows)
                      for c in ref.CLASSES}
            ctx["sample"] = (spots, scores)
        return ctx["sample"]

    def check(self, ctx, op):
        if op.outputs["pred"] is None or op.outputs["csv"] is None:
            op.problems.append("predict or eval wrote no file")
            return
        try:
            predicted = parse_label_text(op.outputs["pred"].decode())
        except (UnicodeDecodeError, ValueError) as exc:
            op.problems.append(f"prediction file unreadable: {exc}")
            return
        records = ctx["records"]
        if [p[0] for p in predicted] != [r[0] for r in records]:
            op.problems.append("prediction ids differ from the FASTA ids")
            return
        w = HALF_WIDTH
        for (rec_id, labels), (_, sequence, _) in zip(predicted, records):
            n = len(sequence)
            if len(labels) != n or set(labels) - set("HEC"):
                op.problems.append(f"{rec_id}: bad label line")
                return
            if any(labels[i] != BOUNDARY_LABEL
                   for i in range(n) if i < w or i >= n - w):
                op.problems.append(f"{rec_id}: boundary position not "
                                   f"labelled {BOUNDARY_LABEL}")
        spots, scores = self._reference_sample(ctx)
        neginf = 0
        for k, (r, i) in enumerate(spots):
            h, e, c = (scores[x][k] for x in "HEC")
            if h == e == c == -math.inf:
                # No class can produce the window; which label it gets is
                # the program's policy, so it is counted, not checked.
                neginf += 1
                continue
            want, got = ref.choose(h, e, c), predicted[r][1][i]
            if got != want:
                gap = abs(scores[want][k] - scores[got][k])
                if not gap <= TIE_TOL * max(1.0, abs(scores[want][k])):
                    op.problems.append(
                        f"{records[r][0]} position {i}: predicted {got}, "
                        f"reference scorer says {want}")
        op.values["all_neginf_windows"] = neginf
        q3 = q3_of((p[1], r[2]) for p, r in zip(predicted, records))
        op.values["q3"] = q3
        self._check_csv(op, predicted, records, q3)
        if q3 < Q3_FLOOR:
            op.problems.append(f"q3 {q3:.4f} below the floor {Q3_FLOOR}")

    @staticmethod
    def _check_csv(op, predicted, records, q3):
        index = {c: i for i, c in enumerate("HEC")}
        matrix = np.zeros((3, 3), dtype=np.int64)
        for (_, pred), (_, _, truth) in zip(predicted, records):
            for p, t in zip(pred, truth):
                matrix[index[t], index[p]] += 1
        try:
            rows = [line.split(",") for line in
                    op.outputs["csv"].decode().splitlines()]
            got = np.array([[int(v) for v in row[1:]] for row in rows[1:4]])
            got_q3 = float(dict(row for row in rows if len(row) == 2)["q3"])
        except (UnicodeDecodeError, ValueError, KeyError) as exc:
            op.problems.append(f"eval CSV unreadable: {exc}")
            return
        if got.shape != (3, 3) or not np.array_equal(got, matrix):
            op.problems.append("eval confusion matrix differs from the "
                               "benchmark's count")
        if abs(got_q3 - q3) > 1e-12:
            op.problems.append(f"eval q3 {got_q3} != {q3}")


class TrainWindows(Workload):
    name = "train-windows"
    kernel = setup_kernel = "array"
    LINE = re.compile(r"class ([HEC]): final log-likelihood (\S+) "
                      r"after (\d+) iterations")

    def setup(self, directory):
        s = self.sizes
        chains = planted(s.train_chains, s.train_length, derive(self.seed, 10),
                         s.stay)
        data = directory / "train.txt"
        data.write_text("".join(f">t{i:04d}\n{seq}\n{labels}\n"
                                for i, (seq, labels) in enumerate(chains)),
                        encoding="utf-8")
        return {"dir": directory, "data": data, "chains": chains,
                "init_seed": derive(self.seed, 11) % 1000}

    def fingerprint(self, ctx):
        return ctx["data"].read_bytes()

    def execute(self, ctx, index, tracer=None):
        model = ctx["dir"] / "trained.txt"
        model.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code, out, err = run_cli([
            "train", "--data", str(ctx["data"]), "--out", str(model),
            "--states", "3", "--window", str(HALF_WIDTH),
            "--iters", str(self.sizes.train_iters),
            "--seed", str(ctx["init_seed"])])
        t1 = time.perf_counter()
        op = Op(outputs={"model": read_bytes(model), "stdout": out.encode()})
        op.values = {"train_s": t1 - t0, "op_s": t1 - t0}
        if code:
            op.problems.append(f"train exited {code}: {err.strip()}")
        return op

    def _reference(self, ctx):
        """Per class: window count, final parameters and likelihood trace of
        the reference Baum-Welch; computed once per run."""
        if "reference" not in ctx:
            windows = ref.class_windows(ctx["chains"], HALF_WIDTH)
            ctx["reference"] = {
                c: (len(windows[c]),) + ref.baum_welch(
                    ref.random_model(3, len(ref.ALPHABET),
                                     ctx["init_seed"] + offset),
                    windows[c], self.sizes.train_iters, 1e-6)
                for offset, c in enumerate(ref.CLASSES)}
        return ctx["reference"]

    def check(self, ctx, op):
        lines = {m.group(1): (float(m.group(2)), int(m.group(3)))
                 for m in map(self.LINE.fullmatch,
                              op.outputs["stdout"].decode().splitlines()) if m}
        if set(lines) != set(ref.CLASSES):
            op.problems.append("train stdout lacks a final log-likelihood "
                               "for every class")
            return
        try:
            ssph.io.read_models(ctx["dir"] / "trained.txt")
        except (ssph.errors.SsphError, OSError, ValueError) as exc:
            op.problems.append(f"model file does not read back: {exc}")
            return
        models = ref.read_model_file(op.outputs["model"].decode())
        expected = self._reference(ctx)
        window_iters = ll_total = symbols = 0
        for c in ref.CLASSES:
            count, params, trace = expected[c]
            ll, iters = lines[c]
            if iters != len(trace):
                op.problems.append(f"class {c}: {iters} iterations, the "
                                   f"reference ran {len(trace)}")
            if not abs(ll - trace[-1]) <= LL_REL_TOL * abs(trace[-1]):
                op.problems.append(f"class {c}: final log-likelihood {ll} vs "
                                   f"reference {trace[-1]}")
            if any(a.shape != b.shape or np.abs(a - b).max() > PARAM_ABS_TOL
                   for a, b in zip(models[c], params)):
                op.problems.append(f"class {c}: parameters differ from the "
                                   "reference")
            window_iters += count * iters
            ll_total += ll
            symbols += count * (2 * HALF_WIDTH + 1)
        op.values["train_window_iters_per_s"] = (window_iters
                                                 / op.values["train_s"])
        # Geometric-mean likelihood per residue under the trained models.
        op.values["fit"] = math.exp(ll_total / symbols)


class CliCold(Workload):
    name = "cli-cold"
    kernel = "spawn"
    traces_in_process = False

    def setup(self, directory):
        s = self.sizes
        model = build_model(directory, self.seed, s)
        records = [(f"cold{k:02d}", seq, labels) for k, (seq, labels)
                   in enumerate(planted(s.cold_records, s.cold_length,
                                        derive(self.seed, 20), s.stay))]
        for rec_id, seq, _ in records:
            write_fasta(directory / f"{rec_id}.fa", [(rec_id, seq)])
        everything, warm = directory / "all.fa", directory / "warm.txt"
        write_fasta(everything, [(r[0], r[1]) for r in records])
        code, _, err = run_cli([
            "predict", "--models", str(model), "--fasta", str(everything),
            "--out", str(warm), "--window", str(HALF_WIDTH)])
        if code != 0:
            raise SetupError(f"warm ssph predict exited {code}: {err.strip()}")
        labels = parse_label_text(warm.read_text())
        return {"dir": directory, "model": model, "records": records,
                "expected": [label_text([pair]) for pair in labels],
                "q3": q3_of((pred, rec[2])
                            for (_, pred), rec in zip(labels, records)),
                "warm": warm}

    def fingerprint(self, ctx):
        return ctx["model"].read_bytes() + ctx["warm"].read_bytes()

    def _child(self, ctx, k, command_prefix):
        """Run the cold command on record ``k``; returns the completed
        process (None on timeout) and its wall time."""
        rec_id = ctx["records"][k][0]
        out = ctx["dir"] / "cold_out.txt"
        out.unlink(missing_ok=True)
        args = ["predict", "--models", str(ctx["model"]),
                "--fasta", str(ctx["dir"] / f"{rec_id}.fa"),
                "--out", str(out), "--window", str(HALF_WIDTH)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        start = time.perf_counter()
        try:
            proc = subprocess.run(command_prefix + args, cwd=ROOT, env=env,
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start
        return proc, time.perf_counter() - start

    def _wrapped(self, ctx, *options):
        stats = ctx["dir"] / "cold_stats.json"
        stats.unlink(missing_ok=True)
        return stats, [sys.executable, str(Path(__file__).with_name(
            "cold_child.py")), "--out", str(stats), *options, "--"]

    def execute(self, ctx, index, tracer=None):
        # Each record runs twice in a row, so in a traced run one of the two
        # is traced and their outputs are compared.
        k = (index // 2) % len(ctx["records"])
        if tracer is None:
            prefix = [sys.executable, "-m", "ssph.cli"]
        else:
            stats, prefix = self._wrapped(ctx, "--trace")
        op = Op(key=k)
        proc, elapsed = self._child(ctx, k, prefix)
        if proc is None:
            op.problems.append(f"child ran over {CHILD_TIMEOUT_S} s")
            return op
        op.outputs = {"out": read_bytes(ctx["dir"] / "cold_out.txt")}
        op.values = {"cold_predict_s": elapsed, "op_s": elapsed,
                     "cold_residues_per_s": len(ctx["records"][k][1]) / elapsed}
        if proc.returncode:
            op.problems.append(f"child exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
        if tracer is not None and stats.exists():
            data = json.loads(stats.read_text())
            op.run = tracer.ingest(data["trace"], f"op-{index}")
            tracer.count("cli.import_s", data["import_s"], op.run)
            op.values["leftover_wrappers"] = data["leftovers"]
        return op

    def peak_rss_mb(self, ctx):
        """Peak RSS of one cold command, read by the child itself."""
        stats, prefix = self._wrapped(ctx)
        proc, _ = self._child(ctx, 0, prefix)
        if proc is None or proc.returncode or not stats.exists():
            raise SetupError("the cold command failed while its memory "
                             "was measured")
        return json.loads(stats.read_text())["peak_rss_kb"] / 1024

    def check(self, ctx, op):
        if op.outputs.get("out") is None:
            op.problems.append("cold predict wrote no file")
        elif op.outputs["out"].decode(errors="replace") != ctx["expected"][op.key]:
            op.problems.append(f"cold labels for {ctx['records'][op.key][0]} "
                               "differ from the warm prediction")
        op.values["q3"] = ctx["q3"]


WORKLOADS = {cls.name: cls for cls in (PredictProteome, TrainWindows, CliCold)}
