"""Span tracing for the benchmark, applied from outside the program.

The tracer replaces public ``ssph`` functions *where they are looked up*
(``ssph.cli.parse_fasta``, ``ssph.predictor.sequence_score``, ...) with thin
wrappers that record one span per call, and puts the originals back when the
traced operation ends. The program's own files are never changed.

A span carries its name, start, end, parent span and run id. Spans stay in
memory (in compact arrays) until the run ends; ``aggregate`` then reports,
per span name, the call count, the inclusive time and the self time (the
span minus the time its child spans cover).

This module imports nothing outside the standard library, so the cold-start
child can load it without changing what ``import ssph.cli`` costs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

# (module looked up in, attribute, span name, counter). A counter gets the
# tracer, the bound call arguments and the result, and adds per-run counts;
# it runs after the span has closed, so it is not part of any span's time.


def _windows(tracer, args, result):
    # The output has one label per residue; positions without a complete
    # window are not scored.
    windows = max(0, len(result) - 2 * args["half_width"])
    tracer.count("predictor.windows", windows)


def _fasta_residues(tracer, args, result):
    tracer.count("io.parse_fasta.residues",
                 sum(len(r.sequence) for r in result))


def _written_bytes(tracer, args, result):
    tracer.count("io.atomic_write_text.bytes",
                 len(args["text"].encode("utf-8")))


def _class_windows(tracer, args, result):
    tracer.count("training.class_windows.windows",
                 sum(len(v) for v in result.values()))


def _baum_welch(tracer, args, result):
    tracer.count("hmm.baum_welch.iterations", len(result[1]))
    # Kept until the operation ends, when the benchmark works out which
    # iterations improved the log-likelihood (that needs the starting
    # model's likelihood, which baum_welch does not return).
    tracer.kept[tracer.current].append(
        (args["model"], args["training"], args["tol"], list(result[1])))


WRAP_TABLE = (
    ("ssph.cli", "main", "cli.main", None),
    ("ssph.cli", "read_models", "io.read_models", None),
    ("ssph.cli", "write_models", "io.write_models", None),
    ("ssph.cli", "parse_fasta", "io.parse_fasta", _fasta_residues),
    ("ssph.cli", "parse_label_records", "io.parse_label_records", None),
    ("ssph.cli", "parse_labeled_dataset", "io.parse_labeled_dataset", None),
    ("ssph.cli", "atomic_write_text", "io.atomic_write_text", _written_bytes),
    ("ssph.cli", "predict_structure", "predictor.predict_structure", _windows),
    ("ssph.cli", "train_models", "training.train_models", None),
    ("ssph.cli", "confusion", "metrics.confusion", None),
    ("ssph.cli", "format_report", "metrics.format_report", None),
    ("ssph.cli", "format_report_csv", "metrics.format_report_csv", None),
    ("ssph.io", "atomic_write_text", "io.atomic_write_text", _written_bytes),
    ("ssph.io", "parse_models", "io.parse_models", None),
    ("ssph.io", "format_models", "io.format_models", None),
    ("ssph.predictor", "encode_residues", "predictor.encode_residues", None),
    ("ssph.predictor", "sequence_score", "hmm.sequence_score", None),
    ("ssph.training", "encode_residues", "predictor.encode_residues", None),
    ("ssph.training", "class_windows", "training.class_windows",
     _class_windows),
    ("ssph.training", "baum_welch", "hmm.baum_welch", _baum_welch),
    ("ssph.synthetic", "planted_dataset", "synthetic.planted_dataset", None),
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.child = array("d")      # summed duration of direct children
        self.counts: dict[int, dict[str, float]] = {}
        self.kept: dict[int, list] = {}
        self._stack: list[int] = []
        self._run = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- runs and spans -------------------------------------------------
    def begin(self, run_name: str) -> int:
        self.runs.append(run_name)
        self._run = len(self.runs) - 1
        self.counts[self._run] = {}
        self.kept[self._run] = []
        return self._run

    @property
    def current(self) -> int:
        return self._run

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        self._stack.pop()
        self.end[idx] = now
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += now - self.start[idx]

    def count(self, key: str, value: float, run: int | None = None) -> None:
        bucket = self.counts[self._run if run is None else run]
        bucket[key] = bucket.get(key, 0) + value

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, span_name: str, counter):
        name_id = self._name_id(span_name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                # A counter that no longer fits the program's signature must
                # not change what the program does; it is counted instead.
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(tracer, bound.arguments, result)
                except Exception:
                    tracer.count("trace.counter_errors", 1)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every table entry that exists in the program; entries a
        later version of the program no longer has are skipped."""
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        for module_name, attr, span_name, counter in WRAP_TABLE:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(original, span_name, counter))
            self._installed.append((module, attr, original))

    def uninstall(self) -> list[str]:
        """Put every original back; returns the attributes that still do
        not hold their original (empty when removal worked)."""
        installed, self._installed = self._installed, []
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)
        return [f"{module.__name__}.{attr}" for module, attr, original
                in installed if getattr(module, attr) is not original]

    # -- reporting --------------------------------------------------------
    def aggregate(self, run: int) -> dict[str, float]:
        """Per-name ``.calls``, ``.s`` (inclusive) and ``.self_s`` totals
        for one run, plus that run's counters."""
        out: dict[str, float] = {}
        for i in range(len(self.start)):
            if self.run[i] != run:
                continue
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".s"] = out.get(name + ".s", 0.0) + duration
            out[name + ".self_s"] = (out.get(name + ".self_s", 0.0)
                                     + duration - self.child[i])
        out.update(self.counts.get(run, {}))
        return out

    def export(self, run: int) -> dict:
        """One run's spans and counters as plain data (for a child process
        to hand back to the benchmark)."""
        rows = [i for i in range(len(self.start)) if self.run[i] == run]
        local = {idx: pos for pos, idx in enumerate(rows)}
        spans = [[self.names[self.name[i]], self.start[i], self.end[i],
                  local.get(self.parent[i], -1), self.child[i]]
                 for i in rows]
        return {"spans": spans, "counts": self.counts.get(run, {})}

    def ingest(self, data: dict, run_name: str) -> int:
        """Add a child's exported run to this store under a new run id."""
        run = self.begin(run_name)
        base = len(self.start)
        for name, start, end, parent, child in data["spans"]:
            self.name.append(self._name_id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.run.append(run)
            self.child.append(child)
        for key, value in data["counts"].items():
            self.count(key, value, run)
        return run
