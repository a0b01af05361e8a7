"""The benchmark's tracer (perfbench/tracer.py) wraps ssph functions by the
module and attribute name they are looked up under. A rename in ssph would
silently drop that layer's spans, so every name it wraps must exist, and
``ssph train`` must pass the arguments its counters read."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import ssph.training
from ssph import format_labeled_dataset, planted_dataset
from ssph.cli import main
from ssph.dssp import CLASS_ORDER

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    # The tracer imports only the standard library; load it by path, since
    # perfbench is not a package.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_exists():
    table = load_tracer().WRAP_TABLE
    assert table
    missing = [f"{module}.{attr}" for module, attr, *_ in table
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_train_passes_the_traced_arguments_to_baum_welch(tmp_path,
                                                         monkeypatch):
    # The tracer reads ``model``, ``training`` and ``tol`` from every
    # ``ssph.training.baum_welch`` call, and counts the windows that
    # ``ssph.training.class_windows`` returns.
    calls = {"baum_welch": [], "class_windows": []}

    def record(name):
        original = getattr(ssph.training, name)
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[name].append((signature.bind(*args, **kwargs), result))
            return result

        monkeypatch.setattr(ssph.training, name, wrapper)

    record("baum_welch")
    record("class_windows")
    data = tmp_path / "train.txt"
    data.write_text(format_labeled_dataset(planted_dataset(10, 30, seed=4)),
                    encoding="utf-8")
    assert main(["train", "--data", str(data), "--out",
                 str(tmp_path / "models.txt"), "--states", "2",
                 "--window", "2", "--iters", "2"]) == 0

    [(_, windows)] = calls["class_windows"]
    assert len(calls["baum_welch"]) == 3
    for label, (bound, _) in zip(CLASS_ORDER, calls["baum_welch"]):
        args = bound.arguments
        assert {"model", "training", "tol"} <= set(args)
        assert args["model"].num_states == 2
        assert args["tol"] == 1e-6
        rows = len(args["training"])
        assert rows == len(windows[label]) > 0
        assert sum(1 for _ in args["training"]) == rows
