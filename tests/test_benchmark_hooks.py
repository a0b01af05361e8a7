"""The benchmark's tracer (perfbench/tracer.py) wraps ssph functions by the
module and attribute name they are looked up under. A rename in ssph would
silently drop that layer's spans, so every name it wraps must exist."""

import importlib
import importlib.util
from pathlib import Path

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
