"""The benchmark's tracer must find every library function it names.

``perfbench/spans.py`` wraps ``chanuq`` functions by name; a renamed or
inlined function would only show up as a failed traced benchmark run.
This test loads that file (it imports nothing but the standard library)
and checks the names here instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_group_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"chanuq.{module}.{name}"
               for module, names, _ in spans.GROUPS.values()
               for name in names
               if not callable(getattr(importlib.import_module(f"chanuq.{module}"),
                                       name, None))]
    assert missing == []
