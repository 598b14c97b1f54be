"""The benchmark tracer's span targets exist in the library.

``bench/tracer.py`` wraps each ``(module, function)`` of its ``SPAN_NAMES``
and fails on entry when one is missing, so renaming a library function
breaks ``bench/run.py --trace 1``; this test makes such a rename fail here.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_span_target_resolves():
    # executed from its source, so nothing is written next to it
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer.__dict__)
    missing = [
        f"pbmrf.{module}.{attr}"
        for module, attr in tracer.SPAN_NAMES
        if not callable(getattr(importlib.import_module(f"pbmrf.{module}"), attr, None))
    ]
    assert not missing
