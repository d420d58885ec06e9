"""The benchmark's tracer (perfbench/tracer.py) wraps classtower names from outside the
package and reports a name it cannot find as absent, which the benchmark's own tests
reject.  This test reads its WRAPS table, without changing it, so that removing or
moving a wrapped name fails here first."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPS


def test_every_name_the_tracer_wraps_resolves_in_classtower():
    # a dotted attribute is patched on the class, so it must be in the class's own namespace
    missing = []
    for _, _, module, attr, _ in _wraps():
        owner = importlib.import_module(f"classtower.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is None or name not in vars(owner):
            missing.append(f"classtower.{module}.{attr}")
    assert missing == []
