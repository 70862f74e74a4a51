"""Every paintkit name that perfbench/tracer.py wraps still resolves, so a
library change that renames or drops one fails in the unit tests and not only
in the benchmark's own self-test."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(f"paintkit.{module_name}")
        owner, _, name = attr.rpartition(".")
        # A method is wrapped through its class's own __dict__.
        scope = vars(getattr(module, owner)) if owner else vars(module)
        if not callable(scope.get(name)):
            missing.append(f"{module_name}.{attr}")
    assert len(tracer.TARGETS) >= 22 and missing == []
