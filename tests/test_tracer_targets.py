"""Every function the benchmark's tracer wraps is defined where the tracer looks.

`perfbench/tracer.py` patches `owner.__dict__[attr]` for each SPANS and
COUNTERS target, so moving a traced method into a base class (or renaming it)
breaks only `--trace` runs unless this test catches it first.  The tracer is
loaded from its file as it is, without installing its import hook.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("name", sorted(tracer.SPANS))
def test_span_target_is_in_its_owner_dict(name):
    mod, path = tracer.SPANS[name]
    owner, attr = tracer._resolve(importlib.import_module(mod), path)
    assert attr in vars(owner), f"{name}: {mod}.{path} is not defined on its owner"


@pytest.mark.parametrize("name", sorted(tracer.COUNTERS))
def test_counter_targets_are_in_their_class_dict(name):
    mod, cls, methods = tracer.COUNTERS[name]
    owner = getattr(importlib.import_module(mod), cls)
    assert [m for m in methods if m not in vars(owner)] == []
