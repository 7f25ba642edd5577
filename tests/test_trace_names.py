"""The benchmark's span tracer (perfbench/spans.py) replaces functions by
name; a renamed or moved function would leave ``run.py --trace 1`` without
its spans, or make it fail. Check that every traced name still resolves,
looked up the way the tracer looks it up."""

import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # read-only: leave no bytecode cache in the benchmark directory
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_names_resolve():
    targets = load_spans()._targets()
    assert targets
    for owner, attr, name, _ in targets:
        found = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        assert found is not None, f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(found) or isinstance(found, classmethod), name
