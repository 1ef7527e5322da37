"""Every span the benchmark traces names an entry point that still exists.

The per-layer metrics in BENCHMARK.json are read off spans that
``perfbench/tracer.py`` wraps around package functions and methods by
name, so renaming one of them would otherwise only surface in a traced
bench run.
"""

import importlib
import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _target_of(span):
    # run_path compiles the file without writing bytecode next to it
    return runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["target_of"](span)


def _spans():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]}
    names.discard("trace")  # trace.overhead_ratio is the tracer's own cost
    return sorted(names)


@pytest.mark.parametrize("span", _spans())
def test_traced_entry_point_exists(span):
    module_name, path = _target_of(span)
    owner = importlib.import_module(module_name)
    for part in path[:-1]:
        owner = getattr(owner, part)
    assert path[-1] in vars(owner), f"{span} does not resolve in {module_name}"
