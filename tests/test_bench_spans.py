"""Every span the benchmark traces names an entry point that still exists,
and a traced run reports each of them.

The per-layer metrics in BENCHMARK.json are read off spans that
``perfbench/tracer.py`` wraps around package functions and methods by
name, and some of its probes read package state, so renaming one of them
would otherwise only surface in a traced bench run.
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
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


def test_traced_run_reports_every_span():
    env = dict(os.environ, PERFBENCH_SPANS=json.dumps(_spans()))
    env.pop("SPENCERLAB_BUDGET", None)
    argv = ["complete", "scenes/cusp.scene", "--degree-bound", "4", "--r-max", "3"]
    # -B: importing the tracer writes no bytecode under perfbench/
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/child.py", "t", "1", "--", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1]
    assert last.startswith("PERFBENCH ")
    report = json.loads(last[len("PERFBENCH "):])
    assert report["rc"] == 0
    assert sorted(report["spans"]) == _spans()
    # the probe reads Tower._hom_cache by (r, i, d)
    space = report["spans"]["completion.Tower.homology_space"]
    assert space["hits"] + space["misses"] == space["calls"] > 0
