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


def _traced_spans(argv):
    """Span totals of one CLI call traced by ``perfbench/child.py``."""
    env = dict(os.environ, PERFBENCH_SPANS=json.dumps(_spans()))
    env.pop("SPENCERLAB_BUDGET", None)
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
    return report["spans"]


def test_traced_run_reports_every_span():
    spans = _traced_spans(["complete", "scenes/cusp.scene", "--degree-bound", "4", "--r-max", "3"])
    assert sorted(spans) == _spans()
    # the probe reads Tower._hom_cache by (r, i, d)
    space = spans["completion.Tower.homology_space"]
    assert space["hits"] + space["misses"] == space["calls"] > 0


@pytest.mark.parametrize("workload", ["resolution", "quotient", "towers"])
def test_every_mapped_span_fires_on_its_workload(workload):
    # the tracer lists a span that never ran with 0 calls, so comparing names
    # alone would miss one that stops firing; a traced bench run of the
    # workload fails on it
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    calls: dict = {}
    for job in spec["workloads"][workload]["jobs"]:
        argv = [a.format(c1=1, c2=1, c3=1) for a in job["argv"]]
        for name, totals in _traced_spans(argv).items():
            calls[name] = calls.get(name, 0) + totals["calls"]
    mapped = {
        metric.rsplit(".", 1)[0]
        for row in spec["per_layer"] if workload in row["on"]
        for metric in row["metrics"] if not metric.startswith("trace.")
    }
    unfired = sorted(name for name in mapped if not calls[name])
    assert mapped and unfired == []
