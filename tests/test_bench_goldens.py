"""The benchmark's golden jobs print their golden files, byte for byte.

``perfbench/spec.json`` lists the benchmark's CLI jobs; those marked
``"golden": true`` must print ``perfbench/golden/<id>.json`` exactly.  They
use larger bounds than the corpus grid of ``test_corpus.py`` and so reach
nonzero tower cells that it does not.  Here each job runs in-process, and
the benchmark files are only read.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from spencerlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _golden_jobs() -> dict:
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    return {
        job["id"]: job["argv"]
        for workload in spec["workloads"].values()
        for job in workload["jobs"]
        if job["golden"]
    }


JOBS = _golden_jobs()


def test_twelve_golden_jobs():
    assert len(JOBS) == 12


@pytest.mark.parametrize("job", sorted(JOBS))
def test_bench_job_matches_golden(job):
    # the benchmark runs from the repository root, where scene paths are relative
    argv = [str(ROOT / a) if a.startswith("scenes/") else a for a in JOBS[job]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0
    golden = (BENCH / "golden" / f"{job}.json").read_bytes()
    assert out.getvalue().encode("utf-8") == golden
