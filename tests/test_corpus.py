"""Whole-corpus byte identity: a fixed grid of CLI calls against golden output.

Every command of :data:`COMMANDS` runs on every scene in ``scenes/`` at
``--degree-bound 4``, in-process; stdout and the exit code must match
``golden/corpus.json`` byte for byte.  Record the golden file again with
``PYTHONPATH=src python tests/test_corpus.py --record`` only when an
output is meant to change.
"""

import contextlib
import functools
import io
import json
import os
import sys

import pytest

from spencerlab.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
SCENES = os.path.join(HERE, "..", "scenes")
GOLDEN = os.path.join(HERE, "golden", "corpus.json")

COMMANDS = (
    ("derham",),
    ("jet", "--r", "1"),
    ("jet", "--r", "2"),
    ("spencer-h0",),
    ("milnor",),
    ("smooth",),
    ("complete", "--r-max", "3"),
    ("derived-complete", "--r-max", "3"),
    ("euler-certify",),
    ("euler-certify", "--complex", "jet0"),
    ("euler-certify", "--complex", "jet1"),
    ("euler-certify", "--complex", "jet2"),
    ("kashiwara", "--p", "1"),
    ("spencer", "--module", "omega1"),
    ("filtered-spencer", "--p", "1"),
    ("koszul", "--elements", "x"),
    ("derived-complete", "--module", "OY", "--r-max", "3"),
)


def grid() -> dict:
    """Call id -> argv (scene path relative to the scenes directory)."""
    calls = {}
    for name in sorted(os.listdir(SCENES)):
        if not name.endswith(".scene"):
            continue
        for cmd in COMMANDS:
            argv = [cmd[0], name, *cmd[1:], "--degree-bound", "4"]
            calls[" ".join(argv)] = argv
    return calls


def run(argv) -> dict:
    argv = list(argv)
    argv[1] = os.path.join(SCENES, argv[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


CALLS = grid()


def test_grid_matches_golden_calls():
    assert sorted(CALLS) == sorted(_golden())


@pytest.mark.parametrize("call", sorted(CALLS))
def test_corpus_byte_identical(call):
    assert run(CALLS[call]) == _golden()[call]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_corpus.py --record")
    golden = {call: run(argv) for call, argv in sorted(CALLS.items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = [g["exit"] for g in golden.values()]
    print(f"{len(golden)} calls: " + ", ".join(
        f"{codes.count(c)} exit {c}" for c in sorted(set(codes))))
