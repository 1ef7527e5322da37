"""One benchmark job: run ``spencerlab.cli.main(argv)`` in this fresh interpreter.

Usage: ``python3 perfbench/child.py JOB_ID TRACE -- ARGV...`` from the repo
root.  The CLI sees exactly ARGV and writes its JSON to stdout.  The last
line of stderr is ``PERFBENCH {json}`` with this process's timings:

* ``setup_s``: from the top of this file until the scene file is parsed
  (importing ``spencerlab.cli``, argument parsing, the first ``load_scene``);
* ``solve_s``: from the parsed scene until the output is written and flushed;
* ``spans``: per-span totals of the outside-in tracer when TRACE is 1.
"""

import time

_t_start = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    job_id, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py JOB_ID TRACE -- ARGV...")
    sys.path.insert(0, SRC)
    import spencerlab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"spencerlab imported from {cli.__file__}, not from {SRC}")
    tracer = None
    if trace == "1":
        from tracer import Tracer  # this file's directory is on sys.path

        tracer = Tracer(json.loads(os.environ["PERFBENCH_SPANS"]))
        tracer.install()

    parsed = []
    load_scene = cli.load_scene

    def timed_load_scene(path):
        result = load_scene(path)
        if not parsed:
            parsed.append(time.perf_counter())
        return result

    cli.load_scene = timed_load_scene
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    t_end = time.perf_counter()
    report = {"job": job_id, "rc": rc}
    if parsed:
        report["setup_s"] = parsed[0] - _t_start
        report["solve_s"] = t_end - parsed[0]
    if tracer is not None:
        report["spans"] = tracer.summary()
    sys.stderr.write("PERFBENCH " + json.dumps(report, sort_keys=True) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
