"""Benchmark of the spencerlab CLI: fresh-process jobs, checked outputs, per-layer trace.

Usage, from the repo root::

    python3 perfbench/run.py --workload resolution --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

A run repeats passes over the workload's jobs (perfbench/spec.json) while
the longest pass so far still fits in ``--seconds``.  A pass runs every job
once, in an order drawn
from the seed, each in a fresh interpreter (perfbench/child.py), one at a
time: a closed loop with one client.  Every output is checked against its
golden file (perfbench/golden/) and its oracle.

``--trace 0`` reports the end-to-end metrics: each job's fastest run over
the passes, summed over the jobs (peak RSS: the largest job).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of BENCHMARK.json, medians over the traced passes, plus
the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden")
RUN_LIMIT_S = 170  # a run must end within 180 s; no job may start or run past this


class BenchError(Exception):
    """The benchmark cannot run here (missing program, inconsistent spec)."""


# -- output checks -------------------------------------------------------------

def _oracle_tables_empty(out):
    tables = out["tables"]
    return bool(tables) and all(cells == {} for cells in tables.values())


def _oracle_koszul_h0(out, h0):
    tables = out["tables"]
    return tables["0"] == h0 and all(cells == {} for i, cells in tables.items() if i != "0")


def _oracle_milnor(out, mu, tau):
    return out["mu"] == mu and out["tau"] == tau


def _oracle_limits_exactly(out, lim):
    entries = out["limits"]["entries"]
    got = {i: {d: e["lim"] for d, e in cells.items()} for i, cells in entries.items() if cells}
    stabilized = all(e["stabilized"] for cells in entries.values() for e in cells.values())
    return stabilized and got == lim


def _oracle_lim_d_plus_1(out):
    entries = out["limits"]["entries"]
    if any(cells for i, cells in entries.items() if int(i) < 0):
        return False
    stable = {int(d): e["lim"] for d, e in entries["0"].items() if e["stabilized"]}
    return bool(stable) and all(lim == d + 1 for d, lim in stable.items())


def _oracle_independence_equal(out):
    return out["independence"]["equal"] is True


def _oracle_euler_certified(out):
    return out["cartan"]["passed"] is True and out["certificate"]["valid"] is True


ORACLES = {
    "tables_empty": _oracle_tables_empty,
    "koszul_h0": _oracle_koszul_h0,
    "milnor": _oracle_milnor,
    "limits_exactly": _oracle_limits_exactly,
    "lim_d_plus_1": _oracle_lim_d_plus_1,
    "independence_equal": _oracle_independence_equal,
    "euler_certified": _oracle_euler_certified,
}


def check_output(job, rc, stdout):
    """None if the job's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    if job["golden"] is not None and stdout != job["golden"]:
        return "output differs from golden file"
    if job["oracle"] is not None:
        name, params = job["oracle"]
        try:
            ok = ORACLES[name](json.loads(stdout), **params)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"oracle {name}: unreadable output ({exc!r})"
        if not ok:
            return f"oracle {name} failed"
    return None


# -- jobs ----------------------------------------------------------------------

def load_spec():
    for path in (os.path.join(ROOT, "src", "spencerlab", "cli.py"),
                 os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.isfile(path):
            raise BenchError(f"{path} is missing; run from a checkout of the repository")
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    mapped = [m for row in spec["per_layer"] for m in row["metrics"]]
    if sorted(mapped) != sorted(m["name"] for m in bench["per_layer"]):
        raise BenchError("spec.json per_layer metrics differ from BENCHMARK.json")
    if sorted(spec["workloads"]) != sorted(w["name"] for w in bench["workloads"]):
        raise BenchError("spec.json workloads differ from BENCHMARK.json")
    return spec, bench


def make_jobs(entries, coeffs):
    """Jobs from spec.json entries, with the seeded Koszul coefficients filled in."""
    jobs = []
    for entry in entries:
        golden = None
        if entry["golden"]:
            with open(os.path.join(GOLDEN, entry["id"] + ".json"), "rb") as fh:
                golden = fh.read()
        jobs.append({
            "id": entry["id"],
            "argv": [a.format(**coeffs) for a in entry["argv"]],
            "golden": golden,
            "oracle": entry["oracle"],
        })
    return jobs


def child_env(spans):
    env = dict(os.environ)
    env.pop("SPENCERLAB_BUDGET", None)
    env.pop("PERFBENCH_SPANS", None)
    if spans:
        env["PERFBENCH_SPANS"] = json.dumps(spans)
    return env


def run_job(job, env, trace, deadline):
    """Run one job in a fresh interpreter; return its measurements and verdict."""
    cmd = [sys.executable, CHILD, job["id"], "1" if trace else "0", "--", *job["argv"]]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.monotonic()
            ready = sel.select(timeout=max(left, 0))
            if not ready:
                timed_out = True
                proc.kill()
                break
            for key, _ in ready:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stdout = b"".join(chunks[proc.stdout])
    stderr = b"".join(chunks[proc.stderr]).decode("utf-8", "replace")
    report = {}
    last = stderr.rstrip("\n").rsplit("\n", 1)[-1]
    if last.startswith("PERFBENCH "):
        report = json.loads(last[len("PERFBENCH "):])
    if timed_out:
        reason = "killed at the run's time limit"
    elif "solve_s" not in report:
        reason = f"no timing report (exit code {proc.returncode}): {stderr[-300:]!r}"
    else:
        reason = check_output(job, proc.returncode, stdout)
    return {
        "id": job["id"],
        "wall_s": wall,
        "setup_s": report.get("setup_s", 0.0),
        "solve_s": report.get("solve_s", 0.0),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "spans": report.get("spans"),
        "failure": reason,
    }


def run_pass(jobs, order, env, trace, deadline):
    results = []
    for k in order:
        if time.monotonic() >= deadline:
            results.append(dict(id=jobs[k]["id"], failure="not started: run time limit"))
            continue
        results.append(run_job(jobs[k], env, trace, deadline))
    return results


PASS_KEYS = ("wall_s", "solve_s", "setup_s", "peak_rss_mb")


def pass_totals(results):
    done = [r for r in results if not r["failure"]]
    return {
        "wall_s": sum(r["wall_s"] for r in done),
        "solve_s": sum(r["solve_s"] for r in done),
        "setup_s": sum(r["setup_s"] for r in done),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in done), default=0.0),
    }


# -- per-layer metrics -----------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


STATS = {
    "self_s": lambda t: t["self_s"],
    "s": lambda t: t["s"],
    "calls": lambda t: t["calls"],
    "cells": lambda t: t["cells"],
    "relation_rows": lambda t: t["relation_rows"],
    "max_entry_bits": lambda t: t["max_entry_bits"],
    "fill": lambda t: _ratio(t["nonzeros"], t["cells"]),
    "repeat_ratio": lambda t: _ratio(t["repeats"], t["calls"]),
    "hit_ratio": lambda t: _ratio(t["hits"], t["hits"] + t["misses"]),
}
OVERHEAD = "trace.overhead_ratio"


def split_metric(name):
    span, stat = name.rsplit(".", 1)
    if stat not in STATS:
        raise BenchError(f"per-layer metric {name!r} has no rule for {stat!r}")
    return span, stat


def span_totals(results):
    """Per-span counters of one traced pass, summed over its jobs."""
    totals: dict = {}
    for r in results:
        for span, counts in (r.get("spans") or {}).items():
            acc = totals.setdefault(span, dict.fromkeys(counts, 0))
            for key, value in counts.items():
                acc[key] = max(acc[key], value) if key == "max_entry_bits" else acc[key] + value
    return totals


# -- the run ---------------------------------------------------------------------

def best_pass(passes):
    """Totals of a pass made of each job's fastest run over the passes.

    The host's CPU speed varies in spells of seconds to a minute, by up to
    2x, and contention only ever adds time.  A job's fastest run is its
    cost on an uncontended CPU; a per-job median flips between the fast
    and the slow mode depending on when the run happens (see README.md).
    """
    per_job: dict = {}
    for results in passes:
        for r in results:
            if not r["failure"]:
                per_job.setdefault(r["id"], []).append(r)
    return pass_totals([
        dict({key: min(r[key] for r in runs) for key in PASS_KEYS}, failure=None)
        for runs in per_job.values()
    ])


def benchmark(args, spec, bench):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rng = random.Random(args.seed)
    coeffs = {f"c{k}": rng.randint(1, 9) for k in (1, 2, 3)}
    jobs = make_jobs(spec["workloads"][args.workload]["jobs"], coeffs)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    layer_names = [m["name"] for m in bench["per_layer"]]
    spans = sorted({split_metric(n)[0] for n in layer_names if n != OVERHEAD})
    plain_env, traced_env = child_env(None), child_env(spans)
    if not compileall.compile_dir(os.path.join(ROOT, "src", "spencerlab"), quiet=1):
        raise BenchError("src/spencerlab does not compile")

    seeded = any("{c1}" in a for entry in spec["workloads"][args.workload]["jobs"]
                 for a in entry["argv"])
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} jobs={len(jobs)}"
          + (" koszul c1,c2,c3={c1},{c2},{c3}".format(**coeffs) if seeded else ""))
    plain, traced, failures, attempted = [], [], [], 0
    longest = 0.0
    # A pass starts only while the longest pass so far would still end
    # within --seconds, once the run has one pass of each kind it needs.
    while time.monotonic() < deadline:
        if plain and (traced or not args.trace) and (
                time.monotonic() - start + longest > args.seconds):
            break
        trace = bool(args.trace) and len(traced) < len(plain)
        order = list(range(len(jobs)))
        rng.shuffle(order)
        t_pass = time.monotonic()
        results = run_pass(jobs, order, traced_env if trace else plain_env, trace, deadline)
        longest = max(longest, time.monotonic() - t_pass)
        attempted += len(results)
        failures += [(r["id"], r["failure"]) for r in results if r["failure"]]
        (traced if trace else plain).append(results)
        totals = pass_totals(results)
        print(f"pass {len(plain) + len(traced)} {'traced' if trace else 'plain'}: "
              f"wall {totals['wall_s']:.3f} s, solve {totals['solve_s']:.3f} s, "
              f"setup {totals['setup_s']:.3f} s, rss {totals['peak_rss_mb']:.1f} MiB; "
              + " ".join(jobs[k]["id"] for k in order))

    for job_id, reason in failures:
        print(f"FAILED {job_id}: {reason}")
    if args.trace:
        if not failures:
            check_fired(traced, spec, args.workload)
        metrics = layer_metrics(traced, plain, layer_names, units)
    else:
        totals = best_pass(plain)
        metrics = {m["name"]: {"value": totals[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"ops_failed {_ratio(len(failures), attempted):.6g} ratio "
          f"({len(failures)} failed of {attempted} jobs in {len(plain) + len(traced)} passes)")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def check_fired(traced, spec, workload):
    """Fail loudly if a span that spec.json maps to this workload never ran."""
    per_pass = [span_totals(p) for p in traced]
    unfired = [
        name for row in spec["per_layer"] if workload in row["on"]
        for name in row["metrics"] if name != OVERHEAD
        if not all(t.get(split_metric(name)[0], {}).get("calls") for t in per_pass)
    ]
    if unfired:
        raise BenchError(f"mapped spans never fired on {workload}: {', '.join(unfired)}")


def layer_metrics(traced, plain, names, units):
    per_pass = [span_totals(p) for p in traced]
    metrics = {}
    for name in names:
        if name == OVERHEAD:
            value = _ratio(best_pass(traced)["solve_s"], best_pass(plain)["solve_s"]) - 1
        else:
            span, stat = split_metric(name)
            value = statistics.median(STATS[stat](t[span]) if span in t else 0 for t in per_pass)
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics


# -- self-test -------------------------------------------------------------------

def self_test(spec):
    """Show that a corrupted golden file or oracle fails the job and the run."""
    picks = ("milnor-e8", "derived-complete-d4")
    base = make_jobs([j for w in spec["workloads"].values() for j in w["jobs"]
                      if j["id"] in picks], {})
    env = child_env(None)
    deadline = time.monotonic() + RUN_LIMIT_S

    def failed(jobs):
        results = run_pass(jobs, range(len(jobs)), env, False, deadline)
        return [r["id"] for r in results if r["failure"]]

    bad_golden = [dict(base[0], golden=base[0]["golden"].replace(b'"mu": 8', b'"mu": 9'))] + base[1:]
    bad_oracle = [dict(base[0], oracle=["milnor", {"mu": 9, "tau": 8}])] + base[1:]
    cases = [("clean", base, []), ("corrupted golden", bad_golden, ["milnor-e8"]),
             ("corrupted oracle", bad_oracle, ["milnor-e8"])]
    ok = True
    for label, jobs, expected in cases:
        got = failed(jobs)
        ratio = _ratio(len(got), len(jobs))
        verdict = "ok" if got == expected else "WRONG"
        ok = ok and got == expected
        print(f"self-test {label}: failed={got} ops_failed={ratio:.3g} ratio -> {verdict}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted golden files and oracles fail a run")
    args = parser.parse_args(argv)
    try:
        spec, bench = load_spec()
        if args.self_test:
            return 0 if self_test(spec) else 1
        if args.workload not in spec["workloads"]:
            parser.error(f"--workload must be one of {', '.join(spec['workloads'])}")
        result = benchmark(args, spec, bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
