#!/usr/bin/env python3
"""Self-test of the repository benchmark (about a minute on 4 cores).

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks:
  * smoke: every workload, untraced and traced, prints a result line whose
    metric names match BENCHMARK.json, match [A-Za-z0-9_.-]+ and carry a
    unit, with every op checked and none failed;
  * planted fault: a deliberately wrong expected output for the first op
    shows up as exactly one failed op (sim and serve workloads);
  * exact counts: a traced run repeated with the same seed reproduces every
    exact per-layer count bit for bit, and the counts of a second seed are
    printed so a later claim can be checked on a seed not used to write it.
Exits 1 on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402  (run.py sits beside this file)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
EXACT = ("sim.events_per_op", "sim.messages_per_op", "sim.words_per_op",
         "sim.allocs_per_event", "sim.arena_bytes_per_proc",
         "sim.causal_spans_per_op", "algorithms.allocs_per_op",
         "matrix.flops_per_op", "serve.allocs_per_request",
         "serve.cache_hit_rate", "serve.memoizable_share",
         "serve.retries_per_session", "serve.journal_events_per_session")


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def result(binary, workload, seed=1, trace=0, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (cmd, proc.returncode, proc.stderr[-2000:]))
    line = proc.stdout.strip().splitlines()[-1]
    r = json.loads(line)
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(r)))
    return r


def check_metrics(r, expected, where):
    if list(r["metrics"]) != expected:
        fail("%s: metric names %s, BENCHMARK.json has %s"
             % (where, list(r["metrics"]), expected))
    for name, m in r["metrics"].items():
        if not NAME.match(name):
            fail("%s: bad metric name %r" % (where, name))
        if set(m) != {"value", "unit"} or not m["unit"]:
            fail("%s: metric %s lacks a value or unit" % (where, name))
        if not isinstance(m["value"], (int, float)):
            fail("%s: metric %s is not a number" % (where, name))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    if sorted(workloads) != sorted(run.WORKLOADS):
        fail("BENCHMARK.json workloads %s != run.py %s"
             % (workloads, run.WORKLOADS))
    binary = run.build()

    traced = {}
    for w in workloads:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            r = result(binary, w, trace=trace)
            check_metrics(r, names, "%s trace=%d" % (w, trace))
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                fail("%s trace=%d: %s" % (w, trace, r))
            if trace:
                traced[w] = r["metrics"]
        print("ok smoke %s" % w)

    for w in ("coarse_grain", "serve_mix"):
        r = result(binary, w, extra=["--plant-wrong-reference", "1"])
        if r["failed"] != 1 or r["correct"]:
            fail("%s planted wrong reference: %s" % (w, r))
        print("ok planted fault %s: 1 of %d ops failed" % (w, r["attempted"]))

    for w in workloads:
        again = result(binary, w, seed=1, trace=1)["metrics"]
        other = result(binary, w, seed=2, trace=1)["metrics"]
        for name in EXACT:
            if again[name]["value"] != traced[w][name]["value"]:
                fail("%s %s: %r then %r with seed 1" % (
                    w, name, traced[w][name]["value"], again[name]["value"]))
        print("ok exact counts %s (seed 1 repeated); seed 1 | seed 2:" % w)
        for name in EXACT:
            print("    %-34s %14.6g | %14.6g" % (
                name, again[name]["value"], other[name]["value"]))
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
