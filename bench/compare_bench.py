#!/usr/bin/env python3
"""Compare a bench JSON against its checked-in baseline (perf trajectory gate).

Four kinds of input:

  serve   BENCH_serve.json written by bench/serve_load: points are keyed by
          (scenario, threads) and the gated metric is req_per_sec. The
          current run must also report deterministic=true on every point —
          a byte-level divergence across host threads fails the gate even
          if throughput held — and, where the baseline records it, exactly
          the baseline's simulated_attempts: the result memo makes that
          count deterministic, so losing the memo fails on any host.
  sim     BENCH_sim.json written by bench/sim_extreme (google-benchmark
          JSON): points are keyed by benchmark name and the gated metric is
          the events_per_sec counter.
  causal  BENCH_causal.json written by bench/causal_overhead (google-benchmark
          JSON): gated like sim on events_per_sec, plus a relative check
          inside the current run — at every machine size, full causal
          capture (sample_permil=1000) must not slow message throughput
          below 1/--max-overhead of the recorder-off baseline
          (sample_permil=-1). That bound is machine-independent, so it
          holds even where the absolute baselines do not.
  bounds  BENCH_bounds.json written by bench/bounds_sweep: points are keyed
          by (algorithm, n, p) and the gated metric is the measured/bound
          distance-from-optimal ratio. The direction is INVERTED — smaller
          is better, so a point regresses when the ratio grows past
          baseline * (1 + tolerance) — and any ratio below 1 fails
          unconditionally: an algorithm cannot beat a communication lower
          bound, so that is an accounting bug, not a perf improvement.

Only keys present in BOTH files are compared (the ctest smoke runs a
filtered subset of the CI sweep), and the intersection must be non-empty.
For serve/sim a point regresses when current < baseline * (1 - tolerance);
improvements never fail. Baselines are machine-relative: after an intentional perf
change, or on hardware unlike the one that recorded them, regenerate with
--update (copies current over the baseline).

  python3 bench/compare_bench.py --kind=serve \
      --baseline=bench/baselines/BENCH_serve.json --current=BENCH_serve.json

Exit codes: 0 ok, 1 regression (or lost determinism), 2 bad input.
"""

import argparse
import json
import shutil
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"compare_bench: cannot read {path}: {e}")


def serve_points(doc, path):
    sweeps = doc.get("sweeps")
    if not isinstance(sweeps, list) or not sweeps:
        sys.exit(f"compare_bench: {path} has no 'sweeps' array")
    points = {}
    for pt in sweeps:
        key = (str(pt["scenario"]), int(pt["threads"]))
        points[key] = pt
    return points


def sim_points(doc, path):
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        sys.exit(f"compare_bench: {path} has no 'benchmarks' array")
    points = {}
    for b in benches:
        if "events_per_sec" in b:
            points[str(b["name"])] = b
    if not points:
        sys.exit(f"compare_bench: {path} has no events_per_sec counters")
    return points


def bounds_points(doc, path):
    if not isinstance(doc, list) or not doc:
        sys.exit(f"compare_bench: {path} is not a non-empty row array")
    points = {}
    for row in doc:
        key = (str(row["algorithm"]), int(row["n"]), int(row["p"]))
        points[key] = row
    return points


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", required=True,
                    choices=["serve", "sim", "bounds", "causal"])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional drop (default 0.25)")
    ap.add_argument("--update", action="store_true",
                    help="copy current over the baseline instead of comparing")
    ap.add_argument("--max-overhead", type=float, default=3.0,
                    help="causal only: max allowed events_per_sec ratio of "
                         "recorder-off over full capture (default 3.0)")
    args = ap.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        sys.exit("compare_bench: --tolerance must be in [0, 1)")

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"compare_bench: baseline {args.baseline} updated from "
              f"{args.current}")
        return 0

    pick = {"serve": serve_points, "sim": sim_points,
            "bounds": bounds_points, "causal": sim_points}[args.kind]
    metric = {"serve": "req_per_sec", "sim": "events_per_sec",
              "bounds": "ratio", "causal": "events_per_sec"}[args.kind]
    base = pick(load(args.baseline), args.baseline)
    cur = pick(load(args.current), args.current)

    shared = sorted(set(base) & set(cur), key=str)
    if not shared:
        sys.exit("compare_bench: baseline and current share no points")

    floor_frac = 1.0 - args.tolerance
    failures = []
    for key in shared:
        was = float(base[key][metric])
        now = float(cur[key][metric])
        if args.kind == "bounds":
            # Smaller is better, and < 1 is physically impossible.
            ceiling = was * (1.0 + args.tolerance)
            change = (now - was) / was * 100.0 if was > 0.0 else 0.0
            status = "ok"
            if now < 1.0:
                status = "ORACLE VIOLATION (ratio < 1)"
                failures.append(key)
            elif now > ceiling:
                status = "REGRESSION"
                failures.append(key)
            print(f"  {key}: {metric} {was:.4f} -> {now:.4f} "
                  f"({change:+.1f}%, ceiling {ceiling:.4f}) {status}")
            continue
        floor = was * floor_frac
        change = (now - was) / was * 100.0 if was > 0.0 else 0.0
        status = "ok"
        if was > 0.0 and now < floor:
            status = "REGRESSION"
            failures.append(key)
        print(f"  {key}: {metric} {was:.1f} -> {now:.1f} "
              f"({change:+.1f}%, floor {floor:.1f}) {status}")
        if args.kind == "serve" and not cur[key].get("deterministic", False):
            failures.append(key)
            print(f"  {key}: deterministic=false — serve output diverged "
                  "across host threads")
        if args.kind == "serve" and "simulated_attempts" in base[key]:
            want = base[key]["simulated_attempts"]
            got = cur[key].get("simulated_attempts")
            if got != want:
                failures.append(key)
                print(f"  {key}: simulated_attempts {want} -> {got} — an "
                      "exact count, not a throughput")

    if args.kind == "causal":
        # Machine-relative overhead bound: at every p present in the current
        # run, full capture may cost at most --max-overhead x in message
        # throughput versus the recorder-off run.
        by_p = {}
        for b in cur.values():
            if "sample_permil" in b and "p" in b:
                by_p.setdefault(float(b["p"]), {})[
                    int(b["sample_permil"])] = float(b["events_per_sec"])
        for p, rates in sorted(by_p.items()):
            if -1 not in rates or 1000 not in rates or rates[1000] <= 0.0:
                continue
            ratio = rates[-1] / rates[1000]
            status = "ok"
            if ratio > args.max_overhead:
                status = "OVERHEAD REGRESSION"
                failures.append(("causal-overhead", p))
            print(f"  p={p:.0f}: full-capture slowdown {ratio:.2f}x "
                  f"(max {args.max_overhead:.2f}x) {status}")

    skipped = len(set(base) | set(cur)) - len(shared)
    if skipped:
        print(f"compare_bench: {skipped} point(s) outside the intersection "
              "were not compared")
    if failures:
        print(f"compare_bench: {len(failures)} point(s) regressed more than "
              f"{args.tolerance * 100:.0f}% (or lost determinism or an exact "
              f"count) vs {args.baseline}", file=sys.stderr)
        return 1
    print(f"compare_bench: {len(shared)} point(s) within "
          f"{args.tolerance * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
