#!/usr/bin/env python3
"""The performance gate: every perfbench workload, traced, against BENCH_7.json.

    python3 tools/bench_gate.py

Run from the root of a checkout. For each workload it runs

    python3 perfbench/run.py --workload W --seed 7 --seconds 1 --trace 1

and fails unless the run's output checks pass, every exact work counter
equals the reference, and the build, path and search layers each take at
most twice their reference time. It writes what it read to
_build/bench_gate.json and exits 1 on any failure.
"""

import json
import os
import subprocess
import sys

REFERENCE = "BENCH_7.json"
OUT = os.path.join("_build", "bench_gate.json")
FACTOR = 2.0
# Per-layer metrics summed into each gated layer: table1 times the session
# build as four layers, the other workloads as the one `build` span.
LAYERS = {
    "build": ["analysis.ms", "lr0.ms", "lalr.ms", "table.ms", "build.ms"],
    "path": ["path.ms"],
    "search": ["search.ms"],
}


def exact(counter):
    """perfbench's rule: heap words and rendered sizes are not compared."""
    return not (counter.startswith("gc.") or counter.startswith("render.")
                or counter.endswith("alloc_words"))


def run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    counters = {}
    for l in lines:
        if l.startswith("counters "):
            counters = json.loads(l[len("counters "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return proc.returncode, result, counters


def check(workload, reference):
    code, result, counters = run(workload)
    problems = []
    if code != 0 or not result.get("correct") or result.get("failed") != 0:
        problems.append("output checks failed (exit %d)" % code)
    got = {k: v for k, v in counters.items() if exact(k)}
    want = reference["counters"]
    for k in sorted(set(got) | set(want)):
        if got.get(k) != want.get(k):
            problems.append("counter %s is %s, reference %s"
                            % (k, got.get(k), want.get(k)))
    metrics = result.get("metrics", {})
    layers = {}
    for layer, parts in LAYERS.items():
        values = [metrics.get(p, {}).get("value") for p in parts]
        if None in values:
            problems.append("layer %s: metric missing" % layer)
            continue
        ms, ref = sum(values), reference["layers_ms"][layer]
        layers[layer] = {"ms": ms, "reference_ms": ref, "ratio": ms / ref}
        if ms > FACTOR * ref:
            problems.append("layer %s took %.1f ms, over %.0fx its reference "
                            "%.1f ms" % (layer, ms, FACTOR, ref))
    print("%s: %s" % (workload, ", ".join(
        "%s %.2fx" % (k, v["ratio"]) for k, v in layers.items())), flush=True)
    for p in problems:
        print("  FAILED " + p, flush=True)
    return {"exit": code, "correct": result.get("correct"),
            "attempted": result.get("attempted"),
            "failed": result.get("failed"), "counters": counters,
            "layers": layers, "problems": problems}


def main():
    with open(REFERENCE) as f:
        reference = json.load(f)
    read = {w: check(w, r["gate"]) for w, r in reference["workloads"].items()}
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(read, f, indent=1, sort_keys=True)
    ok = not any(r["problems"] for r in read.values())
    print("bench gate " + ("passed" if ok else "failed"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
