#!/usr/bin/env python3
"""Build the lrcex benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of an lrcex checkout. The benchmark program is built with
dune into _build, then run; its standard output is passed through, and its
last line is the JSON result. The exit code is the program's: non-zero when
an output check fails, the build fails, or the run overruns its time limit.
"""

import argparse
import json
import os
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "lrcex_bench.exe")
TIME_LIMIT = 170  # seconds; the run is stopped (and fails) past this
WORKLOADS = ["table1", "stress-batch", "edit-session"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of an lrcex checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/lrcex_bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run(args, capture=False):
    """Run the benchmark program; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + TIME_LIMIT
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s and was stopped" % TIME_LIMIT)
    lines = out.splitlines()
    if not capture:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, lines


def self_test():
    """Each workload twice on a small slice: every metric BENCHMARK.json
    names is printed with its unit, the work counters repeat exactly, the
    output checks pass and the layers add up."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        counters = []
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(["--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace),
                               "--small"], capture=True)
            tag = "%s --trace %d" % (workload, trace)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(tag + ": no JSON result line")
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(tag + ": output checks failed")
                problems.extend("  " + l for l in lines if l.startswith("FAILED"))
            metrics = result["metrics"]
            for m in spec[kind]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s: metric %s missing or not in %s"
                                    % (tag, m["name"], m["unit"]))
                elif got.get("value") is None:
                    problems.append("%s: metric %s has no value" % (tag, m["name"]))
            if set(metrics) != {m["name"] for m in spec[kind]}:
                problems.append(tag + ": metrics not named in BENCHMARK.json")
            if trace == 1:
                e2e = metrics["traced.e2e_ms"]["value"]
                residual = metrics["residual.ms"]["value"]
                if abs(residual) > 0.05 * e2e:
                    problems.append("%s: residual %.3f ms exceeds 5%% of %.3f ms"
                                    % (tag, residual, e2e))
            for l in lines:
                if l.startswith("counters "):
                    counters.append(json.loads(l[len("counters "):]))
        if len(counters) == 2:
            a, b = counters
            # Rendered sizes follow the digits of the timings in a report,
            # and so do a few heap words; everything else repeats exactly.
            def same(k):
                if k.startswith("render."):
                    return True
                if k.startswith("gc."):
                    return abs(a[k] - b.get(k, 0)) <= 1e-3 * max(1, abs(a[k]))
                return a[k] == b.get(k)
            diff = [k for k in a if not same(k)]
            if diff:
                problems.append("%s: counters differ between runs: %s"
                                % (workload, ", ".join(diff)))
        print("self-test %s: %s" % (workload, "done"), flush=True)
    for p in problems:
        print("self-test FAILED " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None:
        fail("--workload is required")
    code, _ = run(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.exit(code)


if __name__ == "__main__":
    main()
