#!/usr/bin/env python3
"""Tiny-population self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced at a few thousand
events through run.py, and checks that every output check passes, that the
printed metric set is exactly the one BENCHMARK.json declares (with its
units), that wire-s4 reproduces wire's aggregates for the same seed, and
that the per-layer metrics have the expected shape: crypto counts zero on
wire and nonzero on stack, shard metrics only on wire-s4. Exits 1 on the
first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
USERS = {"wire": 2000, "wire-s4": 2000, "stack": 12}
SEED = 7


def fail(msg):
    print(f"selftest: FAILED: {msg}")
    sys.exit(1)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--users", str(USERS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: "
             + "\n".join(l for l in lines if "FAILED" in l or "correct" in l))
    agg = next(json.loads(l.split(": ", 1)[1]) for l in lines
               if l.startswith("aggregates: "))
    return result, agg, lines


def check_metrics(workload, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        fail(f"{workload}: metric set differs: missing "
             f"{sorted(set(want) - set(metrics))}, extra "
             f"{sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if m["unit"] != want[name] or not isinstance(m["value"], (int, float)):
            fail(f"{workload}: {name} = {m}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    aggs = {}
    for w in (w["name"] for w in bench["workloads"]):
        plain, aggs[w], _ = run(w, 0)
        check_metrics(w, plain["metrics"], bench["end_to_end"])
        for name, m in plain["metrics"].items():
            if m["value"] <= 0:
                fail(f"{w}: end-to-end {name} is {m['value']}")
        traced, traced_agg, lines = run(w, 1)
        check_metrics(w, traced["metrics"], bench["per_layer"])
        if traced_agg != aggs[w]:
            fail(f"{w}: traced aggregates {traced_agg} != {aggs[w]}")
        if not any("check layers_sum_to_total: ok" in l for l in lines):
            fail(f"{w}: per-layer self times do not sum to the total")
        v = {k: m["value"] for k, m in traced["metrics"].items()}
        crypto = v["crypto.seal.count"] + v["crypto.open.count"]
        if (crypto > 0) != (w == "stack"):
            fail(f"{w}: crypto counts {crypto}")
        if (v["shard.windows"] > 0) != (w == "wire-s4"):
            fail(f"{w}: shard.windows {v['shard.windows']}")
        if v["net.events"] <= 0 or v["layers.total_ns"] <= 0:
            fail(f"{w}: empty traced run")
        print(f"selftest: {w}: ok ({plain['attempted']} requests untraced, "
              f"{traced['attempted']} traced)")
    if aggs.get("wire") != aggs.get("wire-s4"):
        fail(f"wire-s4 aggregates {aggs.get('wire-s4')} != wire {aggs.get('wire')}")
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
