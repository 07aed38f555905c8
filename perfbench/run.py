#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload wire|wire-s4|stack --seed N \\
        --seconds S --trace 0|1

Run from the repository root. The first call builds the library from ../src
and the benchmark program (perfbench.cpp) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Each iteration
is a fresh process running one seeded workload to completion; iterations
repeat until S seconds have passed and every metric is the median over them.

Workloads (all closed loops in virtual time; starts staggered over 1 s):
  wire     wire-pattern replicas of bench/scale_workload.hpp on the serial
           engine, no crypto: 2 chained OHTTP-shaped round trips and one
           1-3 hop mix send per user. Nearly all time is in `net`.
  wire-s4  the same inputs on set_shards(4) with min-cut placement: the only
           workload that runs run_sharded, the mailboxes and the partitioner.
  stack    the real privacypass, ohttp and mixnet parties with a FlowLedger
           and live DecouplingMonitor: one token issue + redemption, 2-4
           chained OHTTP fetches and one 3-mix message per user.

A host-speed calibration (perfbench --calibrate 1, calibrate.hpp) runs
before every iteration and after the last: a fixed amount of work that uses
no library code. A shared host's speed drifts by tens of percent over minutes, so the
host-time metrics (requests_per_s, events_per_s, setup_s, wall_s) are
reported scaled to the reference speed REFERENCE_CALIBRATION_S: each is its
median over the run times REFERENCE_CALIBRATION_S / the median calibration
time (rates divided by it). The drift cancels; a change to the library
moves them in full. The unscaled medians are printed too.

--trace 0 prints the end-to-end metrics, measured untraced. --trace 1 runs
traced and untraced iterations alternately and prints the per-layer metrics
(timed from outside, around calls into each layer) with a per-layer table
whose self times add up to run() wall time. Spans of sampled requests go to
$CARGO_TARGET_DIR/perfbench/spans-<workload>-seed<N>.jsonl.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Users per iteration: about a second of work each (wire: 1e6 events), so a
# run holds many iterations and their median is steady.
USERS = {"wire": 60_000, "wire-s4": 60_000, "stack": 200}
SHARDS = {"wire": 1, "wire-s4": 4, "stack": 1}
MIN_ITERATIONS = 5
# Median calibration time on the 4-vCPU Xeon VM the benchmark was defined on;
# host times are reported as if every run had had that host's speed.
REFERENCE_CALIBRATION_S = 0.24
ITERATION_TIMEOUT_S = 170

END_TO_END = {
    "requests_per_s": "1/s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
}

# Which end-to-end metric each layer metric should move, on which workload.
LAYER_MAP = {
    "net.events": "none (fixed for a seed; detects behaviour changes)",
    "net.delivery_ns_per_event": "events_per_s on wire",
    "net.callback_ns_per_event": "requests_per_s on stack",
    "net.send_ns": "events_per_s on wire",
    "net.self_ns": "events_per_s on wire; a few % of stack",
    "net.queue_peak": "peak_rss_mib on wire",
    "net.pool_slots_peak": "peak_rss_mib on wire",
    "mem.rss_setup_mib": "peak_rss_mib on wire",
    "shard.*": "events_per_s on wire-s4 only",
    "systems.*": "requests_per_s on stack (issuer: RSA/bigint; "
                 "gateway/mix/receiver: HPKE opens)",
    "systems.issue_ns": "requests_per_s on stack",
    "crypto.*": "requests_per_s on stack; counts are 0 on wire",
    "wire.frame.*": "requests_per_s on stack",
    "flow.*": "wall_s on stack; flow.violations must be 0",
    "core.*": "wall_s on stack",
    "setup.*": "setup_s (keygen on stack; topology, schedule on wire)",
}

ROLES = ["client", "relay", "gateway", "origin", "issuer", "redeemer", "mix",
         "receiver", "forwarder", "sink"]
SHARD_METRICS = [
    "shard.busy_ns_per_event.max", "shard.busy_ns_per_event.mean",
    "shard.barrier_wait_pct", "shard.mailbox_stalls", "shard.cross_sends_pct",
    "shard.windows", "shard.imbalance", "shard.parallel_efficiency",
]
PER_LAYER = (
    ["net.events", "net.delivery_ns_per_event", "net.callback_ns_per_event",
     "net.send_ns", "net.self_ns", "net.queue_peak", "net.pool_slots_peak",
     "mem.rss_setup_mib"]
    + SHARD_METRICS
    + [f"systems.{r}.{m}" for r in ROLES for m in ("calls", "self_ns", "p99_ns")]
    + ["systems.issue_ns"]
    + [f"crypto.{op}.{m}" for op in ("seal", "open")
       for m in ("count", "p50_ns", "p99_ns", "est_ns")]
    + ["wire.frame.count", "wire.frame.est_ns",
       "flow.events", "flow.record_ns", "flow.violations",
       "core.observations", "core.analysis_ns",
       "setup.keygen_ns", "setup.topology_ns", "setup.schedule_ns",
       "layers.residual_ns", "layers.total_ns", "trace.overhead_pct"]
)


def per_layer_unit(name):
    if "_ns" in name:
        return "ns"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mib"):
        return "MiB"
    if name in ("shard.imbalance", "shard.parallel_efficiency"):
        return "ratio"
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"perfbench: no library sources under {ROOT}/src")
        sys.exit(2)
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    cache = os.path.join(out, "CMakeCache.txt")
    for attempt in (0, 1):
        if not os.path.isfile(cache):
            rc = subprocess.run(
                ["cmake", "-S", HERE, "-B", out, *gen,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, stderr=sys.stderr).returncode
            if rc != 0:
                shutil.rmtree(out, ignore_errors=True)
                log("perfbench: cmake configure failed")
                sys.exit(1)
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                             "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc == 0:
            return os.path.join(out, "perfbench")
        if attempt == 0:
            # A cache from another source tree: start over once.
            shutil.rmtree(out, ignore_errors=True)
    log("perfbench: build failed")
    sys.exit(1)


def calibrate(binary):
    """Times the calibration; returns (seconds, checksum)."""
    proc = subprocess.run([binary, "--calibrate", "1"], capture_output=True,
                          text=True, timeout=ITERATION_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr)
        log(f"perfbench: calibration exited with {proc.returncode}")
        sys.exit(1)
    c = json.loads(proc.stdout.strip().splitlines()[-1])
    return c["ns"] / 1e9, c["checksum"]


def run_once(binary, workload, seed, users, trace):
    args = [binary, "--workload", workload, "--users", str(users),
            "--seed", str(seed), "--trace", "1" if trace else "0"]
    if trace:
        args += ["--spans", os.path.join(
            build_dir(), f"spans-{workload}-seed{seed}.jsonl")]
    t0 = time.monotonic_ns()
    proc = subprocess.run(args + ["--t0-ns", str(t0)], capture_output=True,
                          text=True, timeout=ITERATION_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(proc.stderr)
        log(f"perfbench: {workload} exited with {proc.returncode}")
        sys.exit(1)
    r = json.loads(lines[-1])
    run_s = r["run_ns"] / 1e9
    failed = r["attempted"] - r["completed"]
    if not all(r["checks"].values()):
        failed = r["attempted"]  # a failed output check voids every request
    r["failed"] = failed
    r["metrics"] = {
        "requests_per_s": r["completed"] / run_s,
        "events_per_s": r["events"] / run_s,
        "setup_s": r["setup_ns"] / 1e9,
        "wall_s": r["wall_ns"] / 1e9,
        "peak_rss_mib": r["peak_rss_kib"] / 1024,
        "failed_pct": 100.0 * failed / r["attempted"],
    }
    return r


def aggregates(r):
    return {k: r[k] for k in ("events", "packets", "bytes", "virtual_us")}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_host(r, workload):
    h = r["host"]
    print(f"host: {h['hardware_concurrency']} cores, cpu {h['cpu']}, "
          f"build {h['build_type']}, compiler {h['compiler']}")
    if workload == "wire-s4" and h["hardware_concurrency"] < SHARDS[workload]:
        print("note: fewer cores than shards; wire-s4 measures the sharding "
              "machinery, not parallelism")


def layer_table(workload, layers, quiet=False):
    """Per-layer self times; they and the residual add up to the total.
    Prints the table unless `quiet`; returns whether the sum matches."""
    total = layers["layers.total_ns"]
    rows = [("net (engine, queue, send planning)", layers["net.self_ns"])]
    for role in ROLES:
        key = f"systems.{role}.self_ns"
        if key in layers:
            rows.append((f"systems.{role}", layers[key]))
    for key, label in (("systems.issue_ns", "systems.issue (client calls)"),
                       ("flow.record_ns", "obs.flow (ledger + monitor)"),
                       ("shard.barrier_ns", "shard barrier wait")):
        if key in layers:
            rows.append((label, layers[key]))
    rows.append(("unattributed residual", layers["layers.residual_ns"]))
    summed = sum(ns for _, ns in rows)
    matches = abs(summed - total) <= 1e-6 * max(total, 1.0)
    if quiet:
        return matches
    basis = "run() wall" if SHARDS[workload] == 1 else \
        f"run() wall x {SHARDS[workload]} worker threads"
    print(f"per-layer self time, {workload} (share of {basis}):")
    for label, ns in rows:
        print(f"  {label:<38} {ns / 1e6:12.3f} ms {100 * ns / total:7.2f} %")
    print(f"  {'sum':<38} {summed / 1e6:12.3f} ms")
    print(f"  {'total':<38} {total / 1e6:12.3f} ms")
    inside = [("net.send (inside handlers)", layers.get("net.send_ns", 0)),
              ("crypto seal (est.)", layers.get("crypto.seal.est_ns", 0)),
              ("crypto open (est.)", layers.get("crypto.open.est_ns", 0)),
              ("wire framing (est.)", layers.get("wire.frame.est_ns", 0))]
    for label, ns in inside:
        if ns:
            print(f"    of which {label:<29} {ns / 1e6:12.3f} ms")
    return matches


def summarize(results, names):
    out = {}
    for name in names:
        values = [r[name] for r in results]
        q1, med, q3 = quartiles(values)
        out[name] = (med, q1, q3)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(USERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--users", type=int, default=0,
                    help="override the population (self-test only)")
    a = ap.parse_args()
    users = a.users or USERS[a.workload]

    binary = build()
    checks = {}
    untraced, traced, serial, calibrations = [], [], [], []
    start = time.monotonic()
    while True:
        if a.trace:
            calibrations.append(calibrate(binary))
            traced.append(run_once(binary, a.workload, a.seed, users, True))
        calibrations.append(calibrate(binary))
        untraced.append(run_once(binary, a.workload, a.seed, users, False))
        done = time.monotonic() - start >= a.seconds
        if done and (a.trace or len(untraced) >= MIN_ITERATIONS):
            break
    calibrations.append(calibrate(binary))
    if a.trace and a.workload == "wire-s4":
        serial.append(run_once(binary, "wire", a.seed, users, False))

    runs = untraced + traced + serial
    for r in runs:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    agg = aggregates(untraced[0])
    checks["deterministic_aggregates"] = all(aggregates(r) == agg for r in untraced)
    if traced:
        checks["traced_equals_untraced"] = all(aggregates(r) == agg for r in traced)
    if serial:
        checks["sharded_equals_serial"] = aggregates(serial[0]) == agg
    checks["calibration_deterministic"] = len({c for _, c in calibrations}) == 1
    calibration_s = statistics.median(s for s, _ in calibrations)
    scale = REFERENCE_CALIBRATION_S / calibration_s

    print_host(untraced[0], a.workload)
    print(f"workload {a.workload}: {users} users, seed {a.seed}, "
          f"{len(untraced)} untraced / {len(traced)} traced iterations")
    print("aggregates: " + json.dumps(agg, sort_keys=True))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    e2e = summarize([r["metrics"] for r in untraced],
                    list(END_TO_END) + ["failed_pct"])
    print(f"calibration: median {calibration_s:.6g} s over {len(calibrations)}, "
          f"reference {REFERENCE_CALIBRATION_S} s; host times x {scale:.4f}, "
          f"rates / {scale:.4f}")
    for name, (med, q1, q3) in e2e.items():
        unit = END_TO_END.get(name, "%")
        if unit == "s":
            factor = scale
        elif unit == "1/s":
            factor = 1 / scale
        else:
            factor = 1
        e2e[name] = (med * factor, q1 * factor, q3 * factor)
        print(f"  {name:<16} median {med * factor:14.6g} {unit:<4} "
              f"(unscaled {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(untraced)})")

    metrics = {}
    if not a.trace:
        metrics = {n: {"value": e2e[n][0], "unit": u}
                   for n, u in END_TO_END.items()}
    else:
        layer_names = sorted({k for r in traced for k in r["layers"]})
        layers = {k: statistics.median(r["layers"].get(k, 0) for r in traced)
                  for k in layer_names}
        traced_eps = statistics.median(r["metrics"]["events_per_s"] for r in traced)
        untraced_eps = statistics.median(r["metrics"]["events_per_s"]
                                         for r in untraced)
        layers["trace.overhead_pct"] = 100 * (untraced_eps - traced_eps) / untraced_eps
        print(f"tracing overhead: events_per_s {untraced_eps:.6g} untraced, "
              f"{traced_eps:.6g} traced ({layers['trace.overhead_pct']:.2f} %)")
        if serial:
            serial_npe = serial[0]["run_ns"] / serial[0]["events"]
            layers["shard.parallel_efficiency"] = \
                serial_npe / layers["shard.busy_ns_per_event.max"]
        checks["layers_sum_to_total"] = all(layer_table(a.workload, r["layers"],
                                                        quiet=True)
                                            for r in traced)
        by_total = sorted(traced, key=lambda r: r["layers"]["layers.total_ns"])
        layer_table(a.workload, by_total[len(by_total) // 2]["layers"])
        for name in PER_LAYER:
            if name in layers:
                goal = next((v for k, v in LAYER_MAP.items()
                             if name == k or (k.endswith("*")
                                              and name.startswith(k[:-1]))), "")
                print(f"  {name:<34} {layers[name]:16.6g} "
                      f"{per_layer_unit(name):<6} moves: {goal}")
        # Every per-layer name is present; those the workload has no such
        # layer for (shard.* off wire-s4, other workloads' roles) read 0.
        metrics = {n: {"value": layers.get(n, 0.0), "unit": per_layer_unit(n)}
                   for n in PER_LAYER}

    for name, ok in sorted(checks.items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    correct = all(checks.values()) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
