#!/usr/bin/env python3
"""Self-test of the dcprof benchmark.

    python3 dcbench/selftest.py [WORKLOAD...]

For each workload (default: all of them) makes one untraced and one traced
run of dcbench/run.py and checks that:
  - the result line has exactly the keys correct/attempted/failed/metrics,
    every check passed, and at least one op ran;
  - every metric BENCHMARK.json names for that mode is emitted with its
    unit and a finite value; end-to-end metrics are never 0, and neither
    is any layer metric the workload exercises (APPLIES below);
  - the .dcpf digests of the two runs match.
Exits 0 when every check holds.
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SECONDS = "1"

SIM_COUNTS = ["sim.accesses", "sim.l1_hits", "sim.l2_hits", "sim.l3_hits",
              "sim.dram_local", "sim.dram_remote", "sim.tlb_misses"]
MEASURE = ["workloads.construct_s", "workloads.run_s", "sim.self_s",
           "sim.ns_per_access", "sim.unprofiled_s", "sim.instructions",
           "sim.dram_wait_cycles", "pmu.observe_s", "pmu.events",
           "pmu.samples", "pmu.ns_per_event", "core.sample_s",
           "core.ns_per_sample", "core.memo_hit_frac", "core.write_s",
           "core.write_bytes", "core.dilation_frac", "analysis.dir_s",
           "obs.unattributed_frac"] + SIM_COUNTS
# Layer metrics that must be non-zero on each workload.
APPLIES = {
    "measure": MEASURE + ["core.varmap_mru_hit_frac"],
    "measure-sockets": MEASURE + [
        "core.deferred_attr_s", "core.quiescent_drain_s",
        "rt.sharded.epochs", "rt.sharded.deferred",
        "rt.sharded.barrier_wait_s"],
}
DIGESTS = ("dcpf_digest",)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None, None, "exit code %d" % proc.returncode
    return json.loads(lines[-2])["context"], json.loads(lines[-1]), None


def check(workload, spec):
    errors = []
    contexts = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        ctx, result, err = run(workload, trace)
        tag = "%s --trace %d" % (workload, trace)
        if err:
            errors.append("%s: %s" % (tag, err))
            continue
        contexts.append(ctx)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append("%s: result keys %s" % (tag, sorted(result)))
        if not result["correct"] or result["failed"] != 0:
            errors.append("%s: checks failed: %s" % (tag, ctx["failures"]))
        if result["attempted"] < 1:
            errors.append("%s: no op attempted" % tag)
        metrics = result["metrics"]
        for m in spec[key]:
            got = metrics.get(m["name"])
            if got is None:
                errors.append("%s: %s missing" % (tag, m["name"]))
                continue
            if got.get("unit") != m["unit"]:
                errors.append("%s: %s unit %r, want %r"
                              % (tag, m["name"], got.get("unit"), m["unit"]))
            value = got.get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                errors.append("%s: %s not finite: %r"
                              % (tag, m["name"], value))
                continue
            must_be_set = trace == 0 or m["name"] in APPLIES[workload]
            if must_be_set and value == 0:
                errors.append("%s: %s is 0" % (tag, m["name"]))
        extra = set(metrics) - {m["name"] for m in spec[key]}
        if extra:
            errors.append("%s: unlisted metrics %s" % (tag, sorted(extra)))
    if len(contexts) == 2:
        for d in DIGESTS:
            if contexts[0].get(d) != contexts[1].get(d):
                errors.append("%s: %s differs between runs" % (workload, d))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    wanted = sys.argv[1:] or names
    failed = False
    for w in wanted:
        if w not in names:
            print("unknown workload %s" % w)
            return 2
        errors = check(w, spec)
        print("%-16s %s" % (w, "ok" if not errors else "FAILED"))
        for e in errors:
            print("  " + e)
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
