#!/usr/bin/env python3
"""Self-test of the benchmark harness. Run from the root of a checkout:

    python3 hwbench/selftest.py

1. At a tiny size (1 s), every workload prints, with --trace 0, every
   end-to-end metric of BENCHMARK.json with its unit, and with --trace 1
   every per-layer metric, passes its oracles and fails nothing.
2. With the router's transmit fault plane armed to drop frames, the
   failure count rises and the run is not correct: a broken router
   cannot pass silently.
3. Reports whether the router defect that holds `stream` at 512 flows
   is still there: at 2048 flows the 1 s flow-stats reply outgrows
   OpenFlow's 16-bit length and the controller drops the channel. This
   one is a report, not a check: when it says the defect is gone,
   `stream` can grow to the ~2k flows it is meant to hold.

Exits 0 when every check holds.
"""
import json
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, extra=()):
    cmd = [sys.executable, "hwbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(lines[-1]), p.stderr


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, err = run(name, trace)
            check(set(result) == RESULT_KEYS, f"{name} trace={trace}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={trace}: correct, {result['failed']} of {result['attempted']} failed")
            if not result["correct"]:
                print(err[-1500:])
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[group]}
            missing = sorted(set(expected) - set(metrics))
            extra = sorted(set(metrics) - set(expected))
            check(not missing and not extra,
                  f"{name} trace={trace}: metric names (missing {missing}, extra {extra})")
            wrong_units = [k for k, u in expected.items()
                           if k in metrics and metrics[k].get("unit") != u]
            check(not wrong_units, f"{name} trace={trace}: units {wrong_units}")
            if trace == 0:
                zero = [k for k in expected if k in metrics and not metrics[k]["value"] > 0]
                check(not zero, f"{name}: end-to-end metrics above zero ({zero})")

    for w in spec["workloads"]:
        name = w["name"]
        result, _ = run(name, 0, ("--inject-tx-drop", "0.05"))
        check(result["failed"] > 0 and not result["correct"],
              f"{name}: 5% transmit drop is caught ({result['failed']} failed)")

    result, err = run("stream", 0, ("--stream-flows", "2048"))
    if result["correct"]:
        print("note stream at 2048 flows runs correctly: the flow-stats defect is gone, "
              "grow stream_flows in hwbench/workloads.ml")
    else:
        drops = [line for line in err.splitlines() if "channel dropped" in line]
        print("known stream at 2048 flows fails (" + str(result["failed"]) + " failed): "
              + ("controller channel dropped" if drops else "see the details line"))

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
