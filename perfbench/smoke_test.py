#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, both passes.

Usage, from the root of a checkout:

    python3 perfbench/smoke_test.py

For each workload in BENCHMARK.json it runs perfbench/run.py --tiny with
--trace 0 and --trace 1 and checks that:
  * the run exits 0 and its last stdout line is the JSON result, with
    correct = true and failed = 0;
  * the JSON carries exactly the end-to-end (--trace 0) or per-layer
    (--trace 1) metrics BENCHMARK.json names, each with its unit;
  * the report prints every metric with its unit, error_rate = 0, and on
    the paper sweeps the accuracy readout (model.*).
Exits 1 on the first failed check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LINE = re.compile(r"^  (\S+) = (\S+) (\S+)$")


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def run(workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--tiny"]
    result = subprocess.run(command, capture_output=True, text=True,
                            cwd=ROOT, timeout=900)
    check(result.returncode == 0,
          f"{workload} --trace {trace} exited {result.returncode}:\n"
          f"{result.stderr[-2000:]}")
    return result.stdout.strip().splitlines()


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            where = f"{workload} --trace {trace}"
            lines = run(workload, trace)
            result = json.loads(lines[-1])
            check(result["correct"] is True and result["failed"] == 0,
                  f"{where}: correct={result['correct']} failed={result['failed']}")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            units = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == units, f"{where}: JSON metrics {got} != {units}")

            printed = {}
            for line in lines[:-1]:
                match = LINE.match(line)
                if match:
                    printed[match.group(1)] = (match.group(2), match.group(3))
            for name, unit in units.items():
                check(printed.get(name, (None, None))[1] == unit,
                      f"{where}: report lacks '{name} = <value> {unit}'")
            check(printed.get("error_rate") == ("0", "fraction"),
                  f"{where}: error_rate is {printed.get('error_rate')}")
            if workload.startswith("paper-"):
                for name in ("model.coa_sat_load", "model.wfa_sat_load"):
                    check(printed.get(name, (None, None))[1] == "load",
                          f"{where}: report lacks {name}")
                check(any(k.startswith("model.flits_delivered[") and
                          v[1] == "flits" for k, v in printed.items()),
                      f"{where}: report lacks model.flits_delivered")
            print(f"ok   {where}: {len(units)} metrics, "
                  f"{result['attempted']} runs")
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()
