#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

For every workload, untraced and traced: the run exits 0 and its last stdout
line matches the result schema and the metric lists of BENCHMARK.json.  With
``--corrupt-oracle`` every workload must fail (nonzero exit, ``correct`` false).
A copy of the benchmark without the library sources must exit nonzero
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rates", "mc_tail", "mc_exit")


def run(args, cwd=ROOT):
    argv = [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_schema(res, declared, what):
    problems = []
    if res.returncode != 0:
        return [f"{what}: exit code {res.returncode}: {res.stderr[-800:]}"]
    out = last_json(res.stdout)
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(out)}")
    if out.get("correct") is not True or out.get("failed") != 0:
        problems.append(f"{what}: correct={out.get('correct')} failed={out.get('failed')}")
    if not (isinstance(out.get("attempted"), int) and out["attempted"] >= 1):
        problems.append(f"{what}: attempted={out.get('attempted')!r}")
    metrics = out.get("metrics", {})
    if list(metrics) != list(declared):
        problems.append(f"{what}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"{what}: metric {name} is {m!r}")
        elif name in declared and m["unit"] != declared[name]:
            problems.append(f"{what}: unit of {name} is {m['unit']}, declared {declared[name]}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from the benchmark's")
        return 1
    problems = []
    for w in WORKLOADS:
        problems += check_schema(run(["--workload", w, "--trace", "0", "--tiny"]), e2e, f"{w} trace 0")
        problems += check_schema(run(["--workload", w, "--trace", "1", "--tiny"]), per_layer, f"{w} trace 1")
        res = run(["--workload", w, "--trace", "0", "--tiny", "--corrupt-oracle"])
        out = last_json(res.stdout)
        if res.returncode == 0 or out is None or out["correct"] or out["failed"] < 1:
            problems.append(f"{w}: a corrupted oracle did not fail the run")
    bare = HERE / ".work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "bench")
    res = run(["--workload", "rates", "--trace", "0"], cwd=bare)
    if res.returncode == 0 or res.stdout.strip():
        problems.append("a checkout without the library did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("smoke check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
