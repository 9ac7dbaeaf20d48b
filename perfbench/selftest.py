#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

Run from the repository root. Asserts that each workload, untraced and
traced, prints every metric `BENCHMARK.json` names with its unit and a
sample count, and that each planted wrong output (a misreported final
value, a checker that accepts every history, a peer write reported as
never applied) makes the run exit non-zero with `"correct": false`.
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=600)
    lines = out.stdout.splitlines()
    assert lines, f"{cmd}: no output"
    return out.returncode, [json.loads(l) for l in lines]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    # `durable` and `verify` are runnable but not listed in BENCHMARK.json
    # (see README).
    listed = [w["name"] for w in bench["workloads"]]
    for w in listed + [w for w in ("durable", "verify") if w not in listed]:
        for trace in (0, 1):
            code, objs = run(w, trace)
            result, report = objs[-1], objs[0]["perfbench"]
            label = f"{w} --trace {trace}"
            assert code == 0 and result["correct"], f"{label}: {report['problems']}"
            assert result["attempted"] >= 1 and result["failed"] == 0, label
            want = {m["name"]: m["unit"] for m in expected[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{label}: metrics differ: {set(got) ^ set(want)}"
            assert set(report["samples"]) == set(want), f"{label}: sample counts missing"
            assert "host" in objs[-2], f"{label}: no host fingerprint"
            print(f"ok   {label}: {len(got)} metrics")
    # Each planted fault must be reported by the check that exists for it.
    for workload, inject, check in [("stream", "final-value", "last write was"),
                                    ("durable", "final-value", "last write was"),
                                    ("stream", "pending", "never applied"),
                                    ("sync", "pending", "never applied"),
                                    ("sync", "accept-all", "stale-read mutant"),
                                    ("verify", "accept-all", "stale-read mutant")]:
        code, objs = run(workload, 0, "--inject", inject)
        problems = objs[0]["perfbench"]["problems"]
        assert code != 0 and not objs[-1]["correct"], f"{workload}: {inject} went unnoticed"
        assert any(check in p for p in problems), f"{workload}: {inject}: {problems}"
        print(f"ok   {workload} --inject {inject}: rejected ({len(problems)} problems)")
    print("selftest passed")


if __name__ == "__main__":
    main()
