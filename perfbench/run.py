#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload stream|sync|durable|verify \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is a cargo package of its own
(`perfbench/`) built against the repository's crates by path, into
`$CARGO_TARGET_DIR` (default `.bench_build`). Standard output ends with
one JSON object: the correctness verdict, attempted and failed operation
counts, and the metrics with their units. The lines before it carry the
sample counts and the host fingerprint. The exit code is non-zero when
the build fails, the run fails, or an output is wrong.
"""

import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
# Room beyond `--seconds` for set-up, the last iteration, which may
# start just before time is up, and a traced run's extra measurements.
RUN_MARGIN_S = 130


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(argv):
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv[:-1] else None
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "cpu": cpu_model(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": command_output(["git", "-C", ROOT, "rev-parse", "HEAD"]) or "unknown",
        "seed": seed,
    }


def run_timeout(argv):
    """The run's own time plus the margin. A malformed `--seconds` is
    left for perfbench to report; its default is 10."""
    try:
        seconds = float(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 10
    return seconds + RUN_MARGIN_S


def main(argv):
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join("perfbench", "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    if "verify" in argv:
        # `verify` is sequential work (one runnable simulator thread at a
        # time, one explorer worker, one checker). On one CPU its thread
        # hand-offs stay on one core; across two, cross-core wake-ups
        # made its timings bimodal from run to run.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        run = subprocess.run([exe] + argv, stdout=subprocess.PIPE, text=True,
                             timeout=run_timeout(argv))
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run did not finish: {e}", file=sys.stderr)
        return 2
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("perfbench: the run printed no result", file=sys.stderr)
        sys.stderr.write(run.stdout)
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": fingerprint(argv)}))
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
