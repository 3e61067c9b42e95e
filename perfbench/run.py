#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <serve|gray|mill|kcache> --seed <n> \
        [--seconds <1..60, default 20>] [--trace <0|1>]

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`). Every line the benchmark prints is passed on;
the last one is the JSON result, checked here against the metric names
and units in BENCHMARK.json. The exit code is the benchmark's: 2 for bad
input, 1 for a failed correctness check or a failed build.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# A run of at most 60 measured seconds ends well within this.
TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def output_of(cmd):
    """First line a command prints, or 'unavailable'."""
    try:
        # Stop git at the repository root: a checkout that is not a git
        # repository must not report the revision of one around it.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
        line = out.stdout.strip().splitlines()
        return line[0] if out.returncode == 0 and line else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"


def expected_metrics(trace):
    """Metric name -> unit from BENCHMARK.json, for the traced or the
    untraced run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line[:200]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if not result["correct"]:
        return
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")


def main():
    argv = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    env = dict(
        os.environ,
        PERFBENCH_RUSTC=output_of(["rustc", "--version"]),
        PERFBENCH_GIT_REV=output_of(["git", "rev-parse", "HEAD"]),
    )
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench")] + argv,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = run.stdout.splitlines()
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        sys.exit(run.returncode)
    if not lines:
        fail("benchmark printed nothing")
    print("\n".join(lines[:-1]))
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")), None)
    if meta is None:
        fail("benchmark printed no meta line")
    check_result(lines[-1], meta["trace"] == 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
