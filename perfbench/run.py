#!/usr/bin/env python3
"""Build and run the musuite benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: hdsearch_knn, router_ycsb_a, setalgebra_pollers_batched.
`--trace 0` is the timed run and prints the end-to-end metrics; `--trace 1`
is the traced run and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. The exit code is 0 only for a correct run.

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the crates under crates/. It builds into $CARGO_TARGET_DIR,
or .bench_build at the checkout root when that is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary stops itself after 170 s; this bound only catches a hang in
# process start-up or exit.
RUN_TIMEOUT_S = 175


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: crates/ not found next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else None
    if trace not in ("0", "1"):
        print("perfbench: --trace must be 0 or 1", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = "perfbench-traced" if trace == "1" else "perfbench"
    try:
        run = subprocess.run([os.path.join(target, "release", binary)] + args,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
