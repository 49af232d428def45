#!/usr/bin/env python3
"""Build and run the P-sync host-time benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload transpose --seed 1 --seconds 15 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
or `.bench_build` when that is unset, then runs the workload in a fresh
process. The last line of standard output is the JSON result. With
`--trace 1` the Chrome trace lands in `<target dir>/perfbench-traces/`.
Exits nonzero, without a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("transpose", "fft2d", "collectives", "service")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or here.parent / ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(here / "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run(
        [str(target / "release" / "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--trace-dir", str(target / "perfbench-traces")],
        env=env, check=False,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
