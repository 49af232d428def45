#!/usr/bin/env python3
"""Check (or refresh) the committed quick-mode goldens in results/quick/.

Every harness binary is deterministic in quick mode apart from wall-clock
fields, so CI can rerun the whole sweep and diff the outputs byte-for-byte
after scrubbing the volatile keys. A mismatch means a code change silently
altered published numbers without regenerating the goldens.

Usage:
    python3 scripts/goldens_freshness.py           # verify (CI mode)
    python3 scripts/goldens_freshness.py --update  # refresh results/quick/

Run from the workspace root. Builds happen through cargo, so the first run
compiles the bench crate in release mode.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Every harness binary; each writes results/<experiment>.json on its own.
BINS = [
    "ablate_buffers",
    "ablate_cp_granularity",
    "ablate_faults",
    "ablate_fig13_model2",
    "ablate_frfcfs",
    "ablate_memports",
    "ablate_model2",
    "ablate_routing",
    "ablate_row_size",
    "ablate_tp",
    "ablate_tr",
    "collectives",
    "crosscheck_fig13",
    "crosscheck_models",
    "fig11_efficiency",
    "fig13_scaling",
    "fig5_energy",
    "full_matrix",
    "perf_mesh",
    "run_batch",
    "table1",
    "table2",
    "table3_transpose",
]

# Any JSON key containing one of these substrings is wall-clock-dependent
# and excluded from both the goldens and the comparison.
VOLATILE = ("wall", "per_s", "speedup")

GOLDEN_DIR = Path("results/quick")


def scrub(obj):
    """Strip volatile keys recursively."""
    if isinstance(obj, dict):
        return {
            k: scrub(v)
            for k, v in obj.items()
            if not any(t in k for t in VOLATILE)
        }
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


def run_sweep(out_dir: Path) -> None:
    env = dict(os.environ, PSYNC_RESULTS_DIR=str(out_dir))
    for b in BINS:
        print(f"goldens-freshness: running {b} --quick", flush=True)
        subprocess.run(
            ["cargo", "run", "--release", "-q", "-p", "bench", "--bin", b, "--", "--quick"],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )


def main() -> int:
    update = "--update" in sys.argv[1:]
    with tempfile.TemporaryDirectory(prefix="goldens_") as tmp:
        fresh_dir = Path(tmp)
        run_sweep(fresh_dir)
        fresh = {p.name: scrub(json.loads(p.read_text())) for p in sorted(fresh_dir.glob("*.json"))}

    if update:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for name, data in fresh.items():
            (GOLDEN_DIR / name).write_text(json.dumps(data, indent=2) + "\n")
        print(f"updated {len(fresh)} goldens in {GOLDEN_DIR}/")
        return 0

    failures = []
    for name, data in fresh.items():
        golden_path = GOLDEN_DIR / name
        if not golden_path.exists():
            failures.append(f"{name}: no committed golden ({golden_path})")
            continue
        golden = json.loads(golden_path.read_text())
        if golden != data:
            failures.append(f"{name}: drifted from {golden_path}")
    for name in {p.name for p in GOLDEN_DIR.glob("*.json")} - set(fresh):
        failures.append(f"{name}: committed golden has no producing binary")

    if failures:
        print("STALE GOLDENS — rerun `python3 scripts/goldens_freshness.py --update`:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"all {len(fresh)} quick goldens fresh")
    return 0


if __name__ == "__main__":
    sys.exit(main())
