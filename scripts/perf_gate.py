#!/usr/bin/env python3
"""Gate CI on simulator throughput: compare a fresh `perf_mesh --quick` run
against the committed baseline and fail on a >15% cycles/sec regression.

Usage:
    python3 scripts/perf_gate.py <fresh_perf_mesh.json> [<baseline.json>]
                                 [--summary-out <path>]

The baseline defaults to ci/perf_baseline.json. Rows are matched on
(policy, threads); fresh rows absent from the baseline are ignored, so
adding a thread count to the sweep never breaks the gate. The converse is a
named failure: a baseline row that the fresh run no longer produces means a
measurement silently disappeared from the sweep. That check is scoped per
namespace — the policy prefix before ":" ("crosscheck:...", "collective:...")
or "perf" for plain throughput rows — and namespaces gate independently, so
a single-family fresh file is never failed for lacking the others. The
tolerance can be overridden with PERF_GATE_TOLERANCE (a fraction, default
0.15).

--summary-out writes a machine-readable verdict (status, per-row ratios,
every failure string) for CI artifact upload; it is written on failure too.

To accept an intentional slowdown (or record a faster scheduler), refresh
the baseline:

    PSYNC_RESULTS_DIR=/tmp/perf cargo run --release -p bench --bin perf_mesh -- --quick
    cp /tmp/perf/perf_mesh.json ci/perf_baseline.json
"""

import json
import os
import sys
from pathlib import Path


def rows_by_key(path: Path):
    rows = json.loads(path.read_text())
    return {(r["policy"], r["threads"]): r for r in rows}


def namespace(policy: str) -> str:
    """The gating namespace a row belongs to: the prefix before ":" for
    labelled rows ("crosscheck:...", "collective:..."), "perf" for plain
    throughput rows. Namespaces are checked for completeness independently,
    so a single-family fresh file is never failed for lacking the others."""
    prefix, sep, _ = policy.partition(":")
    return prefix if sep else "perf"


def parse_args(argv):
    summary_out = None
    positional = []
    it = iter(argv)
    for a in it:
        if a == "--summary-out":
            summary_out = Path(next(it, "") or sys.exit("--summary-out needs a path"))
        elif a.startswith("--summary-out="):
            summary_out = Path(a.split("=", 1)[1])
        else:
            positional.append(a)
    return positional, summary_out


def main() -> int:
    positional, summary_out = parse_args(sys.argv[1:])
    if not positional:
        print(__doc__)
        return 2
    fresh_path = Path(positional[0])
    base_path = Path(positional[1]) if len(positional) > 1 else Path("ci/perf_baseline.json")
    tol = float(os.environ.get("PERF_GATE_TOLERANCE", "0.15"))

    fresh = rows_by_key(fresh_path)
    base = rows_by_key(base_path)
    shared = sorted(set(fresh) & set(base))
    row_reports = []
    failures = []

    # Completeness, per namespace actually measured by the fresh run: a
    # baseline row the sweep no longer produces must fail by name, not
    # silently shrink the intersection.
    fresh_namespaces = {namespace(policy) for (policy, _) in fresh}
    for key in sorted(set(base) - set(fresh)):
        ns = namespace(key[0])
        if ns in fresh_namespaces:
            failures.append(
                f"{key}: baseline row missing from {fresh_path} "
                "(a measurement disappeared from the sweep; refresh "
                "ci/perf_baseline.json if that was intentional)"
            )
        else:
            print(f"perf-gate: {key}: SKIP ({ns} namespace not in fresh results)")

    if not shared and not failures:
        print(f"perf-gate: no (policy, threads) rows shared between {fresh_path} and {base_path}")
        write_summary(summary_out, "fail", tol, row_reports, ["no shared rows"])
        return 1

    for key in shared:
        f, b = fresh[key], base[key]
        report = {"policy": key[0], "threads": key[1], "cycles": f["cycles"]}
        row_reports.append(report)
        if f["cycles"] != b["cycles"]:
            report["verdict"] = "cycles-drift"
            failures.append(
                f"{key}: simulated cycles changed {b['cycles']} -> {f['cycles']} "
                "(the workload itself drifted; this gate only expects wall-clock noise)"
            )
            continue
        if b["cycles_per_s"] <= 0:
            # A zero-cycle row (e.g. a conformance witness of a quantity
            # that is exactly 0) has no throughput to gate; the cycles
            # equality above already pinned it.
            print(f"perf-gate: {key}: zero-cycle row, equality-only")
            report["verdict"] = "equality-only"
            continue
        ratio = f["cycles_per_s"] / b["cycles_per_s"]
        verdict = "FAIL" if ratio < 1.0 - tol else "ok"
        report["throughput_ratio"] = ratio
        report["verdict"] = verdict
        print(
            f"perf-gate: {key}: {b['cycles_per_s']:.3e} -> {f['cycles_per_s']:.3e} "
            f"cycles/s ({ratio:.2f}x) {verdict}"
        )
        if verdict == "FAIL":
            failures.append(f"{key}: throughput regressed to {ratio:.2f}x of baseline")

    if failures:
        print(f"perf-gate: FAILED (tolerance {tol:.0%}):")
        for f in failures:
            print(f"  {f}")
        write_summary(summary_out, "fail", tol, row_reports, failures)
        return 1
    print(f"perf-gate: {len(shared)} rows within {tol:.0%} of baseline")
    write_summary(summary_out, "pass", tol, row_reports, [])
    return 0


def write_summary(path, status, tol, rows, failures):
    """Publish the machine-readable verdict for artifact upload."""
    if path is None:
        return
    summary = {
        "status": status,
        "tolerance": tol,
        "rows_compared": len(rows),
        "rows": rows,
        "failures": failures,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"perf-gate: summary written to {path}")


if __name__ == "__main__":
    sys.exit(main())
